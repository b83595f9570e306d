#!/usr/bin/env python3
"""Self-test for tools/pdpreport.py (stdlib unittest only).

perf: the gate's failure modes, namely regressions, absolute floors and
missing rows, and the loud failures for inputs that could slip through
silently (zero, negative or non-finite baseline ratios, unreadable or
invalid JSON files).

check, render and diff: one verdict per artifact kind on BENCH, TRACE
and FLIGHT fixtures, and malformed input that exits 1 with a single
"error: PATH: REASON" line instead of a traceback.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pdpreport  # noqa: E402

JOB = "service/t2c0/PDP-3"


def job(key, **metrics):
    return {"key": key, "seed": 1, "status": "ok", "metrics": metrics}


def bench(*jobs, schema="pdp-bench-results/v2"):
    return {"schema": schema, "experiment": "hotpath",
            "job_count": len(jobs), "jobs": list(jobs)}


def telemetry_job(key="fig10/450.soplex/PDP-3"):
    epochs = [{"epoch": i, "access": 1000 * (i + 1), "accesses": 900,
               "hits": 300 + 90 * i, "misses": 600 - 90 * i,
               "bypasses": 50, "hit_rate": (300 + 90 * i) / 900,
               "policy": {"pd": 64 + 16 * i}} for i in range(3)]
    return {"key": key, "seed": 1, "status": "ok",
            "telemetry": {"interval": 1000, "epochs": epochs,
                          "events": [{"type": "pd_change", "access": 2000,
                                      "fields": {"pd": 80}}],
                          "events_dropped": 0}}


def tenant(name, slot, drift=0.05):
    return {"name": name, "slot": slot, "requests": 100, "hit_rate": 0.5,
            "p99_miss_cycles": 300, "mean_quota": 0.5,
            "mean_occupancy": 0.45, "occupancy_drift": drift,
            "slo_hit_rate_met": True, "slo_latency_met": False}


def service_job(key=JOB, drift=0.05):
    return {"key": key, "seed": 1, "status": "ok",
            "service": {"policy": "PDP-3", "tenant_aware": True,
                        "joins": 2, "leaves": 0, "reallocs": 2,
                        "aggregate_hit_rate": 0.5,
                        "tenants": [tenant("svc00", 0),
                                    tenant("svc01", 1, drift)]}}


def span(stage, span_id, parent, trace_id=0x1234, job_key=JOB, **fields):
    values = {"trace_id": trace_id, "span_id": span_id, "parent": parent,
              "tenant": 1, "slot": 1, "request": 7, "cycles_begin": 100,
              "cycles_end": 160}
    values.update(fields)
    return {"job": job_key, "type": "span:" + stage, "access": 42,
            "fields": values}


def request(trace_id=0x1234, path=("l2_miss", "llc_probe", "llc_hit"),
            job_key=JOB):
    """One sampled request: its span:arrival root plus one stage path."""
    root = span("arrival", trace_id + 1, 0, trace_id, job_key)
    return [root] + [span(stage, trace_id + 2 + i, trace_id + 1, trace_id,
                          job_key) for i, stage in enumerate(path)]


def burn(kind, tenant_id=1, access=500, rate=4.0):
    return {"job": JOB, "type": kind, "access": access,
            "fields": {"tenant": tenant_id, "slot": tenant_id,
                       "burn_rate": rate, "violations": 1, "window": 1}}


def trace(*events):
    return [{"schema": "pdp-bench-trace/v1", "experiment": "service"},
            *events]


def flight(**changes):
    doc = {"schema": "pdp-flight/v1", "job": JOB, "reason": "check_failure",
           "events_dropped": 3, "events": request(),
           "open_spans": [{"trace_id": 0x99, "span_id": 0x9a, "tenant": 1,
                           "slot": 1, "request": 8, "access": 999,
                           "cycles_begin": 10}]}
    doc.update(changes)
    return doc


class ReportTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, payload):
        """A str is written as is, a list as JSON lines, else as JSON."""
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            elif isinstance(payload, list):
                fh.writelines(json.dumps(line) + "\n" for line in payload)
            else:
                json.dump(payload, fh, indent=1)
        return path

    def run_tool(self, *argv):
        """(exit status, stdout, stderr) of one pdpreport call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = pdpreport.main(list(argv))
        return status, out.getvalue(), err.getvalue()

    def assert_one_error(self, path, *argv):
        """The call exits 1 with one "error: PATH: ..." line."""
        status, _, err = self.run_tool(*argv)
        self.assertEqual(status, 1)
        self.assertEqual(len(err.splitlines()), 1, err)
        self.assertTrue(err.startswith(f"error: {path}: "), err)
        return err


class PerfTest(ReportTest):
    def run_gate(self, current, baseline, *extra):
        cur = self.write("current.json", current)
        base = self.write("baseline.json", baseline)
        return self.run_tool("perf", cur, base, *extra)[0]

    def test_passes_when_current_matches_baseline(self):
        d = bench(job("hotpath/llc/LRU", vs_aos=2.5),
                  job("hotpath/sweep/SPDP-B-grid", sweep_speedup=6.0))
        self.assertEqual(self.run_gate(d, d), 0)

    def test_regression_beyond_budget_fails(self):
        base = bench(job("hotpath/llc/LRU", vs_aos=4.0))
        cur = bench(job("hotpath/llc/LRU", vs_aos=2.9))  # -27.5% > 25%
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_regression_within_budget_passes(self):
        base = bench(job("hotpath/llc/LRU", vs_aos=4.0))
        cur = bench(job("hotpath/llc/LRU", vs_aos=3.2))  # -20% <= 25%
        self.assertEqual(self.run_gate(cur, base), 0)

    def test_lru_absolute_floor(self):
        # Within the regression budget but below the 2.0x substrate bar.
        base = bench(job("hotpath/llc/LRU", vs_aos=2.2))
        cur = bench(job("hotpath/llc/LRU", vs_aos=1.9))
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_sweep_absolute_floor(self):
        base = bench(job("hotpath/sweep/SPDP-B-grid", sweep_speedup=5.0))
        cur = bench(job("hotpath/sweep/SPDP-B-grid", sweep_speedup=3.9))
        self.assertEqual(self.run_gate(cur, base), 1)
        cur_ok = bench(job("hotpath/sweep/SPDP-B-grid", sweep_speedup=4.2))
        self.assertEqual(self.run_gate(cur_ok, base), 0)

    def test_sweep_floor_waived_below_thread_minimum(self):
        # A 1-core host cannot reach the absolute floor (19 exact
        # replays are irreducible work): when the run reports fewer
        # than 4 lane workers only the regression bar applies.
        base = bench(job("hotpath/sweep/SPDP-B-grid", sweep_speedup=1.5))
        cur = bench(job("hotpath/sweep/SPDP-B-grid",
                        sweep_speedup=1.5, sweep_threads=1))
        self.assertEqual(self.run_gate(cur, base), 0)
        # The regression bar still bites with the floor waived.
        cur_reg = bench(job("hotpath/sweep/SPDP-B-grid",
                            sweep_speedup=1.0, sweep_threads=1))
        self.assertEqual(self.run_gate(cur_reg, base), 1)
        # With >= 4 workers reported, the absolute floor is enforced.
        cur_4t = bench(job("hotpath/sweep/SPDP-B-grid",
                           sweep_speedup=1.5, sweep_threads=4))
        self.assertEqual(self.run_gate(cur_4t, base), 1)

    def test_explore_absolute_floor(self):
        base = bench(job("hotpath/explore/SPDP-grid", explore_speedup=14.0))
        cur = bench(job("hotpath/explore/SPDP-grid", explore_speedup=9.5,
                        explore_threads=4))
        self.assertEqual(self.run_gate(cur, base), 1)
        cur_ok = bench(job("hotpath/explore/SPDP-grid", explore_speedup=12.0,
                           explore_threads=4))
        self.assertEqual(self.run_gate(cur_ok, base), 0)

    def test_explore_floor_waived_below_thread_minimum(self):
        # The pruned side still replays its contender policies exactly,
        # so a 1-core host cannot reach the 10x bar: the floor is only
        # enforced when >= 4 lane workers ran.
        base = bench(job("hotpath/explore/SPDP-grid", explore_speedup=6.0))
        cur = bench(job("hotpath/explore/SPDP-grid", explore_speedup=6.0,
                        explore_threads=1))
        self.assertEqual(self.run_gate(cur, base), 0)
        # The regression bar still bites with the floor waived.
        cur_reg = bench(job("hotpath/explore/SPDP-grid", explore_speedup=4.0,
                            explore_threads=1))
        self.assertEqual(self.run_gate(cur_reg, base), 1)

    def test_missing_row_fails(self):
        base = bench(job("hotpath/llc/LRU", vs_aos=2.5),
                     job("hotpath/llc/PDP-3", vs_aos=2.5))
        cur = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_zero_baseline_fails_instead_of_vacuous_pass(self):
        # A zeroed baseline must fail loudly, not wave every row through.
        base = bench(job("hotpath/llc/LRU", vs_aos=0.0))
        cur = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_negative_and_nonfinite_baseline_fail(self):
        cur = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        for bad in (-1.0, float("nan"), float("inf")):
            base = bench(job("hotpath/llc/LRU", vs_aos=bad))
            self.assertEqual(self.run_gate(cur, base), 1)

    def test_zero_current_fails(self):
        base = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        cur = bench(job("hotpath/llc/LRU", vs_aos=0.0))
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_empty_baseline_fails(self):
        d = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        self.assertEqual(self.run_gate(d, bench()), 1)

    def test_invalid_json_fails_with_clear_error(self):
        cur = self.write("current.json", bench(job("x", vs_aos=1.0)))
        broken = self.write("broken.json", "{not json")
        err = self.assert_one_error(broken, "perf", cur, broken)
        self.assertIn("not JSON", err)

    def test_missing_file_fails_with_clear_error(self):
        cur = self.write("current.json", bench(job("x", vs_aos=1.0)))
        nope = os.path.join(self._dir.name, "nope.json")
        err = self.assert_one_error(nope, "perf", cur, nope)
        self.assertIn("cannot read", err)

    def test_failed_jobs_are_ignored(self):
        base = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        cur = bench({"key": "hotpath/llc/LRU", "seed": 1, "status": "failed",
                     "metrics": {"vs_aos": 9.9}})
        # The ok-row is missing from current -> gate fails (not passes
        # on the failed job's metric).
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_telemetry_idle_floor(self):
        base = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        cur = bench(job("hotpath/llc/LRU", vs_aos=2.5),
                    job("hotpath/llc/LRU-telemetry-idle",
                        telemetry_idle_ratio=0.95))
        self.assertEqual(self.run_gate(cur, base), 1)
        cur_ok = bench(job("hotpath/llc/LRU", vs_aos=2.5),
                       job("hotpath/llc/LRU-telemetry-idle",
                           telemetry_idle_ratio=0.99))
        self.assertEqual(self.run_gate(cur_ok, base), 0)

    def test_only_telemetry_idle_skips_families(self):
        # A --filter'ed hotpath run has no sweep/explore rows; the mode
        # must not trip the MISSING-row or empty-baseline failures.
        base = bench(job("hotpath/llc/LRU", vs_aos=2.5),
                     job("hotpath/sweep/SPDP-B-grid", sweep_speedup=6.0))
        cur = bench(job("hotpath/llc/LRU-telemetry-idle",
                        telemetry_idle_ratio=0.99))
        self.assertEqual(self.run_gate(cur, base,
                                       "--only-telemetry-idle"), 0)
        cur_bad = bench(job("hotpath/llc/LRU-telemetry-idle",
                            telemetry_idle_ratio=0.90))
        self.assertEqual(self.run_gate(cur_bad, base,
                                       "--only-telemetry-idle"), 1)

    def test_only_telemetry_idle_requires_the_metric(self):
        # Without the flag a missing idle metric is skipped; with it the
        # run under test plainly did not exercise the gate — fail.
        base = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        cur = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        self.assertEqual(self.run_gate(cur, base), 0)
        self.assertEqual(self.run_gate(cur, base,
                                       "--only-telemetry-idle"), 1)

    def test_only_telemetry_idle_text_report(self):
        cur = self.write("current.json",
                         bench(job("hotpath/llc/LRU-telemetry-idle",
                                   telemetry_idle_ratio=0.99)))
        base = self.write("baseline.json", bench())
        status, out, _ = self.run_tool("perf", cur, base,
                                       "--only-telemetry-idle")
        self.assertEqual(status, 0)
        self.assertIn("telemetry idle overhead", out)
        self.assertIn("0.990x", out)

    def test_text_report_renders_without_crashing(self):
        # Every row kind on one mixed document: ok, new and idle.
        cur = self.write("current.json",
                         bench(job("hotpath/llc/LRU", vs_aos=2.5),
                               job("hotpath/sweep/SPDP-B-grid",
                                   sweep_speedup=6.0),
                               job("hotpath/llc/LRU-telemetry-idle",
                                   telemetry_idle_ratio=0.99)))
        base = self.write("baseline.json",
                          bench(job("hotpath/llc/LRU", vs_aos=2.5)))
        status, out, _ = self.run_tool("perf", cur, base)
        self.assertEqual(status, 0)
        self.assertRegex(out, r"hotpath/llc/LRU +vs AoS +2\.50x +2\.50x "
                         r"+2\.00x +1\.00 +ok")
        self.assertRegex(out, r"hotpath/sweep/SPDP-B-grid +sweep +- "
                         r"+6\.00x +- +- +new")
        self.assertIn("perf gate passed.", out)

    def test_rows_name_the_failure(self):
        base = bench(job("hotpath/llc/LRU", vs_aos=0.0),
                     job("hotpath/llc/PDP-3", vs_aos=2.0))
        cur = bench(job("hotpath/llc/LRU", vs_aos=2.5))
        cur_path = self.write("current.json", cur)
        base_path = self.write("baseline.json", base)
        status, out, _ = self.run_tool("perf", cur_path, base_path)
        self.assertEqual(status, 1)
        self.assertRegex(out, r"hotpath/llc/LRU .* BAD BASELINE")
        self.assertRegex(out, r"hotpath/llc/PDP-3 .* MISSING")

    def test_perf_wants_bench_documents(self):
        cur = self.write("current.jsonl", trace())
        base = self.write("baseline.json", bench(job("x", vs_aos=1.0)))
        err = self.assert_one_error(cur, "perf", cur, base)
        self.assertIn("wants a BENCH document, got TRACE", err)

    def test_job_without_key_is_an_error_not_a_traceback(self):
        cur = self.write("current.json",
                         bench({"seed": 1, "status": "ok",
                                "metrics": {"vs_aos": 2.5}}))
        base = self.write("baseline.json", bench(job("x", vs_aos=1.0)))
        err = self.assert_one_error(cur, "perf", cur, base)
        self.assertIn("missing 'key'", err)


class CheckTest(ReportTest):
    def check(self, name, payload, *extra):
        return self.run_tool("check", self.write(name, payload), *extra)

    def test_every_kind_in_one_call(self):
        paths = [self.write("BENCH_x.json",
                            bench(telemetry_job(), service_job())),
                 self.write("TRACE_x.jsonl",
                            trace(*request(), burn("slo_burn"),
                                  burn("slo_recovered", access=900))),
                 self.write("FLIGHT_x.json", flight())]
        status, out, err = self.run_tool("check", *paths)
        self.assertEqual(status, 0, err)
        self.assertIn("ok (BENCH, schema v2, 2 job(s), 1 with telemetry, "
                      "1 service)", out)
        self.assertIn("ok (TRACE, 6 event(s), 1 sampled request trace(s), "
                      "1 slo_burn / 1 slo_recovered)", out)
        self.assertIn(f"ok (FLIGHT, job {JOB}, reason check_failure)", out)

    def test_older_process_wide_counters_pass(self):
        counters = {"telemetry.epochs": 3, "service.slo_burning": 0.0}
        doc = bench(telemetry_job())
        doc["registry"] = counters
        paths = [self.write("BENCH_x.json", doc),
                 self.write("FLIGHT_x.json", flight(metrics=counters))]
        status, _, err = self.run_tool("check", *paths)
        self.assertEqual(status, 0, err)

    def test_v1_document_passes(self):
        status, _, _ = self.check(
            "b.json", bench(job("x", vs_aos=1.0),
                            schema="pdp-bench-results/v1"))
        self.assertEqual(status, 0)

    def test_every_span_path_passes(self):
        events = [e for i, path in enumerate(pdpreport.SPAN_PATHS)
                  for e in request(0x1000 * (i + 1), path)]
        status, out, err = self.check("t.jsonl", trace(*events))
        self.assertEqual(status, 0, err)
        self.assertIn("4 sampled request trace(s)", out)

    def test_ring_truncated_span_group_passes_as_truncation(self):
        # The ring dropped the root and the first two stages: a rootless
        # suffix of a valid lifecycle, not corruption.
        cut = request(0x2000, ("l2_miss", "llc_probe", "llc_victim",
                               "mem_fill"))[3:]
        status, out, err = self.check("t.jsonl", trace(*cut, *request()))
        self.assertEqual(status, 0, err)
        self.assertIn("2 sampled request trace(s), 1 head-truncated by ring "
                      "overflow", out)

    # A TRACE needs its header, and every event an integer `access` and
    # a `fields` object.
    def test_empty_trace_fails(self):
        path = self.write("empty.jsonl", "")
        self.assertIn("empty file", self.assert_one_error(path, "check", path))

    def test_event_without_fields_fails(self):
        event = burn("slo_burn")
        del event["fields"]
        path = self.write("t.jsonl", trace(event))
        self.assertIn("missing 'fields'",
                      self.assert_one_error(path, "check", path))

    def test_string_access_fails(self):
        event = burn("slo_burn")
        event["access"] = "1"
        path = self.write("t.jsonl", trace(event))
        self.assertIn("'access' has the wrong type",
                      self.assert_one_error(path, "check", path))

    def test_list_fields_fails(self):
        event = {"job": JOB, "type": "phase:warmup", "access": 0,
                 "fields": [1, 2]}
        path = self.write("t.jsonl", trace(event))
        self.assertIn("'fields' has the wrong type",
                      self.assert_one_error(path, "check", path))

    # Malformed input prints one error line, not a traceback.
    def test_span_with_list_fields_is_an_error(self):
        event = span("arrival", 1, 0)
        event["fields"] = [1, 2]
        path = self.write("t.jsonl", trace(event))
        self.assert_one_error(path, "check", path)

    def test_burn_with_string_tenant_is_an_error(self):
        path = self.write("t.jsonl", trace(burn("slo_burn", tenant_id="x")))
        self.assert_one_error(path, "render", path)
        self.assert_one_error(path, "check", path)

    def test_open_span_with_string_trace_id_is_an_error(self):
        doc = flight()
        doc["open_spans"][0]["trace_id"] = "x"
        path = self.write("f.json", doc)
        self.assert_one_error(path, "check", path)
        self.assert_one_error(path, "render", path)

    def test_trace_whose_first_line_is_an_array_is_an_error(self):
        path = self.write("t.jsonl", [[1, 2], burn("slo_burn")])
        self.assertIn("expected a 'pdp-bench-trace/v1' header",
                      self.assert_one_error(path, "check", path))

    def test_malformed_fixtures_fail(self):
        def bad_span(**fields):
            events = request()
            events[-1]["fields"].update(fields)
            return trace(*events)

        def without(field):
            event = burn("slo_burn")
            del event["fields"][field]
            return trace(event)

        v1_telemetry = bench(telemetry_job(), schema="pdp-bench-results/v1")
        uneven = bench(telemetry_job())
        uneven["jobs"][0]["telemetry"]["epochs"][1]["hits"] += 1
        backwards = bench(telemetry_job())
        backwards["jobs"][0]["telemetry"]["epochs"][2]["access"] = 10
        out_of_range = bench(service_job())
        out_of_range["jobs"][0]["service"]["tenants"][0]["hit_rate"] = 1.5
        no_tenants = bench(service_job())
        no_tenants["jobs"][0]["service"]["tenants"] = []
        miscounted = bench(job("x"))
        miscounted["job_count"] = 2
        no_seed = bench(job("x"))
        del no_seed["jobs"][0]["seed"]
        two_roots = request()
        two_roots.append(span("arrival", 0x9999, 0))
        duplicate = request()
        duplicate[-1]["fields"]["span_id"] = duplicate[-2]["fields"][
            "span_id"]
        rootless_mixed = request(0x3000, ("l2_miss", "llc_probe",
                                          "llc_hit"))[2:]
        rootless_mixed[0]["fields"]["parent"] = 0x77
        fixtures = {
            "unknown schema": {"schema": "pdp-bench-results/v9"},
            "not an object": "[1, 2]\n",
            "job_count mismatch": miscounted,
            "job without seed": no_seed,
            "telemetry in v1": v1_telemetry,
            "hits + misses != accesses": uneven,
            "epoch accesses not increasing": backwards,
            "tenant hit rate above 1": out_of_range,
            "service without tenants": no_tenants,
            "wrong trace schema": [{"schema": "pdp-bench-trace/v2"},
                                   burn("slo_burn")],
            "trace line not JSON": "\n".join(
                [json.dumps(trace()[0]), "{oops"]),
            "header not on line 1": "\n" + json.dumps(trace()[0]) + "\n",
            "event without job": trace({"type": "epoch", "access": 1,
                                        "fields": {}}),
            "two roots": trace(*two_roots),
            "child not parented to the root": bad_span(parent=0x5555),
            "invalid path": trace(*request(path=("llc_hit",))),
            "unknown stage": trace(*request(path=("l2_teleport",))),
            "duplicate span ids": trace(*duplicate),
            "span ends before it begins": bad_span(cycles_end=50),
            "span without tenant": trace(*[
                {**e, "fields": {k: v for k, v in e["fields"].items()
                                 if k != "tenant"}} for e in request()]),
            "rootless inconsistent parents": trace(*rootless_mixed),
            "rootless non-suffix": trace(*request(path=("l2_miss",))[1:]),
            "burn without burn_rate": without("burn_rate"),
            "burn without window": without("window"),
            "flight reason": flight(reason="bored"),
            "flight without job": flight(job=""),
            "flight events not an array": flight(events={}),
            "flight span without request": flight(open_spans=[
                {"trace_id": 1, "span_id": 2, "tenant": 1, "access": 3}]),
            "flight metrics not an object": flight(metrics=[]),
        }
        for name, payload in fixtures.items():
            with self.subTest(name):
                path = self.write("fixture", payload)
                self.assert_one_error(path, "check", path)

    def test_max_drift_gate(self):
        ok = self.write("ok.json", bench(service_job(drift=0.1)))
        status, out, _ = self.run_tool("check", "--max-drift", "0.2", ok)
        self.assertEqual(status, 0)
        self.assertIn(f"worst 0.1000 at {JOB}/svc01, bound 0.2", out)
        bad = self.write("bad.json", bench(service_job(drift=0.3)))
        status, _, err = self.run_tool("check", "--max-drift", "0.2", bad)
        self.assertEqual(status, 1)
        self.assertIn(f"{JOB}/svc01: occupancy drift 0.3000 exceeds", err)

    def test_max_drift_needs_a_service_tenant(self):
        path = self.write("b.json", bench(telemetry_job()))
        status, _, err = self.run_tool("check", "--max-drift", "0.2", path)
        self.assertEqual(status, 1)
        self.assertIn("no service tenant", err)

    def test_max_drift_outside_the_unit_interval_is_a_usage_error(self):
        path = self.write("b.json", bench(service_job()))
        for bound in ("0", "1.5", "nan"):
            with self.assertRaises(SystemExit) as ctx, \
                    contextlib.redirect_stderr(io.StringIO()):
                pdpreport.main(["check", "--max-drift", bound, path])
            self.assertEqual(ctx.exception.code, 2)


class RenderTest(ReportTest):
    def test_bench_telemetry_and_service_tables(self):
        path = self.write("b.json", bench(telemetry_job(), service_job()))
        status, out, _ = self.run_tool("render", path)
        self.assertEqual(status, 0)
        self.assertIn("PD over time:", out)
        self.assertRegex(out, r"2 +3000 +96 +0\.5333")
        self.assertIn("interval hit rate: min 0.3333  max 0.5333", out)
        self.assertIn("[ =@]", out)
        self.assertRegex(out, r"1  pd_change")
        self.assertIn(f"== {JOB} (service) ==", out)
        self.assertIn("policy PDP-3 (tenant-aware)  joins 2  leaves 0  "
                      "reallocs 2  aggregate hit rate 0.5000", out)
        self.assertRegex(out, r"svc01 +1 +100 +0\.5000 +300 +0\.500 "
                         r"+0\.450 +0\.050  h-")

    def test_bench_job_filter(self):
        path = self.write("b.json", bench(telemetry_job(), service_job()))
        _, out, _ = self.run_tool("render", path, "--job", "soplex")
        self.assertIn("PD over time:", out)
        self.assertNotIn("(service)", out)
        _, out, _ = self.run_tool("render", path, "--job", "nothing")
        self.assertIn("no jobs with telemetry or service sections matching "
                      "'nothing'", out)

    def test_dropped_events_warn(self):
        doc = bench(telemetry_job())
        doc["jobs"][0]["telemetry"]["events_dropped"] = 7
        path = self.write("b.json", doc)
        status, _, err = self.run_tool("render", path)
        self.assertEqual(status, 0)
        self.assertIn("7 event(s) dropped", err)

    def test_trace_waterfalls_burns_and_counts(self):
        events = [*request(), *request(0x5678, ("l2_hit",)),
                  burn("slo_burn"), burn("slo_recovered", access=900,
                                         rate=0.5)]
        path = self.write("t.jsonl", trace(*events))
        status, out, _ = self.run_tool("render", path, "--limit", "1")
        self.assertEqual(status, 0)
        self.assertIn("service (8 event(s))", out)
        self.assertIn(f"trace 0x000000001234  {JOB}  tenant 1  request 7  "
                      "access 42  (60 cycles)", out)
        self.assertRegex(out, r"llc_probe +cycles 100\.\.160")
        self.assertNotIn("0x000000005678", out)
        self.assertIn("... 1 more sampled trace(s) (raise --limit)", out)
        self.assertIn(f"{JOB} tenant 1: BURN@500 burn=4.00  ok@900 "
                      "burn=0.50", out)
        self.assertRegex(out, r"2  span:arrival")

    def test_trace_job_filter(self):
        events = [*request(), *request(0x5678, job_key="service/t2c0/LRU")]
        path = self.write("t.jsonl", trace(*events))
        _, out, _ = self.run_tool("render", path, "--job", "LRU")
        self.assertIn("service (4 event(s))", out)
        self.assertIn("0x000000005678", out)
        self.assertNotIn("0x000000001234", out)

    def test_flight_summary(self):
        path = self.write("f.json", flight(detail="injected"))
        status, out, _ = self.run_tool("render", path)
        self.assertEqual(status, 0)
        self.assertIn(f"job:        {JOB}", out)
        self.assertIn("reason:     check_failure — injected", out)
        self.assertIn("events:     4 ring entries, 3 dropped before capture",
                      out)
        self.assertIn("trace 0x000000000099 tenant 1 request 8 (access 999)",
                      out)


class DiffTest(ReportTest):
    def diff(self, old, new, *extra):
        return self.run_tool("diff", self.write("old.json", old),
                             self.write("new.json", new), *extra)

    def test_identical_documents_pass(self):
        d = bench(job("fig10/a", hit_rate=0.5), service_job())
        status, out, _ = self.diff(d, d)
        self.assertEqual(status, 0)
        self.assertIn("0 changed metric(s)", out)

    def test_names_the_job_and_metric_that_moved(self):
        old = bench(job("fig10/a", hit_rate=0.5, ipc=1.0))
        new = bench(job("fig10/a", hit_rate=0.55, ipc=1.01))
        status, out, _ = self.diff(old, new)
        self.assertEqual(status, 1)
        self.assertIn("! fig10/a metrics.hit_rate: 0.5 -> 0.55 (+10.00%)", out)
        self.assertIn("  fig10/a metrics.ipc: 1 -> 1.01 (+1.00%)", out)
        self.assertEqual(self.diff(old, new, "--tolerance", "0.2")[0], 0)
        self.assertEqual(self.diff(old, new, "--tolerance", "0")[0], 1)

    def test_nested_service_metrics(self):
        new = service_job()
        new["service"]["aggregate_hit_rate"] = 0.25
        status, out, _ = self.diff(bench(service_job()), bench(new))
        self.assertEqual(status, 1)
        self.assertIn(f"! {JOB} service.aggregate_hit_rate", out)

    def test_missing_job_fails(self):
        old = bench(job("fig10/a", hit_rate=0.5), job("fig10/b", hit_rate=1))
        status, out, _ = self.diff(old, bench(job("fig10/a", hit_rate=0.5)))
        self.assertEqual(status, 1)
        self.assertIn("! fig10/b: missing from", out)

    def test_diff_wants_bench_documents(self):
        old = self.write("old.json", flight())
        new = self.write("new.json", bench())
        self.assertIn("wants a BENCH document, got FLIGHT",
                      self.assert_one_error(old, "diff", old, new))


if __name__ == "__main__":
    unittest.main()
