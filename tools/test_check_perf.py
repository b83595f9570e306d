#!/usr/bin/env python3
"""Self-test for tools/check_perf.py (stdlib unittest only).

Pins down the gate's failure modes: regressions, absolute floors,
missing rows — and the loud failures for the inputs that used to slip
through silently (zero/negative baseline ratios, unreadable or invalid
JSON files).
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_perf  # noqa: E402


def job(key, **metrics):
    return {"key": key, "status": "ok", "metrics": metrics}


def doc(*jobs):
    return {"suite": "hotpath", "jobs": list(jobs)}


class CheckPerfTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, payload):
        path = os.path.join(self._dir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(payload, str):
                fh.write(payload)
            else:
                json.dump(payload, fh)
        return path

    def run_gate(self, current, baseline, *extra):
        cur = self.write("current.json", current)
        base = self.write("baseline.json", baseline)
        return check_perf.main([cur, base, "--json", *extra])

    def test_passes_when_current_matches_baseline(self):
        d = doc(job("hotpath/llc/LRU", vs_aos=2.5),
                job("hotpath/sweep/SPDP-B-grid", sweep_speedup=6.0))
        self.assertEqual(self.run_gate(d, d), 0)

    def test_regression_beyond_budget_fails(self):
        base = doc(job("hotpath/llc/LRU", vs_aos=4.0))
        cur = doc(job("hotpath/llc/LRU", vs_aos=2.9))  # -27.5% > 25%
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_regression_within_budget_passes(self):
        base = doc(job("hotpath/llc/LRU", vs_aos=4.0))
        cur = doc(job("hotpath/llc/LRU", vs_aos=3.2))  # -20% <= 25%
        self.assertEqual(self.run_gate(cur, base), 0)

    def test_lru_absolute_floor(self):
        # Within the regression budget but below the 2.0x substrate bar.
        base = doc(job("hotpath/llc/LRU", vs_aos=2.2))
        cur = doc(job("hotpath/llc/LRU", vs_aos=1.9))
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_sweep_absolute_floor(self):
        base = doc(job("hotpath/sweep/SPDP-B-grid", sweep_speedup=5.0))
        cur = doc(job("hotpath/sweep/SPDP-B-grid", sweep_speedup=3.9))
        self.assertEqual(self.run_gate(cur, base), 1)
        cur_ok = doc(job("hotpath/sweep/SPDP-B-grid", sweep_speedup=4.2))
        self.assertEqual(self.run_gate(cur_ok, base), 0)

    def test_sweep_floor_waived_below_thread_minimum(self):
        # A 1-core host cannot reach the absolute floor (19 exact
        # replays are irreducible work): when the run reports fewer
        # than 4 lane workers only the regression bar applies.
        base = doc(job("hotpath/sweep/SPDP-B-grid", sweep_speedup=1.5))
        cur = doc(job("hotpath/sweep/SPDP-B-grid",
                      sweep_speedup=1.5, sweep_threads=1))
        self.assertEqual(self.run_gate(cur, base), 0)
        # The regression bar still bites with the floor waived.
        cur_reg = doc(job("hotpath/sweep/SPDP-B-grid",
                          sweep_speedup=1.0, sweep_threads=1))
        self.assertEqual(self.run_gate(cur_reg, base), 1)
        # With >= 4 workers reported, the absolute floor is enforced.
        cur_4t = doc(job("hotpath/sweep/SPDP-B-grid",
                         sweep_speedup=1.5, sweep_threads=4))
        self.assertEqual(self.run_gate(cur_4t, base), 1)

    def test_explore_absolute_floor(self):
        base = doc(job("hotpath/explore/SPDP-grid", explore_speedup=14.0))
        cur = doc(job("hotpath/explore/SPDP-grid", explore_speedup=9.5,
                      explore_threads=4))
        self.assertEqual(self.run_gate(cur, base), 1)
        cur_ok = doc(job("hotpath/explore/SPDP-grid", explore_speedup=12.0,
                         explore_threads=4))
        self.assertEqual(self.run_gate(cur_ok, base), 0)

    def test_explore_floor_waived_below_thread_minimum(self):
        # The pruned side still replays its contender policies exactly,
        # so a 1-core host cannot reach the 10x bar: the floor is only
        # enforced when >= 4 lane workers ran.
        base = doc(job("hotpath/explore/SPDP-grid", explore_speedup=6.0))
        cur = doc(job("hotpath/explore/SPDP-grid", explore_speedup=6.0,
                      explore_threads=1))
        self.assertEqual(self.run_gate(cur, base), 0)
        # The regression bar still bites with the floor waived.
        cur_reg = doc(job("hotpath/explore/SPDP-grid", explore_speedup=4.0,
                          explore_threads=1))
        self.assertEqual(self.run_gate(cur_reg, base), 1)

    def test_missing_row_fails(self):
        base = doc(job("hotpath/llc/LRU", vs_aos=2.5),
                   job("hotpath/llc/PDP-3", vs_aos=2.5))
        cur = doc(job("hotpath/llc/LRU", vs_aos=2.5))
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_zero_baseline_fails_instead_of_vacuous_pass(self):
        # The old loader dropped non-positive rows, so a zeroed baseline
        # waved everything through.  It must fail loudly now.
        base = doc(job("hotpath/llc/LRU", vs_aos=0.0))
        cur = doc(job("hotpath/llc/LRU", vs_aos=2.5))
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_negative_and_nonfinite_baseline_fail(self):
        cur = doc(job("hotpath/llc/LRU", vs_aos=2.5))
        for bad in (-1.0, float("nan"), float("inf")):
            base = doc(job("hotpath/llc/LRU", vs_aos=bad))
            self.assertEqual(self.run_gate(cur, base), 1)

    def test_zero_current_fails(self):
        base = doc(job("hotpath/llc/LRU", vs_aos=2.5))
        cur = doc(job("hotpath/llc/LRU", vs_aos=0.0))
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_empty_baseline_fails(self):
        d = doc(job("hotpath/llc/LRU", vs_aos=2.5))
        self.assertEqual(self.run_gate(d, doc()), 1)

    def test_invalid_json_fails_with_clear_error(self):
        cur = self.write("current.json", doc(job("x", vs_aos=1.0)))
        broken = self.write("broken.json", "{not json")
        with self.assertRaises(SystemExit) as ctx:
            check_perf.main([cur, broken])
        self.assertIn("not valid JSON", str(ctx.exception))

    def test_missing_file_fails_with_clear_error(self):
        cur = self.write("current.json", doc(job("x", vs_aos=1.0)))
        with self.assertRaises(SystemExit) as ctx:
            check_perf.main(
                [cur, os.path.join(self._dir.name, "nope.json")])
        self.assertIn("cannot read", str(ctx.exception))

    def test_failed_jobs_are_ignored(self):
        base = doc(job("hotpath/llc/LRU", vs_aos=2.5))
        cur = doc({"key": "hotpath/llc/LRU", "status": "failed",
                   "metrics": {"vs_aos": 9.9}})
        # The ok-row is missing from current -> gate fails (not passes
        # on the failed job's metric).
        self.assertEqual(self.run_gate(cur, base), 1)

    def test_telemetry_idle_floor(self):
        base = doc(job("hotpath/llc/LRU", vs_aos=2.5))
        cur = doc(job("hotpath/llc/LRU", vs_aos=2.5),
                  job("hotpath/llc/LRU-telemetry-idle",
                      telemetry_idle_ratio=0.95))
        self.assertEqual(self.run_gate(cur, base), 1)
        cur_ok = doc(job("hotpath/llc/LRU", vs_aos=2.5),
                     job("hotpath/llc/LRU-telemetry-idle",
                         telemetry_idle_ratio=0.99))
        self.assertEqual(self.run_gate(cur_ok, base), 0)

    def test_only_telemetry_idle_skips_families(self):
        # A --filter'ed hotpath run has no sweep/explore rows; the mode
        # must not trip the MISSING-row or empty-baseline failures.
        base = doc(job("hotpath/llc/LRU", vs_aos=2.5),
                   job("hotpath/sweep/SPDP-B-grid", sweep_speedup=6.0))
        cur = doc(job("hotpath/llc/LRU-telemetry-idle",
                      telemetry_idle_ratio=0.99))
        self.assertEqual(self.run_gate(cur, base,
                                       "--only-telemetry-idle"), 0)
        cur_bad = doc(job("hotpath/llc/LRU-telemetry-idle",
                          telemetry_idle_ratio=0.90))
        self.assertEqual(self.run_gate(cur_bad, base,
                                       "--only-telemetry-idle"), 1)

    def test_only_telemetry_idle_requires_the_metric(self):
        # Without the flag a missing idle metric is skipped; with it the
        # run under test plainly did not exercise the gate — fail.
        base = doc(job("hotpath/llc/LRU", vs_aos=2.5))
        cur = doc(job("hotpath/llc/LRU", vs_aos=2.5))
        self.assertEqual(self.run_gate(cur, base), 0)
        self.assertEqual(self.run_gate(cur, base,
                                       "--only-telemetry-idle"), 1)

    def test_only_telemetry_idle_text_report(self):
        cur = self.write("current.json",
                         doc(job("hotpath/llc/LRU-telemetry-idle",
                                 telemetry_idle_ratio=0.99)))
        base = self.write("baseline.json", doc())
        self.assertEqual(
            check_perf.main([cur, base, "--only-telemetry-idle"]), 0)

    def test_text_report_renders_without_crashing(self):
        # The human-readable path (no --json) on a mixed document.
        cur = self.write("current.json",
                         doc(job("hotpath/llc/LRU", vs_aos=2.5),
                             job("hotpath/sweep/SPDP-B-grid",
                                 sweep_speedup=6.0),
                             job("hotpath/llc/LRU-telemetry-idle",
                                 telemetry_idle_ratio=0.99)))
        base = self.write("baseline.json",
                          doc(job("hotpath/llc/LRU", vs_aos=2.5)))
        self.assertEqual(check_perf.main([cur, base]), 0)


if __name__ == "__main__":
    unittest.main()
