#!/usr/bin/env python3
"""pdpreport: check, render, gate and diff run_experiments' artifacts.

Every input file is identified by its schema string:

  BENCH   BENCH_<suite>.json    "pdp-bench-results/v1" or "/v2": the
                                results document (src/runner/)
  TRACE   TRACE_<suite>.jsonl   a "pdp-bench-trace/v1" header line, then
                                one structured event per line
  FLIGHT  FLIGHT_<job>.json     "pdp-flight/v1": the fault flight
                                recorder's dump (src/check/)

Subcommands:

  check FILE... [--max-drift B]
      Validate any mix of the three kinds.  --max-drift fails when a
      service tenant's mean quota-vs-occupancy drift exceeds B, the
      partition layer's "allocations mean something" gate.
  render FILE... [--job SUBSTRING] [--limit N]
      BENCH: PD over time, the interval hit-rate curve and event counts
      of each telemetry job, and the per-tenant SLO table of each
      service job.  TRACE: the first N request-lifecycle span
      waterfalls, the per-tenant SLO burn timeline and event counts.
      FLIGHT: what the failed job left behind.
  perf CURRENT BASELINE [--only-telemetry-idle]
      Gate a fresh BENCH_hotpath.json against the committed baseline.
  diff OLD NEW [--tolerance T]
      Per-job metric diff of two BENCH documents; fails when a metric
      moves by more than T (relative, default 0.05) or a job goes
      missing.

Malformed input exits 1 with one "error: PATH: REASON" line, a failed
gate exits 1, and a usage error exits 2.  Standard library only.
"""

import argparse
import json
import math
import sys
from collections import Counter

BENCH_SCHEMAS = {"pdp-bench-results/v1": 1, "pdp-bench-results/v2": 2}
TRACE_SCHEMA = "pdp-bench-trace/v1"
FLIGHT_SCHEMA = "pdp-flight/v1"
FLIGHT_REASONS = ("check_failure", "job_failed")
NUMBER = (int, float)

# The request-lifecycle stages a span:arrival root fans out into, in
# path order (telemetry/span_tracer.cc).  One sampled request emits the
# root plus exactly one of these paths.
SPAN_PATHS = [
    ("l2_hit",),
    ("l2_miss", "llc_probe", "llc_hit"),
    ("l2_miss", "llc_probe", "llc_bypass", "mem_fill"),
    ("l2_miss", "llc_probe", "llc_victim", "mem_fill"),
]
SPAN_STAGES = {stage for path in SPAN_PATHS for stage in path}
SPAN_FIELDS = ("trace_id", "span_id", "parent", "tenant", "slot",
               "request", "cycles_begin", "cycles_end")
BURN_TYPES = ("slo_burn", "slo_recovered")
BURN_FIELDS = ("tenant", "slot", "burn_rate", "violations", "window")
OPEN_SPAN_FIELDS = ("trace_id", "span_id", "tenant", "request", "access")

# perf gates.  The hotpath suite reports machine-independent paired
# ratios: each job times interleaved segments against an in-job
# reference walk, so both sides of a pair see the same machine weather.
# A row fails when it falls more than MAX_REGRESSION below its baseline
# or below its absolute floor, when the run lacks a baseline row, or
# when a ratio on either side is not a positive finite number (a corrupt
# baseline must fail loudly, not wave the gate through).
MAX_REGRESSION = 0.25
FAMILIES = {
    "vs_aos": "vs AoS",            # SoA substrate vs the pre-SoA cache
    "sweep_speedup": "sweep",      # lockstep sweep vs sequential runs
    "explore_speedup": "explore",  # model-pruned vs exhaustive grid
}
# (job key, metric) -> (absolute floor, metric naming the lane workers
# the run used).  The sweep and explore floors are waived when the run
# reports fewer than MIN_LANE_WORKERS: their exact policy replays cap a
# 1-core host near 2x, so only the regression bar means anything there.
FLOORS = {
    ("hotpath/llc/LRU", "vs_aos"): (2.0, None),
    ("hotpath/sweep/SPDP-B-grid", "sweep_speedup"): (4.0, "sweep_threads"),
    ("hotpath/explore/SPDP-grid", "explore_speedup"):
        (10.0, "explore_threads"),
}
MIN_LANE_WORKERS = 4
# An enabled-but-idle telemetry build must stay within 2% of plain.
TELEMETRY_IDLE_KEY = "hotpath/llc/LRU-telemetry-idle"
MIN_TELEMETRY_IDLE = 0.98

SPARK = " .:-=+*#%@"


class Malformed(Exception):
    pass


# ---------------------------------------------------------------------------
# Loading


def load(path):
    """Read, identify and validate one artifact: (kind, payload, summary).

    The payload is the parsed document for BENCH and FLIGHT and
    (header, events, line numbers) for TRACE.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        kind, payload = identify(text)
        summary = VALIDATORS[kind](payload)
    except OSError as err:
        raise Malformed(f"{path}: cannot read: {err.strerror}") from None
    except (UnicodeDecodeError, Malformed) as err:
        raise Malformed(f"{path}: {err}") from None
    return kind, payload, summary


def identify(text):
    lines = text.splitlines()
    if not lines:
        raise Malformed("empty file (no schema header)")
    try:
        first = json.loads(lines[0])
    except ValueError:
        first = None  # a pretty-printed document's first line, say
    if isinstance(first, dict) and first.get("schema") == TRACE_SCHEMA:
        events, numbers = [], []
        for n, line in enumerate(lines[1:], 2):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except ValueError as err:
                raise Malformed(f"line {n}: not JSON: {err}") from None
            numbers.append(n)
        return "TRACE", (first, events, numbers)
    if first is not None and any(line.strip() for line in lines[1:]):
        raise Malformed(f"line 1: expected a '{TRACE_SCHEMA}' header")
    try:
        doc = json.loads(text)
    except ValueError as err:
        raise Malformed(f"not JSON: {err}") from None
    if not isinstance(doc, dict):
        raise Malformed("document is not a JSON object")
    if doc.get("schema") in BENCH_SCHEMAS:
        return "BENCH", doc
    if doc.get("schema") == FLIGHT_SCHEMA:
        return "FLIGHT", doc
    raise Malformed(f"unknown schema {doc.get('schema')!r}")


def load_bench(path):
    kind, doc, _ = load(path)
    if kind != "BENCH":
        raise Malformed(f"{path}: wants a BENCH document, got {kind}")
    return doc


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 1


def bench_jobs(doc, section, job_filter=""):
    """The jobs carrying `section` whose key contains job_filter."""
    return [job for job in doc["jobs"]
            if section in job and job_filter in job["key"]]


def event_counts(events):
    return Counter(event["type"] for event in events)


def print_event_counts(events, indent):
    counts = event_counts(events)
    for etype in sorted(counts):
        print(f"{indent}{counts[etype]:>6}  {etype}")


# ---------------------------------------------------------------------------
# Validation: one validator per artifact kind, each returning the summary
# `check` prints.


def need(obj, key, kind, where):
    """obj[key], which must be a `kind`.  A bool is never a number, and a
    NUMBER must be finite."""
    if key not in obj:
        raise Malformed(f"{where}: missing '{key}'")
    value = obj[key]
    if not isinstance(value, kind) or \
            (isinstance(value, bool) and kind is not bool) or \
            (kind is NUMBER and not math.isfinite(value)):
        raise Malformed(f"{where}: '{key}' has the wrong type")
    return value


def validate_event(event, where):
    """One structured event, as BENCH, TRACE and FLIGHT all carry them."""
    if not isinstance(event, dict):
        raise Malformed(f"{where}: event is not an object")
    etype = need(event, "type", str, where)
    need(event, "access", int, where)
    fields = need(event, "fields", dict, where)
    if etype.startswith("span:"):
        for field in SPAN_FIELDS:
            need(fields, field, NUMBER, f"{where}: {etype}")
        if fields["cycles_end"] < fields["cycles_begin"]:
            raise Malformed(f"{where}: {etype} ends before it begins")
    elif etype in BURN_TYPES:
        for field in BURN_FIELDS:
            need(fields, field, NUMBER, f"{where}: {etype}")


def validate_bench(doc):
    version = BENCH_SCHEMAS[doc["schema"]]
    need(doc, "experiment", str, "document")
    jobs = need(doc, "jobs", list, "document")
    if doc.get("job_count") != len(jobs):
        raise Malformed("job_count disagrees with the jobs array")
    if "registry" in doc:  # older v2 files: process-wide counters
        need(doc, "registry", dict, "document")
    for i, job in enumerate(jobs):
        if not isinstance(job, dict):
            raise Malformed(f"jobs[{i}] is not an object")
        key = need(job, "key", str, f"jobs[{i}]")
        need(job, "seed", int, key)
        need(job, "status", str, key)
        if "metrics" in job:
            need(job, "metrics", dict, key)
        for section, validate in (("telemetry", validate_telemetry),
                                  ("service", validate_service)):
            if section not in job:
                continue
            if version < 2:
                raise Malformed(f"{key}: {section} section in a v1 document")
            validate(need(job, section, dict, key), key)
    return (f"schema v{version}, {len(jobs)} job(s), "
            f"{len(bench_jobs(doc, 'telemetry'))} with telemetry, "
            f"{len(bench_jobs(doc, 'service'))} service")


def validate_telemetry(tel, key):
    need(tel, "interval", int, key)
    last_access = -1
    for epoch in need(tel, "epochs", list, key):
        if not isinstance(epoch, dict):
            raise Malformed(f"{key}: epoch is not an object")
        need(epoch, "epoch", int, key)
        access = need(epoch, "access", int, key)
        if access <= last_access:
            raise Malformed(f"{key}: epoch access counts are not increasing")
        last_access = access
        if "pd" in need(epoch, "policy", dict, key):
            need(epoch["policy"], "pd", NUMBER, key)
        if not 0.0 <= need(epoch, "hit_rate", NUMBER, key) <= 1.0:
            raise Malformed(f"{key}: epoch at access {access}: hit_rate "
                            "is outside [0, 1]")
        for counter in ("accesses", "hits", "misses", "bypasses"):
            need(epoch, counter, int, key)
        if epoch["hits"] + epoch["misses"] != epoch["accesses"]:
            raise Malformed(f"{key}: epoch at access {access}: "
                            "hits + misses != accesses")
    if "events" in tel:
        for event in need(tel, "events", list, key):
            validate_event(event, key)


def validate_service(svc, key):
    need(svc, "policy", str, key)
    need(svc, "tenant_aware", bool, key)
    need(svc, "aggregate_hit_rate", NUMBER, key)
    for counter in ("joins", "leaves", "reallocs"):
        need(svc, counter, int, key)
    tenants = need(svc, "tenants", list, key)
    if not tenants:
        raise Malformed(f"{key}: service has no tenants")
    for tenant in tenants:
        if not isinstance(tenant, dict):
            raise Malformed(f"{key}: tenant is not an object")
        where = f"{key}/{need(tenant, 'name', str, key)}"
        for field in ("hit_rate", "mean_quota", "mean_occupancy",
                      "occupancy_drift"):
            if not 0.0 <= need(tenant, field, NUMBER, where) <= 1.0:
                raise Malformed(f"{where}: '{field}' is outside [0, 1]")
        need(tenant, "p99_miss_cycles", NUMBER, where)
        need(tenant, "slot", int, where)
        need(tenant, "requests", int, where)


def validate_trace(trace):
    _, events, lines = trace
    for event, n in zip(events, lines):
        validate_event(event, f"line {n}")
        need(event, "job", str, f"line {n}")
    groups = span_groups(events)
    truncated = sum(check_span_group(job, trace_id, spans)
                    for (job, trace_id), spans in groups.items())
    counts = event_counts(events)
    return (f"{len(events)} event(s), {len(groups)} sampled request "
            "trace(s)"
            + (f", {truncated} head-truncated by ring overflow"
               if truncated else "")
            + f", {counts['slo_burn']} slo_burn / "
            f"{counts['slo_recovered']} slo_recovered")


def span_groups(events):
    """Span events grouped by (job, trace_id), in file order."""
    groups = {}
    for event in events:
        if event["type"].startswith("span:"):
            key = (event["job"], event["fields"]["trace_id"])
            groups.setdefault(key, []).append(event)
    return groups


def check_span_group(job, trace_id, spans):
    """Validate one request's spans; True when ring overflow cut its head.

    A group without its span:arrival root is not necessarily corrupt:
    the event ring drops oldest on overflow, and a request's root is the
    oldest event of its group, so head truncation leaves a rootless
    suffix of a valid lifecycle.
    """
    where = f"{job} trace {int(trace_id):#x}"
    roots = [s for s in spans if s["type"] == "span:arrival"]
    if len(roots) > 1:
        raise Malformed(f"{where}: {len(roots)} span:arrival roots "
                        "(want at most 1)")
    root = roots[0] if roots else None
    children = [s for s in spans if s is not root]
    stages = tuple(s["type"][len("span:"):] for s in children)
    for stage in stages:
        if stage not in SPAN_STAGES:
            raise Malformed(f"{where}: unknown stage {stage!r}")
    parents = {s["fields"]["parent"] for s in children}
    if root is not None:
        if root["fields"]["parent"] != 0:
            raise Malformed(f"{where}: root has nonzero parent")
        if parents - {root["fields"]["span_id"]}:
            raise Malformed(f"{where}: child span not parented to the root")
        if stages not in SPAN_PATHS:
            raise Malformed(f"{where}: stage path {list(stages)} is not a "
                            "valid lifecycle")
    else:
        if len(parents) > 1 or 0 in parents:
            raise Malformed(f"{where}: rootless group with inconsistent "
                            "parents")
        if not any(path[len(path) - len(stages):] == stages
                   for path in SPAN_PATHS if len(stages) <= len(path)):
            raise Malformed(f"{where}: rootless stage path {list(stages)} "
                            "is not a lifecycle suffix")
    ids = [s["fields"]["span_id"] for s in spans]
    if len(set(ids)) != len(ids):
        raise Malformed(f"{where}: duplicate span ids")
    return root is None


def validate_flight(doc):
    job = need(doc, "job", str, "document")
    if not job:
        raise Malformed("empty job key")
    reason = need(doc, "reason", str, "document")
    if reason not in FLIGHT_REASONS:
        raise Malformed(f"reason {reason!r} not in {list(FLIGHT_REASONS)}")
    for i, event in enumerate(need(doc, "events", list, "document")):
        validate_event(event, f"events[{i}]")
    for i, span in enumerate(need(doc, "open_spans", list, "document")):
        if not isinstance(span, dict):
            raise Malformed(f"open_spans[{i}] is not an object")
        for field in OPEN_SPAN_FIELDS:
            need(span, field, NUMBER, f"open_spans[{i}]")
    if "metrics" in doc:  # older dumps: process-wide counters
        need(doc, "metrics", dict, "document")
    return f"job {job}, reason {reason}"


VALIDATORS = {"BENCH": validate_bench, "TRACE": validate_trace,
              "FLIGHT": validate_flight}


# ---------------------------------------------------------------------------
# check


def warn_dropped_events(doc):
    """Flag event-ring overflow on stderr.

    The ring drops oldest on overflow, so a truncated trace understates
    whatever it recorded (span counts, SLO burn events, PD changes); each
    job's ``events_dropped`` says by how much.
    """
    dropped = [(job["key"], job["telemetry"].get("events_dropped"))
               for job in bench_jobs(doc, "telemetry")
               if job["telemetry"].get("events_dropped")]
    if not dropped:
        return
    print("WARNING: EventTrace ring overflowed (drop-oldest) — the event "
          "stream is truncated and every event count understates "
          "reality.  Raise TelemetryConfig::traceCapacity or sample less.",
          file=sys.stderr)
    for key, count in dropped:
        print(f"WARNING:   {key}: {count} event(s) dropped", file=sys.stderr)


def cmd_check(args):
    status = 0
    drifts = []
    for path in args.files:
        try:
            kind, payload, summary = load(path)
        except Malformed as err:
            status = fail(err)
            continue
        print(f"{path}: ok ({kind}, {summary})")
        if kind == "BENCH":
            warn_dropped_events(payload)
            drifts += [(t["occupancy_drift"], f"{job['key']}/{t['name']}")
                       for job in bench_jobs(payload, "service")
                       for t in job["service"]["tenants"]]
    if args.max_drift is None:
        return status
    if not drifts:
        return fail("--max-drift: no service tenant to check")
    violations = [(d, where) for d, where in drifts if d > args.max_drift]
    for drift, where in violations:
        fail(f"{where}: occupancy drift {drift:.4f} exceeds --max-drift "
             f"{args.max_drift}")
    if violations:
        return 1
    worst = max(drifts, key=lambda d: d[0])
    print(f"drift check: ok (worst {worst[0]:.4f} at {worst[1]}, bound "
          f"{args.max_drift})")
    return status


# ---------------------------------------------------------------------------
# render


def sparkline(values):
    """Map values onto a coarse per-character intensity scale."""
    lo, hi = min(values), max(values)
    top = len(SPARK) - 1
    return "".join(
        SPARK[min(top, int((v - lo) / (hi - lo) * top)) if hi > lo else 0]
        for v in values)


def render_telemetry_job(job):
    tel = job["telemetry"]
    epochs = tel["epochs"]
    print(f"== {job['key']} ==")
    print(f"   interval: {tel['interval']} accesses, {len(epochs)} epoch(s)"
          + (f", {tel['epochs_dropped']} dropped"
             if tel.get("epochs_dropped") else ""))
    if not epochs:
        print()
        return
    # PD over time (PDP policies; skipped when the policy has no PD).
    if any("pd" in e["policy"] for e in epochs):
        print("\n   PD over time:")
        print("   epoch   access       PD  hit rate")
        for e in epochs:
            print(f"   {e['epoch']:>5}  {e['access']:>8}  "
                  f"{e['policy'].get('pd', 0):>7}  {e['hit_rate']:>8.4f}")
    rates = [e["hit_rate"] for e in epochs]
    print(f"\n   interval hit rate: min {min(rates):.4f}  "
          f"max {max(rates):.4f}")
    print(f"   [{sparkline(rates)}]")
    if tel.get("events"):
        print("\n   events:" + (f" ({tel['events_dropped']} dropped)"
                                 if tel.get("events_dropped") else ""))
        print_event_counts(tel["events"], "   ")
    print()


def render_service_job(job):
    svc = job["service"]
    aware = "tenant-aware" if svc["tenant_aware"] else "unmanaged"
    print(f"== {job['key']} (service) ==")
    print(f"   policy {svc['policy']} ({aware})  joins {svc['joins']}  "
          f"leaves {svc['leaves']}  reallocs {svc['reallocs']}  "
          f"aggregate hit rate {svc['aggregate_hit_rate']:.4f}")
    print(f"\n   {'tenant':<8} {'slot':>4} {'requests':>9} {'hit rate':>9} "
          f"{'p99 miss':>9} {'quota':>7} {'occup':>7} {'drift':>7}  SLO")
    for t in svc["tenants"]:
        slo = (("h" if t.get("slo_hit_rate_met") else "-")
               + ("l" if t.get("slo_latency_met") else "-"))
        print(f"   {t['name']:<8} {t['slot']:>4} {t['requests']:>9} "
              f"{t['hit_rate']:>9.4f} {t['p99_miss_cycles']:>9.0f} "
              f"{t['mean_quota']:>7.3f} {t['mean_occupancy']:>7.3f} "
              f"{t['occupancy_drift']:>7.3f}  {slo}")
    print()


def render_bench(doc, job_filter):
    warn_dropped_events(doc)
    telemetry = bench_jobs(doc, "telemetry", job_filter)
    service = bench_jobs(doc, "service", job_filter)
    for job in telemetry:
        render_telemetry_job(job)
    for job in service:
        render_service_job(job)
    if not telemetry and not service:
        print("no jobs with telemetry or service sections"
              + (f" matching '{job_filter}'" if job_filter else "")
              + " — run with --telemetry to record some")


def render_waterfall(job, trace_id, spans):
    root = next((s for s in spans if s["type"] == "span:arrival"), None)
    if root is None:  # head-truncated by ring overflow; nothing to anchor
        return False
    f = root["fields"]
    print("trace %#014x  %s  tenant %d  request %d  access %d  (%d cycles)"
          % (int(trace_id), job, f["tenant"], f["request"], root["access"],
             f["cycles_end"] - f["cycles_begin"]))
    for span in spans:
        f = span["fields"]
        print("  %s%-12s cycles %d..%d"
              % ("" if span is root else "  ", span["type"][len("span:"):],
                 f["cycles_begin"], f["cycles_end"]))
    print()
    return True


def render_burn_timeline(events):
    by_tenant = {}
    for event in events:
        if event["type"] in BURN_TYPES:
            key = (event["job"], int(event["fields"]["tenant"]))
            by_tenant.setdefault(key, []).append(event)
    if not by_tenant:
        print("no slo_burn / slo_recovered events "
              "(all tenants stayed inside budget)")
        return
    print("burn-rate timeline (access: burn rate at each crossing):")
    for (job, tenant), crossings in sorted(by_tenant.items()):
        marks = "  ".join(
            "%s@%d burn=%.2f" % ("BURN" if e["type"] == "slo_burn" else "ok",
                                 e["access"], e["fields"]["burn_rate"])
            for e in crossings)
        print(f"  {job} tenant {tenant}: {marks}")
    print()


def render_trace(path, trace, job_filter, limit):
    header, events, _ = trace
    events = [e for e in events if job_filter in e["job"]]
    print(f"{path}: {header.get('experiment', '?')} "
          f"({len(events)} event(s))\n")
    groups = span_groups(events)
    shown = 0
    for (job, trace_id), spans in groups.items():
        if shown >= limit:
            print(f"... {len(groups) - shown} more sampled trace(s) "
                  "(raise --limit)\n")
            break
        shown += render_waterfall(job, trace_id, spans)
    if not groups:
        print("no span events (run with --obs-sample-rate > 0)\n")
    render_burn_timeline(events)
    print("event counts:")
    print_event_counts(events, "  ")


def render_flight(path, doc):
    events, spans = doc["events"], doc["open_spans"]
    print(f"{path}: flight dump")
    print(f"  job:        {doc['job']}")
    print(f"  reason:     {doc['reason']}"
          + (f" — {doc['detail']}" if doc.get("detail") else ""))
    print(f"  events:     {len(events)} ring entries"
          + (f", {doc['events_dropped']} dropped before capture"
             if doc.get("events_dropped") else ""))
    print(f"  open spans: {len(spans)}")
    for span in spans:
        print("    trace %#014x tenant %d request %d (access %d)"
              % (int(span["trace_id"]), span["tenant"], span["request"],
                 span["access"]))


def cmd_render(args):
    status = 0
    for path in args.files:
        try:
            kind, payload, _ = load(path)
        except Malformed as err:
            status = fail(err)
            continue
        if kind == "BENCH":
            render_bench(payload, args.job)
        elif kind == "TRACE":
            render_trace(path, payload, args.job, args.limit)
        else:
            render_flight(path, payload)
    return status


# ---------------------------------------------------------------------------
# perf


def ok_metric(doc, name):
    """job key -> metric `name` of every ok job reporting it, unfiltered,
    so a zero or negative baseline ratio fails instead of passing."""
    return {job["key"]: job["metrics"][name] for job in doc["jobs"]
            if job["status"] == "ok" and name in job.get("metrics", {})}


def positive(value):
    return isinstance(value, NUMBER) and not isinstance(value, bool) \
        and math.isfinite(value) and value > 0


def gate_rows(current, baseline, only_idle):
    """(rows, failures, waived) of the perf gate; a row is (key, metric,
    baseline, current, floor, status)."""
    floors, waived = {}, {}
    for (key, metric), (floor, threads_metric) in FLOORS.items():
        threads = ok_metric(current, threads_metric).get(key) \
            if threads_metric else None
        if isinstance(threads, NUMBER) and threads < MIN_LANE_WORKERS:
            waived[metric] = threads
        else:
            floors[(key, metric)] = floor
    rows, failures = [], []
    for metric in () if only_idle else FAMILIES:
        now, then = ok_metric(current, metric), ok_metric(baseline, metric)
        for key in sorted(then):
            base, cur = then[key], now.get(key)
            if not positive(base):
                failures.append(f"{key}: baseline {metric} ratio {base!r} is "
                                "not a positive finite number — fix the "
                                "committed baseline")
                rows.append((key, metric, base, cur, None, "BAD BASELINE"))
                continue
            floor = max(base * (1.0 - MAX_REGRESSION),
                        floors.get((key, metric), 0.0))
            if cur is None:
                status = "MISSING"
                failures.append(f"{key}: {metric} missing from current "
                                "results")
            elif not positive(cur):
                status = "FAIL"
                failures.append(f"{key}: current {metric} ratio {cur!r} is "
                                "not a positive finite number")
            elif cur < floor:
                status = "FAIL"
                failures.append(f"{key}: {metric} {cur:.2f}x below floor "
                                f"{floor:.2f}x (baseline {base:.2f}x)")
            else:
                status = "ok"
            rows.append((key, metric, base, cur, floor, status))
        rows += [(key, metric, None, now[key], None, "new")
                 for key in sorted(set(now) - set(then))]
    return rows, failures, waived


def cmd_perf(args):
    try:
        current = load_bench(args.current)
        baseline = load_bench(args.baseline)
    except Malformed as err:
        return fail(err)
    rows, failures, waived = gate_rows(current, baseline,
                                       args.only_telemetry_idle)
    if not args.only_telemetry_idle and \
            all(row[5] == "new" for row in rows):
        return fail(f"{args.baseline}: carries no gated ratios "
                    f"({', '.join(FAMILIES)})")
    # The telemetry-idle row gates only runs that include the job (older
    # dumps do not), except under --only-telemetry-idle, where a missing
    # metric means the run under test never exercised the gate.
    idle = ok_metric(current, "telemetry_idle_ratio").get(TELEMETRY_IDLE_KEY)
    idle_status = None
    if idle is None and args.only_telemetry_idle:
        failures.append(f"{TELEMETRY_IDLE_KEY}: telemetry_idle_ratio missing "
                        "from current results")
    elif idle is not None:
        idle_status = "ok" if positive(idle) and idle >= MIN_TELEMETRY_IDLE \
            else "FAIL"
        if idle_status == "FAIL":
            failures.append(f"{TELEMETRY_IDLE_KEY}: telemetry_idle_ratio "
                            f"{idle!r} below floor {MIN_TELEMETRY_IDLE:.3f}")

    def num(value, fmt="%.2fx"):
        finite = isinstance(value, NUMBER) and math.isfinite(value)
        return fmt % value if finite else "-"

    width = max([len(row[0]) for row in rows] +
                [len("telemetry idle overhead") if idle_status else
                 len("configuration")])
    line = "%-*s  %9s  %9s  %9s  %9s  %8s  %s"
    print(line % (width, "configuration", "metric", "baseline", "current",
                  "floor", "vs base", "status"))
    for key, metric, base, cur, floor, status in rows:
        ratio = cur / base if positive(cur) and positive(base) else None
        print(line % (width, key, FAMILIES[metric], num(base), num(cur),
                      num(floor), num(ratio, "%.2f"), status))
    if idle_status:
        print(line % (width, "telemetry idle overhead", "idle", "-",
                      num(idle, "%.3fx"), num(MIN_TELEMETRY_IDLE, "%.3fx"),
                      "-", idle_status))
    for metric, threads in waived.items():
        print(f"note: absolute {FAMILIES[metric]} floor waived — run used "
              f"{int(threads)} lane worker(s), floor needs "
              f"{MIN_LANE_WORKERS} (regression bar still applies)")
    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nperf gate passed.")
    return 0


# ---------------------------------------------------------------------------
# diff


def job_scalars(job):
    """One BENCH job's numeric results, flattened to dotted paths."""
    out = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for name, value in node.items():
                walk(f"{prefix}.{name}", value)
        elif isinstance(node, NUMBER) and not isinstance(node, bool):
            out[prefix] = float(node)

    for section in ("metrics", "single", "multi", "service"):
        if section in job:
            walk(section, job[section])
    return out


def cmd_diff(args):
    try:
        old_doc, new_doc = load_bench(args.old), load_bench(args.new)
    except Malformed as err:
        return fail(err)
    old_jobs = {job["key"]: job for job in old_doc["jobs"]}
    new_jobs = {job["key"]: job for job in new_doc["jobs"]}
    changes = regressions = 0
    for key in sorted(set(old_jobs) & set(new_jobs)):
        old_vals = job_scalars(old_jobs[key])
        new_vals = job_scalars(new_jobs[key])
        for name in sorted(set(old_vals) & set(new_vals)):
            a, b = old_vals[name], new_vals[name]
            if a == b:
                continue
            delta = (b - a) / abs(a) if a else float("inf")
            changes += 1
            flag = abs(delta) > args.tolerance
            regressions += flag
            print("%s %s %s: %.12g -> %.12g (%+.2f%%)"
                  % ("!" if flag else " ", key, name, a, b, delta * 100))
    only_old = sorted(set(old_jobs) - set(new_jobs))
    for key in only_old:
        print(f"! {key}: missing from {args.new}")
    for key in sorted(set(new_jobs) - set(old_jobs)):
        print(f"  {key}: new in {args.new}")
    print(f"\n{changes} changed metric(s), {regressions} beyond tolerance "
          f"{args.tolerance * 100:.2f}%, {len(only_old)} job(s) missing")
    return 1 if regressions or only_old else 0


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="validate any mix of artifacts")
    check.add_argument("files", nargs="+", metavar="FILE")
    check.add_argument("--max-drift", type=float, metavar="BOUND",
                       help="fail if any service tenant's quota-vs-"
                       "occupancy drift exceeds BOUND, in (0, 1]")
    render = sub.add_parser("render", help="render any mix of artifacts")
    render.add_argument("files", nargs="+", metavar="FILE")
    render.add_argument("--job", default="", metavar="SUBSTRING",
                        help="only jobs whose key contains SUBSTRING")
    render.add_argument("--limit", type=int, default=5, metavar="N",
                        help="TRACE span waterfalls to render (default 5)")
    perf = sub.add_parser("perf", help="gate BENCH_hotpath.json against "
                          "the committed baseline")
    perf.add_argument("current")
    perf.add_argument("baseline")
    perf.add_argument("--only-telemetry-idle", action="store_true",
                      help="gate only the telemetry-idle row, which must "
                      "then be present (a --filter'ed hotpath run has no "
                      "ratio rows)")
    diff = sub.add_parser("diff", help="per-job metric diff of two BENCH "
                          "documents")
    diff.add_argument("old")
    diff.add_argument("new")
    diff.add_argument("--tolerance", type=float, default=0.05,
                      help="relative change beyond which a metric fails "
                      "(default 0.05)")
    args = parser.parse_args(argv)
    if args.command == "check" and args.max_drift is not None and \
            not 0.0 < args.max_drift <= 1.0:
        parser.error("--max-drift must be in (0, 1]")
    if args.command == "render" and args.limit < 0:
        parser.error("--limit must not be negative")
    if args.command == "diff" and not args.tolerance >= 0.0:
        parser.error("--tolerance must be a non-negative number")
    return COMMANDS[args.command](args)


COMMANDS = {"check": cmd_check, "render": cmd_render, "perf": cmd_perf,
            "diff": cmd_diff}

if __name__ == "__main__":
    sys.exit(main())
