#!/usr/bin/env python3
"""Compare a fresh BENCH_hotpath.json against the committed baseline.

The hotpath suite reports machine-independent paired ratios: every SoA
job measures interleaved segments against an in-job reference walk, so
both sides of a pair see the same machine weather.  Three ratio families
are gated:

  * ``vs_aos`` — the SoA substrate against the frozen pre-SoA reference
    cache, one row per policy configuration,
  * ``sweep_speedup`` — the lockstep multi-config sweep against the
    equivalent independent sequential runs,
  * ``explore_speedup`` — the model-pruned design-space explorer
    (fingerprint + analytic ranking + top-K lockstep simulation)
    against the exhaustive simulate-everything grid.

The gate fails when

  * a row's current ratio regressed more than ``--max-regression``
    (default 25%) below the committed baseline ratio,
  * the LRU configuration's ``vs_aos`` falls below ``--min-lru-ratio``
    (default 2.0, the substrate's acceptance bar),
  * the sweep row's ``sweep_speedup`` falls below
    ``--min-sweep-speedup`` (default 4.0, the lockstep engine's
    acceptance bar).  The absolute floor only applies when the run's
    ``sweep_threads`` metric reports at least ``--min-sweep-threads``
    lane workers (default 4): the sweep's 19 exact policy replays are
    irreducible work, so a 1-core host tops out near 2x regardless of
    front-end amortization and only the regression bar is meaningful
    there.  CI runners provide 4 vCPUs, so the floor is enforced in CI,
  * the explore row's ``explore_speedup`` falls below
    ``--min-explore-speedup`` (default 10.0, the explorer's acceptance
    bar).  Like the sweep floor, it only applies when the run's
    ``explore_threads`` metric reports at least ``--min-explore-threads``
    lane workers (default 4): the pruned side still replays its
    contender policies exactly, so a 1-core host cannot reach the
    full pruning ratio,
  * a row present in the baseline is missing from the current run,
  * a baseline row carries a zero/negative/non-finite ratio — a corrupt
    baseline must fail loudly instead of silently waving the gate
    through,
  * the telemetry-idle job reports a ``telemetry_idle_ratio`` below
    ``--min-telemetry-idle`` (default 0.98; skipped when the current
    run carries no such metric).

``--only-telemetry-idle`` gates just that last row: the ratio families
are skipped entirely (a ``--filter``'ed hotpath run carries no
sweep/explore rows to compare), and the ``telemetry_idle_ratio`` metric
becomes REQUIRED — CI's obs-smoke job uses this to hold the
observability plane to its <2% enabled-idle overhead budget.

Every row prints its measured-vs-baseline ratio (``vs base``), passing
or not, so CI logs show headroom, not just pass/fail.  ``--json`` emits
the same comparison as a machine-readable document on stdout.

Only the Python standard library is used.

Usage:
    tools/check_perf.py CURRENT_JSON BASELINE_JSON [options]
"""

import argparse
import json
import math
import sys

LRU_KEY = "hotpath/llc/LRU"
TELEMETRY_IDLE_KEY = "hotpath/llc/LRU-telemetry-idle"
SWEEP_KEY = "hotpath/sweep/SPDP-B-grid"
EXPLORE_KEY = "hotpath/explore/SPDP-grid"

# The gated ratio families: metric name -> short label for the report.
FAMILIES = [
    ("vs_aos", "vs AoS"),
    ("sweep_speedup", "sweep"),
    ("explore_speedup", "explore"),
]
FAMILIES_LABEL = dict(FAMILIES)


def load_doc(path):
    """Load a BENCH json, failing with a clear message on bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise SystemExit("error: cannot read %s: %s" % (path, err))
    except ValueError as err:
        raise SystemExit("error: %s is not valid JSON: %s" % (path, err))


def load_metrics(doc, name):
    """Map job key -> `name` metric for every ok job that carries one.

    Values are returned unfiltered — zero or negative ratios must be
    visible to the caller so a broken baseline fails instead of
    vacuously passing.
    """
    values = {}
    for job in doc.get("jobs", []):
        if job.get("status") != "ok":
            continue
        metrics = job.get("metrics", {})
        if name in metrics:
            values[job["key"]] = metrics[name]
    return values


def valid_ratio(value):
    return isinstance(value, (int, float)) and math.isfinite(value) \
        and value > 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Gate the hotpath paired throughput ratios of a "
        "BENCH_hotpath.json against the committed baseline.")
    parser.add_argument("current", help="freshly produced BENCH_hotpath.json")
    parser.add_argument("baseline",
                        help="committed baseline (ci/BENCH_hotpath_baseline.json)")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="maximum fractional drop below the baseline "
                        "ratio before failing (default: 0.25)")
    parser.add_argument("--min-lru-ratio", type=float, default=2.0,
                        help="absolute floor for the %s vs_aos ratio "
                        "(default: 2.0)" % LRU_KEY)
    parser.add_argument("--min-sweep-speedup", type=float, default=4.0,
                        help="absolute floor for the %s sweep_speedup ratio "
                        "(default: 4.0)" % SWEEP_KEY)
    parser.add_argument("--min-sweep-threads", type=int, default=4,
                        help="lane workers the current run must report "
                        "(sweep_threads metric) before the absolute sweep "
                        "floor applies (default: 4)")
    parser.add_argument("--min-explore-speedup", type=float, default=10.0,
                        help="absolute floor for the %s explore_speedup "
                        "ratio (default: 10.0)" % EXPLORE_KEY)
    parser.add_argument("--min-explore-threads", type=int, default=4,
                        help="lane workers the current run must report "
                        "(explore_threads metric) before the absolute "
                        "explore floor applies (default: 4)")
    parser.add_argument("--min-telemetry-idle", type=float, default=0.98,
                        help="floor for the telemetry_idle_ratio metric "
                        "when present (default: 0.98)")
    parser.add_argument("--only-telemetry-idle", action="store_true",
                        help="gate only the telemetry-idle overhead row: "
                        "skip the ratio families (a --filter'ed hotpath "
                        "run carries no sweep/explore rows) and REQUIRE "
                        "the telemetry_idle_ratio metric to be present")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the comparison as JSON on stdout")
    args = parser.parse_args(argv)

    current_doc = load_doc(args.current)
    baseline_doc = load_doc(args.baseline)

    absolute_floors = {
        (LRU_KEY, "vs_aos"): args.min_lru_ratio,
        (SWEEP_KEY, "sweep_speedup"): args.min_sweep_speedup,
        (EXPLORE_KEY, "explore_speedup"): args.min_explore_speedup,
    }
    # The sweep/explore absolute floors need real lane parallelism; with
    # fewer workers than the respective --min-*-threads only the
    # regression bar applies.
    sweep_threads = load_metrics(current_doc, "sweep_threads").get(SWEEP_KEY)
    sweep_floor_waived = (sweep_threads is not None and
                          sweep_threads < args.min_sweep_threads)
    if sweep_floor_waived:
        del absolute_floors[(SWEEP_KEY, "sweep_speedup")]
    explore_threads = load_metrics(current_doc, "explore_threads") \
        .get(EXPLORE_KEY)
    explore_floor_waived = (explore_threads is not None and
                            explore_threads < args.min_explore_threads)
    if explore_floor_waived:
        del absolute_floors[(EXPLORE_KEY, "explore_speedup")]

    failures = []
    rows = []
    baseline_rows = 0
    families = [] if args.only_telemetry_idle else FAMILIES
    for metric, label in families:
        current = load_metrics(current_doc, metric)
        baseline = load_metrics(baseline_doc, metric)
        baseline_rows += len(baseline)
        for key in sorted(baseline):
            base = baseline[key]
            if not valid_ratio(base):
                failures.append(
                    "%s: baseline %s ratio %r is not a positive finite "
                    "number — fix the committed baseline" %
                    (key, metric, base))
                rows.append({"key": key, "metric": metric, "baseline": base,
                             "current": current.get(key), "floor": None,
                             "vs_baseline": None, "status": "BAD BASELINE"})
                continue
            floor = base * (1.0 - args.max_regression)
            floor = max(floor, absolute_floors.get((key, metric), 0.0))
            cur = current.get(key)
            if cur is None:
                status = "MISSING"
                failures.append("%s: %s missing from current results" %
                                (key, metric))
            elif not valid_ratio(cur):
                status = "FAIL"
                failures.append("%s: current %s ratio %r is not a positive "
                                "finite number" % (key, metric, cur))
            elif cur < floor:
                status = "FAIL"
                failures.append("%s: %s %.2fx below floor %.2fx "
                                "(baseline %.2fx)" %
                                (key, metric, cur, floor, base))
            else:
                status = "ok"
            rows.append({"key": key, "metric": metric, "baseline": base,
                         "current": cur, "floor": floor,
                         "vs_baseline": cur / base
                         if cur is not None and valid_ratio(cur) else None,
                         "status": status})
        for key in sorted(set(current) - set(baseline)):
            rows.append({"key": key, "metric": metric, "baseline": None,
                         "current": current[key], "floor": None,
                         "vs_baseline": None, "status": "new"})
    if baseline_rows == 0 and not args.only_telemetry_idle:
        print("error: baseline %s carries no gated ratios (%s)" %
              (args.baseline, ", ".join(m for m, _ in FAMILIES)),
              file=sys.stderr)
        return 1

    # Telemetry-idle overhead gate: only meaningful when the current run
    # includes the hotpath telemetry-idle job (older dumps do not) —
    # except under --only-telemetry-idle, where a missing metric means
    # the run under test did not exercise the gate at all and must fail.
    idle = load_metrics(current_doc, "telemetry_idle_ratio") \
        .get(TELEMETRY_IDLE_KEY)
    idle_row = None
    if idle is None and args.only_telemetry_idle:
        failures.append("%s: telemetry_idle_ratio missing from current "
                        "results" % TELEMETRY_IDLE_KEY)
    if idle is not None:
        ok = valid_ratio(idle) and idle >= args.min_telemetry_idle
        if not ok:
            failures.append(
                "%s: telemetry_idle_ratio %r below floor %.3f" %
                (TELEMETRY_IDLE_KEY, idle, args.min_telemetry_idle))
        idle_row = {"key": TELEMETRY_IDLE_KEY, "metric":
                    "telemetry_idle_ratio", "current": idle,
                    "floor": args.min_telemetry_idle,
                    "status": "ok" if ok else "FAIL"}

    if args.as_json:
        print(json.dumps({"rows": rows, "telemetry_idle": idle_row,
                          "sweep_floor_waived": sweep_floor_waived,
                          "explore_floor_waived": explore_floor_waived,
                          "failures": failures,
                          "passed": not failures}, indent=2))
        return 1 if failures else 0

    width = max([len(r["key"]) for r in rows],
                default=len("configuration"))
    if idle_row:
        width = max(width, len("telemetry idle overhead"))
    print("%-*s  %9s  %9s  %9s  %9s  %8s  status" %
          (width, "configuration", "metric", "baseline", "current",
           "floor", "vs base"))
    for row in rows:
        fmt = lambda v, suffix="x": ("%.2f%s" % (v, suffix)) \
            if isinstance(v, (int, float)) and math.isfinite(v) else "-"
        print("%-*s  %9s  %9s  %9s  %9s  %8s  %s" %
              (width, row["key"], FAMILIES_LABEL[row["metric"]],
               fmt(row["baseline"]), fmt(row["current"]),
               fmt(row["floor"]), fmt(row["vs_baseline"], ""),
               row["status"]))
    if idle_row:
        fmt3 = lambda v: ("%.3fx" % v) \
            if isinstance(v, (int, float)) and math.isfinite(v) else repr(v)
        print("%-*s  %9s  %9s  %9s  %9s  %8s  %s" %
              (width, "telemetry idle overhead", "idle", "-",
               fmt3(idle_row["current"]), fmt3(idle_row["floor"]), "-",
               idle_row["status"]))

    if sweep_floor_waived:
        print("note: absolute sweep floor waived — run used %d lane "
              "worker(s), floor needs %d (regression bar still applies)" %
              (int(sweep_threads), args.min_sweep_threads))
    if explore_floor_waived:
        print("note: absolute explore floor waived — run used %d lane "
              "worker(s), floor needs %d (regression bar still applies)" %
              (int(explore_threads), args.min_explore_threads))

    if failures:
        print("\nperf gate FAILED:")
        for failure in failures:
            print("  - " + failure)
        return 1
    print("\nperf gate passed.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
