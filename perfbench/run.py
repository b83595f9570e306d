#!/usr/bin/env python3
"""End-to-end benchmark of the PDP cache simulator.

Builds perfbench/ (which compiles ../src) with CMake, runs one workload in a
fresh single-threaded process, checks the simulated statistics and prints a
summary followed by one JSON result line. Run from the repository root:

    python3 perfbench/run.py --workload fig10 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record --workload fig10 --seed 1

--trace 1 runs the separate traced mode and reports the per-layer ledger
instead of the end-to-end metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("fig10", "explore_grid", "fig12_4c", "service_t16")
DEFAULT_SEED = 1
HELD_OUT_SEED = 97
# A workload that can set up only once per process is set up in this many
# fresh processes (the timed one included); see setupSamples in
# perfbench.cc.
SETUP_PROCESSES = 3
CHILD_TIMEOUT_S = 150
# A fixed mmap threshold turns off glibc's adaptive one, so every large
# block is mapped and unmapped on its own and peak RSS measures the live
# peak; the adaptive threshold made it depend on allocation history
# (fig12_4c read 6.6 or 9.1 MiB depending on the seed's benchmark order).
CHILD_ENV = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.mmap_threshold=131072")
# The host-speed reference walk's fastest time on the measuring host in
# its fast state (HostReference in perfbench.cc; README.md, "Host-speed
# scaling"); time metrics are scaled to it.
REFERENCE_NS = 1_600_000

E2E_UNITS = {
    "maccess_per_s": "M/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "passed_frac": "ratio",
}

NS_ACCESS, NS_OP, NS_REQ = "ns/access", "ns/op", "ns/request"
# The ledger every workload reports under the same names (the JSON of a
# traced run); service_t16 counts a request as an access.
LAYER_UNITS = {
    "trace.gen_ns": NS_ACCESS,
    "cache.l2_ns": NS_ACCESS,
    "cache.l2_hit_ratio": "ratio",
    "cache.llc_ops_per_access": "ratio",
    "cache.writeback_frac": "ratio",
    "cache.llc_ns": NS_OP,
    "core.pdp_llc_ns": NS_OP,
    "policies.hit_ratio": "ratio",
    "sim.timing_ns": NS_ACCESS,
    "sim.closure_gap": "ratio",
}
# Printed in the traced summary for the workloads that run them, but not
# in the JSON, which must hold the same names on every workload: the
# per-policy and per-workload layers, the sim.driver_ns residual (it can
# be negative) and sim.closure (its target is 1; sim.closure_gap is
# compared).
SUMMARY_ONLY = {
    "trace.tenant_ns": NS_REQ,
    "trace.clock_ns": NS_REQ,
    "cache.llc_ns.LRU": NS_OP,
    "policies.llc_ns.DRRIP": NS_OP,
    "core.llc_ns.PDP-8": NS_OP,
    "core.llc_ns.SPDP-NB": NS_OP,
    "core.llc_ns.SPDP-B": NS_OP,
    "policies.hit_ratio.LRU": "ratio",
    "policies.hit_ratio.DRRIP": "ratio",
    "policies.hit_ratio.PDP-8": "ratio",
    "policies.hit_ratio.SPDP-NB": "ratio",
    "policies.hit_ratio.SPDP-B": "ratio",
    "policies.hit_ratio.TA-DRRIP": "ratio",
    "policies.hit_ratio.UCP": "ratio",
    "policies.hit_ratio.PIPP": "ratio",
    "policies.hit_ratio.PDP-3": "ratio",
    "core.bypass_ratio.PDP-8": "ratio",
    "core.bypass_ratio.SPDP-B": "ratio",
    "core.bypass_ratio.PDP-3": "ratio",
    "core.pd_recomputes": "count",
    "partition.llc_ns.TA-DRRIP": NS_OP,
    "partition.llc_ns.UCP": NS_OP,
    "partition.llc_ns.PIPP": NS_OP,
    "partition.llc_ns.PDP-3": NS_OP,
    "partition.lookaheads.UCP": "count",
    "partition.lookaheads.PIPP": "count",
    "partition.baseline_s": "s",
    "sim.frontend_ns": NS_ACCESS,
    "sim.lane_timing_ns": NS_OP,
    "cache.hier_ns": NS_REQ,
    "service.req_ns.LRU": NS_REQ,
    "service.req_ns.UCP": NS_REQ,
    "service.req_ns.PDP-3": NS_REQ,
    "service.other_ns": NS_REQ,
    "service.reallocs": "count",
    "sim.driver_ns": NS_ACCESS,
    "sim.closure": "ratio",
}
# sim.closure outside this band means a layer is missing from the ledger.
CLOSURE_BAND = (0.9, 1.1)


def note(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (cheap once cached; a failed configure is retried) and
    build incrementally; returns the binary."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target.resolve() / "perfbench"
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "pdp_perfbench"


def run_child(binary, args):
    """One fresh process; the parent's clock reading before the spawn
    lets the child report program load (spawn to main) as load_s."""
    argv = [str(binary)] + args + ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=CHILD_ENV, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout)


def load_expected(workload, seed):
    """Committed statistics for this workload and seed, or None."""
    if not EXPECTED.exists():
        return None
    doc = json.loads(EXPECTED.read_text())
    return doc.get(workload, {}).get(str(seed))


def failed_cells(cells, expected):
    """Keys of the cells that threw, broke an invariant or a cross-check,
    or (when the seed has committed statistics) differ from them."""
    failed = []
    for cell in cells:
        bad = bool(cell["error"] or cell["problems"])
        if expected is not None:
            bad = bad or expected.get(cell["key"]) != cell["fields"]
        if bad:
            failed.append(cell["key"])
    if expected is not None:
        seen = {cell["key"] for cell in cells}
        failed += sorted(key for key in expected if key not in seen)
    return failed


def explain(cells, expected, failed):
    for cell in cells:
        if cell["key"] not in failed:
            continue
        why = [cell["error"]] if cell["error"] else []
        why += cell["problems"]
        want = (expected or {}).get(cell["key"])
        if expected is not None and want != cell["fields"]:
            diffs = [f"{k} {cell['fields'].get(k)} != {v}"
                     for k, v in (want or {}).items()
                     if cell["fields"].get(k) != v]
            why.append("expected " + ("; ".join(diffs[:3]) or "cell"))
        note(f"FAILED {cell['key']}: {' | '.join(why)}")


def timed(binary, args):
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    out = run_child(binary, common + ["--seconds", str(args.seconds)])
    children = [out]
    if out["setup_rounds"] == 1:
        # The workload sets up once per process (fig12_4c): more processes.
        children += [run_child(binary, common + ["--setup-only"])
                     for _ in range(SETUP_PROCESSES - 1)]
    rounds = sum(child["setup_rounds"] for child in children)
    load_s = statistics.median(child["load_s"] for child in children)
    reps = out["reps"]  # per rep, [accesses, ns] of each simulation call
    rates = [sum(a for a, _ in rep) / sum(ns for _, ns in rep) * 1e3
             for rep in reps]
    # Other tenants' memory traffic only ever slows a call down, in
    # stretches of seconds, so each call's fastest time in the run is its
    # least disturbed reading (README.md, "Steadiness").
    fastest_ns = sum(min(times) for times in
                     zip(*([ns for _, ns in rep] for rep in reps)))
    expected = load_expected(args.workload, args.seed)
    failed = failed_cells(out["cells"], expected)
    explain(out["cells"], expected, failed)
    attempted = len(out["cells"]) + sum(
        1 for key in (expected or {})
        if key not in {c["key"] for c in out["cells"]})
    # The host's own speed changes for minutes at a time, so each time is
    # scaled to a fixed host speed: by REFERENCE_NS over the fastest
    # reference walk of the same process (README.md, "Host-speed scaling").
    scale = out["reference_ns"] / REFERENCE_NS
    rate = sum(a for a, _ in reps[0]) / fastest_ns * 1e3
    # The fastest set-up round, as for the calls above.
    setup = min(child["setup_s"] * REFERENCE_NS / child["reference_ns"]
                for child in children)
    metrics = {
        "maccess_per_s": rate * scale,
        "setup_s": setup,
        "peak_rss_mb": out["peak_rss_kib"] / 1024.0,
        "passed_frac": (attempted - len(failed)) / attempted,
    }
    print(f"{args.workload} seed {args.seed} ({out['inputs'] or 'inputs'}"
          f" built from the seed), {len(rates)} reps, "
          f"{rounds} set-up rounds, checked against "
          f"{'committed statistics' if expected else 'the reference replay'}")
    print(f"  host reference walk {out['reference_ns'] / 1e6:.4f} ms, scale "
          f"{scale:.4f}; unscaled: maccess_per_s {rate:.4f} M/s, setup_s "
          f"{min(c['setup_s'] for c in children):.9f} s")
    print(f"  maccess_per_s {metrics['maccess_per_s']:.4f} M/s (each call's "
          f"fastest time; unscaled whole reps: fastest {max(rates):.3f}, "
          f"median {statistics.median(rates):.3f}, slowest {min(rates):.3f})")
    print(f"  setup_s       {metrics['setup_s']:.9f} s (program load, not "
          f"included: {load_s * 1e3:.3f} ms)")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb']:.2f} MiB")
    print(f"  failed_frac   {len(failed) / attempted:g} "
          f"({len(failed)}/{attempted} cells)")
    return out["cells"], attempted, failed, metrics


def traced(binary, args):
    out = run_child(binary, ["--workload", args.workload, "--seed",
                             str(args.seed), "--seconds", str(args.seconds),
                             "--trace"])
    spans_file = binary.parent / f"spans-{args.workload}-{args.seed}.json"
    spans_file.write_text(json.dumps(out["spans"]))
    expected = load_expected(args.workload, args.seed)
    failed = failed_cells(out["cells"], expected)
    explain(out["cells"], expected, failed)
    attempted = len(out["cells"]) or 1
    reps = out["layers"]
    # Every rep sets the same names: the common ledger, plus the detail of
    # the layers this workload runs.
    units = {**LAYER_UNITS, **SUMMARY_ONLY}
    metrics = {name: statistics.median(rep[name] for rep in reps)
               for name in units if name in reps[0]}
    # A ledger that misses a layer or counts one twice reads further from
    # 1 either way.
    metrics["sim.closure_gap"] = abs(1.0 - metrics["sim.closure"])
    missing = [name for name in LAYER_UNITS if name not in metrics]
    if missing:
        raise ValueError(f"the ledger lacks {', '.join(missing)}")
    print(f"{args.workload} seed {args.seed}: traced ledger, median of "
          f"{len(reps)} reps; spans in {spans_file}")
    for name in LAYER_UNITS:
        print(f"  {name:28s} {metrics[name]:14.4f} {units[name]}")
    print("  detail of this workload's layers (not in the JSON):")
    for name in SUMMARY_ONLY:
        if name in metrics:
            print(f"  {name:28s} {metrics[name]:14.4f} {units[name]}")
    for line in out["notes"]:
        print(f"  {line}")
    closure = metrics["sim.closure"]
    if not CLOSURE_BAND[0] <= closure <= CLOSURE_BAND[1]:
        missing = ("service.other_ns (scheduler scan, lifecycle, SLO walk)"
                   if args.workload == "service_t16" else "sim.driver_ns")
        print(f"  closure {closure:.3f} is outside {CLOSURE_BAND}: the "
              f"unmeasured layer is {missing}")
    if args.workload == "service_t16":
        print("  note: the service split is an estimate from a round-robin "
              "replay of the tenant streams")
    return out["cells"], attempted, failed, metrics


def record(binary, args):
    """Write the statistics of one rep into expected.json."""
    out = run_child(binary, ["--workload", args.workload, "--seed",
                             str(args.seed), "--seconds", "0"])
    bad = failed_cells(out["cells"], None)
    if bad:
        note(f"refusing to record: cells failed: {bad}")
        return 1
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    doc.setdefault(args.workload, {})[str(args.seed)] = {
        cell["key"]: cell["fields"] for cell in out["cells"]}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    note(f"recorded {len(out['cells'])} cells of {args.workload} "
         f"seed {args.seed}")
    return 0


def self_test(binary):
    """The correctness gate must pass HEAD and catch a one-field plant."""
    ok = all(load_expected(w, seed) for w in WORKLOADS
             for seed in (DEFAULT_SEED, HELD_OUT_SEED))
    out = run_child(binary, ["--workload", "fig10", "--seed",
                             str(DEFAULT_SEED), "--seconds", "0"])
    expected = load_expected("fig10", DEFAULT_SEED)
    ok = ok and expected is not None and \
        failed_cells(out["cells"], expected) == []
    planted = json.loads(json.dumps(expected or {}))
    if planted:
        key = sorted(planted)[0]
        field = sorted(planted[key])[0]
        planted[key][field] += 1
        ok = ok and failed_cells(out["cells"], planted) == [key]
    thrown = json.loads(json.dumps(out["cells"]))
    thrown[-1]["error"] = "planted"
    ok = ok and failed_cells(thrown, expected) == [thrown[-1]["key"]]
    print("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's statistics as expected")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        binary = build()
        if args.self_test:
            return self_test(binary)
        if args.record:
            return record(binary, args)
        run = traced if args.trace else timed
        cells, attempted, failed, metrics = run(binary, args)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        note(f"perfbench: {e}")
        return 1

    units = LAYER_UNITS if args.trace else E2E_UNITS
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
