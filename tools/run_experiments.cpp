/**
 * @file
 * run_experiments — list, filter and run named experiment suites on the
 * parallel experiment runner (src/runner/).  Every paper figure, table
 * and section of the evaluation is a suite (--list names them), and the
 * flags below are the only configuration: no environment variable is
 * read.
 *
 * Usage:
 *   run_experiments --list
 *   run_experiments --suite <name> [--suite <name> ...]
 *                   [--filter <substring>] [--jobs N] [--scale X]
 *                   [--json DIR|none] [--timeout SECONDS] [--verbose]
 *                   [--telemetry] [--trace]
 *                   [--obs-sample-rate X] [--perf-counters]
 *                   [--fault-at N]
 *                   [--tenants N] [--churn N] [--deterministic-json]
 *                   [--explore]
 *
 * --filter keeps the jobs whose key contains the substring, before
 * runner::selectJobs folds adjacent cells into lockstep sweeps.
 *
 * --telemetry records per-epoch policy snapshots (PD, RDD, PSEL,
 * partition allocations, interval hit rates) into each job's results.
 * --trace additionally derives structured events (PD changes, PSEL
 * flips, partition reallocations) and writes TRACE_<suite>.jsonl; it
 * implies --telemetry.  Check or render either with
 * tools/pdpreport.py.
 *
 * The observability plane (DESIGN.md "Observability plane"):
 * --obs-sample-rate X head-samples service-mode request lifecycles into
 * span events at rate X in [0, 1] (implies --trace; deterministic
 * per-request hash decision, so sampled spans byte-compare across
 * worker counts).  --perf-counters profiles each job and telemetry
 * epoch with a hardware perf-counter group (hw/perf_counters.h),
 * degrading to an absent section where perf_event_open is unavailable.
 * --fault-at N trips an injected PDP_CHECK at measured access N in
 * every service job, exercising the fault flight recorder
 * (FLIGHT_<job>.json).  Check or render it with tools/pdpreport.py.
 *
 * --explore switches the `explore` suite from the exhaustive static-PD
 * grid to the model-pruned path: the analytic estimator (src/model/)
 * ranks every (family, PD) cell in microseconds and only the top 3
 * contenders per family plus one seeded audit cell from the pruned
 * tail are simulated.  Other suites ignore the flag.
 *
 * --tenants / --churn parameterize the `service` suite's scripted
 * tenant population (other suites ignore them).  --deterministic-json
 * writes BENCH_<suite>.json in the volatile-free form so on-disk files
 * byte-compare across worker counts (CI's service-smoke identity
 * check).
 *
 * --scale multiplies every run length (default 1; at most 1e9).  --jobs
 * defaults to every hardware thread, and results are bit-identical for
 * any value.  --json DIR writes BENCH_<suite>.json into DIR (default the
 * current directory; `none` disables).
 *
 * Exit code is the number of jobs that did not finish Ok plus the
 * number of result files that could not be written (2 for usage errors,
 * including an output directory that does not exist, a filter that
 * leaves a suite with no job and a --scale that leaves a suite's runs
 * no measured access), so CI can gate on it.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "check/check.h"
#include "runner/results_sink.h"
#include "runner/suites.h"
#include "util/parse.h"

namespace
{

void
printUsage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: run_experiments --list\n"
                 "       run_experiments --suite <name> [--suite <name>]\n"
                 "                       [--filter <substring>] [--jobs N]\n"
                 "                       [--scale X] [--json DIR|none]\n"
                 "                       [--timeout SECONDS] [--verbose]\n"
                 "                       [--telemetry] [--trace]\n"
                 "                       [--obs-sample-rate X]\n"
                 "                       [--perf-counters] [--fault-at N]\n"
                 "                       [--tenants N] [--churn N]\n"
                 "                       [--deterministic-json]\n"
                 "                       [--explore]\n"
                 "\n"
                 "--telemetry samples per-epoch policy state into the\n"
                 "BENCH json; --trace also writes TRACE_<suite>.jsonl\n"
                 "structured events.\n"
                 "\n"
                 "--obs-sample-rate X head-samples service request\n"
                 "lifecycles into span events at rate X in [0, 1]\n"
                 "(implies --trace); --perf-counters profiles jobs and\n"
                 "epochs with hardware counters (absent where\n"
                 "perf_event_open is unavailable); --fault-at N trips an\n"
                 "injected check at measured access N in service jobs\n"
                 "(flight-recorder exercise).\n"
                 "\n"
                 "--explore prunes the `explore` suite's static-PD grid\n"
                 "with the analytic model and simulates only the top 3\n"
                 "contenders per family plus one seeded audit cell.\n"
                 "\n"
                 "--tenants/--churn shape the `service` suite's scripted\n"
                 "population; --deterministic-json writes the BENCH json\n"
                 "in the volatile-free (byte-comparable) form.\n"
                 "\n"
                 "--scale X multiplies run lengths (default 1, at most\n"
                 "1e9); --jobs N defaults to every hardware thread;\n"
                 "--json DIR defaults to the current directory.\n");
}

void
listSuites()
{
    std::printf("available suites:\n");
    for (const pdp::runner::Suite &suite : pdp::runner::allSuites())
        std::printf("  %-20s %s\n", suite.name.c_str(),
                    suite.description.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    pdp::runner::SuiteOptions options;

    std::vector<std::string> suites;
    bool list = false;

    auto needValue = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            std::exit(2);
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list" || arg == "-l") {
            list = true;
        } else if (arg == "--suite" || arg == "-s") {
            suites.push_back(needValue(i));
        } else if (arg == "--filter" || arg == "-f") {
            options.filter = needValue(i);
        } else if (arg == "--jobs" || arg == "-j") {
            const auto jobs = pdp::parseUnsigned(needValue(i));
            if (!jobs || *jobs == 0 || *jobs > 4096) {
                std::fprintf(stderr,
                             "--jobs wants an integer in [1, 4096], got "
                             "\"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.workers = static_cast<unsigned>(*jobs);
        } else if (arg == "--tenants") {
            const auto tenants = pdp::parseUnsigned(needValue(i));
            if (!tenants || *tenants == 0 || *tenants > 32) {
                std::fprintf(stderr,
                             "--tenants wants an integer in [1, 32] (the "
                             "thread-id cap), got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.serviceTenants = static_cast<unsigned>(*tenants);
        } else if (arg == "--churn") {
            const auto churn = pdp::parseUnsigned(needValue(i));
            if (!churn) {
                std::fprintf(stderr,
                             "--churn wants a non-negative integer, got "
                             "\"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.serviceChurn = static_cast<unsigned>(*churn);
        } else if (arg == "--deterministic-json") {
            options.deterministicJson = true;
        } else if (arg == "--explore") {
            options.explore = true;
        } else if (arg == "--scale") {
            // !(scale > 0) also rejects NaN; past 1e9 the scaled run
            // lengths overflow uint64_t.
            const auto scale = pdp::parseDouble(needValue(i));
            if (!scale || !(*scale > 0) || *scale > 1e9) {
                std::fprintf(stderr,
                             "--scale wants a positive number up to 1e9, "
                             "got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.scale = *scale;
        } else if (arg == "--json") {
            options.jsonDir = needValue(i);
        } else if (arg == "--timeout") {
            const auto timeout = pdp::parseDouble(needValue(i));
            if (!timeout || *timeout < 0) {
                std::fprintf(stderr,
                             "--timeout wants a non-negative number of "
                             "seconds, got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.timeoutSeconds = *timeout;
        } else if (arg == "--telemetry") {
            options.telemetry = true;
        } else if (arg == "--trace") {
            options.trace = true;
        } else if (arg == "--obs-sample-rate") {
            const auto rate = pdp::parseDouble(needValue(i));
            if (!rate || !(*rate >= 0.0) || !(*rate <= 1.0)) {
                std::fprintf(stderr,
                             "--obs-sample-rate wants a number in [0, 1], "
                             "got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.obsSampleRate = *rate;
            if (*rate > 0.0)
                options.trace = true; // spans ride the trace stream
        } else if (arg == "--perf-counters") {
            options.perfCounters = true;
        } else if (arg == "--fault-at") {
            const auto at = pdp::parseUnsigned(needValue(i));
            if (!at || *at == 0) {
                std::fprintf(stderr,
                             "--fault-at wants a positive measured-access "
                             "index, got \"%s\"\n",
                             argv[i]);
                return 2;
            }
            options.serviceFaultAt = *at;
        } else if (arg == "--verbose" || arg == "-v") {
            options.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            listSuites();
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    if (list) {
        listSuites();
        return 0;
    }
    if (options.serviceChurn >= options.serviceTenants) {
        std::fprintf(stderr,
                     "--churn (%u) must stay below --tenants (%u) so some "
                     "tenants span the whole run\n",
                     options.serviceChurn, options.serviceTenants);
        return 2;
    }
    if (suites.empty()) {
        printUsage(stderr);
        listSuites();
        return 2;
    }
    // Refuse a missing output directory before any job runs, instead of
    // running the suite and then failing to write its results.
    const std::string outDir =
        pdp::runner::ResultsSink::outputDirectory(options.jsonDir);
    std::error_code ec;
    if (!outDir.empty() && !std::filesystem::is_directory(outDir, ec)) {
        std::fprintf(stderr,
                     "output directory \"%s\" (--json) is not an "
                     "existing directory; create it or pass --json none\n",
                     outDir.c_str());
        return 2;
    }

    // Resolve every suite and its filtered grid before any job runs: a
    // grid the options cannot build (a --scale that leaves a run no
    // measured access, or the service churn script no accesses) or a
    // filter that selects nothing is a usage error, not an abort, a hang
    // or an empty run.
    std::vector<const pdp::runner::Suite *> resolved;
    for (const std::string &name : suites) {
        const pdp::runner::Suite *suite = pdp::runner::findSuite(name);
        if (!suite) {
            std::fprintf(stderr, "unknown suite: %s (try --list)\n",
                         name.c_str());
            return 2;
        }
        bool empty = false;
        try {
            empty = pdp::runner::selectJobs(*suite, options).empty();
        } catch (const pdp::CheckFailure &e) {
            std::fprintf(stderr, "suite %s: %s\n", name.c_str(), e.what());
            return 2;
        }
        if (empty) {
            std::fprintf(stderr,
                         "--filter \"%s\" matches no job of suite %s\n",
                         options.filter.c_str(), name.c_str());
            return 2;
        }
        resolved.push_back(suite);
    }

    int notOk = 0;
    for (const pdp::runner::Suite *suite : resolved)
        notOk += pdp::runner::runSuite(*suite, options, std::cout);
    return notOk > 255 ? 255 : notOk;
}
