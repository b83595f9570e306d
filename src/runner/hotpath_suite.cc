/**
 * @file
 * hotpath — self-profiling throughput of the cache substrate itself,
 * plus the paired speed ratios of the lockstep sweep and the
 * model-pruned explorer.
 *
 * Unlike the figure suites, the substrate jobs drive Cache::access
 * directly (no hierarchy, no timing model) so the metric is the
 * substrate's raw accesses/sec.  One job runs the frozen pre-SoA
 * ReferenceCache on the identical trace, so every BENCH_hotpath.json
 * carries the SoA-vs-AoS speedup as a machine-independent ratio next to
 * the absolute rates.
 *
 * All timed jobs share one trace seed (seedFor("hotpath/trace")), so the
 * hit rates in the dump are comparable across policies and substrates.
 * The accesses/accesses_per_sec/hit_rate scalars land in JobOutcome::
 * metrics; accesses_per_sec is inherently wall-clock-volatile, which is
 * why determinism tests key on the smoke suite, not this one.
 */

#include "runner/suites.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <ostream>
#include <thread>

#include "cache/reference_cache.h"
#include "core/pdp_policy.h"
#include "runner/suite_helpers.h"
#include "sim/lockstep_sweep.h"
#include "sim/policy_factory.h"
#include "sim/static_pd_search.h"
#include "telemetry/epoch_sampler.h"
#include "trace/rdd_fingerprint.h"
#include "trace/spec_suite.h"
#include "util/table.h"

namespace pdp
{
namespace runner
{

namespace
{

/** Trace length of one measured pass (addresses, not bytes). */
constexpr size_t kHotpathTraceLen = 1u << 20;

/** Uniform line addresses over `span`; ~25% of the paper LLC resident
 *  when span = 4 * numLines, which exercises hit, miss and evict paths
 *  in realistic proportion. */
std::vector<uint64_t>
hotpathTrace(uint64_t seed, uint64_t span)
{
    Rng rng(seed);
    std::vector<uint64_t> trace(kHotpathTraceLen);
    for (uint64_t &addr : trace)
        addr = rng.below(span);
    return trace;
}

/** Measured accesses at `scale` (floor keeps CI smoke runs meaningful). */
uint64_t
hotpathTarget(double scale)
{
    const double scaled = 16.0 * 1024 * 1024 * scale;
    return std::max<uint64_t>(2'000'000, static_cast<uint64_t>(scaled));
}

/** Wall-clock seconds since construction: the suite's one clock. */
class Stopwatch
{
  public:
    Stopwatch()
        // pdplint: allow(wall-clock) hotpath suite measures throughput;
        // the rate lands only in the volatile metrics section.
        : start_(std::chrono::steady_clock::now())
    {}

    double
    seconds() const
    {
        // pdplint: allow(wall-clock) end of the same timed region.
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Walk `count` accesses of `trace` starting at *cursor (wrapping), and
 * return the wall-clock seconds the walk took.  *cursor advances so
 * consecutive segments continue the same access stream.
 *
 * `access` is called with the current address and the one after it: a
 * trace-driven caller always knows the next access, so the SoA jobs
 * software-pipeline the walk by issuing Cache::prefetchSet for the next
 * set before performing the current access.  That is part of the
 * substrate's driving model, not a trick of the benchmark — any trace
 * consumer can do the same.
 */
template <typename AccessFn>
double
timedSegment(const std::vector<uint64_t> &trace, size_t *cursor,
             uint64_t count, AccessFn &&access)
{
    const size_t n = trace.size();
    size_t i = *cursor;
    const Stopwatch watch;
    for (uint64_t k = 0; k < count; ++k) {
        const uint64_t addr = trace[i];
        i = i + 1 == n ? 0 : i + 1;
        access(addr, trace[i]);
    }
    *cursor = i;
    return watch.seconds();
}

/** Pairs of interleaved A/B segments in one paired measurement (odd, so
 *  the median ratio is a real pair's ratio). */
constexpr int kHotpathPairs = 5;

/** Pairs in the telemetry-idle measurement.  Its ~1% effect sits inside
 *  the spread of a 5-pair median, so it walks 51 pairs of the same
 *  segment length. */
constexpr int kIdlePairs = 51;

/** Interleaved pairs in the lockstep-sweep and explore measurements
 *  (odd; fewer than kHotpathPairs because each side is a whole grid). */
constexpr int kSweepPairs = 3;

/** The seconds each side of every pair of a paired measurement took. */
struct PairedSeconds
{
    std::vector<double> first, second;
};

/**
 * `pairs` interleaved pairs: `first()` then `second()` back to back,
 * each returning the seconds its side took.  Wall-clock rates on a
 * shared machine drift by integer factors between phases, so only a
 * ratio of two sides measured side by side means anything: both sides
 * of a pair see the same machine weather.
 */
template <typename First, typename Second>
PairedSeconds
runPairs(int pairs, First &&first, Second &&second)
{
    PairedSeconds seconds;
    for (int pair = 0; pair < pairs; ++pair) {
        seconds.first.push_back(first());
        seconds.second.push_back(second());
    }
    return seconds;
}

/** The median over the pairs of num/den, skipping a pair where either
 *  side read 0 (the median sheds the odd descheduled segment); 0 when
 *  no pair counts. */
double
medianRatio(const std::vector<double> &num, const std::vector<double> &den)
{
    std::vector<double> ratios;
    for (size_t pair = 0; pair < num.size(); ++pair)
        if (num[pair] > 0 && den[pair] > 0)
            ratios.push_back(num[pair] / den[pair]);
    std::sort(ratios.begin(), ratios.end());
    return ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
}

/** One side's seconds over all pairs. */
double
totalSeconds(const std::vector<double> &side)
{
    return std::accumulate(side.begin(), side.end(), 0.0);
}

/**
 * The paired segment walk of two trace walkers: warm both over one full
 * pass, reset `measured`'s stats, then time `pairs` interleaved segments
 * of each, every segment a kHotpathPairs-th of hotpathTarget(scale).
 * *walked gets the accesses each side walked.
 */
template <typename First, typename Second>
PairedSeconds
pairedSegments(const std::vector<uint64_t> &trace, double scale, int pairs,
               Cache &measured, uint64_t *walked, First &&first,
               Second &&second)
{
    size_t first_cursor = 0, second_cursor = 0;
    timedSegment(trace, &first_cursor, trace.size(), first);
    timedSegment(trace, &second_cursor, trace.size(), second);
    measured.resetStats();

    const uint64_t seg =
        std::max<uint64_t>(hotpathTarget(scale) / kHotpathPairs, 1);
    *walked = seg * static_cast<uint64_t>(pairs);
    return runPairs(
        pairs,
        [&] { return timedSegment(trace, &first_cursor, seg, first); },
        [&] { return timedSegment(trace, &second_cursor, seg, second); });
}

void
hotpathMetrics(JobOutcome &outcome, uint64_t done, double seconds,
               double hit_rate)
{
    outcome.metrics["accesses"] = static_cast<double>(done);
    outcome.metrics["accesses_per_sec"] =
        seconds > 0 ? static_cast<double>(done) / seconds : 0.0;
    outcome.metrics["hit_rate"] = hit_rate;
}

/**
 * Throughput of the live (SoA) Cache under a single-core policy,
 * measured against an in-job AoS twin.
 *
 * A ratio of two rates measured in different jobs (possibly minutes
 * apart) is meaningless on a shared machine, so each job drives the live
 * cache and a private ReferenceCache through the same stream in
 * interleaved timed segments (runPairs) and reports the median of the
 * per-pair AoS/SoA time ratios as `vs_aos`.
 */
Job
hotpathCacheJob(std::string key, std::string policySpec, double scale)
{
    Job job;
    job.key = std::move(key);
    job.seed = seedFor("hotpath/trace");
    job.run = [policySpec = std::move(policySpec),
               scale](const JobContext &ctx) {
        Cache cache(CacheConfig::paperLlc(), makePolicy(policySpec));
        ReferenceLru ref_lru;
        ReferenceCache ref(CacheConfig::paperLlc(), ref_lru);
        ref_lru.attach(ref.numSets(), ref.numWays());

        const auto trace =
            hotpathTrace(ctx.seed, cache.config().numLines() * 4);

        AccessContext access;
        const auto soa = [&](uint64_t addr, uint64_t next) {
            cache.prefetchSet(cache.setIndex(next));
            access.lineAddr = addr;
            access.set = cache.setIndex(addr);
            cache.access(access);
        };
        AccessContext ref_access;
        const auto aos = [&](uint64_t addr, uint64_t) {
            ref_access.lineAddr = addr;
            ref.access(ref_access);
        };

        uint64_t done = 0;
        const PairedSeconds t =
            pairedSegments(trace, scale, kHotpathPairs, cache, &done, soa,
                           aos);
        const double aos_seconds = totalSeconds(t.second);

        JobOutcome outcome;
        hotpathMetrics(outcome, done, totalSeconds(t.first),
                       cache.stats().hitRate());
        outcome.metrics["aos_accesses_per_sec"] =
            aos_seconds > 0 ? static_cast<double>(done) / aos_seconds : 0.0;
        outcome.metrics["vs_aos"] = medianRatio(t.second, t.first);
        return outcome;
    };
    return job;
}

/** The frozen pre-SoA substrate alone: the absolute anchor every
 *  BENCH_hotpath.json carries next to the paired ratios. */
Job
hotpathReferenceJob(double scale)
{
    Job job;
    job.key = "hotpath/llc/AoS-reference";
    job.seed = seedFor("hotpath/trace");
    job.run = [scale](const JobContext &ctx) {
        ReferenceLru lru;
        ReferenceCache cache(CacheConfig::paperLlc(), lru);
        lru.attach(cache.numSets(), cache.numWays());
        const auto trace =
            hotpathTrace(ctx.seed, static_cast<uint64_t>(cache.numSets()) *
                                       cache.numWays() * 4);
        AccessContext access;
        const auto aos = [&](uint64_t addr, uint64_t) {
            access.lineAddr = addr;
            cache.access(access);
        };
        size_t cursor = 0;
        timedSegment(trace, &cursor, trace.size(), aos); // warmup
        const uint64_t target = hotpathTarget(scale);
        const double seconds = timedSegment(trace, &cursor, target, aos);
        JobOutcome outcome;
        const double hit_rate = cache.accesses()
            ? static_cast<double>(cache.hits()) / cache.accesses()
            : 0.0;
        hotpathMetrics(outcome, target, seconds, hit_rate);
        return outcome;
    };
    return job;
}

/** The partitioned multi-core fast path: a 4-core shared LLC under the
 *  PD partitioning policy, threads interleaved round-robin. */
Job
hotpathPartitionJob(double scale)
{
    Job job;
    job.key = "hotpath/shared/PDP-3-part-4c";
    job.seed = seedFor("hotpath/trace-shared");
    job.run = [scale](const JobContext &ctx) {
        constexpr unsigned kThreads = 4;
        Cache cache(CacheConfig::paperLlc(kThreads),
                    makeSharedPolicy("PDP-3", kThreads));
        // Thread t walks its own uniform window; the window tag in the
        // high bits keeps the per-thread footprints disjoint while the
        // low bits still spread over all sets.
        const uint64_t span = cache.config().numLines();
        Rng rng(ctx.seed);
        std::vector<uint64_t> trace(kHotpathTraceLen);
        for (size_t i = 0; i < trace.size(); ++i)
            trace[i] = (static_cast<uint64_t>(i & (kThreads - 1)) << 40) |
                rng.below(span);
        AccessContext access;
        const auto shared = [&](uint64_t addr, uint64_t next) {
            cache.prefetchSet(cache.setIndex(next));
            access.threadId = static_cast<uint8_t>(addr >> 40);
            access.lineAddr = addr;
            access.set = cache.setIndex(addr);
            cache.access(access);
        };
        size_t cursor = 0;
        timedSegment(trace, &cursor, trace.size(), shared); // warmup
        const uint64_t target = hotpathTarget(scale);
        const double seconds = timedSegment(trace, &cursor, target, shared);
        JobOutcome outcome;
        hotpathMetrics(outcome, target, seconds, cache.stats().hitRate());
        return outcome;
    };
    return job;
}

/**
 * Overhead of idle telemetry on the substrate hot path: two identical
 * SoA LRU caches walk the same stream in kIdlePairs interleaved pairs;
 * one side also ticks an EpochSampler per access, as a `--telemetry`
 * run's loops do, with an interval no walk reaches, so only the tick is
 * timed.  `telemetry_idle_ratio` is the median plain/instrumented time
 * ratio (1.0 = free; CI gates >= 0.98, i.e. within the 2% budget).
 */
Job
hotpathTelemetryIdleJob(double scale)
{
    Job job;
    job.key = "hotpath/llc/LRU-telemetry-idle";
    job.seed = seedFor("hotpath/trace");
    job.run = [scale](const JobContext &ctx) {
        Cache plain(CacheConfig::paperLlc(), makePolicy("LRU"));
        Cache instr(CacheConfig::paperLlc(), makePolicy("LRU"));
        const auto trace =
            hotpathTrace(ctx.seed, plain.config().numLines() * 4);

        telemetry::TelemetryConfig idle;
        idle.enabled = true;
        idle.interval = std::numeric_limits<uint64_t>::max();
        telemetry::EpochSampler sampler(idle, instr, 0);
        AccessContext pa;
        const auto plain_walk = [&](uint64_t addr, uint64_t next) {
            plain.prefetchSet(plain.setIndex(next));
            pa.lineAddr = addr;
            pa.set = plain.setIndex(addr);
            plain.access(pa);
        };
        AccessContext ia;
        const auto instr_walk = [&](uint64_t addr, uint64_t next) {
            instr.prefetchSet(instr.setIndex(next));
            ia.lineAddr = addr;
            ia.set = instr.setIndex(addr);
            instr.access(ia);
            sampler.onAccess();
        };

        uint64_t done = 0;
        const PairedSeconds t = pairedSegments(
            trace, scale, kIdlePairs, plain, &done, plain_walk, instr_walk);

        JobOutcome outcome;
        hotpathMetrics(outcome, done, totalSeconds(t.first),
                       plain.stats().hitRate());
        outcome.metrics["telemetry_idle_ratio"] =
            medianRatio(t.first, t.second);
        return outcome;
    };
    return job;
}

/**
 * The tentpole ratio the CI gate keys on: one benchmark's full 19-point
 * SPDP-B static-PD grid, run as 19 independent sequential simulations vs
 * one lockstep sweep over a single trace decode (sim/lockstep_sweep.h).
 * `sweep_speedup` is the median per-pair independent/lockstep time
 * ratio; both sides of each pair run back to back on the same machine.
 * The job PDP_CHECKs per-config miss equality across the sides, so every
 * hotpath run re-proves the lockstep engine exact.
 */
Job
hotpathSweepJob(double scale)
{
    Job job;
    job.key = "hotpath/sweep/SPDP-B-grid";
    job.seed = seedFor("456.hmmer");
    job.run = [scale](const JobContext &ctx) {
        const std::string bench = "456.hmmer";
        SimConfig config;
        config.accesses = std::max<uint64_t>(
            100'000, static_cast<uint64_t>(1'000'000 * scale));
        config.warmup = config.accesses / 4;

        const std::vector<uint32_t> grid = defaultPdGrid();
        std::vector<PolicyFactory> factories;
        for (uint32_t pd : grid)
            factories.push_back([pd] { return makeSpdpB(pd); });
        const unsigned threads =
            std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

        std::vector<SimResult> lockstep, independent;
        const PairedSeconds t = runPairs(
            kSweepPairs,
            [&] {
                const Stopwatch watch;
                independent.clear();
                for (uint32_t pd : grid) {
                    auto gen = SpecSuite::make(bench, ctx.seed);
                    Hierarchy hierarchy(config.hierarchy, makeSpdpB(pd));
                    independent.push_back(
                        runSingleCore(*gen, hierarchy, config));
                }
                return watch.seconds();
            },
            [&] {
                const Stopwatch watch;
                auto gen = SpecSuite::make(bench, ctx.seed);
                lockstep =
                    runSingleCoreLockstep(*gen, config, factories, threads);
                const double seconds = watch.seconds();
                for (size_t c = 0; c < grid.size(); ++c)
                    PDP_CHECK(lockstep[c].llcMisses ==
                                      independent[c].llcMisses &&
                                  lockstep[c].cycles ==
                                      independent[c].cycles,
                              "lockstep sweep diverged from independent "
                              "runs at PD=", grid[c]);
                return seconds;
            });

        uint64_t hits = 0, accesses = 0;
        for (const SimResult &r : lockstep) {
            hits += r.llcHits;
            accesses += r.llcAccesses;
        }
        JobOutcome outcome;
        hotpathMetrics(
            outcome,
            static_cast<uint64_t>(kSweepPairs) * grid.size() *
                config.accesses,
            totalSeconds(t.second),
            accesses ? static_cast<double>(hits) / accesses : 0.0);
        outcome.metrics["sweep_speedup"] = medianRatio(t.first, t.second);
        outcome.metrics["sweep_configs"] =
            static_cast<double>(grid.size());
        // Lane fan-out actually used: `pdpreport.py perf` only enforces
        // the absolute sweep floor when at least 4 lane workers ran (19
        // exact policy replays are irreducible work, so a 1-core host
        // tops out near 2x no matter how the front-end is amortized).
        outcome.metrics["sweep_threads"] = static_cast<double>(threads);
        return outcome;
    };
    return job;
}

/**
 * The explorer's CI ratio: one benchmark's full 38-cell static-PD design
 * space (both SPDP families), run exhaustively as independent sequential
 * simulations vs the model-pruned path — fingerprint + analytic ranking
 * + top-K-and-audit lockstep simulation — in interleaved pairs.
 * `explore_speedup` is the median per-pair exhaustive/pruned time ratio;
 * both sides of each pair see the same machine weather.  The job also
 * PDP_CHECKs that the pruned side's miss-minimizing cell matches the
 * exhaustive winner per family (within 2%, since sub-scale runs can
 * flip near-tied neighbours), so every hotpath run re-proves the
 * pruning sound.
 */
Job
hotpathExploreJob(double scale)
{
    Job job;
    job.key = "hotpath/explore/SPDP-grid";
    job.seed = seedFor("450.soplex");
    job.run = [scale](const JobContext &ctx) {
        const std::string bench = "450.soplex";
        SimConfig config;
        config.accesses = std::max<uint64_t>(
            400'000, static_cast<uint64_t>(1'000'000 * scale));
        config.warmup = config.accesses / 4;
        const unsigned threads =
            std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
        const std::vector<uint32_t> grid = defaultPdGrid();

        std::vector<SimResult> exhaustive, contenders;
        ExplorePlan plan;
        const PairedSeconds t = runPairs(
            kSweepPairs,
            // Exhaustive side: every (family, PD) cell, sequentially —
            // the simulate-everything baseline a sweep pays without the
            // model.
            [&] {
                const Stopwatch watch;
                exhaustive.clear();
                for (bool byp : {false, true})
                    for (uint32_t pd : grid) {
                        auto gen = SpecSuite::make(bench, ctx.seed);
                        Hierarchy hierarchy(config.hierarchy,
                                            byp ? makeSpdpB(pd)
                                                : makeSpdpNb(pd));
                        exhaustive.push_back(
                            runSingleCore(*gen, hierarchy, config));
                    }
                return watch.seconds();
            },
            // Pruned side: fingerprint the stream once, rank the whole
            // grid analytically, simulate only the contenders (plus the
            // audit cell) over one lockstep decode.
            [&] {
                const Stopwatch watch;
                auto fgen = SpecSuite::make(bench, ctx.seed);
                FingerprintOptions fopt;
                fopt.accesses = config.accesses;
                fopt.warmup = config.warmup;
                const RddFingerprint fp = fingerprintStream(*fgen, fopt);
                plan = planExplore(fp, kExploreTopK,
                                   seedFor(bench + "/explore-audit"));
                std::vector<PolicyFactory> factories;
                for (const ExploreCell &cell : plan.chosen)
                    factories.push_back(spdpPolicy(cell.bypass, cell.pd));
                auto gen = SpecSuite::make(bench, ctx.seed);
                contenders =
                    runSingleCoreLockstep(*gen, config, factories, threads);
                return watch.seconds();
            });
        const uint64_t done =
            kSweepPairs * plan.chosen.size() * config.accesses;

        // Winner reproduction per family: the pruned set must contain a
        // cell within 2% of the exhaustive miss minimum.
        for (bool byp : {false, true}) {
            uint64_t best_exh = ~0ull;
            const size_t base = byp ? grid.size() : 0;
            for (size_t g = 0; g < grid.size(); ++g)
                best_exh =
                    std::min(best_exh, exhaustive[base + g].llcMisses);
            uint64_t best_pruned = ~0ull;
            for (size_t c = 0; c < plan.chosen.size(); ++c)
                if (plan.chosen[c].bypass == byp)
                    best_pruned =
                        std::min(best_pruned, contenders[c].llcMisses);
            PDP_CHECK(best_pruned <= best_exh + best_exh / 50,
                      "explore pruning missed the ",
                      byp ? "SPDP-B" : "SPDP-NB", " winner: ", best_pruned,
                      " misses vs exhaustive ", best_exh);
        }

        uint64_t hits = 0, accesses = 0;
        for (const SimResult &r : contenders) {
            hits += r.llcHits;
            accesses += r.llcAccesses;
        }
        JobOutcome outcome;
        hotpathMetrics(outcome, done, totalSeconds(t.second),
                       accesses ? static_cast<double>(hits) / accesses
                                : 0.0);
        outcome.metrics["explore_speedup"] = medianRatio(t.first, t.second);
        outcome.metrics["explore_cells"] =
            static_cast<double>(2 * grid.size());
        outcome.metrics["explore_simulated"] =
            static_cast<double>(plan.chosen.size());
        // Lane fan-out of the pruned side's lockstep leg: `pdpreport.py
        // perf` only enforces the absolute explore floor when >= 4 lane
        // workers ran (the pruned side still replays 7 exact policies).
        outcome.metrics["explore_threads"] = static_cast<double>(threads);
        return outcome;
    };
    return job;
}

const std::vector<std::string> kHotpathPolicies = {"LRU", "DRRIP", "PDP-3"};

std::vector<Job>
buildHotpath(const SuiteOptions &options)
{
    std::vector<Job> jobs;
    for (const std::string &policy : kHotpathPolicies)
        jobs.push_back(
            hotpathCacheJob("hotpath/llc/" + policy, policy, options.scale));
    jobs.push_back(hotpathReferenceJob(options.scale));
    jobs.push_back(hotpathPartitionJob(options.scale));
    jobs.push_back(hotpathTelemetryIdleJob(options.scale));
    jobs.push_back(hotpathSweepJob(options.scale));
    jobs.push_back(hotpathExploreJob(options.scale));
    return jobs;
}

void
reportHotpath(std::ostream &out, const RecordLookup &records)
{
    out << "==== hotpath: cache-substrate throughput ====\n\n";

    const auto metric = [&](const std::string &key, const char *name) {
        return records.metric(key, name).value_or(0.0);
    };

    Table table({"configuration", "Macc/s", "hit rate", "vs AoS"});
    for (const Job &job : buildHotpath(SuiteOptions{})) {
        const std::string &key = job.key;
        const std::optional<double> aps =
            records.metric(key, "accesses_per_sec");
        if (!aps) {
            table.addRow({key, "n/a", "n/a", "n/a"});
            continue;
        }
        // vs_aos is the job's own paired-median ratio (rates measured
        // in different jobs are not comparable on a noisy machine); the
        // shared-LLC and AoS-anchor jobs have no paired twin.
        const double vs_aos = metric(key, "vs_aos");
        table.addRow({key, Table::num(*aps / 1e6, 2),
                      Table::upct(metric(key, "hit_rate")),
                      vs_aos > 0 ? Table::num(vs_aos, 2) + "x" : "-"});
    }
    table.print(out);

    const std::string idle_key = "hotpath/llc/LRU-telemetry-idle";
    if (const auto idle = records.metric(idle_key, "telemetry_idle_ratio")) {
        out << "\ntelemetry idle overhead: plain/instrumented = "
            << Table::num(*idle, 3) << "x (1.00 = free)\n";
    }

    const std::string sweep_key = "hotpath/sweep/SPDP-B-grid";
    if (const auto sweep = records.metric(sweep_key, "sweep_speedup")) {
        out << "lockstep 19-point SPDP-B sweep vs independent runs: "
            << Table::num(*sweep, 2) << "x on "
            << static_cast<unsigned>(metric(sweep_key, "sweep_threads"))
            << " lane worker(s)\n";
    }
    const std::string explore_key = "hotpath/explore/SPDP-grid";
    if (const auto explore = records.metric(explore_key, "explore_speedup")) {
        out << "model-pruned explore vs exhaustive "
            << static_cast<unsigned>(metric(explore_key, "explore_cells"))
            << "-cell grid: " << Table::num(*explore, 2) << "x ("
            << static_cast<unsigned>(
                   metric(explore_key, "explore_simulated"))
            << " cells simulated, "
            << static_cast<unsigned>(metric(explore_key, "explore_threads"))
            << " lane worker(s))\n";
    }

    out << "\nAoS = the frozen pre-SoA substrate (reference_cache.h); "
           "vs AoS = median of interleaved paired segments inside each "
           "job.\n`tools/pdpreport.py perf` gates these rows against "
           "the committed baseline in CI.\n";
}

} // namespace

Suite
hotpathSuite()
{
    return {"hotpath",
            "cache-substrate throughput (SoA vs frozen AoS reference)",
            buildHotpath, reportHotpath};
}

} // namespace runner
} // namespace pdp
