#include "sim/multi_core_sim.h"

#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <tuple>

#include "check/check.h"
#include "partition/pdp_partition.h"
#include "partition/pipp.h"
#include "partition/ta_drrip.h"
#include "partition/ucp.h"
#include "policies/basic.h"
#include "policies/dip.h"
#include "sim/lockstep_sweep.h"

namespace pdp
{

std::unique_ptr<ReplacementPolicy>
makeSharedPolicy(const std::string &spec, unsigned threads)
{
    if (spec == "LRU")
        return std::make_unique<LruPolicy>();
    if (spec == "DIP")
        return makeDip();
    if (spec == "TA-DRRIP")
        return std::make_unique<TaDrripPolicy>(threads);
    if (spec == "UCP")
        return std::make_unique<UcpPolicy>(threads);
    if (spec == "PIPP")
        return std::make_unique<PippPolicy>(threads);
    if (spec == "PDP-2")
        return makePdpPartition(threads, 2);
    if (spec == "PDP-3")
        return makePdpPartition(threads, 3);
    throw std::invalid_argument("unknown shared policy: " + spec);
}

double
standaloneIpc(const std::string &benchmark, const MultiCoreConfig &config)
{
    // Memoize per (benchmark, core count, run length, warmup, timing):
    // every field the baseline run reads.  The experiment runner's
    // workers may reach the map concurrently (runner/job.h lists every
    // such process-wide object), so it is mutex-guarded.  The baseline run
    // itself happens outside the lock: two workers racing on the same
    // key at worst duplicate a deterministic computation and insert the
    // identical value, which keeps results independent of worker count.
    using Key =
        std::tuple<std::string, unsigned, uint64_t, uint64_t, TimingParams>;
    static std::mutex mutex;
    static std::map<Key, double> cache;
    const Key key{benchmark, config.cores, config.accessesPerThread,
                  config.warmupPerThread, config.timing};
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (auto it = cache.find(key); it != cache.end())
            return it->second;
    }

    SimConfig single;
    single.accesses = config.accessesPerThread;
    single.warmup = config.warmupPerThread;
    single.timing = config.timing;
    single.hierarchy.llc = CacheConfig::paperLlc(config.cores);
    const double ipc = runSingleCore(benchmark, "LRU", single).ipc;

    std::lock_guard<std::mutex> lock(mutex);
    cache.emplace(key, ipc);
    return ipc;
}

namespace
{

/** The round-robin run `config` describes for `workload`. */
SimConfig
roundRobinConfig(const WorkloadSpec &workload, const MultiCoreConfig &config)
{
    // With no measured access, W, T and H would read 0 as a result.
    PDP_CHECK(config.accessesPerThread > 0,
              "a multi-core run needs at least one measured access per "
              "thread");
    PDP_CHECK(workload.benchmarks.size() == config.cores, "workload ",
              workload.label(), " has ", workload.benchmarks.size(),
              " benchmarks but the config has ", config.cores,
              " cores (the stand-alone baselines are sized from it)");
    PDP_CHECK(config.cores >= 1 && config.cores <= CacheStats::kMaxThreads,
              "multi-core run of ", config.cores, " cores outside [1, ",
              CacheStats::kMaxThreads, "]");
    SimConfig run;
    run.accesses = config.accessesPerThread;
    run.warmup = config.warmupPerThread;
    run.timing = config.timing;
    run.hierarchy.numThreads = config.cores;
    run.hierarchy.llc = CacheConfig::paperLlc(config.cores);
    run.auditEvery = config.auditEvery;
    run.telemetry = config.telemetry;
    return run;
}

/** Per-thread outcomes and W/T/H from measured-phase stats. */
MultiCoreResult
makeMultiCoreResult(const WorkloadSpec &workload,
                    const std::string &policy_spec, const CacheStats &llc,
                    std::span<const TimingModel> timers,
                    const MultiCoreConfig &config)
{
    MultiCoreResult result;
    result.policy = policy_spec;
    double weighted = 0.0, throughput = 0.0, inv = 0.0;
    for (size_t t = 0; t < timers.size(); ++t) {
        ThreadOutcome &out = result.threads.emplace_back();
        out.benchmark = workload.benchmarks[t];
        out.ipc = timers[t].ipc();
        out.llcMisses = llc.threadMisses[t];
        out.mpki = timers[t].instructions()
            ? 1000.0 * static_cast<double>(out.llcMisses) /
                  static_cast<double>(timers[t].instructions())
            : 0.0;
        const double single = standaloneIpc(out.benchmark, config);
        weighted += single > 0 ? out.ipc / single : 0.0;
        throughput += out.ipc;
        inv += out.ipc > 0 ? single / out.ipc : 0.0;
    }
    result.weightedIpc = weighted;
    result.throughput = throughput;
    result.harmonicFairness =
        inv > 0 ? static_cast<double>(result.threads.size()) / inv : 0.0;
    return result;
}

} // namespace

MultiCoreResult
runMultiCore(const WorkloadSpec &workload, const std::string &policy_spec,
             const MultiCoreConfig &config)
{
    const SimConfig run = roundRobinConfig(workload, config);
    Hierarchy hierarchy(run.hierarchy,
                        makeSharedPolicy(policy_spec, config.cores));
    const std::vector<GeneratorPtr> generators = instantiate(workload);
    std::vector<AccessGenerator *> gens;
    for (const GeneratorPtr &gen : generators)
        gens.push_back(gen.get());
    std::vector<TimingModel> timers(config.cores,
                                    TimingModel(config.timing));
    RunObservers observers = runRoundRobin(gens, hierarchy, run, timers);
    MultiCoreResult result =
        makeMultiCoreResult(workload, policy_spec, hierarchy.llc().stats(),
                            timers, config);
    observers.finish(result);
    return result;
}

std::vector<MultiCoreResult>
runMultiCoreLockstep(const WorkloadSpec &workload,
                     const std::vector<std::string> &policies,
                     const MultiCoreConfig &config, unsigned threads)
{
    const SimConfig run = roundRobinConfig(workload, config);
    std::vector<PolicyFactory> factories;
    for (const std::string &policy : policies)
        factories.push_back([&policy, cores = config.cores] {
            return makeSharedPolicy(policy, cores);
        });
    const std::vector<GeneratorPtr> generators = instantiate(workload);
    std::vector<AccessGenerator *> gens;
    for (const GeneratorPtr &gen : generators)
        gens.push_back(gen.get());

    std::vector<LockstepLane> lanes =
        runLockstepLanes(gens, run, factories, threads);
    std::vector<MultiCoreResult> results;
    for (size_t c = 0; c < lanes.size(); ++c) {
        MultiCoreResult &result = results.emplace_back(
            makeMultiCoreResult(workload, policies[c], lanes[c].llc->stats(),
                                lanes[c].timers, config));
        lanes[c].observers.finish(result);
    }
    return results;
}

} // namespace pdp
