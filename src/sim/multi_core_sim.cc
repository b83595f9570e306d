#include "sim/multi_core_sim.h"

#include <map>
#include <mutex>
#include <stdexcept>

#include "check/check.h"
#include "check/invariant_auditor.h"
#include "partition/pdp_partition.h"
#include "partition/pipp.h"
#include "partition/ta_drrip.h"
#include "partition/ucp.h"
#include "policies/basic.h"
#include "policies/dip.h"
#include "sim/single_core_sim.h"
#include "trace/spec_suite.h"

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
    // Memoize per (benchmark, core count, run length).  This is the one
    // piece of cross-job shared state the experiment runner's workers
    // may reach concurrently, so the map is mutex-guarded.  The baseline
    // run itself happens outside the lock: two workers racing on the
    // same key at worst duplicate a deterministic computation and insert
    // the identical value, which keeps results independent of worker
    // count.
    using Key = std::tuple<std::string, unsigned, uint64_t>;
    static std::mutex mutex;
    static std::map<Key, double> cache;
    const Key key{benchmark, config.cores, config.accessesPerThread};
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
    auto gen = SpecSuite::make(benchmark);
    Hierarchy hierarchy(single.hierarchy, std::make_unique<LruPolicy>());
    const SimResult r = runSingleCore(*gen, hierarchy, single);

    std::lock_guard<std::mutex> lock(mutex);
    cache.emplace(key, r.ipc);
    return r.ipc;
}

MultiCoreResult
runMultiCore(const WorkloadSpec &workload, const std::string &policy_spec,
             const MultiCoreConfig &config)
{
    // A thread retires when its measured count reaches the budget, so a
    // zero budget would never end the measured phase.
    PDP_CHECK(config.accessesPerThread > 0,
              "runMultiCore needs at least one measured access per thread");
    const unsigned cores = static_cast<unsigned>(workload.benchmarks.size());

    HierarchyConfig hcfg;
    hcfg.numThreads = cores;
    hcfg.llc = CacheConfig::paperLlc(cores);
    Hierarchy hierarchy(hcfg, makeSharedPolicy(policy_spec, cores));

    auto generators = instantiate(workload);
    std::vector<TimingModel> timers(cores, TimingModel(config.timing));

    std::unique_ptr<InvariantAuditor> auditor;
    if (config.auditEvery > 0) {
        InvariantAuditor::Options opts;
        opts.cadence = config.auditEvery;
        opts.failFast = config.auditFailFast;
        auditor = std::make_unique<InvariantAuditor>(opts);
        auditor->watchCache(hierarchy.llc());
    }

    std::unique_ptr<telemetry::EpochSampler> sampler;
    if (config.telemetry.enabled)
        sampler = std::make_unique<telemetry::EpochSampler>(
            config.telemetry, hierarchy.llc(),
            config.accessesPerThread * cores, cores);

    // Warmup: round-robin, stats discarded afterwards.
    {
        telemetry::ScopedPhaseTimer phase(
            sampler ? sampler->trace() : nullptr, "warmup");
        for (uint64_t i = 0; i < config.warmupPerThread; ++i)
            for (unsigned t = 0; t < cores; ++t)
                hierarchy.access(generators[t]->next());
    }
    hierarchy.resetStats();
    if (auditor)
        hierarchy.llc().setAuditor(auditor.get());
    if (sampler)
        sampler->beginMeasurement();

    // Measured phase: per-thread stats freeze at the access budget; all
    // threads keep running (generators are infinite) so contention stays
    // realistic until everyone has finished, as in the paper.
    std::vector<ThreadOutcome> outcomes(cores);
    std::vector<uint64_t> measured(cores, 0);
    unsigned remaining = cores;
    {
        telemetry::ScopedPhaseTimer phase(
            sampler ? sampler->trace() : nullptr, "measure");
        while (remaining > 0) {
            for (unsigned t = 0; t < cores; ++t) {
                const Access access = generators[t]->next();
                const HierarchyResult res = hierarchy.access(access);
                if (sampler)
                    sampler->onAccess();
                if (measured[t] >= config.accessesPerThread)
                    continue;
                timers[t].onAccess(access.instrGap, res.level);
                if (++measured[t] == config.accessesPerThread) {
                    ThreadOutcome &out = outcomes[t];
                    out.benchmark = workload.benchmarks[t];
                    out.ipc = timers[t].ipc();
                    out.llcMisses = hierarchy.llc().stats().threadMisses[t];
                    out.mpki = timers[t].instructions()
                        ? 1000.0 * static_cast<double>(out.llcMisses) /
                              static_cast<double>(timers[t].instructions())
                        : 0.0;
                    --remaining;
                }
            }
        }
    }

    MultiCoreResult result;
    result.policy = policy_spec;
    result.threads = std::move(outcomes);

    double weighted = 0.0, throughput = 0.0, inv = 0.0;
    for (const ThreadOutcome &out : result.threads) {
        const double single = standaloneIpc(out.benchmark, config);
        weighted += single > 0 ? out.ipc / single : 0.0;
        throughput += out.ipc;
        inv += out.ipc > 0 ? single / out.ipc : 0.0;
    }
    result.weightedIpc = weighted;
    result.throughput = throughput;
    result.harmonicFairness =
        inv > 0 ? static_cast<double>(result.threads.size()) / inv : 0.0;
    if (auditor) {
        hierarchy.llc().setAuditor(nullptr);
        auditor->auditNow();
        result.auditsRun = auditor->auditsRun();
        result.auditViolations = auditor->totalViolations();
    }
    if (sampler) {
        sampler->finish();
        result.telemetry = std::make_shared<telemetry::RunTelemetry>(
            sampler->take());
    }
    return result;
}

} // namespace pdp
