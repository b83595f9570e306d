#include "sim/single_core_sim.h"

#include "check/invariant_auditor.h"
#include "sim/policy_factory.h"
#include "trace/spec_suite.h"

namespace pdp
{

Hierarchy
makeHierarchy(const SimConfig &config,
              std::unique_ptr<ReplacementPolicy> llcPolicy)
{
    Hierarchy hierarchy(config.hierarchy, std::move(llcPolicy));
    if (config.withPrefetcher)
        hierarchy.attachPrefetcher(std::make_unique<StreamPrefetcher>());
    return hierarchy;
}

SimResult
makeSimResult(const std::string &benchmark, const std::string &policy,
              const CacheStats &llc, const TimingModel &timing)
{
    SimResult result;
    result.benchmark = benchmark;
    result.policy = policy;
    result.instructions = timing.instructions();
    result.cycles = timing.cycles();
    result.ipc = timing.ipc();
    result.llcAccesses = llc.accesses;
    result.llcHits = llc.hits;
    result.llcMisses = llc.misses;
    result.llcBypasses = llc.bypasses;
    result.mpki = result.instructions
        ? 1000.0 * static_cast<double>(llc.misses) /
              static_cast<double>(result.instructions)
        : 0.0;
    result.bypassFraction = llc.accesses
        ? static_cast<double>(llc.bypasses) /
              static_cast<double>(llc.accesses)
        : 0.0;
    return result;
}

SimResult
runSingleCore(AccessGenerator &gen, Hierarchy &hierarchy,
              const SimConfig &config)
{
    TimingModel timing(config.timing);

    // The auditor (when enabled) only watches the measured phase, so the
    // warmup runs at full speed.
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
            config.telemetry, hierarchy.llc(), config.accesses,
            config.hierarchy.numThreads);

    {
        telemetry::ScopedPhaseTimer phase(
            sampler ? sampler->trace() : nullptr, "warmup");
        for (uint64_t i = 0; i < config.warmup; ++i)
            hierarchy.access(gen.next());
    }
    hierarchy.resetStats();
    if (auditor)
        hierarchy.llc().setAuditor(auditor.get());
    if (sampler)
        sampler->beginMeasurement();

    {
        telemetry::ScopedPhaseTimer phase(
            sampler ? sampler->trace() : nullptr, "measure");
        // The telemetry tick lives in its own loop so the common
        // (telemetry-off) path carries no extra per-access branch.
        if (sampler) {
            for (uint64_t i = 0; i < config.accesses; ++i) {
                const Access access = gen.next();
                const HierarchyResult res = hierarchy.access(access);
                timing.onAccess(access.instrGap, res.level);
                sampler->onAccess();
            }
        } else {
            for (uint64_t i = 0; i < config.accesses; ++i) {
                const Access access = gen.next();
                const HierarchyResult res = hierarchy.access(access);
                timing.onAccess(access.instrGap, res.level);
            }
        }
    }

    SimResult result =
        makeSimResult(gen.name(), hierarchy.llc().policy().name(),
                      hierarchy.llc().stats(), timing);
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

SimResult
runSingleCore(const std::string &benchmark, const std::string &policy_spec,
              const SimConfig &config)
{
    auto gen = SpecSuite::make(benchmark);
    Hierarchy hierarchy = makeHierarchy(config, makePolicy(policy_spec));
    return runSingleCore(*gen, hierarchy, config);
}

} // namespace pdp
