#include "sim/single_core_sim.h"

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

RunObservers::RunObservers(Cache &llc, uint64_t auditEvery,
                           bool auditFailFast,
                           const telemetry::TelemetryConfig &telemetry,
                           uint64_t measuredAccesses, unsigned threads)
    : llc_(llc)
{
    if (auditEvery > 0) {
        InvariantAuditor::Options opts;
        opts.cadence = auditEvery;
        opts.failFast = auditFailFast;
        auditor_ = std::make_unique<InvariantAuditor>(opts);
        auditor_->watchCache(llc);
    }
    if (telemetry.enabled)
        sampler_ = std::make_unique<telemetry::EpochSampler>(
            telemetry, llc, measuredAccesses, threads);
}

void
RunObservers::beginMeasurement()
{
    // The auditor only watches the measured phase, so the warmup runs
    // at full speed.
    if (auditor_)
        llc_.setAuditor(auditor_.get());
    if (sampler_)
        sampler_->beginMeasurement();
}

RunObservers
runRoundRobin(std::span<AccessGenerator *const> gens, Hierarchy &hierarchy,
              const SimConfig &config, std::span<TimingModel> timers)
{
    RunObservers observers(hierarchy.llc(), config.auditEvery,
                           config.auditFailFast, config.telemetry,
                           config.accesses * gens.size(),
                           config.hierarchy.numThreads);
    {
        telemetry::ScopedPhaseTimer phase(observers.trace(), "warmup");
        for (uint64_t round = 0; round < config.warmup; ++round)
            for (AccessGenerator *gen : gens)
                hierarchy.access(gen->next());
    }
    hierarchy.resetStats();
    observers.beginMeasurement();

    // The telemetry tick is a template argument, so the common
    // (telemetry-off) loop carries no extra per-access branch.
    auto measure = [&](auto tick) {
        telemetry::ScopedPhaseTimer phase(observers.trace(), "measure");
        for (uint64_t round = 0; round < config.accesses; ++round)
            for (size_t t = 0; t < gens.size(); ++t) {
                const Access access = gens[t]->next();
                timers[t].onAccess(access.instrGap,
                                   hierarchy.access(access).level);
                tick();
            }
    };
    if (telemetry::EpochSampler *sampler = observers.sampler())
        measure([sampler] { sampler->onAccess(); });
    else
        measure([] {});
    return observers;
}

SimResult
runSingleCore(AccessGenerator &gen, Hierarchy &hierarchy,
              const SimConfig &config)
{
    AccessGenerator *gens[] = {&gen};
    TimingModel timing(config.timing);
    RunObservers observers =
        runRoundRobin(gens, hierarchy, config, {&timing, 1});
    SimResult result =
        makeSimResult(gen.name(), hierarchy.llc().policy().name(),
                      hierarchy.llc().stats(), timing);
    observers.finish(result);
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
