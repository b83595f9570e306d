/**
 * @file
 * The sequential trace-driven simulator: generators -> L2s -> LLC with a
 * timing model, producing the MPKI / IPC / bypass metrics of Sec. 5.
 * Its one loop, runRoundRobin, serves N generators round-robin; a
 * single-core run is its one-generator case (runMultiCore the rest).
 */

#ifndef PDP_SIM_SINGLE_CORE_SIM_H
#define PDP_SIM_SINGLE_CORE_SIM_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "cache/hierarchy.h"
#include "check/invariant_auditor.h"
#include "sim/timing_model.h"
#include "telemetry/epoch_sampler.h"
#include "trace/generator.h"

namespace pdp
{

/** Run-length and environment configuration. */
struct SimConfig
{
    /** Measured accesses after warmup. */
    uint64_t accesses = 4'000'000;
    /** Warmup accesses (caches filled, stats discarded). */
    uint64_t warmup = 1'000'000;
    TimingParams timing{};
    HierarchyConfig hierarchy{};
    bool withPrefetcher = false;
    /** Incremental invariant-audit cadence on the LLC (accesses between
     *  audit ticks); 0 disables auditing.  A violation throws
     *  CheckFailure out of the run.  See src/check/. */
    uint64_t auditEvery = 0;
    /** Epoch telemetry knobs (off by default; see src/telemetry/). */
    telemetry::TelemetryConfig telemetry{};
    bool operator==(const SimConfig &) const = default;

    /** Scale both run length and warmup (quick CI runs). */
    SimConfig
    scaled(double factor) const
    {
        SimConfig cfg = *this;
        cfg.accesses = static_cast<uint64_t>(accesses * factor);
        cfg.warmup = static_cast<uint64_t>(warmup * factor);
        return cfg;
    }
};

/** Results of one single-core run. */
struct SimResult
{
    std::string benchmark;
    std::string policy;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    double ipc = 0.0;
    /** LLC demand misses per 1000 instructions. */
    double mpki = 0.0;
    uint64_t llcAccesses = 0;
    uint64_t llcHits = 0;
    uint64_t llcMisses = 0;
    uint64_t llcBypasses = 0;
    /** Bypassed fills as a fraction of LLC accesses (Fig. 10c). */
    double bypassFraction = 0.0;
    /** Audit passes run, all clean (only populated when auditEvery
     *  > 0; a dirty pass throws instead). */
    uint64_t auditsRun = 0;
    /** Epoch time-series + events (only when config.telemetry.enabled;
     *  shared_ptr keeps SimResult cheap to copy). */
    std::shared_ptr<const telemetry::RunTelemetry> telemetry;
};

/** The hierarchy `config` describes around `llcPolicy`, with the
 *  stream prefetcher attached when config.withPrefetcher is set. */
Hierarchy makeHierarchy(const SimConfig &config,
                        std::unique_ptr<ReplacementPolicy> llcPolicy);

/** A SimResult from measured-phase LLC stats and timing (the audit and
 *  telemetry fields stay empty). */
SimResult makeSimResult(const std::string &benchmark,
                        const std::string &policy, const CacheStats &llc,
                        const TimingModel &timing);

/** The invariant auditor and epoch sampler of one sequential run:
 *  built before warmup, attached by beginMeasurement() after the
 *  warmup's stats reset, read into the run's result by finish(). */
class RunObservers
{
  public:
    RunObservers(Cache &llc, uint64_t auditEvery,
                 const telemetry::TelemetryConfig &telemetry,
                 uint64_t measuredAccesses, unsigned threads);

    telemetry::EpochSampler *sampler() const { return sampler_.get(); }
    telemetry::EventTrace *
    trace() const
    {
        return sampler_ ? sampler_->trace() : nullptr;
    }

    void beginMeasurement();

    /** Into a SimResult, MultiCoreResult or ServiceResult. */
    template <typename Result>
    void
    finish(Result &result)
    {
        if (auditor_) {
            llc_.setAuditor(nullptr);
            auditor_->auditNow();
            result.auditsRun = auditor_->auditsRun();
        }
        if (sampler_) {
            sampler_->finish();
            result.telemetry = std::make_shared<telemetry::RunTelemetry>(
                sampler_->take());
        }
    }

  private:
    Cache &llc_;
    std::unique_ptr<InvariantAuditor> auditor_;
    std::unique_ptr<telemetry::EpochSampler> sampler_;
};

/** The sequential loop: config.warmup rounds, a stats reset, then
 *  config.accesses measured rounds, a round being one access of every
 *  generator in order; timers[t] times generator t.  Returns the run's
 *  observers for the caller to finish() into its result. */
RunObservers runRoundRobin(std::span<AccessGenerator *const> gens,
                           Hierarchy &hierarchy, const SimConfig &config,
                           std::span<TimingModel> timers);

/**
 * Drive `gen` through an existing hierarchy: runRoundRobin's
 * one-generator case.  The caller keeps access to the hierarchy for
 * instrumentation (PD history, occupancy observers).
 */
SimResult runSingleCore(AccessGenerator &gen, Hierarchy &hierarchy,
                        const SimConfig &config);

/** Convenience wrapper: build benchmark + policy + hierarchy and run. */
SimResult runSingleCore(const std::string &benchmark,
                        const std::string &policy_spec,
                        const SimConfig &config);

} // namespace pdp

#endif // PDP_SIM_SINGLE_CORE_SIM_H
