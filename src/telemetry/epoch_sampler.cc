#include "telemetry/epoch_sampler.h"

#include <algorithm>

#include "core/pdp_policy.h"

namespace pdp
{
namespace telemetry
{

namespace
{

uint64_t
autoInterval(const Cache &llc, uint64_t planned_accesses)
{
    // >= 16 epochs even on scaled-down runs, but never sample more often
    // than every 4096 accesses (the walk is O(lines)).
    uint64_t interval =
        std::max<uint64_t>(4096, planned_accesses / 16);
    // Anchor to the PD-recompute clock when the policy has one: at full
    // scale an epoch then IS a recompute window.
    if (const auto *pdp = dynamic_cast<const PdpPolicy *>(&llc.policy());
        pdp && pdp->params().dynamic)
        interval = std::min<uint64_t>(interval,
                                      pdp->params().recomputeInterval);
    return std::max<uint64_t>(interval, 1);
}

} // namespace

EpochSampler::EpochSampler(const TelemetryConfig &config, const Cache &llc,
                           uint64_t planned_accesses, unsigned num_threads)
    : config_(config), llc_(llc),
      source_(dynamic_cast<const Source *>(&llc.policy())),
      numThreads_(std::max(num_threads, 1u)),
      interval_(config.interval ? config.interval
                                : autoInterval(llc, planned_accesses)),
      untilSample_(interval_)
{
    if (config_.traceEvents)
        trace_ = std::make_unique<EventTrace>(config_.traceCapacity);
    if (config_.perfCounters)
        perf_ = std::make_unique<hw::PerfCounterGroup>();
    run_.interval = interval_;
    beginMeasurement();
}

void
EpochSampler::beginMeasurement()
{
    const CacheStats &stats = llc_.stats();
    baseAccesses_ = stats.accesses;
    baseHits_ = stats.hits;
    baseMisses_ = stats.misses;
    baseBypasses_ = stats.bypasses;
    if (perf_) {
        perf_->start();
        perfBase_ = perf_->read();
    }
}

void
EpochSampler::sample()
{
    const CacheStats &stats = llc_.stats();
    accessCount_ += interval_ - untilSample_;
    untilSample_ = interval_;

    EpochRecord rec;
    rec.epoch = run_.epochsDropped + run_.epochs.size();
    rec.accessCount = accessCount_;
    rec.intervalAccesses = stats.accesses - baseAccesses_;
    rec.intervalHits = stats.hits - baseHits_;
    rec.intervalMisses = stats.misses - baseMisses_;
    rec.intervalBypasses = stats.bypasses - baseBypasses_;
    baseAccesses_ = stats.accesses;
    baseHits_ = stats.hits;
    baseMisses_ = stats.misses;
    baseBypasses_ = stats.bypasses;

    if (source_)
        source_->telemetrySnapshot(rec.policy);

    rec.threadOccupancy.assign(numThreads_, 0);
    for (uint32_t set = 0; set < llc_.numSets(); ++set)
        for (uint32_t way = 0; way < llc_.numWays(); ++way)
            if (llc_.isValid(set, way)) {
                const unsigned t = llc_.lineThread(set, way);
                ++rec.threadOccupancy[t < numThreads_ ? t : 0];
            }

    if (perf_) {
        const hw::PerfReading now = perf_->read();
        rec.hw = now.since(perfBase_);
        perfBase_ = now;
    }

    if (trace_)
        deriveEvents(rec);
    prev_ = rec.policy;
    havePrev_ = true;

    if (run_.epochs.size() == config_.maxEpochs) {
        run_.epochs.erase(run_.epochs.begin());
        ++run_.epochsDropped;
    }
    run_.epochs.push_back(std::move(rec));
}

void
EpochSampler::deriveEvents(const EpochRecord &current)
{
    auto emit = [&](const char *type,
                    std::vector<std::pair<std::string, double>> fields) {
        TraceEvent event;
        event.type = type;
        event.accessCount = current.accessCount;
        event.fields = std::move(fields);
        trace_->record(std::move(event));
    };

    const double hit_rate = current.intervalAccesses
        ? static_cast<double>(current.intervalHits) /
              static_cast<double>(current.intervalAccesses)
        : 0.0;
    std::vector<std::pair<std::string, double>> epoch_fields = {
        {"epoch", static_cast<double>(current.epoch)},
        {"hit_rate", hit_rate},
    };
    if (const double *pd = current.policy.scalar("pd"))
        epoch_fields.emplace_back("pd", *pd);
    emit("epoch", std::move(epoch_fields));

    if (!havePrev_)
        return;

    const double *pd_now = current.policy.scalar("pd");
    const double *pd_before = prev_.scalar("pd");
    if (pd_now && pd_before && *pd_now != *pd_before)
        emit("pd_change", {{"from", *pd_before}, {"to", *pd_now}});

    const double *b_now = current.policy.scalar("psel_b");
    const double *b_before = prev_.scalar("psel_b");
    if (b_now && b_before && *b_now != *b_before) {
        std::vector<std::pair<std::string, double>> fields = {
            {"from", *b_before}, {"to", *b_now}};
        if (const double *psel = current.policy.scalar("psel"))
            fields.emplace_back("psel", *psel);
        emit("psel_flip", std::move(fields));
    }

    for (const char *name : {"thread_pds", "allocation"}) {
        const std::vector<double> *now = current.policy.findSeries(name);
        const std::vector<double> *before = prev_.findSeries(name);
        if (!now || !before || now->size() != before->size())
            continue;
        unsigned changed = 0;
        for (size_t i = 0; i < now->size(); ++i)
            if ((*now)[i] != (*before)[i])
                ++changed;
        if (changed)
            emit("partition_realloc",
                 {{"threads_changed", static_cast<double>(changed)}});
    }
}

void
EpochSampler::finish()
{
    if (untilSample_ != interval_)
        sample();
}

RunTelemetry
EpochSampler::take()
{
    if (trace_) {
        run_.events = trace_->chronological();
        run_.eventsDropped = trace_->dropped();
    }
    return std::move(run_);
}

} // namespace telemetry
} // namespace pdp
