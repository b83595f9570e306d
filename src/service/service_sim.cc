#include "service/service_sim.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "cache/cache_stats.h"
#include "check/check.h"
#include "check/flight_recorder.h"
#include "partition/tenant_aware.h"
#include "service/slo_monitor.h"
#include "sim/multi_core_sim.h"
#include "sim/single_core_sim.h"
#include "telemetry/metrics.h"
#include "telemetry/span_tracer.h"
#include "trace/tenant_stream.h"
#include "util/stats.h"

namespace pdp
{

namespace
{

/** One scripted lifecycle edge. */
struct LifecycleEvent
{
    uint64_t at = 0;
    bool isJoin = false; //!< leaves sort before joins at equal `at`
    unsigned spec = 0;
};

/** Mutable per-tenant run state (slot binding, stream, SLO samples). */
struct TenantState
{
    enum class Phase { Pending, Live, Left };
    Phase phase = Phase::Pending;
    unsigned spec = 0;
    int slot = -1;
    std::unique_ptr<TenantStreamGenerator> gen;
    std::optional<PoissonProcess> clock;
    TimingModel timer;
    /** LLC per-thread stats at join (delta baseline). */
    uint64_t baseAccesses = 0;
    uint64_t baseHits = 0;
    uint64_t baseMisses = 0;
    uint64_t requests = 0;
    uint64_t joinedAt = 0;
    Accumulator quota;
    Accumulator occupancy;
    Accumulator drift;
    /** Per-SLO-interval delta baselines (burn-rate inputs). */
    uint64_t sloBaseAccesses = 0;
    uint64_t sloBaseHits = 0;
    std::array<uint64_t, Log2Histogram::kBuckets> sloLatBase{};
    uint64_t sloLatBaseCount = 0;
};

/**
 * p99 of the miss-latency observations added since `base`, as the
 * resolution-honest bucket upper edge; advances the baseline to now.
 * This is the sliding-interval view of TimingModel::missLatency() that
 * the burn-rate monitor scores, where the end-of-run TenantOutcome
 * reports the whole-residency quantile.
 */
double
intervalP99(const Log2Histogram &hist,
            std::array<uint64_t, Log2Histogram::kBuckets> &base,
            uint64_t &base_count)
{
    const uint64_t count = hist.count() - base_count;
    double p99 = 0.0;
    if (count > 0) {
        // rank = ceil(0.99 * count), clamped into [1, count]
        uint64_t rank = static_cast<uint64_t>(
            0.99 * static_cast<double>(count));
        if (static_cast<double>(rank) < 0.99 * static_cast<double>(count))
            ++rank;
        rank = std::max<uint64_t>(1, std::min(rank, count));
        uint64_t seen = 0;
        for (unsigned k = 0; k < Log2Histogram::kBuckets; ++k) {
            seen += hist.at(k) - base[k];
            if (seen >= rank) {
                p99 = static_cast<double>(Log2Histogram::upperEdge(k));
                break;
            }
        }
    }
    for (unsigned k = 0; k < Log2Histogram::kBuckets; ++k)
        base[k] = hist.at(k);
    base_count = hist.count();
    return p99;
}

double
eventField(unsigned v)
{
    return static_cast<double>(v);
}

} // namespace

ServiceResult
runService(const std::vector<TenantSpec> &tenants,
           const std::string &policy_spec, const ServiceConfig &config,
           uint64_t seed)
{
    PDP_CHECK(!tenants.empty(), "service run with no tenants");
    PDP_CHECK(config.slots >= 1 &&
                  config.slots <= CacheStats::kMaxThreads,
              "service slots ", config.slots, " outside [1, ",
              CacheStats::kMaxThreads, "]");
    // Every spec is checked before any stream is built.  The scheduler
    // compares arrival times, so they must be finite.
    for (const TenantSpec &t : tenants) {
        PDP_CHECK(std::isfinite(t.arrivalRate) && t.arrivalRate > 0.0,
                  "tenant ", t.name, " arrival rate ", t.arrivalRate,
                  " is not finite and > 0");
        PDP_CHECK(std::isfinite(t.zipfAlpha) && t.zipfAlpha >= 0.0,
                  "tenant ", t.name, " Zipf alpha ", t.zipfAlpha,
                  " is not finite and >= 0");
        PDP_CHECK(t.writeFrac >= 0.0 && t.writeFrac <= 1.0, "tenant ",
                  t.name, " write fraction ", t.writeFrac,
                  " outside [0, 1]");
        PDP_CHECK(t.footprintLines >= 1 &&
                      t.footprintLines <= ZipfSampler::kMaxFootprint,
                  "tenant ", t.name, " footprint ", t.footprintLines,
                  " lines outside [1, ", ZipfSampler::kMaxFootprint, "]");
        PDP_CHECK(t.meanGap >= 1, "tenant ", t.name, " mean gap ",
                  t.meanGap, " is below 1");
    }

    HierarchyConfig hcfg = config.hierarchy;
    hcfg.numThreads = config.slots;
    auto policy = makeSharedPolicy(policy_spec, config.slots);
    auto *ta = dynamic_cast<TenantAwarePartition *>(policy.get());
    Hierarchy hierarchy(hcfg, std::move(policy));
    Cache &llc = hierarchy.llc();
    const uint64_t totalLines =
        static_cast<uint64_t>(llc.numSets()) * llc.numWays();

    RunObservers observers(llc, config.auditEvery, config.auditFailFast,
                           config.telemetry, config.accesses,
                           config.slots);
    telemetry::EpochSampler *sampler = observers.sampler();
    telemetry::EventTrace *trace = observers.trace();

    // Request-lifecycle span tracing (observability plane): spans ride
    // the event ring, so the tracer needs --trace AND a nonzero sample
    // rate.  Its seed branches off the run seed on a tag no generator
    // uses, so tracing on/off never perturbs the traffic.
    std::unique_ptr<telemetry::SpanTracer> tracerPtr;
    if (trace && config.telemetry.spanSampleRate > 0.0)
        tracerPtr = std::make_unique<telemetry::SpanTracer>(
            trace, hashMix64(seed ^ 0x5fa17ce1dULL),
            config.telemetry.spanSampleRate);
    telemetry::SpanTracer *tracer = tracerPtr.get();

    SloMonitor monitor(SloMonitorConfig{}, config.slots, trace);

    // Crash forensics: declared after the sampler/tracer so stack
    // unwinding destroys this scope FIRST, while the event ring and any
    // open spans are still alive to be dumped (check/flight_recorder.h).
    check::FlightScope flightScope(trace, tracer);

    ServiceResult result;
    result.policy = policy_spec;
    result.tenantAware = ta != nullptr;
    result.tenants.resize(tenants.size());

    if (ta)
        ta->beginTenantMode();

    // Scripted lifecycle, sorted by (access index, leaves-first, spec).
    std::vector<LifecycleEvent> lifecycle;
    for (unsigned i = 0; i < tenants.size(); ++i) {
        lifecycle.push_back({tenants[i].joinAt, true, i});
        if (tenants[i].leaveAt > 0) {
            PDP_CHECK(tenants[i].leaveAt > tenants[i].joinAt,
                      "tenant ", tenants[i].name, " leaves at ",
                      tenants[i].leaveAt, " before joining at ",
                      tenants[i].joinAt);
            lifecycle.push_back({tenants[i].leaveAt, false, i});
        }
    }
    std::sort(lifecycle.begin(), lifecycle.end(),
              [](const LifecycleEvent &a, const LifecycleEvent &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.isJoin != b.isJoin)
                      return !a.isJoin; // leaves first
                  return a.spec < b.spec;
              });

    std::vector<TenantState> state(tenants.size());
    for (unsigned i = 0; i < tenants.size(); ++i)
        state[i].spec = i;
    /** slotOwner[s] = spec index of the live tenant on slot s, or -1. */
    std::vector<int> slotOwner(config.slots, -1);
    unsigned live = 0;
    // The scheduler's view: the live tenants in spec order and their
    // pending arrival times, densely packed, plus the one it serves
    // next.  Ties go to the lowest spec, i.e. the lowest dense index.
    std::array<TenantState *, CacheStats::kMaxThreads> liveState{};
    std::array<double, CacheStats::kMaxThreads> liveWhen{};
    unsigned nextPick = 0;
    uint64_t measured = 0;
    bool measuring = false;
    std::vector<double> lastQuotas;

    auto currentQuotas = [&]() {
        if (ta)
            return ta->tenantQuotas();
        // Unmanaged baseline: fairness target is an equal share.
        std::vector<double> q(config.slots, 0.0);
        if (live > 0)
            for (unsigned s = 0; s < config.slots; ++s)
                if (slotOwner[s] >= 0)
                    q[s] = 1.0 / live;
        return q;
    };

    /** Branchless earliest-arrival argmin over the live tenants. */
    auto pickNext = [&]() {
        unsigned best = 0;
        double earliest = liveWhen[0];
        for (unsigned k = 1; k < live; ++k) {
            const bool earlier = liveWhen[k] < earliest;
            best = earlier ? k : best;
            earliest = earlier ? liveWhen[k] : earliest;
        }
        nextPick = best;
    };

    /** Repack the live tenants after a join or leave. */
    auto rebuildSchedule = [&]() {
        unsigned n = 0;
        for (TenantState &ts : state)
            if (ts.phase == TenantState::Phase::Live) {
                liveState[n] = &ts;
                liveWhen[n] = ts.clock->nextArrival();
                ++n;
            }
        if (n > 0)
            pickNext();
    };

    auto snapshotBase = [&](TenantState &ts) {
        const CacheStats &stats = llc.stats();
        ts.baseAccesses = stats.threadAccesses[ts.slot];
        ts.baseHits = stats.threadHits[ts.slot];
        ts.baseMisses = stats.threadMisses[ts.slot];
        ts.sloBaseAccesses = ts.baseAccesses;
        ts.sloBaseHits = ts.baseHits;
        // Callers reset the timer alongside the stats baseline, so the
        // miss-latency interval baseline restarts from empty.
        ts.sloLatBase.fill(0);
        ts.sloLatBaseCount = 0;
    };

    auto doJoin = [&](unsigned spec) {
        TenantState &ts = state[spec];
        PDP_CHECK(ts.phase == TenantState::Phase::Pending,
                  "tenant ", tenants[spec].name, " joined twice");
        int slot = -1;
        if (ta) {
            slot = ta->tenantJoin();
        } else {
            for (unsigned s = 0; s < config.slots; ++s)
                if (slotOwner[s] < 0) {
                    slot = static_cast<int>(s);
                    break;
                }
        }
        PDP_CHECK(slot >= 0, "no free tenant slot for ",
                  tenants[spec].name, " (", live, " live of ",
                  config.slots, ")");
        PDP_CHECK(slotOwner[slot] < 0, "slot ", slot,
                  " double-booked joining ", tenants[spec].name);
        ts.phase = TenantState::Phase::Live;
        ts.slot = slot;
        slotOwner[slot] = static_cast<int>(spec);
        ++live;

        const TenantSpec &t = tenants[spec];
        // Disjoint per-tenant address windows: spec index in the high
        // bits, footprints far below 2^32 lines.
        const uint64_t addrBase = (static_cast<uint64_t>(spec) + 1) << 32;
        const uint64_t streamSeed =
            hashMix64(seed ^ (0x7e4a7c15u + 2u * spec));
        ts.gen = std::make_unique<TenantStreamGenerator>(
            t.name, streamSeed, t.footprintLines, t.zipfAlpha, addrBase,
            t.meanGap, t.writeFrac);
        ts.gen->setThreadId(static_cast<uint8_t>(slot));
        ts.clock.emplace(hashMix64(streamSeed ^ 0xc10cc10cu),
                         t.arrivalRate);
        ts.timer = TimingModel(config.timing);
        ts.requests = 0;
        ts.joinedAt = measured;
        snapshotBase(ts);
        monitor.attach(static_cast<unsigned>(slot), spec,
                       {t.slo.minHitRate, t.slo.maxP99MissCycles});

        ++result.joins;
        ++result.reallocs;
        telemetry::MetricsRegistry::global()
            .counter("service.joins").add();
        if (trace && measuring) {
            trace->record({"tenant_join", measured, false,
                           {{"tenant", eventField(spec)},
                            {"slot", eventField(slot)},
                            {"active", eventField(live)}}});
            trace->record({"partition_realloc", measured, false,
                           {{"cause", 0.0},
                            {"active", eventField(live)}}});
        }
        lastQuotas = currentQuotas();
        rebuildSchedule();
    };

    auto finalizeTenant = [&](unsigned spec, uint64_t leftAt) {
        const TenantState &ts = state[spec];
        const TenantSpec &t = tenants[spec];
        const CacheStats &stats = llc.stats();
        TenantOutcome &out = result.tenants[spec];
        out.name = t.name;
        out.slot = static_cast<unsigned>(ts.slot);
        out.joinedAt = ts.joinedAt;
        out.leftAt = leftAt;
        out.requests = ts.requests;
        out.llcAccesses = stats.threadAccesses[ts.slot] - ts.baseAccesses;
        out.llcHits = stats.threadHits[ts.slot] - ts.baseHits;
        out.llcMisses = stats.threadMisses[ts.slot] - ts.baseMisses;
        out.hitRate = out.llcAccesses
            ? static_cast<double>(out.llcHits) / out.llcAccesses
            : 0.0;
        out.ipc = ts.timer.ipc();
        out.p99MissCycles =
            static_cast<double>(ts.timer.missLatency().quantile(0.99));
        out.meanQuota = ts.quota.mean();
        out.meanOccupancy = ts.occupancy.mean();
        out.occupancyDrift = ts.drift.mean();
        out.hitRateSloMet = t.slo.minHitRate <= 0.0 ||
            out.hitRate >= t.slo.minHitRate;
        out.latencySloMet = t.slo.maxP99MissCycles <= 0.0 ||
            out.p99MissCycles <= t.slo.maxP99MissCycles;
        const SloBurnStats &burn =
            monitor.stats(static_cast<unsigned>(ts.slot));
        out.sloBurnEvents = burn.burnEvents;
        out.sloRecoveredEvents = burn.recoveredEvents;
        out.maxBurnRate = burn.maxBurnRate;
    };

    auto doLeave = [&](unsigned spec) {
        TenantState &ts = state[spec];
        PDP_CHECK(ts.phase == TenantState::Phase::Live,
                  "tenant ", tenants[spec].name, " left while not live");
        finalizeTenant(spec, measured);
        monitor.detach(static_cast<unsigned>(ts.slot));
        if (ta)
            ta->tenantLeave(static_cast<unsigned>(ts.slot));
        slotOwner[ts.slot] = -1;
        ts.phase = TenantState::Phase::Left;
        ts.gen.reset();
        ts.clock.reset();
        --live;
        rebuildSchedule();

        ++result.leaves;
        ++result.reallocs;
        telemetry::MetricsRegistry::global()
            .counter("service.leaves").add();
        if (trace) {
            trace->record({"tenant_leave", measured, false,
                           {{"tenant", eventField(spec)},
                            {"slot", eventField(ts.slot)},
                            {"active", eventField(live)}}});
            trace->record({"partition_realloc", measured, false,
                           {{"cause", 1.0},
                            {"active", eventField(live)}}});
        }
        lastQuotas = currentQuotas();
    };

    /** Serve the earliest pending arrival (ties: lowest spec). */
    auto step = [&]() {
        TenantState &ts = *liveState[nextPick];
        const Access access = ts.gen->next();
        // The schedule reads only the clocks, never a cache outcome, so
        // the request after this one is known before this one walks the
        // hierarchy: pick it now and start fetching the sets it will
        // probe, so the argmin and the fetch overlap the walk.
        ts.clock->advance();
        liveWhen[nextPick] = ts.clock->nextArrival();
        pickNext();
        const TenantState &next = *liveState[nextPick];
        const uint64_t line = next.gen->peek().lineAddr;
        Cache &l2 = hierarchy.l2(static_cast<unsigned>(next.slot));
        l2.prefetchSet(l2.setIndex(line));
        llc.prefetchSet(llc.setIndex(line));
        // Span open/close brackets the access so a fault inside it (an
        // injected one below, or a real PDP_CHECK in the hierarchy)
        // leaves the request's root span open for the flight recorder.
        const bool spanned = tracer && measuring &&
            tracer->beginRequest(ts.spec, static_cast<unsigned>(ts.slot),
                                 ts.requests, measured, ts.timer.cycles());
        PDP_CHECK(!measuring || config.faultAt == 0 ||
                      measured + 1 != config.faultAt,
                  "injected service fault at measured access ",
                  config.faultAt, " (ServiceConfig::faultAt)");
        const HierarchyResult res = hierarchy.access(access);
        if (sampler && measuring)
            sampler->onAccess();
        ts.timer.onAccess(access.instrGap, res.level);
        if (spanned)
            tracer->endRequest(res.level, res.llcBypassed, measured,
                               ts.timer.cycles());
        ++ts.requests;
    };

    const uint64_t sloInterval = config.sloInterval > 0
        ? config.sloInterval
        : std::max<uint64_t>(16384, config.accesses / 64);

    auto sampleSlo = [&]() {
        if (live == 0)
            return;
        const std::vector<double> quotas = currentQuotas();
        std::vector<uint64_t> owned(config.slots, 0);
        for (uint32_t set = 0; set < llc.numSets(); ++set)
            for (uint32_t way = 0; way < llc.numWays(); ++way)
                if (llc.isValid(set, way)) {
                    const unsigned t = llc.lineThread(set, way);
                    if (t < config.slots)
                        ++owned[t];
                }
        const CacheStats &stats = llc.stats();
        for (unsigned s = 0; s < config.slots; ++s) {
            if (slotOwner[s] < 0)
                continue;
            TenantState &ts = state[slotOwner[s]];
            const double occ = static_cast<double>(owned[s]) /
                static_cast<double>(totalLines);
            const double q = quotas[s];
            ts.quota.add(q);
            ts.occupancy.add(occ);
            ts.drift.add(occ > q ? occ - q : q - occ);

            // Burn-rate scoring sees this interval's deltas, not the
            // residency cumulative: a tenant that degrades late must
            // start burning even if its average still clears the bar.
            const uint64_t intervalAccesses =
                stats.threadAccesses[s] - ts.sloBaseAccesses;
            const uint64_t intervalHits =
                stats.threadHits[s] - ts.sloBaseHits;
            monitor.observe(
                s, measured, intervalAccesses,
                intervalAccesses ? static_cast<double>(intervalHits) /
                        static_cast<double>(intervalAccesses)
                                 : 0.0,
                intervalP99(ts.timer.missLatency(), ts.sloLatBase,
                            ts.sloLatBaseCount));
            ts.sloBaseAccesses = stats.threadAccesses[s];
            ts.sloBaseHits = stats.threadHits[s];
        }
        // A quota vector that moved since the last look is a periodic
        // reallocation (the PD-recompute / UMON clock fired).
        if (quotas != lastQuotas) {
            ++result.reallocs;
            telemetry::MetricsRegistry::global()
                .counter("service.reallocs").add();
            if (trace)
                trace->record({"partition_realloc", measured, false,
                               {{"cause", 2.0},
                                {"active", eventField(live)}}});
            lastQuotas = quotas;
        }
    };

    // --- Initial population + warmup (stats discarded) ----------------
    size_t nextEvent = 0;
    while (nextEvent < lifecycle.size() &&
           lifecycle[nextEvent].at == 0 && lifecycle[nextEvent].isJoin) {
        doJoin(lifecycle[nextEvent].spec);
        ++nextEvent;
    }
    PDP_CHECK(live > 0, "no tenant joins at access 0");
    {
        telemetry::ScopedPhaseTimer phase(trace, "warmup");
        for (uint64_t i = 0; i < config.warmup; ++i)
            step();
    }
    hierarchy.resetStats();
    for (TenantState &ts : state) {
        if (ts.phase != TenantState::Phase::Live)
            continue;
        ts.timer = TimingModel(config.timing);
        ts.requests = 0;
        snapshotBase(ts);
    }
    observers.beginMeasurement();
    measuring = true;
    lastQuotas = currentQuotas();

    // --- Measured open-loop phase -------------------------------------
    {
        telemetry::ScopedPhaseTimer phase(trace, "measure");
        while (measured < config.accesses) {
            while (nextEvent < lifecycle.size() &&
                   lifecycle[nextEvent].at <= measured) {
                const LifecycleEvent &ev = lifecycle[nextEvent];
                if (ev.isJoin)
                    doJoin(ev.spec);
                else
                    doLeave(ev.spec);
                ++nextEvent;
            }
            if (live == 0)
                break; // script drained the population early
            step();
            ++measured;
            if (measured % sloInterval == 0)
                sampleSlo();
        }
    }

    // Tenants still resident at the end: close their residency window.
    for (unsigned i = 0; i < tenants.size(); ++i)
        if (state[i].phase == TenantState::Phase::Live)
            finalizeTenant(i, measured);

    const CacheStats &stats = llc.stats();
    result.aggregateHitRate = stats.hitRate();
    if (tracer)
        result.spansSampled = tracer->sampled();
    observers.finish(result);
    return result;
}

} // namespace pdp
