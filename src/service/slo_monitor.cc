#include "service/slo_monitor.h"

#include <algorithm>

#include "check/check.h"

namespace pdp
{

SloMonitor::SloMonitor(unsigned slots, telemetry::EventTrace *trace)
    : trace_(trace), slots_(slots)
{
}

SloMonitor::SlotState &
SloMonitor::state(unsigned slot)
{
    PDP_CHECK(slot < slots_.size(), "SLO slot ", slot, " outside [0, ",
              slots_.size(), ")");
    return slots_[slot];
}

const SloMonitor::SlotState &
SloMonitor::state(unsigned slot) const
{
    PDP_CHECK(slot < slots_.size(), "SLO slot ", slot, " outside [0, ",
              slots_.size(), ")");
    return slots_[slot];
}

void
SloMonitor::attach(unsigned slot, unsigned tenant, const SloBounds &bounds)
{
    SlotState &s = state(slot);
    PDP_CHECK(!s.live, "SLO slot ", slot, " attached twice");
    s = SlotState{};
    s.live = true;
    s.tenant = tenant;
    s.bounds = bounds;
}

void
SloMonitor::detach(unsigned slot)
{
    SlotState &s = state(slot);
    PDP_CHECK(s.live, "SLO detach of idle slot ", slot);
    s.live = false;
    s.burning = false;
}

double
SloMonitor::burnRate(unsigned slot) const
{
    const SlotState &s = state(slot);
    const unsigned window = std::max(s.filled, 1u);
    return static_cast<double>(s.violationsInWindow) /
        (static_cast<double>(window) * kBudget);
}

void
SloMonitor::observe(unsigned slot, uint64_t access_count,
                    uint64_t interval_accesses, double interval_hit_rate,
                    double interval_p99)
{
    SlotState &s = state(slot);
    PDP_CHECK(s.live, "SLO observe on idle slot ", slot);

    // An interval in which the tenant saw no traffic can't violate a
    // rate-style objective; score it clean so an idle tenant recovers.
    const bool violated = interval_accesses > 0 &&
        ((s.bounds.minHitRate > 0.0 &&
          interval_hit_rate < s.bounds.minHitRate) ||
         (s.bounds.maxP99MissCycles > 0.0 &&
          interval_p99 > s.bounds.maxP99MissCycles));

    if (s.filled == kWindowIntervals) {
        if (s.window[s.head])
            --s.violationsInWindow;
    } else {
        ++s.filled;
    }
    s.window[s.head] = violated;
    if (violated)
        ++s.violationsInWindow;
    s.head = s.head + 1 == kWindowIntervals ? 0 : s.head + 1;

    ++s.stats.intervals;
    if (violated)
        ++s.stats.violations;
    const double burn = burnRate(slot);
    s.stats.maxBurnRate = std::max(s.stats.maxBurnRate, burn);

    const bool nowBurning = burn >= 1.0;
    if (nowBurning == s.burning)
        return;
    s.burning = nowBurning;
    if (nowBurning)
        ++s.stats.burnEvents;
    else
        ++s.stats.recoveredEvents;
    if (trace_)
        trace_->record({nowBurning ? "slo_burn" : "slo_recovered",
                        access_count, false,
                        {{"tenant", static_cast<double>(s.tenant)},
                         {"slot", static_cast<double>(slot)},
                         {"burn_rate", burn},
                         {"violations",
                          static_cast<double>(s.violationsInWindow)},
                         {"window", static_cast<double>(s.filled)}}});
}

} // namespace pdp
