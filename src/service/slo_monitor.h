/**
 * @file
 * SloMonitor: online per-tenant error-budget burn-rate tracking for
 * service mode.
 *
 * The end-of-run SLO columns (TenantOutcome) say WHETHER a tenant's
 * objectives held; the monitor says WHEN they started failing.  Each SLO
 * sampling interval (the deterministic epoch clock service_sim already
 * runs — never wall time) scores one boolean per live tenant: did this
 * interval violate the tenant's hit-rate or p99-latency bound?  A
 * sliding window of the last W = kWindowIntervals intervals (fewer
 * until W have been scored) then yields the burn rate
 *
 *     burn = violations_in_window / (W * kBudget)
 *
 * where kBudget is the tolerated violation fraction (error budget).
 * burn >= 1 means the tenant is consuming budget faster than allowed:
 * crossing up emits an "slo_burn" trace event; dropping back emits
 * "slo_recovered".  Each tenant's SloBurnStats counts both, and
 * service_sim reports them per tenant.
 *
 * Everything is a pure function of the interval metrics fed in, so burn
 * events land in deterministic TRACE dumps and byte-compare across
 * worker counts like every other structured event.
 */

#ifndef PDP_SERVICE_SLO_MONITOR_H
#define PDP_SERVICE_SLO_MONITOR_H

#include <cstdint>
#include <vector>

#include "telemetry/event_trace.h"

namespace pdp
{

/** Per-tenant objective bounds (0 disables a bound; mirrors TenantSlo). */
struct SloBounds
{
    double minHitRate = 0.0;
    double maxP99MissCycles = 0.0;
};

/** What one tenant's residency accumulated (reported per tenant). */
struct SloBurnStats
{
    uint64_t burnEvents = 0;
    uint64_t recoveredEvents = 0;
    uint64_t violations = 0;
    uint64_t intervals = 0;
    double maxBurnRate = 0.0;
};

class SloMonitor
{
  public:
    /** Sliding-window length in SLO sampling intervals. */
    static constexpr unsigned kWindowIntervals = 8;
    /** Error budget: tolerated violating fraction of the window. */
    static constexpr double kBudget = 0.25;

    /**
     * @param slots concurrent tenant slots (slot-indexed state; every
     *        slot argument below must be < slots, or CheckFailure)
     * @param trace event destination, or nullptr for metrics-only
     */
    SloMonitor(unsigned slots, telemetry::EventTrace *trace);

    /** Bind a tenant to `slot` (resets the slot's window; slots are
     *  recycled across tenants).  `tenant` tags emitted events. */
    void attach(unsigned slot, unsigned tenant, const SloBounds &bounds);

    /** Release the slot at tenant leave; a burning slot stops burning
     *  but emits no synthetic recovery. */
    void detach(unsigned slot);

    /**
     * Score one SLO interval for a live slot.  `access_count` stamps any
     * emitted event; `interval_hit_rate` / `interval_p99` are this
     * interval's deltas (not run cumulative).  Intervals with no
     * accesses for the tenant score as non-violating.
     */
    void observe(unsigned slot, uint64_t access_count,
                 uint64_t interval_accesses, double interval_hit_rate,
                 double interval_p99);

    double burnRate(unsigned slot) const;
    bool burning(unsigned slot) const { return state(slot).burning; }

    /** Residency totals for the tenant currently bound to `slot`. */
    const SloBurnStats &stats(unsigned slot) const
    {
        return state(slot).stats;
    }

  private:
    struct SlotState
    {
        bool live = false;
        bool burning = false;
        unsigned tenant = 0;
        SloBounds bounds;
        /** Ring of the last kWindowIntervals violation flags. */
        std::vector<bool> window = std::vector<bool>(kWindowIntervals);
        unsigned head = 0;
        unsigned filled = 0;
        unsigned violationsInWindow = 0;
        SloBurnStats stats;
    };

    /** The slot's state; throws CheckFailure for slot >= slots. */
    SlotState &state(unsigned slot);
    const SlotState &state(unsigned slot) const;

    telemetry::EventTrace *trace_;
    std::vector<SlotState> slots_;
};

} // namespace pdp

#endif // PDP_SERVICE_SLO_MONITOR_H
