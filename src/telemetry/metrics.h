/**
 * @file
 * Counter: a monotonically increasing event count for always-on
 * instrumentation.
 *
 * An update is a relaxed load + relaxed store — no read-modify-write,
 * no fence.  On x86 a relaxed fetch_add still compiles to `lock add`
 * (~20 cycles), which would be visible against the SoA cache hot path;
 * a plain store is not.  The price is that two threads racing on one
 * counter can lose updates, so a count that must be exact belongs to
 * one thread (a job's own result), not to a shared Counter.  The
 * hotpath suite's LRU-telemetry-idle job times one per-access update
 * against the 2% overhead budget (DESIGN.md "Telemetry & tracing").
 */

#ifndef PDP_TELEMETRY_METRICS_H
#define PDP_TELEMETRY_METRICS_H

#include <atomic>
#include <cstdint>

namespace pdp
{
namespace telemetry
{

/** A monotonically increasing event count. */
class Counter
{
  public:
    void
    add(uint64_t n = 1) noexcept
    {
        value_.store(value_.load(std::memory_order_relaxed) + n,
                     std::memory_order_relaxed);
    }

    uint64_t
    value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

} // namespace telemetry
} // namespace pdp

#endif // PDP_TELEMETRY_METRICS_H
