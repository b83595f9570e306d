/**
 * @file
 * MetricsRegistry: named counters and gauges with static handle
 * registration.
 *
 * Design goals (see DESIGN.md "Telemetry & tracing"):
 *
 *  - Registration is cold and mutex-guarded; it returns a reference whose
 *    address is stable for the process lifetime, so call sites register
 *    once (usually into a function-local static) and afterwards touch
 *    only their own handle.
 *  - An update is a relaxed load + relaxed store — no read-modify-write,
 *    no fence.  On x86 a relaxed fetch_add still compiles to `lock add`
 *    (~20 cycles), which would be visible against the SoA cache hot
 *    path; a plain store is not.  The price is that
 *    two threads racing on the same handle can lose updates — telemetry
 *    values are advisory observability data, never inputs to simulation
 *    results, so approximate totals are acceptable by contract.
 */

#ifndef PDP_TELEMETRY_METRICS_H
#define PDP_TELEMETRY_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

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

    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** A last-writer-wins sampled value. */
class Gauge
{
  public:
    void
    set(double v) noexcept
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const noexcept
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

enum class MetricKind
{
    Counter,
    Gauge,
};

/** One metric's value at snapshot time. */
struct MetricSnapshot
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    /** Volatile metrics (wall-clock derived) are excluded from
     *  deterministic exports. */
    bool isVolatile = false;
    /** Counter value. */
    uint64_t count = 0;
    /** Gauge value. */
    double value = 0.0;
};

/**
 * The process-wide name -> metric map.  Double registration of a name
 * with the same kind returns the existing handle; the kind of a name is
 * fixed by its first registration (a mismatch is a programming error and
 * trips a PDP_CHECK).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &global();

    Counter &counter(const std::string &name, bool volatile_metric = false);
    Gauge &gauge(const std::string &name, bool volatile_metric = false);

    /** All metrics sorted by name; includeVolatile = false drops the
     *  wall-clock derived ones (deterministic exports). */
    std::vector<MetricSnapshot> snapshot(bool includeVolatile = true) const;

    size_t size() const;

    /** Zero every registered metric (tests and fresh harness runs;
     *  handles stay valid). */
    void resetAll();

  private:
    struct Entry
    {
        MetricKind kind;
        bool isVolatile;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
    };

    Entry &registerEntry(const std::string &name, MetricKind kind,
                         bool volatile_metric);

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

} // namespace telemetry
} // namespace pdp

#endif // PDP_TELEMETRY_METRICS_H
