#include "telemetry/metrics.h"

#include "check/check.h"

namespace pdp
{
namespace telemetry
{

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry registry;
    return registry;
}

MetricsRegistry::Entry &
MetricsRegistry::registerEntry(const std::string &name, MetricKind kind,
                               bool volatile_metric)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
        Entry entry;
        entry.kind = kind;
        entry.isVolatile = volatile_metric;
        switch (kind) {
        case MetricKind::Counter:
            entry.counter = std::make_unique<Counter>();
            break;
        case MetricKind::Gauge:
            entry.gauge = std::make_unique<Gauge>();
            break;
        }
        it = entries_.emplace(name, std::move(entry)).first;
    }
    PDP_CHECK(it->second.kind == kind, "telemetry metric '", name,
              "' re-registered with a different kind");
    return it->second;
}

Counter &
MetricsRegistry::counter(const std::string &name, bool volatile_metric)
{
    return *registerEntry(name, MetricKind::Counter, volatile_metric)
                .counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, bool volatile_metric)
{
    return *registerEntry(name, MetricKind::Gauge, volatile_metric).gauge;
}

std::vector<MetricSnapshot>
MetricsRegistry::snapshot(bool includeVolatile) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricSnapshot> out;
    out.reserve(entries_.size());
    // std::map iteration is already name-sorted.
    for (const auto &[name, entry] : entries_) {
        if (entry.isVolatile && !includeVolatile)
            continue;
        MetricSnapshot snap;
        snap.name = name;
        snap.kind = entry.kind;
        snap.isVolatile = entry.isVolatile;
        switch (entry.kind) {
        case MetricKind::Counter:
            snap.count = entry.counter->value();
            break;
        case MetricKind::Gauge:
            snap.value = entry.gauge->value();
            break;
        }
        out.push_back(std::move(snap));
    }
    return out;
}

size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void
MetricsRegistry::resetAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, entry] : entries_) {
        (void)name;
        switch (entry.kind) {
        case MetricKind::Counter:
            entry.counter->reset();
            break;
        case MetricKind::Gauge:
            entry.gauge->reset();
            break;
        }
    }
}

} // namespace telemetry
} // namespace pdp
