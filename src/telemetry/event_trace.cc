#include "telemetry/event_trace.h"

#include <algorithm>

namespace pdp
{
namespace telemetry
{

EventTrace::EventTrace(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1))
{
    ring_.resize(capacity_);
}

void
EventTrace::record(TraceEvent event)
{
    if (size_ == capacity_)
        ++dropped_;
    else
        ++size_;
    ring_[head_] = std::move(event);
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
}

std::vector<TraceEvent>
EventTrace::chronological() const
{
    std::vector<TraceEvent> out;
    out.reserve(size_);
    // head_ points one past the newest record; the oldest is `size_`
    // slots behind it.
    size_t i = (head_ + capacity_ - size_) % capacity_;
    for (size_t k = 0; k < size_; ++k) {
        out.push_back(ring_[i]);
        i = i + 1 == capacity_ ? 0 : i + 1;
    }
    return out;
}

ScopedPhaseTimer::ScopedPhaseTimer(EventTrace *trace, std::string phase,
                                   uint64_t access_count)
    : trace_(trace), phase_(std::move(phase)), accessCount_(access_count),
      // pdplint: allow(wall-clock) phase timings are wall-clock by
      // definition; the events they produce are marked isVolatile and
      // ResultsSink filters them out of deterministic dumps.
      start_(std::chrono::steady_clock::now())
{
}

ScopedPhaseTimer::~ScopedPhaseTimer()
{
    if (!trace_)
        return;
    const double seconds =
        // pdplint: allow(wall-clock) closing stamp of the volatile
        // phase event; excluded from deterministic dumps (isVolatile).
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    TraceEvent event;
    event.type = "phase";
    event.accessCount = accessCount_;
    event.isVolatile = true;
    event.fields.emplace_back("seconds", seconds);
    // The phase name rides as a field-free suffix on the type so JSONL
    // consumers can group by type alone.
    event.type += ":" + phase_;
    trace_->record(std::move(event));
}

} // namespace telemetry
} // namespace pdp
