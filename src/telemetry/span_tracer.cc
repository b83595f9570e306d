#include "telemetry/span_tracer.h"

#include <algorithm>

#include "util/rng.h"

namespace pdp
{
namespace telemetry
{

namespace
{

/** Span/trace IDs are capped at 48 bits so the double-valued trace
 *  fields (and JSON numbers) round-trip them exactly. */
constexpr uint64_t kIdMask = (uint64_t{1} << 48) - 1;

/** The sample decision compares the hash's top 53 bits (the mantissa
 *  width a double can hold exactly) against rate * 2^53. */
constexpr uint64_t kSampleSpace = uint64_t{1} << 53;

/** The per-request identity hash all sampling and ID material derives
 *  from; mixing tenant and request separately keeps tenant streams
 *  independent. */
uint64_t
requestHash(uint64_t seed, unsigned tenant, uint64_t request)
{
    return hashMix64(seed ^
                     hashMix64((static_cast<uint64_t>(tenant) + 1) *
                                   0x9e3779b97f4a7c15ULL ^
                               request));
}

} // namespace

SpanTracer::SpanTracer(EventTrace *trace, uint64_t seed, double sample_rate)
    : trace_(trace), seed_(seed)
{
    const double rate = std::clamp(sample_rate, 0.0, 1.0);
    threshold_ = rate >= 1.0
        ? kSampleSpace
        : static_cast<uint64_t>(rate * static_cast<double>(kSampleSpace));
}

bool
SpanTracer::shouldSample(unsigned tenant, uint64_t request) const
{
    if (threshold_ == 0)
        return false;
    return (requestHash(seed_, tenant, request) >> 11) < threshold_;
}

bool
SpanTracer::beginRequest(unsigned tenant, unsigned slot, uint64_t request,
                         uint64_t access_count, uint64_t cycles)
{
    if (!trace_ || !shouldSample(tenant, request))
        return false;
    const uint64_t h = requestHash(seed_, tenant, request);
    OpenSpan span;
    span.traceId = h & kIdMask;
    span.spanId = hashMix64(h ^ 1) & kIdMask;
    span.tenant = tenant;
    span.slot = slot;
    span.request = request;
    span.accessCount = access_count;
    span.cyclesBegin = cycles;
    open_.push_back(span);
    ++sampled_;
    return true;
}

void
SpanTracer::endRequest(HitLevel level, bool llc_bypassed,
                       uint64_t access_count, uint64_t cycles)
{
    if (open_.empty())
        return;
    const OpenSpan span = open_.back();
    open_.pop_back();

    // The lifecycle stages this request actually took, in path order.
    std::vector<const char *> stages;
    switch (level) {
    case HitLevel::L2:
        stages = {"l2_hit"};
        break;
    case HitLevel::Llc:
        stages = {"l2_miss", "llc_probe", "llc_hit"};
        break;
    case HitLevel::Memory:
        stages = {"l2_miss", "llc_probe",
                  llc_bypassed ? "llc_bypass" : "llc_victim", "mem_fill"};
        break;
    }

    auto emit = [&](const char *stage, uint64_t span_id, uint64_t parent) {
        TraceEvent event;
        event.type = std::string("span:") + stage;
        event.accessCount = access_count;
        event.fields = {
            {"trace_id", static_cast<double>(span.traceId)},
            {"span_id", static_cast<double>(span_id)},
            {"parent", static_cast<double>(parent)},
            {"tenant", static_cast<double>(span.tenant)},
            {"slot", static_cast<double>(span.slot)},
            {"request", static_cast<double>(span.request)},
            {"cycles_begin", static_cast<double>(span.cyclesBegin)},
            {"cycles_end", static_cast<double>(cycles)},
        };
        trace_->record(std::move(event));
    };

    emit("arrival", span.spanId, 0);
    const uint64_t h = requestHash(seed_, span.tenant, span.request);
    for (size_t k = 0; k < stages.size(); ++k)
        emit(stages[k], hashMix64(h ^ (k + 2)) & kIdMask, span.spanId);
}

} // namespace telemetry
} // namespace pdp
