/**
 * @file
 * SpanTracer: deterministic head-sampled request-lifecycle spans for
 * service mode.
 *
 * A sampled request becomes one trace — a root "span:arrival" event plus
 * one child span per cache-lifecycle stage the request actually took
 * (L2 hit, or L2 miss → LLC probe → hit / victim / bypass → memory
 * fill) — emitted into the run's EventTrace ring with shared trace/span
 * IDs, so a tenant's p99 outlier can be decomposed into its cache-event
 * path after the fact (tools/pdpreport.py renders the waterfall).
 *
 * Determinism rules (the plane's hard contract):
 *  - The sample decision is a pure hash of (seed, tenant, request
 *    index): no wall clock, no global counter, no RNG state shared with
 *    the simulation.  Two runs — or the same grid on 1 vs N workers —
 *    sample the identical request set.
 *  - Timestamps are sim-time cycles from the tenant's TimingModel, not
 *    host time.
 *  - All span events are emitted together at request completion (never
 *    from inside the cache hot path — enforced statically by pdplint's
 *    hot-trace check), so their order in the ring is the request
 *    completion order, which is itself deterministic.
 *  - IDs are masked to 48 bits so they round-trip exactly through the
 *    double-valued trace fields and JSON.
 *
 * An exception between beginRequest and endRequest (a PDP_CHECK firing
 * inside the hierarchy access, an injected fault) leaves the request's
 * root span OPEN; the flight recorder (check/flight_recorder.h) dumps
 * open spans as part of its forensics.
 */

#ifndef PDP_TELEMETRY_SPAN_TRACER_H
#define PDP_TELEMETRY_SPAN_TRACER_H

#include <cstdint>
#include <vector>

#include "cache/hierarchy.h"
#include "telemetry/event_trace.h"

namespace pdp
{
namespace telemetry
{

/** One in-flight sampled request (root span not yet closed). */
struct OpenSpan
{
    uint64_t traceId = 0;
    uint64_t spanId = 0;
    unsigned tenant = 0;
    unsigned slot = 0;
    /** Tenant-local request index. */
    uint64_t request = 0;
    /** Measured-access index at beginRequest. */
    uint64_t accessCount = 0;
    /** Tenant sim-time cycles at beginRequest. */
    uint64_t cyclesBegin = 0;
};

class SpanTracer
{
  public:
    /**
     * @param trace destination ring; must outlive the tracer
     * @param seed tracer seed (derive from the run seed, not reused by
     *        any traffic generator)
     * @param sample_rate fraction of requests traced per tenant in
     *        [0, 1]; 0 never samples, 1 samples everything
     */
    SpanTracer(EventTrace *trace, uint64_t seed, double sample_rate);

    /** The deterministic head-sampling decision for (tenant, request);
     *  pure — no state advances. */
    bool shouldSample(unsigned tenant, uint64_t request) const;

    /**
     * Open a trace for the request when sampled.  Returns true when a
     * span opened (the caller must then endRequest exactly once, unless
     * unwinding).  `access_count` is the measured-access index, `cycles`
     * the tenant's sim-time clock.
     */
    bool beginRequest(unsigned tenant, unsigned slot, uint64_t request,
                      uint64_t access_count, uint64_t cycles);

    /** Close the innermost open span, emitting the whole lifecycle
     *  (root + stage spans) into the trace ring. */
    void endRequest(HitLevel level, bool llc_bypassed,
                    uint64_t access_count, uint64_t cycles);

    /** Requests whose root span is still open (forensics). */
    const std::vector<OpenSpan> &openSpans() const { return open_; }

    /** Traces opened so far (sampled requests). */
    uint64_t sampled() const { return sampled_; }

  private:
    EventTrace *trace_;
    uint64_t seed_;
    /** shouldSample threshold over the hash's top 53 bits. */
    uint64_t threshold_;
    uint64_t sampled_ = 0;
    std::vector<OpenSpan> open_;
};

} // namespace telemetry
} // namespace pdp

#endif // PDP_TELEMETRY_SPAN_TRACER_H
