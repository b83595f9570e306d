#include "check/flight_recorder.h"

#include <exception>
#include <fstream>

#include "runner/json.h"
#include "runner/results_sink.h"
#include "telemetry/event_trace.h"
#include "telemetry/span_tracer.h"

namespace pdp
{
namespace check
{

namespace
{

thread_local std::string t_jobKey;

runner::Json
toJson(const telemetry::OpenSpan &span)
{
    runner::Json j = runner::Json::object();
    j.set("trace_id", span.traceId);
    j.set("span_id", span.spanId);
    j.set("tenant", static_cast<uint64_t>(span.tenant));
    j.set("slot", static_cast<uint64_t>(span.slot));
    j.set("request", span.request);
    j.set("access", span.accessCount);
    j.set("cycles_begin", span.cyclesBegin);
    return j;
}

} // namespace

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::setEnabled(bool on)
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = on;
}

bool
FlightRecorder::enabled() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return enabled_;
}

void
FlightRecorder::setDirectory(std::string directory)
{
    std::lock_guard<std::mutex> lock(mutex_);
    directory_ = directory.empty() ? "." : std::move(directory);
}

std::string
FlightRecorder::directory() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return directory_;
}

void
FlightRecorder::setJobKey(std::string key)
{
    t_jobKey = std::move(key);
}

const std::string &
FlightRecorder::jobKey()
{
    return t_jobKey;
}

std::string
flightFileName(const std::string &job)
{
    std::string name = "FLIGHT_";
    for (char c : job) {
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
        name += safe ? c : '-';
    }
    return name + ".json";
}

bool
FlightRecorder::dump(const std::string &job, const std::string &reason,
                     const std::string &detail,
                     const telemetry::EventTrace *trace,
                     const telemetry::SpanTracer *tracer)
{
    std::string dir;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!enabled_ || !dumped_.insert(job).second)
            return false;
        dir = directory_;
    }
    if (dir.back() != '/')
        dir += '/';

    runner::Json doc = runner::Json::object();
    doc.set("schema", "pdp-flight/v1");
    doc.set("job", job);
    doc.set("reason", reason);
    if (!detail.empty())
        doc.set("detail", detail);

    runner::Json events = runner::Json::array();
    if (trace) {
        for (const telemetry::TraceEvent &event : trace->chronological()) {
            runner::Json e = runner::Json::object();
            runner::setEvent(e, event);
            events.push(std::move(e));
        }
        doc.set("events_dropped", trace->dropped());
    }
    doc.set("events", std::move(events));

    runner::Json spans = runner::Json::array();
    if (tracer)
        for (const telemetry::OpenSpan &span : tracer->openSpans())
            spans.push(toJson(span));
    doc.set("open_spans", std::move(spans));

    std::ofstream out(dir + flightFileName(job));
    if (!out)
        return false;
    out << doc.dump(2) << '\n';
    return static_cast<bool>(out);
}

void
FlightRecorder::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    dumped_.clear();
}

FlightScope::FlightScope(const telemetry::EventTrace *trace,
                         const telemetry::SpanTracer *tracer)
    : trace_(trace), tracer_(tracer),
      exceptionsAtEntry_(std::uncaught_exceptions())
{
}

FlightScope::~FlightScope()
{
    // Only a dump-worthy unwind (an exception crossing this scope)
    // triggers capture; normal completion destroys the scope silently.
    if (std::uncaught_exceptions() <= exceptionsAtEntry_)
        return;
    const std::string &job = FlightRecorder::jobKey();
    FlightRecorder::global().dump(job.empty() ? "unknown-job" : job,
                                  "check_failure", "", trace_, tracer_);
}

ScopedFlightRecorder::ScopedFlightRecorder(std::string directory)
    : wasEnabled_(FlightRecorder::global().enabled()),
      previousDirectory_(FlightRecorder::global().directory())
{
    FlightRecorder::global().setDirectory(std::move(directory));
    FlightRecorder::global().setEnabled(true);
}

ScopedFlightRecorder::~ScopedFlightRecorder()
{
    FlightRecorder::global().setEnabled(wasEnabled_);
    FlightRecorder::global().setDirectory(previousDirectory_);
    FlightRecorder::global().reset();
}

} // namespace check
} // namespace pdp
