/**
 * @file
 * FlightRecorder: crash forensics for experiment-runner jobs.
 *
 * When a job dies — a PDP_CHECK fires inside a simulation or the run
 * callable throws — the usual record is one line ("failed: <key> —
 * <message>") and everything the run knew is gone.  The flight recorder
 * dumps that context to FLIGHT_<job>.json (schema "pdp-flight/v1")
 * before it unwinds:
 *
 *   - the last-N EventTrace entries (the structured-event ring the run
 *     was already keeping), oldest first, plus the drop count,
 *   - every open span (requests whose lifecycle an exception cut short).
 *
 * Two capture paths cooperate:
 *
 *   - FlightScope, an RAII guard a simulation declares AFTER its
 *     sampler/tracer (so it destructs FIRST while they are still
 *     alive).  Its destructor notices in-flight unwinding via
 *     std::uncaught_exceptions() and dumps with the ring and open
 *     spans attached.
 *   - the executor fallback: ThreadPoolExecutor reports any Failed
 *     record.  If the scope already dumped for that job the fallback is
 *     a no-op (per-job dedup — the scope's dump carries strictly more
 *     context); otherwise a dump with no events and no open spans is
 *     written (e.g. for a job that declares no scope).
 *
 * The recorder is DISABLED by default: unit tests exercise throwing
 * jobs constantly and must not spray FLIGHT files into the tree.
 * runSuite() enables it for real experiment runs; tests that assert on
 * flight dumps enable it explicitly (ScopedFlightRecorder).
 */

#ifndef PDP_CHECK_FLIGHT_RECORDER_H
#define PDP_CHECK_FLIGHT_RECORDER_H

#include <mutex>
#include <set>
#include <string>

namespace pdp
{

namespace telemetry
{
class EventTrace;
class SpanTracer;
} // namespace telemetry

namespace check
{

class FlightRecorder
{
  public:
    static FlightRecorder &global();

    /** Arm / disarm dumping (process-wide; default disarmed). */
    void setEnabled(bool on);
    bool enabled() const;

    /** Output directory for FLIGHT files (default "."). */
    void setDirectory(std::string directory);
    std::string directory() const;

    /**
     * Bind the calling thread to the job it is executing (the executor
     * does this around each job) so in-simulation capture sites know
     * which FLIGHT file they belong to.  Pass "" to unbind.
     */
    static void setJobKey(std::string key);
    static const std::string &jobKey();

    /**
     * Write FLIGHT_<job>.json.  `reason` is the capture path
     * ("check_failure" or "job_failed"), `detail` the exception
     * message.  `trace` / `tracer` may be null (nothing to attach).  At
     * most one dump is written per job key — the first wins — and
     * nothing is written while disabled; returns true only when a file
     * was actually written.
     */
    bool dump(const std::string &job, const std::string &reason,
              const std::string &detail,
              const telemetry::EventTrace *trace,
              const telemetry::SpanTracer *tracer);

    /** Forget which jobs have dumped (tests). */
    void reset();

  private:
    FlightRecorder() = default;

    mutable std::mutex mutex_;
    bool enabled_ = false;
    std::string directory_ = ".";
    std::set<std::string> dumped_;
};

/**
 * RAII capture guard for one simulation run.  Declare it after the
 * run's sampler and tracer so stack unwinding destroys it first, while
 * both are still alive to be dumped.
 */
class FlightScope
{
  public:
    FlightScope(const telemetry::EventTrace *trace,
                const telemetry::SpanTracer *tracer);
    ~FlightScope();

    FlightScope(const FlightScope &) = delete;
    FlightScope &operator=(const FlightScope &) = delete;

  private:
    const telemetry::EventTrace *trace_;
    const telemetry::SpanTracer *tracer_;
    int exceptionsAtEntry_;
};

/** Arm the recorder into `directory`, restoring the previous
 *  enabled/directory state (and the per-job dedup set) on destruction
 *  (tests). */
class ScopedFlightRecorder
{
  public:
    explicit ScopedFlightRecorder(std::string directory);
    ~ScopedFlightRecorder();

    ScopedFlightRecorder(const ScopedFlightRecorder &) = delete;
    ScopedFlightRecorder &operator=(const ScopedFlightRecorder &) = delete;

  private:
    bool wasEnabled_;
    std::string previousDirectory_;
};

/** "FLIGHT_<job with non-filename characters mapped to '-'>.json". */
std::string flightFileName(const std::string &job);

} // namespace check
} // namespace pdp

#endif // PDP_CHECK_FLIGHT_RECORDER_H
