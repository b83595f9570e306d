/**
 * @file
 * Tests for the observability plane (DESIGN.md "Observability plane"):
 * deterministic head-sampled request spans, TRACE byte-identity across
 * worker counts under service churn, the EventTrace overflow path, SLO
 * burn-rate transitions, hardware perf-counter degradation, and the
 * fault flight recorder (both capture paths).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/flight_recorder.h"
#include "hw/perf_counters.h"
#include "runner/results_sink.h"
#include "runner/suites.h"
#include "runner/thread_pool.h"
#include "service/service_sim.h"
#include "service/slo_monitor.h"
#include "telemetry/event_trace.h"
#include "telemetry/span_tracer.h"
#include "test_support.h"

using namespace pdp;
using runner::ExecutorOptions;
using runner::Job;
using runner::JobContext;
using runner::JobOutcome;
using runner::JobRecord;
using runner::JobStatus;
using runner::ResultsSink;
using runner::SuiteOptions;
using runner::ThreadPoolExecutor;

namespace
{

/** The span field, or -1 when absent (all real fields are >= 0). */
double
spanField(const telemetry::TraceEvent &event, const std::string &name)
{
    for (const auto &field : event.fields)
        if (field.first == name)
            return field.second;
    return -1.0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A fresh TempDir subdirectory. */
std::string
makeDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::create_directories(dir);
    return dir;
}

/** The small scripted population test_service.cpp also uses: 3 initial
 *  tenants plus one mid-run swap. */
std::vector<TenantSpec>
smallTenants()
{
    std::vector<TenantSpec> tenants(4);
    tenants[0].name = "alpha";
    tenants[0].arrivalRate = 2.0;
    tenants[0].footprintLines = 1 << 10;
    tenants[1].name = "beta";
    tenants[1].arrivalRate = 1.0;
    tenants[1].footprintLines = 1 << 12;
    tenants[1].leaveAt = 20'000;
    tenants[2].name = "gamma";
    tenants[2].arrivalRate = 4.0;
    tenants[2].footprintLines = 1 << 11;
    tenants[3].name = "delta";
    tenants[3].footprintLines = 1 << 10;
    tenants[3].joinAt = 20'000;
    return tenants;
}

ServiceConfig
smallConfig()
{
    ServiceConfig config;
    config.slots = 4;
    config.accesses = 60'000;
    config.warmup = 10'000;
    config.sloInterval = 4'000;
    return config;
}

} // namespace

// ---------------------------------------------------------------------
// SpanTracer: deterministic head sampling + lifecycle emission.

TEST(SpanTracer, SamplingIsPureSeededAndRateBounded)
{
    telemetry::EventTrace trace(64);
    const telemetry::SpanTracer never(&trace, 42, 0.0);
    const telemetry::SpanTracer always(&trace, 42, 1.0);
    const telemetry::SpanTracer some(&trace, 42, 0.25);
    const telemetry::SpanTracer same(&trace, 42, 0.25);
    const telemetry::SpanTracer other(&trace, 43, 0.25);

    uint64_t sampled = 0, disagree = 0;
    for (unsigned tenant = 0; tenant < 8; ++tenant) {
        for (uint64_t request = 0; request < 2'000; ++request) {
            EXPECT_FALSE(never.shouldSample(tenant, request));
            EXPECT_TRUE(always.shouldSample(tenant, request));
            const bool a = some.shouldSample(tenant, request);
            // Pure: repeated queries and an identically-seeded tracer
            // agree on every decision.
            EXPECT_EQ(a, some.shouldSample(tenant, request));
            EXPECT_EQ(a, same.shouldSample(tenant, request));
            sampled += a ? 1 : 0;
            disagree += a != other.shouldSample(tenant, request) ? 1 : 0;
        }
    }
    // The hash spreads: the sampled fraction tracks the rate, and a
    // different seed selects a different request subset.
    EXPECT_NEAR(static_cast<double>(sampled) / 16'000.0, 0.25, 0.05);
    EXPECT_GT(disagree, 0u);
}

TEST(SpanTracer, EmitsTheLifecyclePathTheRequestTook)
{
    const struct
    {
        HitLevel level;
        bool bypassed;
        std::vector<std::string> stages;
    } cases[] = {
        {HitLevel::L2, false, {"l2_hit"}},
        {HitLevel::Llc, false, {"l2_miss", "llc_probe", "llc_hit"}},
        {HitLevel::Memory, false,
         {"l2_miss", "llc_probe", "llc_victim", "mem_fill"}},
        {HitLevel::Memory, true,
         {"l2_miss", "llc_probe", "llc_bypass", "mem_fill"}},
    };
    for (const auto &c : cases) {
        telemetry::EventTrace trace(64);
        telemetry::SpanTracer tracer(&trace, 7, 1.0);
        ASSERT_TRUE(tracer.beginRequest(3, 1, 11, 100, 1'000));
        EXPECT_EQ(tracer.openSpans().size(), 1u);
        tracer.endRequest(c.level, c.bypassed, 105, 1'500);
        EXPECT_TRUE(tracer.openSpans().empty());

        const auto events = trace.chronological();
        ASSERT_EQ(events.size(), 1 + c.stages.size());
        // Root first, parent 0; every stage child parented to the root,
        // all sharing one trace id, all IDs in 48 bits.
        EXPECT_EQ(events[0].type, "span:arrival");
        const double traceId = spanField(events[0], "trace_id");
        const double rootId = spanField(events[0], "span_id");
        EXPECT_EQ(spanField(events[0], "parent"), 0.0);
        EXPECT_GT(traceId, 0.0);
        EXPECT_LT(traceId, static_cast<double>(uint64_t{1} << 48));
        for (size_t k = 0; k < c.stages.size(); ++k) {
            const auto &event = events[k + 1];
            EXPECT_EQ(event.type, "span:" + c.stages[k]);
            EXPECT_EQ(spanField(event, "trace_id"), traceId);
            EXPECT_EQ(spanField(event, "parent"), rootId);
            EXPECT_EQ(spanField(event, "tenant"), 3.0);
            EXPECT_EQ(spanField(event, "slot"), 1.0);
            EXPECT_EQ(spanField(event, "request"), 11.0);
            EXPECT_EQ(spanField(event, "cycles_begin"), 1'000.0);
            EXPECT_EQ(spanField(event, "cycles_end"), 1'500.0);
        }
    }
}

TEST(SpanTracer, UnsampledRequestsOpenNothing)
{
    telemetry::EventTrace trace(64);
    telemetry::SpanTracer tracer(&trace, 7, 0.0);
    EXPECT_FALSE(tracer.beginRequest(0, 0, 0, 0, 0));
    tracer.endRequest(HitLevel::L2, false, 1, 1); // no open span: no-op
    EXPECT_EQ(tracer.sampled(), 0u);
    EXPECT_EQ(trace.size(), 0u);
}

// ---------------------------------------------------------------------
// Service-mode spans: determinism, and determinism through overflow.

TEST(ServiceObservability, SpanSamplingIsDeterministicAcrossRuns)
{
    const auto tenants = smallTenants();
    ServiceConfig config = smallConfig();
    config.telemetry.enabled = true;
    config.telemetry.traceEvents = true;
    config.telemetry.spanSampleRate = 0.2;

    const ServiceResult a = runService(tenants, "PDP-3", config, 7);
    const ServiceResult b = runService(tenants, "PDP-3", config, 7);
    EXPECT_GT(a.spansSampled, 0u);
    EXPECT_EQ(a.spansSampled, b.spansSampled);
    // The deterministic serialization covers event streams and all.
    expectSameText(runner::toJson(a).dump(2), runner::toJson(b).dump(2),
                   "service result dumps");

    unsigned roots = 0;
    ASSERT_NE(a.telemetry, nullptr);
    for (const telemetry::TraceEvent &event : a.telemetry->events)
        roots += event.type == "span:arrival" ? 1 : 0;
    EXPECT_GT(roots, 0u);

    // Rate 0 really disables the tracer.
    config.telemetry.spanSampleRate = 0.0;
    EXPECT_EQ(runService(tenants, "PDP-3", config, 7).spansSampled, 0u);
}

TEST(ServiceObservability, OverflowPathStaysDeterministic)
{
    const auto tenants = smallTenants();
    ServiceConfig config = smallConfig();
    config.telemetry.enabled = true;
    config.telemetry.traceEvents = true;
    config.telemetry.spanSampleRate = 1.0; // every request: ring floods
    config.telemetry.traceCapacity = 256;

    const ServiceResult a = runService(tenants, "PDP-3", config, 7);
    ASSERT_NE(a.telemetry, nullptr);
    EXPECT_GT(a.telemetry->eventsDropped, 0u);
    EXPECT_LE(a.telemetry->events.size(), 256u);

    // Drop-oldest truncation is itself deterministic.
    const ServiceResult b = runService(tenants, "PDP-3", config, 7);
    expectSameText(runner::toJson(a).dump(2), runner::toJson(b).dump(2),
                   "service result dumps");
}

// ---------------------------------------------------------------------
// The acceptance criterion: TRACE (and BENCH) byte-identity across
// worker counts under service churn, tracing enabled.

TEST(ServiceObservability, TraceFilesByteIdenticalAcrossWorkerCounts)
{
    const runner::Suite *suite = runner::findSuite("service");
    ASSERT_NE(suite, nullptr);

    SuiteOptions options;
    options.scale = 0.1;
    options.serviceTenants = 32;
    options.serviceChurn = 8;
    options.trace = true;
    options.obsSampleRate = 0.05;
    options.deterministicJson = true;
    std::vector<Job> jobs = suite->buildJobs(options);
    // Two policies exercise cross-job interleaving without paying for
    // the full grid here; CI's obs-smoke runs every policy.
    jobs.erase(std::remove_if(jobs.begin(), jobs.end(),
                              [](const Job &job) {
                                  return job.key.find("/LRU") ==
                                             std::string::npos &&
                                         job.key.find("/PDP-2") ==
                                             std::string::npos;
                              }),
               jobs.end());
    ASSERT_EQ(jobs.size(), 2u);

    const auto runOnce = [&jobs](unsigned workers,
                                 const std::string &dir) {
        ResultsSink sink("service");
        sink.setScale(0.1);
        sink.setDeterministicFile(true);
        ExecutorOptions eopts;
        eopts.workers = workers;
        for (JobRecord &record : ThreadPoolExecutor(eopts).run(jobs))
            sink.add(std::move(record));
        std::string tracePath, benchPath;
        EXPECT_TRUE(sink.writeTraceFile(dir, &tracePath));
        EXPECT_TRUE(sink.writeFile(dir, &benchPath));
        return readFile(tracePath) + "\x1e" + readFile(benchPath);
    };

    const std::string serial = runOnce(1, makeDir("obs_w1"));
    const std::string parallel = runOnce(4, makeDir("obs_w4"));
    EXPECT_NE(serial.find("span:arrival"), std::string::npos);
    expectSameText(serial, parallel, "TRACE + BENCH text at 1 and 4 workers");
}

// ---------------------------------------------------------------------
// SLO burn-rate monitoring.

TEST(SloMonitor, BurnAndRecoveryTransitions)
{
    // With kWindowIntervals = 8 and kBudget = 0.25, the burn rate
    // is the window's violations over a quarter of the intervals scored
    // (at most 8): one violation burns until five intervals are scored,
    // and leaves the window eight intervals after it was scored.
    ASSERT_EQ(SloMonitor::kWindowIntervals, 8u);
    ASSERT_EQ(SloMonitor::kBudget, 0.25);
    telemetry::EventTrace trace(256);
    SloMonitor monitor(2, &trace);

    SloBounds bounds;
    bounds.minHitRate = 0.5;
    monitor.attach(0, 3, bounds);
    EXPECT_FALSE(monitor.burning(0));

    uint64_t access = 0;
    monitor.observe(0, access += 1'000, 100, 0.9, 0.0); // healthy
    EXPECT_FALSE(monitor.burning(0));
    monitor.observe(0, access += 1'000, 100, 0.1, 0.0); // violates
    EXPECT_TRUE(monitor.burning(0));
    EXPECT_GE(monitor.burnRate(0), 1.0);
    EXPECT_DOUBLE_EQ(monitor.burnRate(0), 2.0); // 1 / (2 * 0.25)

    // An idle interval (no accesses) never scores as violating, even
    // with a violating-looking hit rate of zero.
    monitor.observe(0, access += 1'000, 0, 0.0, 0.0);
    EXPECT_TRUE(monitor.burning(0));

    // Healthy intervals dilute the violation: 1 / (4 * 0.25) still
    // burns, 1 / (5 * 0.25) does not.
    monitor.observe(0, access += 1'000, 100, 0.9, 0.0);
    EXPECT_TRUE(monitor.burning(0));
    monitor.observe(0, access += 1'000, 100, 0.9, 0.0);
    EXPECT_FALSE(monitor.burning(0));

    // Once the window is full (eight intervals), the violation counts
    // 1 / (8 * 0.25) until the tenth interval overwrites it.
    for (int i = 0; i < 3; ++i)
        monitor.observe(0, access += 1'000, 100, 0.9, 0.0);
    EXPECT_DOUBLE_EQ(monitor.burnRate(0), 0.5);
    monitor.observe(0, access += 1'000, 100, 0.9, 0.0);
    EXPECT_DOUBLE_EQ(monitor.burnRate(0), 0.5);
    monitor.observe(0, access += 1'000, 100, 0.9, 0.0);
    EXPECT_EQ(monitor.burnRate(0), 0.0);

    const SloBurnStats &stats = monitor.stats(0);
    EXPECT_EQ(stats.burnEvents, 1u);
    EXPECT_EQ(stats.recoveredEvents, 1u);
    EXPECT_EQ(stats.violations, 1u);
    EXPECT_GE(stats.maxBurnRate, 1.0);
    EXPECT_EQ(stats.intervals, 10u);

    unsigned burn = 0, recovered = 0;
    for (const telemetry::TraceEvent &event : trace.chronological()) {
        if (event.type == "slo_burn") {
            ++burn;
            EXPECT_EQ(spanField(event, "tenant"), 3.0);
            EXPECT_GE(spanField(event, "burn_rate"), 1.0);
        }
        recovered += event.type == "slo_recovered" ? 1 : 0;
    }
    EXPECT_EQ(burn, 1u);
    EXPECT_EQ(recovered, 1u);

    monitor.detach(0);
    EXPECT_FALSE(monitor.burning(0));
}

TEST(SloMonitor, LatencyBoundBurnsAndDetachStopsCounting)
{
    SloMonitor monitor(2, nullptr); // metrics-only: no trace

    SloBounds bounds;
    bounds.maxP99MissCycles = 100.0;
    monitor.attach(1, 9, bounds);
    monitor.observe(1, 1'000, 50, 1.0, 400.0); // p99 blows the bound
    EXPECT_TRUE(monitor.burning(1));
    EXPECT_EQ(monitor.stats(1).violations, 1u);

    // A burning tenant that leaves stops burning but gets no synthetic
    // recovery event.
    monitor.detach(1);
    EXPECT_FALSE(monitor.burning(1));
    EXPECT_EQ(monitor.stats(1).recoveredEvents, 0u);
}

TEST(SloMonitor, SlotPastTheEndThrows)
{
    SloMonitor monitor(2, nullptr);
    EXPECT_THROW(monitor.observe(2, 1'000, 50, 1.0, 0.0), CheckFailure);
    EXPECT_THROW(monitor.detach(2), CheckFailure);
    EXPECT_THROW(monitor.attach(2, 0, SloBounds{}), CheckFailure);
    EXPECT_THROW(monitor.burnRate(2), CheckFailure);
    EXPECT_THROW(monitor.burning(2), CheckFailure);
    EXPECT_THROW(monitor.stats(2), CheckFailure);
}

// ---------------------------------------------------------------------
// Hardware perf counters: clean degradation, absent-not-zero-filled.

TEST(PerfCounters, NullBackendReadsInvalid)
{
    hw::PerfCounterGroup group;
    EXPECT_EQ(group.active(), hw::PerfCounterGroup::available());
    if (!group.active()) {
        // Locked-down host: the null backend must say "no data", never
        // hand out zeros that look like measurements.
        EXPECT_FALSE(group.read().valid);
    } else {
        group.start();
        volatile uint64_t sink = 0;
        for (uint64_t i = 0; i < 100'000; ++i)
            sink = sink + i;
        const hw::PerfReading reading = group.read();
        EXPECT_TRUE(reading.valid);
        EXPECT_GT(reading.instructions, 0u);
    }

    // since() propagates invalidity from either side.
    hw::PerfReading valid;
    valid.valid = true;
    valid.cycles = 100;
    hw::PerfReading invalid;
    EXPECT_FALSE(valid.since(invalid).valid);
    EXPECT_FALSE(invalid.since(valid).valid);
    hw::PerfReading later = valid;
    later.cycles = 175;
    const hw::PerfReading delta = later.since(valid);
    EXPECT_TRUE(delta.valid);
    EXPECT_EQ(delta.cycles, 75u);
}

TEST(PerfCounters, HardwareSectionAbsentWhenInvalid)
{
    JobRecord record;
    record.key = "obs/hw/probe";
    record.seed = 1;
    record.status = JobStatus::Ok;

    // Invalid reading: no hardware section in any form.
    EXPECT_EQ(runner::toJson(record, true).dump().find("\"hardware\""),
              std::string::npos);

    record.hw.valid = true;
    record.hw.cycles = 1'000;
    record.hw.instructions = 2'000;
    record.hw.cacheMisses = 30;
    record.hw.branchMisses = 40;
    const std::string hot = runner::toJson(record, true).dump(2);
    EXPECT_NE(hot.find("\"hardware\""), std::string::npos);
    EXPECT_NE(hot.find("\"instructions\": 2000"), std::string::npos);
    // Host-measured data is volatile: the deterministic form omits it
    // even when valid.
    EXPECT_EQ(runner::toJson(record, false).dump().find("\"hardware\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// The fault flight recorder.

TEST(FlightRecorder, DisabledAndPerJobDedupGating)
{
    const std::string dir = makeDir("flight_gate");
    check::ScopedFlightRecorder armed(dir);
    auto &recorder = check::FlightRecorder::global();

    recorder.setEnabled(false);
    EXPECT_FALSE(
        recorder.dump("obs-gate", "job_failed", "x", nullptr, nullptr));
    recorder.setEnabled(true);
    EXPECT_TRUE(
        recorder.dump("obs-gate", "job_failed", "x", nullptr, nullptr));
    // First dump wins: richer scope dumps are never clobbered by the
    // executor fallback.
    EXPECT_FALSE(
        recorder.dump("obs-gate", "job_failed", "again", nullptr, nullptr));
    EXPECT_TRUE(std::filesystem::exists(
        dir + "/" + check::flightFileName("obs-gate")));
}

TEST(FlightRecorder, InjectedCheckFailureDumpsRingAndOpenSpans)
{
    const std::string dir = makeDir("flight_check");
    check::ScopedFlightRecorder armed(dir);
    check::FlightRecorder::setJobKey("obs-flight-check");

    ServiceConfig config = smallConfig();
    config.faultAt = 30'000; // inside the measured window
    config.telemetry.enabled = true;
    config.telemetry.traceEvents = true;
    config.telemetry.spanSampleRate = 1.0; // the faulted request is traced
    EXPECT_THROW(runService(smallTenants(), "PDP-3", config, 7),
                 CheckFailure);
    check::FlightRecorder::setJobKey("");

    // The dump is pretty-printed: a top-level member opens its own line,
    // and an empty array prints as "[]", so "[\n" means one element or
    // more.  tools/pdpreport.py check validates whole FLIGHT files.
    const std::string text =
        readFile(dir + "/" + check::flightFileName("obs-flight-check"));
    EXPECT_EQ(text.rfind("{\n  \"schema\": \"pdp-flight/v1\",\n", 0), 0u);
    EXPECT_NE(text.find("\n  \"job\": \"obs-flight-check\",\n"),
              std::string::npos);
    EXPECT_NE(text.find("\n  \"reason\": \"check_failure\",\n"),
              std::string::npos);
    // The scope dumped while sampler and tracer were still alive: the
    // event ring and the faulted request's open span.
    EXPECT_NE(text.find("\n  \"events\": [\n"), std::string::npos);
    EXPECT_NE(text.find("\n  \"open_spans\": [\n"), std::string::npos);
}

TEST(FlightRecorder, ExecutorFallbackDumpsFailedJobs)
{
    const std::string dir = makeDir("flight_fallback");
    check::ScopedFlightRecorder armed(dir);

    // Eight jobs fail on four workers at once: the recorder is reached
    // from several threads, and each dump is filed under its own job.
    std::vector<Job> jobs;
    for (int i = 0; i < 8; ++i) {
        Job job;
        job.key = "obs/fallback/boom" + std::to_string(i);
        job.seed = 1;
        job.run = [i](const JobContext &) -> JobOutcome {
            throw std::runtime_error("injected failure " +
                                     std::to_string(i));
        };
        jobs.push_back(std::move(job));
    }
    ExecutorOptions eopts;
    eopts.workers = 4;
    const auto records = ThreadPoolExecutor(eopts).run(jobs);
    ASSERT_EQ(records.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(records[i].status, JobStatus::Failed);
        const std::string text =
            readFile(dir + "/" + check::flightFileName(jobs[i].key));
        EXPECT_EQ(text.rfind("{\n  \"schema\": \"pdp-flight/v1\",\n", 0),
                  0u);
        EXPECT_NE(text.find("\n  \"job\": \"" + jobs[i].key + "\",\n"),
                  std::string::npos)
            << text;
        EXPECT_NE(text.find("\n  \"reason\": \"job_failed\",\n"),
                  std::string::npos);
        EXPECT_NE(text.find("\n  \"detail\": \"injected failure " +
                            std::to_string(i) + "\",\n"),
                  std::string::npos)
            << text;
    }
}
