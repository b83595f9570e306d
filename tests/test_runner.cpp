/**
 * @file
 * Tests for the experiment runner (src/runner/): executor determinism
 * across worker counts, per-job fault isolation, soft timeouts, the
 * JSON value model (round-trip + schema of ResultsSink documents), seed
 * derivation, and the suite registry.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runner/job.h"
#include "runner/json.h"
#include "runner/results_sink.h"
#include "runner/suites.h"
#include "runner/thread_pool.h"

using namespace pdp;
using namespace pdp::runner;

namespace
{

/** A small but real simulation grid: 2 benchmarks x 2 policies. */
std::vector<Job>
smallGrid()
{
    SimConfig config;
    config.accesses = 30'000;
    config.warmup = 8'000;
    std::vector<Job> jobs;
    for (const char *bench : {"450.soplex", "429.mcf"})
        for (const char *policy : {"LRU", "PDP-3"})
            jobs.push_back(singleCoreJob(
                std::string("grid/") + bench + "/" + policy, bench, policy,
                config));
    return jobs;
}

std::string
deterministicDump(const std::vector<JobRecord> &records)
{
    ResultsSink sink("determinism");
    for (const JobRecord &record : records)
        sink.add(record);
    return sink.toJson(/*includeVolatile=*/false).dump(2);
}

} // namespace

TEST(SeedFor, StableDistinctNonZero)
{
    EXPECT_EQ(seedFor("450.soplex"), seedFor("450.soplex"));
    EXPECT_NE(seedFor("450.soplex"), seedFor("429.mcf"));
    EXPECT_NE(seedFor(""), 0u);
    EXPECT_NE(seedFor("x"), 0u);
}

TEST(ThreadPoolExecutor, RecordsComeBackInInputOrder)
{
    std::vector<Job> jobs;
    for (int i = 0; i < 16; ++i) {
        Job job;
        job.key = "job" + std::to_string(i);
        job.seed = seedFor(job.key);
        job.run = [i](const JobContext &) {
            JobOutcome outcome;
            outcome.metrics["index"] = i;
            return outcome;
        };
        jobs.push_back(std::move(job));
    }
    ExecutorOptions options;
    options.workers = 4;
    const auto records = ThreadPoolExecutor(options).run(jobs);
    ASSERT_EQ(records.size(), jobs.size());
    for (size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].key, jobs[i].key);
        EXPECT_EQ(records[i].status, JobStatus::Ok);
        EXPECT_EQ(records[i].outcome.metrics.at("index"),
                  static_cast<double>(i));
    }
}

TEST(ThreadPoolExecutor, ParallelRunIsByteIdenticalToSerial)
{
    ExecutorOptions serial;
    serial.workers = 1;
    const std::string one = deterministicDump(
        ThreadPoolExecutor(serial).run(smallGrid()));

    ExecutorOptions parallel;
    parallel.workers = 4;
    const std::string four = deterministicDump(
        ThreadPoolExecutor(parallel).run(smallGrid()));

    EXPECT_EQ(one, four);
    // The dump really carries simulation payload, not just headers.
    EXPECT_NE(one.find("\"llc_misses\""), std::string::npos);
}

TEST(ThreadPoolExecutor, ThrowingJobBecomesFailedRecordAndSweepCompletes)
{
    std::vector<Job> jobs = smallGrid();
    Job bomb;
    bomb.key = "grid/bomb";
    bomb.seed = seedFor(bomb.key);
    bomb.run = [](const JobContext &) -> JobOutcome {
        throw std::runtime_error("injected failure");
    };
    jobs.insert(jobs.begin() + 1, std::move(bomb));

    ExecutorOptions options;
    options.workers = 3;
    const auto records = ThreadPoolExecutor(options).run(jobs);
    ASSERT_EQ(records.size(), jobs.size());

    unsigned ok = 0, failed = 0;
    for (const JobRecord &record : records) {
        if (record.key == "grid/bomb") {
            EXPECT_EQ(record.status, JobStatus::Failed);
            EXPECT_NE(record.error.find("injected failure"),
                      std::string::npos);
            ++failed;
        } else {
            EXPECT_EQ(record.status, JobStatus::Ok);
            ASSERT_TRUE(record.outcome.single.has_value());
            EXPECT_GT(record.outcome.single->llcAccesses, 0u);
            ++ok;
        }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(ok, jobs.size() - 1);
}

TEST(ThreadPoolExecutor, MissingRunCallableIsACapturedFailure)
{
    Job job;
    job.key = "no-run";
    const auto records = ThreadPoolExecutor().run({job});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::Failed);
    EXPECT_NE(records[0].error.find("exactly one of run / runMany"),
              std::string::npos);
}

TEST(ThreadPoolExecutor, SoftTimeoutMarksOverrunningJob)
{
    Job slow;
    slow.key = "slow";
    slow.seed = seedFor(slow.key);
    slow.timeoutSeconds = 1e-6;
    slow.run = [](const JobContext &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        JobOutcome outcome;
        outcome.metrics["done"] = 1.0;
        return outcome;
    };
    const auto records = ThreadPoolExecutor().run({slow});
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].status, JobStatus::TimedOut);
    EXPECT_NE(records[0].error.find("soft timeout"), std::string::npos);
    // The outcome still carries the completed work.
    EXPECT_EQ(records[0].outcome.metrics.at("done"), 1.0);
}

TEST(ThreadPoolExecutor, OnCompleteStreamsIntoSinkThreadSafely)
{
    ResultsSink sink("stream");
    ExecutorOptions options;
    options.workers = 4;
    options.onComplete = [&sink](const JobRecord &record) {
        sink.add(record);
    };
    const auto records = ThreadPoolExecutor(options).run(smallGrid());
    EXPECT_EQ(sink.size(), records.size());
    // sortedRecords orders by key regardless of completion order.
    const auto sorted = sink.sortedRecords();
    for (size_t i = 1; i < sorted.size(); ++i)
        EXPECT_LT(sorted[i - 1].key, sorted[i].key);
}

TEST(Json, ScalarAndContainerRoundTrip)
{
    Json doc = Json::object();
    doc.set("bool", true);
    doc.set("int", static_cast<int64_t>(-42));
    doc.set("uint", static_cast<uint64_t>(18446744073709551615ull));
    doc.set("real", 0.1);
    doc.set("string", "esc \"quotes\" \\ and\nnewline\ttab");
    doc.set("null", Json());
    Json arr = Json::array();
    arr.push(1).push("two").push(Json::object().set("k", "v"));
    doc.set("arr", std::move(arr));

    for (int indent : {0, 2}) {
        const std::string text = doc.dump(indent);
        std::string error;
        const auto parsed = Json::parse(text, &error);
        ASSERT_TRUE(parsed.has_value()) << error;
        EXPECT_TRUE(parsed->find("bool")->asBool());
        EXPECT_EQ(parsed->find("int")->asNumber(), -42.0);
        EXPECT_EQ(parsed->find("uint")->asUint(),
                  18446744073709551615ull);
        EXPECT_EQ(parsed->find("real")->asNumber(), 0.1);
        EXPECT_EQ(parsed->find("string")->asString(),
                  "esc \"quotes\" \\ and\nnewline\ttab");
        EXPECT_TRUE(parsed->find("null")->isNull());
        ASSERT_EQ(parsed->find("arr")->size(), 3u);
        EXPECT_EQ(parsed->find("arr")->at(1).asString(), "two");
        // Re-dumping the parse reproduces the original text exactly.
        EXPECT_EQ(parsed->dump(indent), text);
    }
}

TEST(Json, ParserRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
          "{\"a\" 1}", "nul", "[1]extra"}) {
        std::string error;
        EXPECT_FALSE(Json::parse(bad, &error).has_value())
            << "accepted: " << bad;
        EXPECT_FALSE(error.empty());
    }
}

TEST(Json, UnicodeEscapeParses)
{
    const auto parsed = Json::parse("\"A\\u0042\\u00e9\"");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->asString(), "AB\xc3\xa9");
}

TEST(Json, IntegerBoundariesRoundTripExactly)
{
    // Seeds are full-width uint64s; a parse that detoured through a
    // double would corrupt anything above 2^53.
    const struct
    {
        const char *text;
        uint64_t expected;
    } unsignedCases[] = {
        {"9007199254740993", 9007199254740993ull},         // 2^53 + 1
        {"9223372036854775807", 9223372036854775807ull},   // 2^63 - 1
        {"9223372036854775808", 9223372036854775808ull},   // 2^63
        {"18446744073709551615", 18446744073709551615ull}, // 2^64 - 1
    };
    for (const auto &c : unsignedCases) {
        std::string error;
        const auto parsed = Json::parse(c.text, &error);
        ASSERT_TRUE(parsed.has_value()) << c.text << ": " << error;
        EXPECT_EQ(parsed->asUint(), c.expected);
        EXPECT_EQ(parsed->dump(), c.text);
    }

    std::string error;
    const auto min64 = Json::parse("-9223372036854775808", &error);
    ASSERT_TRUE(min64.has_value()) << error;
    EXPECT_EQ(min64->dump(), "-9223372036854775808");
    const auto neg = Json::parse("-9007199254740993", &error);
    ASSERT_TRUE(neg.has_value()) << error;
    EXPECT_EQ(neg->dump(), "-9007199254740993");
}

TEST(Json, OverflowingIntegerIsAParseError)
{
    // One past either 64-bit boundary must fail loudly, not silently
    // round through strtod.
    for (const char *bad : {"18446744073709551616",  // 2^64
                            "-9223372036854775809",  // -2^63 - 1
                            "99999999999999999999999999"}) {
        std::string error;
        EXPECT_FALSE(Json::parse(bad, &error).has_value())
            << "accepted: " << bad;
        EXPECT_NE(error.find("out of range"), std::string::npos) << error;
    }
    // Huge magnitudes with an exponent are REAL tokens, still fine.
    const auto real = Json::parse("1e300");
    ASSERT_TRUE(real.has_value());
    EXPECT_EQ(real->asNumber(), 1e300);
}

TEST(ResultsSink, DocumentMatchesSchema)
{
    ExecutorOptions options;
    options.workers = 2;
    ResultsSink sink("schema_check");
    sink.setScale(0.25);
    options.onComplete = [&sink](const JobRecord &r) { sink.add(r); };
    ThreadPoolExecutor executor(options);
    sink.setWorkers(executor.workers());
    executor.run(smallGrid());

    std::string error;
    const auto doc = Json::parse(sink.toJson().dump(2), &error);
    ASSERT_TRUE(doc.has_value()) << error;

    ASSERT_TRUE(doc->find("schema"));
    EXPECT_EQ(doc->find("schema")->asString(), kResultsSchemaV2);
    std::string verror;
    EXPECT_EQ(validateResultsDocument(*doc, &verror), 2) << verror;
    EXPECT_EQ(doc->find("experiment")->asString(), "schema_check");
    ASSERT_TRUE(doc->find("git"));
    EXPECT_TRUE(doc->find("git")->isString());
    EXPECT_EQ(doc->find("scale")->asNumber(), 0.25);
    EXPECT_EQ(doc->find("workers")->asUint(), 2u);
    ASSERT_TRUE(doc->find("jobs"));
    const Json &jobs = *doc->find("jobs");
    ASSERT_TRUE(jobs.isArray());
    EXPECT_EQ(doc->find("job_count")->asUint(), jobs.size());
    ASSERT_EQ(jobs.size(), 4u);

    std::set<std::string> keys;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const Json &job = jobs.at(i);
        ASSERT_TRUE(job.find("key"));
        keys.insert(job.find("key")->asString());
        EXPECT_NE(job.find("seed")->asUint(), 0u);
        EXPECT_EQ(job.find("status")->asString(), "ok");
        ASSERT_TRUE(job.find("seconds"));
        const Json *single = job.find("single");
        ASSERT_TRUE(single);
        for (const char *field :
             {"benchmark", "policy", "ipc", "mpki", "llc_accesses",
              "llc_hits", "llc_misses", "llc_bypasses", "bypass_fraction"})
            EXPECT_TRUE(single->find(field)) << field;
        if (i > 0) {
            EXPECT_LT(jobs.at(i - 1).find("key")->asString(),
                      job.find("key")->asString());
        }
    }
    EXPECT_EQ(keys.size(), 4u);
}

TEST(ResultsSink, WriteFileAndEnvKnob)
{
    ResultsSink sink("file_check");
    JobRecord record;
    record.key = "k";
    record.seed = 7;
    record.status = JobStatus::Ok;
    sink.add(record);

    const std::string dir = ::testing::TempDir();
    std::string path;
    ASSERT_TRUE(sink.writeFile(dir, &path));
    EXPECT_NE(path.find("BENCH_file_check.json"), std::string::npos);

    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text(1 << 16, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    std::remove(path.c_str());

    const auto doc = Json::parse(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("experiment")->asString(), "file_check");

    // "none" disables output.
    EXPECT_FALSE(sink.writeFile("none"));
}

TEST(Suites, RegistryHasThePortedFiguresAndUniqueJobKeys)
{
    for (const char *name :
         {"fig10_single_core", "fig4_static_pdp", "fig12_partitioning",
          "smoke"}) {
        const Suite *suite = findSuite(name);
        ASSERT_NE(suite, nullptr) << name;
        SuiteOptions options;
        options.scale = 0.01;
        const auto jobs = suite->buildJobs(options);
        EXPECT_FALSE(jobs.empty()) << name;
        std::set<std::string> keys;
        for (const Job &job : jobs) {
            EXPECT_TRUE(keys.insert(job.key).second)
                << name << ": duplicate key " << job.key;
            EXPECT_NE(job.seed, 0u) << job.key;
            EXPECT_TRUE(job.run != nullptr) << job.key;
        }
    }
    EXPECT_EQ(findSuite("no_such_suite"), nullptr);
}

TEST(Suites, SmokeSuiteRunsEndToEndAndWritesJson)
{
    const Suite *suite = findSuite("smoke");
    ASSERT_NE(suite, nullptr);
    SuiteOptions options;
    options.scale = 0.02;
    options.workers = 2;
    options.jsonDir = ::testing::TempDir();

    std::ostringstream out;
    EXPECT_EQ(runSuite(*suite, options, out), 0);
    EXPECT_NE(out.str().find("smoke"), std::string::npos);
    EXPECT_NE(out.str().find("ok"), std::string::npos);

    std::string dir = options.jsonDir;
    if (dir.back() != '/')
        dir += '/';
    const std::string path = dir + "BENCH_smoke.json";
    std::FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::string text(1 << 20, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    std::remove(path.c_str());

    const auto doc = Json::parse(text);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->asString(), kResultsSchemaV2);
    std::string verror;
    EXPECT_EQ(validateResultsDocument(*doc, &verror), 2) << verror;
    EXPECT_GT(doc->find("jobs")->size(), 0u);
}

namespace
{

std::string
readWholeFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return "";
    std::string text(1 << 20, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), f));
    std::fclose(f);
    return text;
}

/** A structurally minimal results document at `schema`. */
Json
minimalDocument(const char *schema, bool with_telemetry)
{
    Json job = Json::object();
    job.set("key", "k").set("seed", uint64_t{7}).set("status", "ok");
    if (with_telemetry) {
        Json telemetry = Json::object();
        telemetry.set("interval", uint64_t{128});
        telemetry.set("epochs", Json::array());
        job.set("telemetry", std::move(telemetry));
    }
    Json jobs = Json::array();
    jobs.push(std::move(job));
    Json doc = Json::object();
    doc.set("schema", schema)
        .set("experiment", "synthetic")
        .set("job_count", uint64_t{1})
        .set("jobs", std::move(jobs));
    return doc;
}

} // namespace

TEST(ResultsSink, GoldenV1DocumentStillValidates)
{
    // A frozen pre-telemetry document (the schema this repo shipped
    // before v2): new readers must keep accepting it.
    const std::string path =
        std::string(PDP_TEST_DATA_DIR) + "/golden/BENCH_v1_example.json";
    const std::string text = readWholeFile(path);
    ASSERT_FALSE(text.empty()) << path;

    std::string error;
    const auto doc = Json::parse(text, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(validateResultsDocument(*doc, &error), 1) << error;
    EXPECT_EQ(doc->find("experiment")->asString(), "golden_v1");
    EXPECT_EQ(doc->find("jobs")->size(), 2u);
}

TEST(ResultsSink, ValidatorVersionsAndRejections)
{
    std::string error;
    EXPECT_EQ(validateResultsDocument(minimalDocument(kResultsSchemaV1,
                                                      false),
                                      &error),
              1)
        << error;
    EXPECT_EQ(validateResultsDocument(minimalDocument(kResultsSchemaV2,
                                                      true),
                                      &error),
              2)
        << error;

    // A telemetry section is only legal in v2.
    EXPECT_EQ(validateResultsDocument(minimalDocument(kResultsSchemaV1,
                                                      true),
                                      &error),
              0);
    EXPECT_FALSE(error.empty());

    // Unknown schema string.
    EXPECT_EQ(validateResultsDocument(minimalDocument("bogus/v9", false),
                                      &error),
              0);

    // job_count disagreeing with the jobs array.
    Json doc = minimalDocument(kResultsSchemaV2, false);
    doc.set("job_count", uint64_t{5});
    EXPECT_EQ(validateResultsDocument(doc, &error), 0);

    // Not an object at all.
    EXPECT_EQ(validateResultsDocument(Json::array(), &error), 0);
}

TEST(ResultsSink, TelemetryRoundTripsThroughV2Document)
{
    telemetry::RunTelemetry run;
    run.interval = 128;
    telemetry::EpochRecord epoch;
    epoch.epoch = 0;
    epoch.accessCount = 128;
    epoch.intervalAccesses = 128;
    epoch.intervalHits = 60;
    epoch.intervalMisses = 68;
    epoch.intervalBypasses = 12;
    epoch.policy.setScalar("pd", 64.0);
    epoch.policy.setSeries("rdd", {3.0, 2.0, 1.0});
    epoch.threadOccupancy = {42};
    run.epochs.push_back(epoch);
    telemetry::TraceEvent change;
    change.type = "pd_change";
    change.accessCount = 128;
    change.fields = {{"from", 256.0}, {"to", 64.0}};
    run.events.push_back(change);
    telemetry::TraceEvent timing;
    timing.type = "phase:warmup";
    timing.isVolatile = true;
    timing.fields = {{"seconds", 0.25}};
    run.events.push_back(timing);

    JobRecord record;
    record.key = "t/roundtrip";
    record.seed = 3;
    record.status = JobStatus::Ok;
    record.outcome.single = SimResult{};
    record.outcome.single->telemetry =
        std::make_shared<telemetry::RunTelemetry>(run);

    ResultsSink sink("round_trip");
    sink.add(record);

    std::string error;
    const auto doc = Json::parse(sink.toJson().dump(2), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    EXPECT_EQ(validateResultsDocument(*doc, &error), 2) << error;

    const Json &job = doc->find("jobs")->at(0);
    const Json *telemetry = job.find("telemetry");
    ASSERT_TRUE(telemetry);
    EXPECT_EQ(telemetry->find("interval")->asUint(), 128u);
    const Json &ep = telemetry->find("epochs")->at(0);
    EXPECT_EQ(ep.find("accesses")->asUint(), 128u);
    EXPECT_EQ(ep.find("hits")->asUint(), 60u);
    EXPECT_EQ(ep.find("policy")->find("pd")->asNumber(), 64.0);
    ASSERT_TRUE(ep.find("series")->find("rdd"));
    EXPECT_EQ(ep.find("series")->find("rdd")->size(), 3u);
    EXPECT_EQ(ep.find("thread_occupancy")->at(0).asUint(), 42u);
    ASSERT_TRUE(telemetry->find("events"));
    EXPECT_EQ(telemetry->find("events")->size(), 2u);

    // The deterministic dump keeps the epochs but filters the
    // wall-clock phase event.
    const auto det = Json::parse(sink.toJson(false).dump(2), &error);
    ASSERT_TRUE(det.has_value()) << error;
    const Json *dtel = det->find("jobs")->at(0).find("telemetry");
    ASSERT_TRUE(dtel);
    EXPECT_EQ(dtel->find("epochs")->size(), 1u);
    ASSERT_TRUE(dtel->find("events"));
    EXPECT_EQ(dtel->find("events")->size(), 1u);
    EXPECT_EQ(dtel->find("events")->at(0).find("type")->asString(),
              "pd_change");
}

TEST(Suites, UnwritableResultFileFailsTheRun)
{
    // The output directory exists, but a directory squats on the result
    // file's name, so the file cannot be created: the run must say so
    // and return nonzero rather than pass with nothing written.
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(::testing::TempDir()) / "unwritable_suite";
    fs::remove_all(dir);
    const Suite suite{"unwritable", "no jobs",
                      [](const SuiteOptions &) { return std::vector<Job>{}; },
                      nullptr};
    SuiteOptions options;
    options.workers = 1;
    options.jsonDir = dir.string();
    for (const char *squatted :
         {"BENCH_unwritable.json", "TRACE_unwritable.jsonl"}) {
        fs::create_directories(dir / squatted);
        options.trace = true;
        std::ostringstream out;
        EXPECT_EQ(runSuite(suite, options, out), 1) << squatted;
        EXPECT_NE(out.str().find(std::string("could not write ") + squatted),
                  std::string::npos)
            << out.str();
        fs::remove_all(dir);
    }
    fs::create_directories(dir);
    std::ostringstream out;
    EXPECT_EQ(runSuite(suite, options, out), 0) << out.str();
    fs::remove_all(dir);
}

TEST(Suites, FilteredRunExecutesSubsetWithGenericReport)
{
    const Suite *suite = findSuite("fig10_single_core");
    ASSERT_NE(suite, nullptr);
    SuiteOptions options;
    options.scale = 0.01;
    options.workers = 2;
    options.filter = "450.soplex/DIP";
    options.jsonDir = "none";

    std::ostringstream out;
    EXPECT_EQ(runSuite(*suite, options, out), 0);
    EXPECT_NE(out.str().find("filtered"), std::string::npos);
    EXPECT_NE(out.str().find("fig10/450.soplex/DIP"), std::string::npos);
}
