/**
 * @file
 * Tests for the experiment runner (src/runner/): executor determinism
 * across worker counts, per-job fault isolation, the JSON writer (exact
 * text + schema of ResultsSink documents), seed derivation, and the
 * suite registry.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "runner/job.h"
#include "runner/json.h"
#include "runner/results_sink.h"
#include "runner/suites.h"
#include "runner/thread_pool.h"
#include "test_support.h"
#include "trace/spec_suite.h"

using namespace pdp;
using namespace pdp::runner;

namespace
{

/** A small but real simulation grid: 2 benchmarks x 2 policies, each
 *  cell one sequential job. */
std::vector<Job>
smallGrid()
{
    SimConfig config;
    config.accesses = 30'000;
    config.warmup = 8'000;
    std::vector<Job> jobs;
    for (const char *bench : {"450.soplex", "429.mcf"})
        for (const char *policy : {"LRU", "PDP-3"})
            jobs.push_back(sequentialJob(singleCoreJob(
                std::string("grid/") + bench + "/" + policy, bench, policy,
                config)));
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

TEST(ResultsSink, SortsRecordsAddedOutOfOrder)
{
    ResultsSink sink("order");
    for (const char *key : {"b/2", "c", "a", "b/10", "b"}) {
        JobRecord record;
        record.key = key;
        sink.add(std::move(record));
    }
    const Json doc = sink.toJson();
    const Json &jobs = *doc.find("jobs");
    std::vector<std::string> keys;
    for (size_t i = 0; i < jobs.size(); ++i)
        keys.push_back(jobs.at(i).find("key")->asString());
    EXPECT_EQ(keys,
              (std::vector<std::string>{"a", "b", "b/10", "b/2", "c"}));
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

    EXPECT_TRUE(doc.find("bool")->asBool());
    EXPECT_EQ(doc.find("int")->asNumber(), -42.0);
    EXPECT_EQ(doc.find("uint")->asUint(), 18446744073709551615ull);
    EXPECT_EQ(doc.find("real")->asNumber(), 0.1);
    EXPECT_EQ(doc.find("string")->asString(),
              "esc \"quotes\" \\ and\nnewline\ttab");
    EXPECT_TRUE(doc.find("null")->isNull());
    ASSERT_EQ(doc.find("arr")->size(), 3u);
    EXPECT_EQ(doc.find("arr")->at(1).asString(), "two");

    // The exact text of both forms: escapes, exact integers, the
    // shortest round-trip double and insertion-ordered keys.
    EXPECT_EQ(doc.dump(0),
              R"json({"bool":true,"int":-42,"uint":18446744073709551615,)json"
              R"json("real":0.1,"string":"esc \"quotes\" \\ and\nnewline)json"
              R"json(\ttab","null":null,"arr":[1,"two",{"k":"v"}]})json");
    EXPECT_EQ(doc.dump(2), R"json({
  "bool": true,
  "int": -42,
  "uint": 18446744073709551615,
  "real": 0.1,
  "string": "esc \"quotes\" \\ and\nnewline\ttab",
  "null": null,
  "arr": [
    1,
    "two",
    {
      "k": "v"
    }
  ]
})json");
}

TEST(Json, IntegerBoundariesRoundTripExactly)
{
    // Seeds are full-width uint64s; a writer that detoured through a
    // double would corrupt anything above 2^53.
    const struct
    {
        const char *text;
        uint64_t value;
    } unsignedCases[] = {
        {"9007199254740993", 9007199254740993ull},         // 2^53 + 1
        {"9223372036854775807", 9223372036854775807ull},   // 2^63 - 1
        {"9223372036854775808", 9223372036854775808ull},   // 2^63
        {"18446744073709551615", 18446744073709551615ull}, // 2^64 - 1
    };
    for (const auto &c : unsignedCases) {
        const Json value(c.value);
        EXPECT_EQ(value.asUint(), c.value);
        EXPECT_EQ(value.dump(), c.text);
        EXPECT_EQ(value.dump(2), c.text);
    }

    EXPECT_EQ(Json(std::numeric_limits<int64_t>::min()).dump(),
              "-9223372036854775808");
    EXPECT_EQ(Json(int64_t{-9007199254740993}).dump(), "-9007199254740993");
}

TEST(ResultsSink, DocumentMatchesSchema)
{
    ExecutorOptions options;
    options.workers = 2;
    ResultsSink sink("schema_check");
    sink.setScale(0.25);
    ThreadPoolExecutor executor(options);
    sink.setWorkers(executor.workers());
    for (JobRecord &record : executor.run(smallGrid()))
        sink.add(std::move(record));

    const Json doc = sink.toJson();
    ASSERT_TRUE(doc.find("schema"));
    EXPECT_EQ(doc.find("schema")->asString(), "pdp-bench-results/v2");
    EXPECT_EQ(doc.find("experiment")->asString(), "schema_check");
    ASSERT_TRUE(doc.find("git"));
    EXPECT_TRUE(doc.find("git")->isString());
    EXPECT_EQ(doc.find("scale")->asNumber(), 0.25);
    EXPECT_EQ(doc.find("workers")->asUint(), 2u);
    ASSERT_TRUE(doc.find("jobs"));
    const Json &jobs = *doc.find("jobs");
    ASSERT_TRUE(jobs.isArray());
    EXPECT_EQ(doc.find("job_count")->asUint(), jobs.size());
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

    // The file is the pretty-printed document, newline-terminated.
    EXPECT_EQ(text, sink.toJson().dump(2) + "\n");
    EXPECT_NE(text.find("\n  \"experiment\": \"file_check\",\n"),
              std::string::npos);

    // "none", and only "none", disables output.
    EXPECT_FALSE(sink.writeFile("none"));
    EXPECT_EQ(ResultsSink::outputDirectory("none"), "");
    EXPECT_EQ(ResultsSink::outputDirectory("0"), "0");
}

TEST(Suites, RegistryHasThePortedFiguresAndUniqueJobKeys)
{
    std::set<std::string> names;
    for (const Suite &suite : allSuites()) {
        EXPECT_TRUE(names.insert(suite.name).second)
            << "duplicate suite " << suite.name;
        EXPECT_EQ(findSuite(suite.name), &suite);
        SuiteOptions options;
        options.scale = 0.01;
        const auto jobs = suite.buildJobs(options);
        EXPECT_FALSE(jobs.empty()) << suite.name;
        std::set<std::string> keys;
        for (const Job &job : jobs) {
            EXPECT_TRUE(keys.insert(job.key).second)
                << suite.name << ": duplicate key " << job.key;
            EXPECT_NE(job.seed, 0u) << job.key;
            EXPECT_EQ((job.run != nullptr) + (job.runMany != nullptr) +
                          job.cell.has_value(),
                      1)
                << job.key << ": exactly one of run/runMany/cell";
        }
    }
    // Every artifact of the paper's evaluation has a suite.
    for (const char *name :
         {"fig1_rdd", "fig4_static_pdp", "fig5a_occupancy", "fig6_model",
          "fig9_params", "fig10_single_core", "fig11_phases",
          "fig12_partitioning", "prefetch", "hardware"})
        EXPECT_TRUE(names.count(name)) << name;
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

    // A v2 document whose job_count is its number of jobs, and at least
    // one; the run_experiments artifact ctests validate whole files with
    // tools/pdpreport.py check.
    EXPECT_EQ(text.rfind("{\n  \"schema\": \"pdp-bench-results/v2\",\n", 0),
              0u);
    const std::string jobKey = "\n      \"key\": ";
    size_t jobs = 0;
    for (size_t at = text.find(jobKey); at != std::string::npos;
         at = text.find(jobKey, at + 1))
        ++jobs;
    EXPECT_GT(jobs, 0u);
    EXPECT_NE(text.find("\n  \"job_count\": " + std::to_string(jobs) + ",\n"),
              std::string::npos);
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

    const Json doc = sink.toJson();
    EXPECT_EQ(doc.find("schema")->asString(), "pdp-bench-results/v2");

    const Json &job = doc.find("jobs")->at(0);
    const Json *telemetry = job.find("telemetry");
    ASSERT_TRUE(telemetry);
    EXPECT_EQ(telemetry->find("interval")->asUint(), 128u);
    const Json &ep = telemetry->find("epochs")->at(0);
    EXPECT_EQ(ep.find("access")->asUint(), 128u);
    EXPECT_EQ(ep.find("accesses")->asUint(), 128u);
    EXPECT_EQ(ep.find("hits")->asUint(), 60u);
    EXPECT_EQ(ep.find("policy")->find("pd")->asNumber(), 64.0);
    ASSERT_TRUE(ep.find("series")->find("rdd"));
    EXPECT_EQ(ep.find("series")->find("rdd")->size(), 3u);
    EXPECT_EQ(ep.find("thread_occupancy")->at(0).asUint(), 42u);
    const Json *events = telemetry->find("events");
    ASSERT_TRUE(events);
    ASSERT_EQ(events->size(), 2u);
    // Only the wall-clock event is flagged volatile.
    EXPECT_FALSE(events->at(0).find("volatile"));
    ASSERT_TRUE(events->at(1).find("volatile"));
    EXPECT_TRUE(events->at(1).find("volatile")->asBool());

    // The deterministic dump keeps the epochs but filters the
    // wall-clock phase event.
    const Json det = sink.toJson(false);
    const Json *dtel = det.find("jobs")->at(0).find("telemetry");
    ASSERT_TRUE(dtel);
    EXPECT_EQ(dtel->find("epochs")->size(), 1u);
    ASSERT_TRUE(dtel->find("events"));
    EXPECT_EQ(dtel->find("events")->size(), 1u);
    EXPECT_EQ(dtel->find("events")->at(0).find("type")->asString(),
              "pd_change");

    // A TRACE line is the job key followed by the same event members.
    const std::string dir =
        (std::filesystem::path(::testing::TempDir()) / "round_trip_trace")
            .string();
    std::filesystem::create_directories(dir);
    std::string path;
    ASSERT_TRUE(sink.writeTraceFile(dir, &path));
    std::ifstream in(path);
    std::string line;
    for (int i = 0; i < 3; ++i) // header, pd_change, phase:warmup
        std::getline(in, line);
    EXPECT_EQ(line, "{\"job\":\"t/roundtrip\",\"type\":\"phase:warmup\","
                    "\"access\":0,\"volatile\":true,"
                    "\"fields\":{\"seconds\":0.25}}");
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

namespace
{

/** The whitespace-separated fields of the first line of `text` after
 *  `heading` that starts with `first`; empty when there is none. */
std::vector<std::string>
rowAfter(const std::string &text, const std::string &heading,
         const std::string &first)
{
    const size_t at = text.find(heading);
    if (at == std::string::npos)
        return {};
    std::istringstream lines(text.substr(at));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind(first, 0) != 0)
            continue;
        std::istringstream fields(line);
        std::vector<std::string> row;
        for (std::string field; fields >> field;)
            row.push_back(field);
        return row;
    }
    return {};
}

} // namespace

TEST(Suites, Fig4ReportRendersFig2AndTable2FromItsRecords)
{
    const Suite *suite = findSuite("fig4_static_pdp");
    ASSERT_NE(suite, nullptr);
    SuiteOptions options;
    options.scale = 0.01;
    // Synthetic records: DRRIP's MPKI is its epsilon's denominator, and
    // both static-PD grids have their fewest misses at PD 72.
    std::vector<JobRecord> records;
    for (const Job &job : suite->buildJobs(options)) {
        JobRecord record;
        record.key = job.key;
        record.seed = job.seed;
        record.status = JobStatus::Ok;
        const std::string cell = job.key.substr(job.key.rfind('/') + 1);
        const unsigned value =
            static_cast<unsigned>(std::stoul(cell.substr(cell.find(':') + 1)));
        SimResult result;
        if (cell.rfind("DRRIP-eps:", 0) == 0) {
            result.mpki = value;
            result.llcMisses = 1000;
        } else {
            result.llcMisses = 1000 + (value > 72 ? value - 72 : 72 - value);
        }
        record.outcome.single = result;
        records.push_back(record);
    }
    std::ostringstream out;
    suite->report(out, RecordLookup(records));
    const std::string text = out.str();

    // Fig. 2: fig4's epsilon sweep normalized to 1/32, nothing past 1/128.
    EXPECT_EQ(rowAfter(text, "==== Fig. 2:", "benchmark"),
              (std::vector<std::string>{"benchmark", "1/4", "1/8", "1/16",
                                        "1/32", "1/64", "1/128"}))
        << text;
    for (const char *bench :
         {"403.gcc", "436.cactusADM", "464.h264ref", "483.xalancbmk.3"})
        EXPECT_EQ(rowAfter(text, "==== Fig. 2:", bench),
                  (std::vector<std::string>{bench, "0.125", "0.250", "0.500",
                                            "1.000", "2.000", "4.000"}))
            << text;

    // Table 2: every benchmark's best SPDP-B PD (72) lies in 65-128.
    const std::string all =
        std::to_string(SpecSuite::singleCoreNames().size());
    EXPECT_EQ(rowAfter(text, "==== Table 2:", "65-128"),
              (std::vector<std::string>{"65-128", all}))
        << text;
    for (const char *range : {"16-64", "129-192", "193-256", ">256"})
        EXPECT_EQ(rowAfter(text, "==== Table 2:", range),
                  (std::vector<std::string>{range, "0"}))
            << text;
}

namespace
{

/** A figure suite and a heading its report prints. */
struct FigureSuiteCase
{
    const char *name;
    const char *heading;
};

/** Print a case as its suite name, so test names stay stable. */
void
PrintTo(const FigureSuiteCase &c, std::ostream *out)
{
    *out << c.name;
}

class FigureSuiteTest : public ::testing::TestWithParam<FigureSuiteCase>
{
};

std::string
fileText(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

} // namespace

TEST_P(FigureSuiteTest, RunsOkAndIsByteIdenticalAcrossWorkerCounts)
{
    namespace fs = std::filesystem;
    const FigureSuiteCase &c = GetParam();
    const Suite *suite = findSuite(c.name);
    ASSERT_NE(suite, nullptr);
    const fs::path root =
        fs::path(::testing::TempDir()) / ("figure_suite_" + suite->name);
    std::vector<std::string> dumps;
    for (unsigned workers : {1u, 4u}) {
        const fs::path dir = root / ("j" + std::to_string(workers));
        fs::create_directories(dir);
        SuiteOptions options;
        options.scale = 0.01;
        options.workers = workers;
        options.jsonDir = dir.string();
        options.deterministicJson = true;
        std::ostringstream out;
        // 0 = every record Ok and the BENCH file written.
        EXPECT_EQ(runSuite(*suite, options, out), 0) << out.str();
        EXPECT_NE(out.str().find(c.heading), std::string::npos) << out.str();
        dumps.push_back(fileText(dir / ("BENCH_" + suite->name + ".json")));
    }
    fs::remove_all(root);
    EXPECT_FALSE(dumps[0].empty());
    expectSameText(dumps[0], dumps[1], "BENCH dumps at 1 and 4 workers");
}

INSTANTIATE_TEST_SUITE_P(
    AllFigureSuites, FigureSuiteTest,
    ::testing::Values(
        FigureSuiteCase{"fig1_rdd", "==== Fig. 5b: RDDs"},
        FigureSuiteCase{"fig5a_occupancy", "==== Fig. 5a: access"},
        FigureSuiteCase{"fig6_model", "==== Fig. 6: E(d_p)"},
        FigureSuiteCase{"fig9_params", "==== Fig. 9: PDP parameter"},
        FigureSuiteCase{"fig11_phases", "==== Fig. 11c: PDP-8's PD"},
        FigureSuiteCase{"prefetch", "==== Sec. 6.5: prefetch-aware"},
        FigureSuiteCase{"hardware", "==== Sec. 6.2: storage overhead"}),
    [](const ::testing::TestParamInfo<FigureSuiteCase> &info) {
        return std::string(info.param.name);
    });

namespace
{

/** The report of `suite` at `scale` on 4 workers, with no JSON. */
std::string
suiteReport(const std::string &suite, double scale)
{
    SuiteOptions options;
    options.scale = scale;
    options.workers = 4;
    options.jsonDir = "none";
    std::ostringstream out;
    EXPECT_EQ(runSuite(*findSuite(suite), options, out), 0) << out.str();
    return out.str();
}

} // namespace

TEST(Suites, Fig11SaysWhenTooFewPdRecomputesForFig11c)
{
    // At this scale no phased benchmark recomputes its PD three times,
    // so Fig. 11c prints the count and a note, not a one-point series.
    const std::string text = suiteReport("fig11_phases", 0.01);
    for (const std::string &bench : SpecSuite::phasedNames()) {
        const size_t at = text.find(bench + " (", text.find("Fig. 11c"));
        ASSERT_NE(at, std::string::npos) << text;
        EXPECT_NE(text.substr(at, text.find('\n', at) - at)
                      .find("run too short for Fig. 11c"),
                  std::string::npos)
            << text;
    }
}

TEST(Suites, PrefetchSaysWhenUnawarePdpFilledNoPrefetch)
{
    // At this scale unaware PDP-8 bypasses every prefetch on most
    // benchmarks, so pf-bypass cannot differ from it there.
    const std::string text = suiteReport("prefetch", 0.05);
    EXPECT_NE(text.find("LLC prefetch fills"), std::string::npos) << text;
    EXPECT_NE(text.find("note: unaware PDP-8 filled no LLC prefetch on"),
              std::string::npos)
        << text;
}
