/**
 * @file
 * Tests of the benchmark's own logic: span self-time arithmetic, the
 * metric-name rule, the digest gate, the traced-path check, the seed
 * mapping and scratch-directory cleanup.
 * Build and run: cmake --build .bench_build --target perfbench_tests &&
 * .bench_build/perfbench_tests
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "harness.hh"
#include "spans.hh"
#include "workloads/workload.hh"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

Span
span(std::uint32_t id, std::uint32_t parent, const char *name, double start,
     double end, std::uint32_t pass = 0)
{
    Span s;
    s.id = id;
    s.parent = parent;
    s.name = name;
    s.start = start;
    s.end = end;
    s.pass = pass;
    return s;
}

/** One small experiment through the user path, as the harness runs it. */
std::vector<tea::ExperimentResult>
smallRun()
{
    std::vector<tea::SuiteExperiment> exps{tea::SuiteExperiment{
        "alu", [] { return tea::workloads::aluLoop(200); },
        tea::CoreConfig{}}};
    tea::RunnerOptions opts;
    return tea::runExperimentSuite(exps, tea::standardTechniques(), opts);
}

} // namespace

TEST(SelfTime, NestedSpansSubtractTheirChildren)
{
    // root [0,10] > a [1,4] > b [2,3]; root > c [5,9]
    const std::vector<Span> spans{span(1, 0, "suite.experiment", 0, 10),
                                  span(2, 1, "core.simulate", 1, 4),
                                  span(3, 2, "profilers.tea", 2, 3),
                                  span(4, 1, "core.decode", 5, 9)};
    const std::vector<double> self = selfSeconds(spans);
    EXPECT_DOUBLE_EQ(self[0], 3.0); // 10 - 3 - 4
    EXPECT_DOUBLE_EQ(self[1], 2.0); // 3 - 1
    EXPECT_DOUBLE_EQ(self[2], 1.0);
    EXPECT_DOUBLE_EQ(self[3], 4.0);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenCountOnce)
{
    const std::vector<Span> spans{span(1, 0, "core.simulate", 0, 10),
                                  span(2, 1, "profilers.ibs", 2, 6),
                                  span(3, 1, "profilers.spe", 4, 8),
                                  span(4, 1, "profilers.ris", 9, 12)};
    // Covered: [2,8] and [9,10] -> 7 s of the parent's 10.
    EXPECT_DOUBLE_EQ(selfSeconds(spans)[0], 3.0);
}

TEST(SelfTime, ByNameWeighsPassSpansPerPass)
{
    const std::vector<Span> spans{span(1, 0, "core.encode", 0, 2, 0),
                                  span(2, 0, "core.encode", 0, 3, 1),
                                  span(3, 0, "core.encode", 0, 5, 2)};
    // One set-up (2 s) plus the mean of two passes (4 s).
    EXPECT_DOUBLE_EQ(selfSecondsByName(spans, 2).at("core.encode"), 6.0);
    EXPECT_EQ(layerOf("trace_cache.open"), "trace_cache");
    EXPECT_EQ(layerOf("harness"), "harness");
}

TEST(SelfTime, TracerNestsSpansPerThread)
{
    Tracer tr;
    {
        ScopedSpan outer(&tr, "core.simulate", 7);
        ScopedSpan inner(&tr, "profilers.golden", 7);
        inner.count("events", 4096);
    }
    const std::vector<Span> spans = tr.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].experiment, 7u);
    EXPECT_EQ(spans[1].count("events"), 4096u);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_GE(spans[0].end, spans[1].end);
}

TEST(MetricNames, OnlyLettersDigitsUnderscoreDotDash)
{
    EXPECT_TRUE(validMetricName("core.decode_mevents_per_s"));
    EXPECT_TRUE(validMetricName("x-1.Y_2"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("wall s"));
    EXPECT_FALSE(validMetricName("wall/s"));
    EXPECT_FALSE(validMetricName("p\"99"));
    EXPECT_THROW(resultJson(true, 1, 0, {{"bad name", "s", 1.0}}),
                 std::invalid_argument);
    EXPECT_THROW(resultJson(true, 1, 0, {{"a", "s", 1.0}, {"a", "s", 2.0}}),
                 std::invalid_argument);
    EXPECT_EQ(resultJson(true, 3, 0, {{"wall_s", "s", 1.5}}),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}");
}

TEST(Digest, MismatchFailsTheExperiment)
{
    std::vector<tea::ExperimentResult> results = smallRun();
    ASSERT_EQ(results.size(), 1u);
    ASSERT_FALSE(results[0].failed());
    const std::uint64_t good = experimentDigest(results[0]);
    EXPECT_EQ(checkDigests(results, {good}), 0u);
    EXPECT_FALSE(results[0].failed());

    EXPECT_EQ(checkDigests(results, {good ^ 1}), 1u);
    EXPECT_TRUE(results[0].failed());
    EXPECT_NE(results[0].error.find("digest"), std::string::npos);

    std::vector<tea::ExperimentResult> unrecorded = smallRun();
    EXPECT_EQ(checkDigests(unrecorded, {}), 1u);
}

TEST(Digest, CoversCyclesAndEveryPics)
{
    std::vector<tea::ExperimentResult> a = smallRun();
    const std::uint64_t base = experimentDigest(a[0]);
    EXPECT_EQ(experimentDigest(smallRun()[0]), base);
    a[0].stats.cycles += 1;
    EXPECT_NE(experimentDigest(a[0]), base);
    std::vector<tea::ExperimentResult> b = smallRun();
    b[0].techniques.back().pics.add(0, tea::Psv{}, 1.0);
    EXPECT_NE(experimentDigest(b[0]), base);
}

TEST(TracedPath, DifferenceFromTheReferenceFailsTheTracedExperiment)
{
    auto result = [](std::uint64_t chunks) {
        tea::ExperimentResult r;
        r.name = "gcc";
        r.replay.cacheHit = true;
        r.replay.cacheBytes = 1 << 20;
        r.replay.chunksProduced = chunks;
        r.replay.eventsCaptured = chunks * 4096;
        return r;
    };
    std::vector<tea::ExperimentResult> reference;
    reference.push_back(result(12));

    std::vector<tea::ExperimentResult> same;
    same.push_back(result(12));
    EXPECT_EQ(checkTracedPath(same, reference), 0u);
    EXPECT_FALSE(same[0].failed());

    std::vector<tea::ExperimentResult> other;
    other.push_back(result(13));
    EXPECT_EQ(checkTracedPath(other, reference), 1u);
    EXPECT_NE(other[0].error.find("chunksProduced"), std::string::npos);

    std::vector<tea::ExperimentResult> unmatched;
    unmatched.push_back(result(12));
    EXPECT_EQ(checkTracedPath(unmatched, {}), 1u);
    reference[0].error = "failed";
    std::vector<tea::ExperimentResult> refFailed;
    refFailed.push_back(result(12));
    EXPECT_EQ(checkTracedPath(refFailed, reference), 1u);
}

TEST(Seeds, HeldOutKernelSeedIsReachedByOneSeedOnly)
{
    const std::vector<std::uint64_t> rotation = sweepKernelSeeds();
    for (std::uint64_t seed = 0; seed < 100000; ++seed) {
        const std::uint64_t k = sweepKernelSeed(seed);
        EXPECT_NE(k, heldOutKernelSeed) << "seed " << seed;
        EXPECT_NE(std::find(rotation.begin(), rotation.end(), k),
                  rotation.end());
    }
    EXPECT_EQ(sweepKernelSeed(heldOutSeed), heldOutKernelSeed);
    EXPECT_NE(sweepKernelSeed(heldOutSeed + 1), heldOutKernelSeed);
}

TEST(Digest, TableParses)
{
    const fs::path p = fs::temp_directory_path() / "perfbench_digests.txt";
    {
        std::ofstream out(p);
        out << "# comment\nfig5 00000000000000ff 0000000000000001\n"
               "sweep/3 abc\n";
    }
    const DigestTable t = loadDigests(p.string());
    fs::remove(p);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t.at("fig5"), (std::vector<std::uint64_t>{0xff, 1}));
    EXPECT_EQ(t.at("sweep/3"), (std::vector<std::uint64_t>{0xabc}));
    EXPECT_THROW(loadDigests((p / "missing").string()), std::runtime_error);
}

TEST(Cleanup, ScratchDirRemovesEverythingBelowIt)
{
    const fs::path root = fs::temp_directory_path() / "perfbench_scratch";
    {
        ScratchDir d((root / "a" / "b").string());
        std::ofstream(fs::path(d.path()) / "entry.teatrc") << "x";
        fs::create_directories(fs::path(d.path()) / "quarantine");
        EXPECT_EQ(directoryBytes(d.path()), 1u);
    }
    EXPECT_FALSE(fs::exists(root / "a" / "b"));
    fs::remove_all(root);
}

TEST(Cleanup, RunRemovesEveryCacheDirectoryItCreated)
{
    const fs::path work = fs::temp_directory_path() / "perfbench_run";
    fs::remove_all(work);
    fs::create_directories(work);
    const fs::path table = work / "digests.txt";
    std::ofstream(table) << "# empty: every experiment fails the gate\n";

    for (bool traced : {false, true}) {
        RunConfig cfg;
        cfg.workload = "fig5_warm";
        cfg.seconds = 0.001;
        cfg.trace = traced;
        cfg.digests = table.string();
        cfg.workDir = (work / "run").string();
        fs::create_directories(cfg.workDir);
        const RunResult r = runBenchmark(cfg);
        EXPECT_EQ(r.attempted, r.failed); // nothing recorded: all fail
        EXPECT_GT(r.attempted, 0u);
        EXPECT_TRUE(fs::is_empty(cfg.workDir)) << "traced=" << traced;
    }
    fs::remove_all(work);
}
