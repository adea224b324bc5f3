/**
 * @file
 * Determinism tests for the experiment runner: every observer sees the
 * exact event sequence the simulation produced, so results are
 * *bit-identical* whatever the trace-cache chunk geometry and however
 * many experiments a suite keeps in flight — the core determinism
 * claim of out-of-band replay (TEA §4). Also checks the replay-stat
 * accounting and the suite pool's clamp, and unit-tests the in-memory
 * TraceBuffer and the env parsing of the runner knobs.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/audit.hh"
#include "analysis/parallel_runner.hh"
#include "analysis/runner.hh"
#include "core/trace_buffer.hh"
#include "profilers/golden.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

/** Components sorted by (unit, signature) for order-free comparison. */
std::vector<PicsComponent>
sortedComponents(const Pics &p)
{
    std::vector<PicsComponent> cs = p.components();
    std::sort(cs.begin(), cs.end(),
              [](const PicsComponent &a, const PicsComponent &b) {
                  return a.unit != b.unit ? a.unit < b.unit
                                          : a.signature < b.signature;
              });
    return cs;
}

/** Assert two Pics are bit-identical (exact doubles, same cells). */
void
expectPicsIdentical(const Pics &a, const Pics &b)
{
    EXPECT_EQ(a.total(), b.total()); // exact, not approximate
    std::vector<PicsComponent> ca = sortedComponents(a);
    std::vector<PicsComponent> cb = sortedComponents(b);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].unit, cb[i].unit);
        EXPECT_EQ(ca[i].signature, cb[i].signature);
        EXPECT_EQ(ca[i].cycles, cb[i].cycles);
    }
}

/** Assert two experiment results are equivalent to the last bit. */
void
expectExperimentsIdentical(const ExperimentResult &serial,
                           const ExperimentResult &parallel)
{
    expectPicsIdentical(serial.golden->pics(), parallel.golden->pics());
    EXPECT_EQ(serial.golden->eventCounts().size(),
              parallel.golden->eventCounts().size());
    ASSERT_EQ(serial.techniques.size(), parallel.techniques.size());
    for (std::size_t i = 0; i < serial.techniques.size(); ++i) {
        const TechniqueResult &s = serial.techniques[i];
        const TechniqueResult &p = parallel.techniques[i];
        SCOPED_TRACE(s.config.name);
        EXPECT_EQ(s.samplesTaken, p.samplesTaken);
        EXPECT_EQ(s.samplesDropped, p.samplesDropped);
        expectPicsIdentical(s.pics, p.pics);
        // errorOf() folds the golden projection, aggregation and the
        // error metric — exact equality exercises the whole chain.
        EXPECT_EQ(serial.errorOf(s), parallel.errorOf(p));
        EXPECT_EQ(serial.errorOf(s, Granularity::Function),
                  parallel.errorOf(p, Granularity::Function));
    }
}

} // namespace

TEST(ParallelRunner, ChunkingGeometryDoesNotChangeResults)
{
    ExperimentResult direct =
        runBenchmark("fotonik3d", standardTechniques(), RunnerOptions{});

    // Pathological geometry: 7-event cache frames, stored on the miss
    // and decoded one by one on the hit.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("tea-test-chunking-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    RunnerOptions tiny;
    tiny.chunkEvents = 7;
    tiny.cache.enabled = true;
    tiny.cache.dir = dir.string();
    ExperimentResult miss =
        runBenchmark("fotonik3d", standardTechniques(), tiny);
    ExperimentResult hit =
        runBenchmark("fotonik3d", standardTechniques(), tiny);
    fs::remove_all(dir);

    ASSERT_TRUE(miss.replay.cacheStored);
    ASSERT_TRUE(hit.replay.cacheHit);
    expectExperimentsIdentical(direct, miss);
    expectExperimentsIdentical(direct, hit);
    // Every frame the miss wrote is decoded on the hit, event for event.
    EXPECT_GT(miss.replay.chunksProduced, 100u);
    EXPECT_EQ(hit.replay.chunksProduced, miss.replay.chunksProduced);
    EXPECT_EQ(hit.replay.eventsCaptured, miss.replay.eventsCaptured);
    EXPECT_GT(miss.replay.eventsCaptured, direct.stats.cycles);
}

TEST(ParallelRunner, ReplayStatsAccountForEveryChunkAndCycle)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
                         ("tea-test-stats-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    RunnerOptions opts;
    opts.cache.enabled = true;
    opts.cache.dir = dir.string();
    ExperimentResult direct =
        runBenchmark("nab", standardTechniques(), RunnerOptions{});
    ExperimentResult miss = runBenchmark("nab", standardTechniques(), opts);
    ExperimentResult hit = runBenchmark("nab", standardTechniques(), opts);
    fs::remove_all(dir);

    // Uncached: the simulation is the whole trace; nothing is framed.
    EXPECT_EQ(direct.replay.simCycles, direct.stats.cycles);
    EXPECT_GT(direct.replay.simEvents, direct.stats.cycles);
    EXPECT_EQ(direct.replay.chunksProduced, 0u);
    EXPECT_EQ(direct.replay.eventsCaptured, 0u);

    // Miss: the cache tee frames every event the simulation emitted,
    // into full frames plus one tail frame.
    ASSERT_TRUE(miss.replay.cacheStored);
    EXPECT_EQ(miss.replay.simCycles, direct.stats.cycles);
    EXPECT_EQ(miss.replay.simEvents, direct.replay.simEvents);
    EXPECT_EQ(miss.replay.eventsCaptured, miss.replay.simEvents);
    EXPECT_EQ(miss.replay.chunksProduced,
              (miss.replay.eventsCaptured + opts.chunkEvents - 1) /
                  opts.chunkEvents);

    // Hit: nothing simulated; every frame and event is decoded, and the
    // golden observer attributes every recorded cycle.
    ASSERT_TRUE(hit.replay.cacheHit);
    EXPECT_EQ(hit.replay.simCycles, 0u);
    EXPECT_EQ(hit.replay.simEvents, 0u);
    EXPECT_EQ(hit.replay.chunksProduced, miss.replay.chunksProduced);
    EXPECT_EQ(hit.replay.eventsCaptured, miss.replay.eventsCaptured);
    EXPECT_EQ(hit.stats.cycles, direct.stats.cycles);
    EXPECT_EQ(auditCycleConservation(*hit.golden, hit.stats.cycles),
              std::string());
    for (const ExperimentResult *res : {&direct, &miss, &hit})
        EXPECT_EQ(res->replay.threads, 0u);
}

TEST(ParallelRunner, MoreThreadsThanGroupsIsClamped)
{
    // The suite pool starts no more workers than experiments: a single
    // experiment at 64 threads runs on the calling thread itself.
    RunnerOptions opts;
    opts.threads = 64;
    std::thread::id ranOn;
    const std::vector<SuiteExperiment> one{
        {"nab",
         [&] {
             ranOn = std::this_thread::get_id();
             return workloads::byName("nab");
         },
         CoreConfig{}}};
    std::vector<ExperimentResult> res =
        runExperimentSuite(one, {teaConfig()}, opts);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(ranOn, std::this_thread::get_id());
    expectExperimentsIdentical(runBenchmark("nab", {teaConfig()}), res[0]);

    EXPECT_TRUE(runExperimentSuite({}, {teaConfig()}, opts).empty());
}

TEST(RunnerOptionsEnv, MalformedIntegersAreFatal)
{
    // A sign, an overflow, an out-of-range value or trailing junk must
    // exit cleanly instead of wrapping, truncating, saturating or
    // panicking.
    const struct
    {
        const char *name;
        const char *value;
    } cases[] = {
        {"TEA_AUDIT", "-1"},
        {"TEA_AUDIT", "2"},
        {"TEA_AUDIT", "3"},
        {"TEA_THREADS", "4294967297"},
        {"TEA_THREADS", "+2"},
        {"TEA_TRACE_CACHE_MAX_BYTES", "99999999999999999999"},
        {"TEA_CACHE_LOCK_TIMEOUT_MS", "5ms"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(c.name) + "=" + c.value);
        EXPECT_EXIT(
            {
                ::setenv(c.name, c.value, 1);
                RunnerOptions::fromEnv();
            },
            ::testing::ExitedWithCode(1),
            "must be a non-negative integer");
    }
}

TEST(ParallelRunner, SuiteMatchesSerialLoop)
{
    const std::vector<std::string> names{"exchange2", "mcf", "nab"};
    std::vector<ExperimentResult> serial;
    for (const std::string &name : names)
        serial.push_back(runBenchmark(name, standardTechniques()));

    // 16 threads is more than the experiments: the pool is clamped.
    for (unsigned threads : {2u, 16u}) {
        SCOPED_TRACE(threads);
        RunnerOptions opts;
        opts.threads = threads;
        std::vector<ExperimentResult> par =
            runBenchmarkSuite(names, standardTechniques(), opts);
        ASSERT_EQ(par.size(), names.size());
        for (std::size_t i = 0; i < names.size(); ++i) {
            SCOPED_TRACE(names[i]);
            EXPECT_EQ(par[i].name, names[i]);
            expectExperimentsIdentical(serial[i], par[i]);
        }
    }
}

TEST(TraceBufferTest, ReplayMatchesLiveGolden)
{
    GoldenReference live;
    TraceBuffer buffer(512);
    {
        CoreRun run = makeCore(workloads::aluLoop(3000));
        run->addSink(&live);
        run->addSink(&buffer);
        run->run();
    }
    buffer.finish();

    GoldenReference replayed;
    std::uint64_t cycles = buffer.replay({&replayed});
    EXPECT_GT(cycles, 0u);
    expectPicsIdentical(live.pics(), replayed.pics());

    // Replay is repeatable: a second pass sees the same trace.
    GoldenReference again;
    EXPECT_EQ(buffer.replay({&again}), cycles);
    expectPicsIdentical(replayed.pics(), again.pics());
}
