/**
 * @file
 * Golden-equivalence tests for the parallel replay engine: because every
 * observer replays the exact event sequence the simulation produced,
 * results must be *bit-identical* at any thread count — the core
 * determinism claim of out-of-band replay (TEA §4). Also unit-tests the
 * BroadcastQueue and the in-memory TraceBuffer the engine is built on.
 */

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "analysis/parallel_runner.hh"
#include "analysis/runner.hh"
#include "common/chunk_queue.hh"
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

RunnerOptions
withThreads(unsigned threads)
{
    RunnerOptions o;
    o.threads = threads;
    return o;
}

} // namespace

class ParallelGoldenEquivalence
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ParallelGoldenEquivalence, BitIdenticalAcrossThreadCounts)
{
    const std::string name = GetParam();
    ExperimentResult serial =
        runBenchmark(name, standardTechniques(), withThreads(1));
    EXPECT_FALSE(serial.replay.parallel());

    for (unsigned threads : {2u, 8u}) {
        SCOPED_TRACE(threads);
        ExperimentResult par =
            runBenchmark(name, standardTechniques(), withThreads(threads));
        EXPECT_TRUE(par.replay.parallel());
        EXPECT_EQ(serial.stats.cycles, par.stats.cycles);
        EXPECT_EQ(serial.stats.committedUops, par.stats.committedUops);
        expectExperimentsIdentical(serial, par);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, ParallelGoldenEquivalence,
                         ::testing::Values("exchange2", "mcf", "nab"));

TEST(ParallelRunner, ChunkingGeometryDoesNotChangeResults)
{
    ExperimentResult serial =
        runBenchmark("fotonik3d", standardTechniques(), withThreads(1));

    // Pathological geometry: 7-event chunks through a 2-deep queue.
    RunnerOptions tiny;
    tiny.threads = 3;
    tiny.chunkEvents = 7;
    tiny.queueChunks = 2;
    ExperimentResult par =
        runBenchmark("fotonik3d", standardTechniques(), tiny);
    expectExperimentsIdentical(serial, par);
    EXPECT_GT(par.replay.chunksProduced, 100u);
}

TEST(ParallelRunner, ReplayStatsAccountForEveryChunkAndCycle)
{
    RunnerOptions opts = withThreads(4);
    ExperimentResult res =
        runBenchmark("exchange2", standardTechniques(), opts);
    const ReplayStats &rs = res.replay;

    ASSERT_EQ(rs.workers.size(), 4u); // 6 groups, 4 workers
    std::uint64_t groups = 0;
    for (const ReplayWorkerStats &w : rs.workers) {
        // Broadcast queue: every worker consumes every chunk.
        EXPECT_EQ(w.chunksConsumed, rs.chunksProduced);
        EXPECT_EQ(w.eventsReplayed, rs.eventsCaptured);
        EXPECT_EQ(w.cyclesReplayed, res.stats.cycles);
        groups += w.sinkGroups;
    }
    EXPECT_EQ(groups, standardTechniques().size() + 1);
    EXPECT_GT(rs.chunksProduced, 0u);
    EXPECT_GT(rs.eventsCaptured, res.stats.cycles);
}

TEST(ParallelRunner, MoreThreadsThanGroupsIsClamped)
{
    ExperimentResult res =
        runBenchmark("exchange2", {teaConfig()}, withThreads(64));
    EXPECT_EQ(res.replay.threads, 2u); // golden + 1 technique
    ExperimentResult serial =
        runBenchmark("exchange2", {teaConfig()}, withThreads(1));
    expectExperimentsIdentical(serial, res);
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
    const std::vector<std::string> names{"exchange2", "mcf"};
    std::vector<ExperimentResult> par =
        runBenchmarkSuite(names, standardTechniques(), withThreads(4));
    ASSERT_EQ(par.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        SCOPED_TRACE(names[i]);
        EXPECT_EQ(par[i].name, names[i]);
        ExperimentResult serial =
            runBenchmark(names[i], standardTechniques(), withThreads(1));
        expectExperimentsIdentical(serial, par[i]);
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

TEST(BroadcastQueueTest, EveryConsumerSeesEveryItemInOrder)
{
    constexpr unsigned consumers = 3;
    constexpr int items = 1000;
    BroadcastQueue<int> q(4, consumers);

    std::vector<std::vector<int>> seen(consumers);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < consumers; ++c) {
        threads.emplace_back([&, c] {
            int v;
            while (q.pop(c, v))
                seen[c].push_back(v);
        });
    }
    for (int i = 0; i < items; ++i)
        q.push(i);
    q.close();
    for (std::thread &t : threads)
        t.join();

    for (unsigned c = 0; c < consumers; ++c) {
        ASSERT_EQ(seen[c].size(), static_cast<std::size_t>(items));
        for (int i = 0; i < items; ++i)
            EXPECT_EQ(seen[c][i], i);
    }
    EXPECT_EQ(q.pushed(), static_cast<std::uint64_t>(items));
}

TEST(BroadcastQueueTest, ProducerBlocksOnSlowConsumer)
{
    BroadcastQueue<int> q(2, 1);
    q.push(1);
    q.push(2);
    // Window full: the next push must wait until the consumer drains.
    std::thread producer([&] {
        q.push(3);
        q.close();
    });
    int v = 0;
    ASSERT_TRUE(q.pop(0, v));
    EXPECT_EQ(v, 1);
    ASSERT_TRUE(q.pop(0, v));
    EXPECT_EQ(v, 2);
    ASSERT_TRUE(q.pop(0, v));
    EXPECT_EQ(v, 3);
    EXPECT_FALSE(q.pop(0, v));
    producer.join();
    EXPECT_GE(q.fullWaits(), 0u);
}

TEST(BroadcastQueueTest, CloseWakesIdleConsumers)
{
    BroadcastQueue<int> q(4, 2);
    std::thread c0([&] {
        int v;
        EXPECT_FALSE(q.pop(0, v));
    });
    std::thread c1([&] {
        int v;
        EXPECT_FALSE(q.pop(1, v));
    });
    q.close();
    c0.join();
    c1.join();
}
