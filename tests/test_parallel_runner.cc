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
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <gtest/gtest.h>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/audit.hh"
#include "analysis/parallel_runner.hh"
#include "analysis/runner.hh"
#include "analysis/trace_cache.hh"
#include "core/trace_buffer.hh"
#include "profilers/golden.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

/** Assert two experiment results are equivalent to the last bit. */
void
expectExperimentsIdentical(const ExperimentResult &serial,
                           const ExperimentResult &parallel)
{
    expectPicsIdentical(serial.golden->pics(), parallel.golden->pics());
    EXPECT_EQ(serial.golden->eventCounts(), parallel.golden->eventCounts());
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
    EXPECT_EQ(miss.replay.eventsCaptured, direct.replay.simEvents);
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
    // The trace is one Cycle event per Compute cycle, the idle records
    // and spans (each covering at least one cycle) and the end marker.
    const std::uint64_t computeCycles = direct.stats.stateCycles[
        static_cast<unsigned>(CommitState::Compute)];
    EXPECT_EQ(direct.replay.simCycles, direct.stats.cycles);
    EXPECT_LT(computeCycles, direct.replay.simEvents);
    EXPECT_LE(direct.replay.simEvents, direct.stats.cycles + 1);
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

namespace {

/** Iteration counts of the ordering suite: entries of clearly
 *  different sizes, listed smallest first. */
const std::vector<unsigned> orderIterations{300, 600, 1200, 2400, 4800,
                                            9600};
const std::size_t orderExperiments = orderIterations.size();

/**
 * An ordering suite, one aluLoop experiment per iteration count, with
 * every make() call stamped: stamps[i] gets one global sequence number
 * per call of experiment i's factory. Calls of one experiment never
 * overlap (the plan and the run loop are separated by a barrier), so
 * each stamps[i] has a single writer at a time.
 */
struct StampedSuite
{
    std::atomic<unsigned> seq{0};
    std::vector<std::vector<unsigned>> stamps;
    std::vector<SuiteExperiment> experiments;

    explicit StampedSuite(
        const std::vector<unsigned> &iterations = orderIterations)
        : stamps(iterations.size())
    {
        for (std::size_t i = 0; i < iterations.size(); ++i) {
            const unsigned iters = iterations[i];
            experiments.push_back(SuiteExperiment{
                "alu-" + std::to_string(iters),
                [this, i, iters] {
                    stamps[i].push_back(
                        seq.fetch_add(1, std::memory_order_relaxed));
                    return workloads::aluLoop(iters);
                },
                CoreConfig{}});
        }
    }

    /** Experiment indices in the order of their last make() call. */
    std::vector<std::size_t> callOrder() const
    {
        std::vector<std::size_t> out(stamps.size());
        std::iota(out.begin(), out.end(), std::size_t{0});
        std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
            return stamps[a].back() < stamps[b].back();
        });
        return out;
    }

    void expectCallsPerExperiment(std::size_t calls) const
    {
        for (std::size_t i = 0; i < stamps.size(); ++i)
            EXPECT_EQ(stamps[i].size(), calls) << experiments[i].name;
    }
};

/** A fresh cache directory under the temp dir, removed at scope exit. */
struct TempCacheDir
{
    std::filesystem::path path;

    explicit TempCacheDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("tea-test-" + tag + "-" + std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path);
    }
    ~TempCacheDir() { std::filesystem::remove_all(path); }
};

/** Options for @p threads workers over the cache in @p dir. */
RunnerOptions
cachedIn(const TempCacheDir &dir, unsigned threads)
{
    RunnerOptions opts;
    opts.threads = threads;
    opts.cache.enabled = true;
    opts.cache.dir = dir.path.string();
    return opts;
}

std::vector<std::size_t>
listOrder(std::size_t n)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    return order;
}

/** The run order sortLargestFirst gives experiments priced @p cost. */
std::vector<std::size_t>
sortedByCost(const std::vector<std::uint64_t> &cost)
{
    std::vector<std::size_t> order = listOrder(cost.size());
    sortLargestFirst(order, cost);
    return order;
}

} // namespace

TEST(SuiteOrder, SortsCostliestFirstAndKeepsTiesInListOrder)
{
    // Misses first, then entries largest first, then experiments whose
    // workload could not be built; equal costs keep list order.
    EXPECT_EQ(sortedByCost({10, suiteMissCost, 30, 0, suiteMissCost, 30, 20}),
              (std::vector<std::size_t>{1, 4, 2, 5, 6, 0, 3}));
    EXPECT_EQ(sortedByCost({1, 2, 3, 4}),
              (std::vector<std::size_t>{3, 2, 1, 0}));
    // A cold cache: every experiment misses, so list order stays.
    EXPECT_EQ(sortedByCost(std::vector<std::uint64_t>(5, suiteMissCost)),
              listOrder(5));
    EXPECT_TRUE(sortedByCost({}).empty());
}

TEST(SuiteOrder, PricesAnExperimentByItsCacheEntry)
{
    TempCacheDir dir("cost");
    const TraceCacheOptions cache = cachedIn(dir, 1).cache;
    StampedSuite suite;

    // Cold: every experiment must simulate, so each is priced above any
    // entry. One make() per price.
    for (const SuiteExperiment &exp : suite.experiments)
        EXPECT_EQ(suiteOrderCost(exp, cache), suiteMissCost) << exp.name;
    suite.expectCallsPerExperiment(1);

    // Warm: the byte size of the entry the run made.
    const std::vector<ExperimentResult> filled = runExperimentSuite(
        suite.experiments, {teaConfig()}, cachedIn(dir, 1));
    std::vector<std::uint64_t> cost;
    for (std::size_t i = 0; i < orderExperiments; ++i) {
        SCOPED_TRACE(suite.experiments[i].name);
        ASSERT_FALSE(filled[i].failed()) << filled[i].error;
        cost.push_back(suiteOrderCost(suite.experiments[i], cache));
        EXPECT_EQ(cost[i], filled[i].replay.cacheBytes);
        if (i > 0) {
            ASSERT_GT(cost[i], cost[i - 1] + cost[i - 1] / 4);
        }
    }
    // The entries grow along the list, so the order is its reverse.
    EXPECT_EQ(sortedByCost(cost),
              (std::vector<std::size_t>{5, 4, 3, 2, 1, 0}));

    // Partly warm: a new experiment goes first, one whose workload
    // cannot be built goes last.
    StampedSuite fresh({150});
    cost.push_back(suiteOrderCost(fresh.experiments[0], cache));
    EXPECT_EQ(cost.back(), suiteMissCost);
    const SuiteExperiment broken{
        "broken",
        []() -> Workload { throw std::runtime_error("cannot build"); },
        CoreConfig{}};
    cost.push_back(suiteOrderCost(broken, cache));
    EXPECT_EQ(cost.back(), 0u);
    EXPECT_EQ(sortedByCost(cost),
              (std::vector<std::size_t>{6, 5, 4, 3, 2, 1, 0, 7}));
}

TEST(SuiteOrder, PlannedSuiteMatchesASerialLoop)
{
    // Three workers over six experiments with the cache on: the plan
    // runs, so each workload is built twice (priced, then run). When
    // each worker calls make() is up to the scheduler; the order must
    // not change the results, which stay in list order and
    // bit-identical to one worker's.
    TempCacheDir dir("planned");
    const unsigned threads = 3;
    RunnerOptions serialOpts;
    serialOpts.threads = 1;
    StampedSuite serialSuite;
    const std::vector<ExperimentResult> serial = runExperimentSuite(
        serialSuite.experiments, standardTechniques(), serialOpts);

    auto expectMatchesSerial = [&](const StampedSuite &suite,
                                   const std::vector<ExperimentResult> &res) {
        suite.expectCallsPerExperiment(2);
        // The one order check that holds under any scheduling: a worker
        // claims again only after its last experiment finished, and
        // calls make() only after its claim, so at least k + 1 - threads
        // run-loop make() calls precede the k-th claim's. The last
        // claim, the smallest entry (experiment 0) in both runs below,
        // is thus among the last `threads` calls; list order would
        // claim it first. (A claim's make() may be delayed without
        // bound, so nothing holds the first claims near the front.)
        const std::vector<std::size_t> calls = suite.callOrder();
        EXPECT_NE(std::find(calls.end() - threads, calls.end(), 0),
                  calls.end());
        ASSERT_EQ(res.size(), orderExperiments);
        for (std::size_t i = 0; i < orderExperiments; ++i) {
            SCOPED_TRACE(suite.experiments[i].name);
            EXPECT_EQ(res[i].name, suite.experiments[i].name);
            expectExperimentsIdentical(serial[i], res[i]);
        }
    };

    // Partly warm: every other experiment has an entry, the rest
    // simulate and store theirs.
    {
        StampedSuite fill({300, 1200, 4800});
        runExperimentSuite(fill.experiments, {teaConfig()},
                           cachedIn(dir, 1));
    }
    StampedSuite partly;
    const std::vector<ExperimentResult> made = runExperimentSuite(
        partly.experiments, standardTechniques(), cachedIn(dir, threads));
    expectMatchesSerial(partly, made);
    for (std::size_t i = 0; i < made.size(); ++i)
        EXPECT_EQ(made[i].replay.cacheHit, i % 2 == 0) << i;

    // Warm: every experiment replays the entry it used or made above.
    StampedSuite warm;
    const std::vector<ExperimentResult> replayed = runExperimentSuite(
        warm.experiments, standardTechniques(), cachedIn(dir, threads));
    expectMatchesSerial(warm, replayed);
    for (std::size_t i = 0; i < replayed.size(); ++i) {
        SCOPED_TRACE(warm.experiments[i].name);
        EXPECT_TRUE(replayed[i].replay.cacheHit);
        EXPECT_GT(replayed[i].replay.cacheBytes, 0u);
        EXPECT_EQ(replayed[i].replay.cacheBytes, made[i].replay.cacheBytes);
    }
}

TEST(SuiteOrder, WithoutAPlanEachWorkloadIsBuiltOnce)
{
    TempCacheDir dir("noplan");
    {
        // Warm the cache, so only the rules below can skip the plan.
        StampedSuite fill;
        runExperimentSuite(fill.experiments, {teaConfig()},
                           cachedIn(dir, 1));
    }

    // One worker: order cannot change the suite's wall time, and one
    // worker runs the list in order.
    {
        StampedSuite s;
        runExperimentSuite(s.experiments, {teaConfig()}, cachedIn(dir, 1));
        s.expectCallsPerExperiment(1);
        EXPECT_EQ(s.callOrder(), listOrder(orderExperiments));
    }
    // Cache off: nothing to price.
    {
        StampedSuite s;
        RunnerOptions off;
        off.threads = 3;
        runExperimentSuite(s.experiments, {teaConfig()}, off);
        s.expectCallsPerExperiment(1);
    }
    // A worker per experiment: every one starts at once anyway.
    {
        StampedSuite s;
        runExperimentSuite(s.experiments, {teaConfig()},
                           cachedIn(dir, orderExperiments));
        s.expectCallsPerExperiment(1);
    }
}

TEST(SuiteOrder, TwoThreadsReadOneResult)
{
    // A result may be read from several threads at once (each rendering
    // a different view of it). Every accessor is a plain const read —
    // the golden reference builds its Pics at the trace's end, not on
    // first access — so the tsan preset sees no race here and both
    // readers see the same numbers.
    const ExperimentResult res =
        runBenchmark("nab", standardTechniques(), RunnerOptions{});
    double error[2] = {0.0, 0.0};
    std::size_t cells[2] = {0, 0};
    auto read = [&](int k) {
        for (const TechniqueResult &t : res.techniques)
            error[k] += res.errorOf(t);
        cells[k] = res.golden->pics().components().size() +
                   res.golden->eventCounts().size();
    };
    std::thread a(read, 0);
    std::thread b(read, 1);
    a.join();
    b.join();
    EXPECT_EQ(error[0], error[1]);
    EXPECT_EQ(cells[0], cells[1]);
    EXPECT_GT(cells[0], 0u);
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
