/**
 * @file
 * Differential tests of the simulator fast path (DESIGN.md, "Simulator
 * fast path"): the event-driven run() and the per-cycle reference loop
 * (TEA_CORE_FASTPATH=0) must produce bit-identical traces, statistics
 * and Pics on every workload, and the skip clock must never jump past a
 * scheduled event under randomized stall/drain schedules — if it did,
 * the traces would diverge, which is exactly what these tests detect.
 *
 * Trace identity is checked through the on-disk codec: each completed
 * chunk is encoded and folded into one running fingerprint, so the
 * comparison covers every observable field (the codec canonicalizes
 * only the stale bytes of invalid slots) without holding two full
 * traces in memory. Chunk boundaries are part of the fingerprint —
 * batched emission must chunk exactly like per-event emission.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/audit.hh"
#include "analysis/runner.hh"
#include "common/fingerprint.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"
#include "workloads/workload.hh"

using namespace tea;

namespace {

/** Everything observable about one simulation, cheap to compare. */
struct TraceDigest
{
    std::uint64_t hash = 0;   ///< FNV-1a over the encoded chunk stream
    std::uint64_t events = 0;
    std::uint64_t chunks = 0;
    Cycle cycles = 0;
    CoreStats stats;
    SimPerf perf;
};

TraceDigest
runDigest(Workload w, const CoreConfig &cfg, bool fast,
          Cycle max_cycles = 500'000'000, std::size_t chunk_events = 1024)
{
    Fnv1a h;
    std::uint64_t chunks = 0;
    std::vector<std::uint8_t> frame;
    ChunkingSink sink(chunk_events, [&](TraceChunkPtr c) {
        frame.clear();
        encodeChunk(*c, frame);
        h.addBytes(frame.data(), frame.size());
        ++chunks;
    });

    Core core(cfg, w.program, std::move(w.initial));
    core.setFastPath(fast);
    core.addSink(&sink);

    TraceDigest d;
    d.cycles = core.run(max_cycles);
    sink.finish();
    d.hash = h.value();
    d.events = sink.eventsCaptured();
    d.chunks = chunks;
    d.stats = core.stats();
    d.perf = core.perf();
    return d;
}

void
expectStatsEqual(const CoreStats &a, const CoreStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.stateCycles, b.stateCycles);
    EXPECT_EQ(a.eventCounts, b.eventCounts);
    EXPECT_EQ(a.uopsWithEvents, b.uopsWithEvents);
    EXPECT_EQ(a.uopsWithCombined, b.uopsWithCombined);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.pipelineFlushes, b.pipelineFlushes);
    EXPECT_EQ(a.moViolations, b.moViolations);
    EXPECT_EQ(a.drSqStallCycles, b.drSqStallCycles);
    EXPECT_EQ(a.samplingInterrupts, b.samplingInterrupts);
}

void
expectDigestsIdentical(const TraceDigest &ref, const TraceDigest &fast)
{
    EXPECT_EQ(ref.cycles, fast.cycles);
    EXPECT_EQ(ref.events, fast.events);
    EXPECT_EQ(ref.chunks, fast.chunks);
    EXPECT_EQ(ref.hash, fast.hash);
    expectStatsEqual(ref.stats, fast.stats);

    // The reference loop never skips; the fast path must account for
    // every simulated cycle as either executed or bulk-emitted.
    EXPECT_EQ(ref.perf.skippedCycles, 0u);
    EXPECT_EQ(fast.perf.activeCycles + fast.perf.skippedCycles,
              fast.stats.cycles);
}

// --- every suite workload, both modes ---------------------------------

class FastpathSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FastpathSuite, BitIdenticalTraceAndStats)
{
    const std::string name = GetParam();
    CoreConfig cfg;
    TraceDigest ref = runDigest(workloads::byName(name), cfg, false);
    TraceDigest fast = runDigest(workloads::byName(name), cfg, true);
    expectDigestsIdentical(ref, fast);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FastpathSuite,
    ::testing::ValuesIn(workloads::suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// --- microkernels, event-by-event (better diagnostics on divergence) --

TEST(FastpathDifferential, MicrokernelEventStreamsEquivalent)
{
    struct Case
    {
        const char *name;
        Workload w;
    };
    std::vector<Case> cases;
    cases.push_back({"aluLoop", workloads::aluLoop(2000)});
    cases.push_back({"streamSum", workloads::streamSum(256, 2)});
    cases.push_back({"storeBurst", workloads::storeBurst(64, 4)});
    cases.push_back({"branchNoise", workloads::branchNoise(4000)});
    cases.push_back({"orderingViolator",
                     workloads::orderingViolator(300)});
    cases.push_back({"flushySqrt", workloads::flushySqrt(200, true)});
    cases.push_back({"icacheWalk", workloads::icacheWalk(8, 3)});

    for (Case &c : cases) {
        SCOPED_TRACE(c.name);
        CoreConfig cfg;
        Workload wr = c.w; // program is shared; state copied per run

        TraceBuffer ref_buf(512);
        Core ref(cfg, c.w.program, std::move(c.w.initial));
        ref.setFastPath(false);
        ref.addSink(&ref_buf);
        ref.run();
        ref_buf.finish();

        TraceBuffer fast_buf(512);
        Core fast(cfg, wr.program, std::move(wr.initial));
        fast.setFastPath(true);
        fast.addSink(&fast_buf);
        fast.run();
        fast_buf.finish();

        ASSERT_EQ(ref_buf.chunks().size(), fast_buf.chunks().size());
        for (std::size_t i = 0; i < ref_buf.chunks().size(); ++i) {
            const TraceChunk &a = *ref_buf.chunks()[i];
            const TraceChunk &b = *fast_buf.chunks()[i];
            ASSERT_EQ(a.events.size(), b.events.size())
                << "chunk " << i;
            EXPECT_EQ(a.cycleRecords, b.cycleRecords) << "chunk " << i;
            for (std::size_t e = 0; e < a.events.size(); ++e) {
                ASSERT_TRUE(eventsEquivalent(a.events[e], b.events[e]))
                    << "chunk " << i << " event " << e;
            }
        }
    }
}

// --- the bulk-emitted idle frames must satisfy the trace auditor ------

TEST(FastpathAudit, SkippedFramesSatisfyInvariantAuditor)
{
    // Memory-bound, so long idle spans are skipped and bulk-emitted;
    // the auditor then proves the frames are dense, monotone and
    // state-consistent exactly like stepped ones.
    Workload w = workloads::streamSum(2048, 2);
    CoreConfig cfg;
    Core core(cfg, w.program, std::move(w.initial));
    core.setFastPath(true);
    InvariantAuditor audit(InvariantAuditor::Mode::Collect);
    core.addSink(&audit);
    core.run();
    audit.finish();

    EXPECT_GT(core.perf().skippedCycles, 0u)
        << "workload no longer exercises the skip clock";
    EXPECT_TRUE(audit.clean());
    for (const std::string &v : audit.violations())
        ADD_FAILURE() << v;
    EXPECT_EQ(audit.cyclesAudited(), core.stats().cycles);
}

// --- Pics identity end to end (env knob, all standard techniques) -----

TEST(FastpathPics, GoldenAndTechniquePicsBitIdenticalAcrossModes)
{
    ::setenv("TEA_CORE_FASTPATH", "0", 1);
    ExperimentResult ref =
        runWorkload(workloads::streamSum(512, 3), standardTechniques());
    ::setenv("TEA_CORE_FASTPATH", "1", 1);
    ExperimentResult fast =
        runWorkload(workloads::streamSum(512, 3), standardTechniques());
    ::unsetenv("TEA_CORE_FASTPATH");

    EXPECT_EQ(ref.stats.cycles, fast.stats.cycles);
    EXPECT_EQ(auditPicsIdentical(ref.golden->pics(),
                                 fast.golden->pics()),
              "");
    ASSERT_EQ(ref.techniques.size(), fast.techniques.size());
    for (std::size_t i = 0; i < ref.techniques.size(); ++i) {
        SCOPED_TRACE(ref.techniques[i].config.name);
        EXPECT_EQ(auditPicsIdentical(ref.techniques[i].pics,
                                     fast.techniques[i].pics),
                  "");
    }
}

TEST(FastpathEnv, UnknownModeIsFatal)
{
    // Only 0 (the reference loop) and 1 (the fast path) name a mode;
    // "off" must not silently leave the code under test running where
    // the oracle was asked for.
    EXPECT_EXIT(
        {
            ::setenv("TEA_CORE_FASTPATH", "off", 1);
            Workload w = workloads::aluLoop(10);
            Core core(CoreConfig{}, w.program, std::move(w.initial));
        },
        ::testing::ExitedWithCode(1), "TEA_CORE_FASTPATH");

    // Empty means the default, the fast path.
    ::setenv("TEA_CORE_FASTPATH", "", 1);
    Workload w = workloads::aluLoop(10);
    Core core(CoreConfig{}, w.program, std::move(w.initial));
    ::unsetenv("TEA_CORE_FASTPATH");
    EXPECT_TRUE(core.fastPath());
}

// --- property: randomized stall/drain schedules ------------------------

/** A config with randomly shrunk queues and stretched latencies: the
 * adversarial schedule generator for the skip clock. Tiny SQ/LQ/MSHR
 * capacities force DR-SQ backpressure and drain chains; long, varied
 * latencies open wide idle spans with events parked far in the future;
 * sampling and store-set aging exercise the modulo boundaries. */
CoreConfig
randomConfig(Rng &rng)
{
    CoreConfig cfg;
    cfg.fetchWidth = static_cast<unsigned>(rng.range(2, 8));
    cfg.decodeWidth = static_cast<unsigned>(rng.range(1, 4));
    cfg.dispatchWidth = static_cast<unsigned>(rng.range(1, 4));
    cfg.commitWidth = static_cast<unsigned>(rng.range(1, 4));
    cfg.fetchBufferEntries = static_cast<unsigned>(rng.range(8, 24));
    cfg.decodeLatency = static_cast<unsigned>(rng.range(1, 4));
    cfg.redirectPenalty = static_cast<unsigned>(rng.range(2, 16));
    cfg.robEntries = static_cast<unsigned>(rng.range(16, 64));
    cfg.intIqEntries = static_cast<unsigned>(rng.range(8, 32));
    cfg.intIssueWidth = static_cast<unsigned>(rng.range(1, 4));
    cfg.memIqEntries = static_cast<unsigned>(rng.range(4, 16));
    cfg.memIssueWidth = static_cast<unsigned>(rng.range(1, 2));
    cfg.fpIqEntries = static_cast<unsigned>(rng.range(4, 16));
    cfg.fpIssueWidth = static_cast<unsigned>(rng.range(1, 2));
    cfg.lqEntries = static_cast<unsigned>(rng.range(4, 12));
    cfg.sqEntries = static_cast<unsigned>(rng.range(2, 8));
    cfg.intDivLatency = static_cast<unsigned>(rng.range(8, 40));
    cfg.fpDivLatency = static_cast<unsigned>(rng.range(10, 40));
    cfg.fpSqrtLatency = static_cast<unsigned>(rng.range(12, 60));
    cfg.forwardLatency = static_cast<unsigned>(rng.range(1, 4));
    cfg.moReplayPenalty = static_cast<unsigned>(rng.range(4, 24));
    cfg.storeSetClearInterval =
        std::array<Cycle, 4>{0, 50, 1000, 250'000}[rng.below(4)];
    cfg.samplingInterruptPeriod =
        std::array<Cycle, 3>{0, 100, 1000}[rng.below(3)];
    // A handler that outlasts the period starves fetch forever (true of
    // the modelled machine too), so keep occupancy below half a period.
    cfg.samplingHandlerCycles =
        cfg.samplingInterruptPeriod != 0
            ? static_cast<Cycle>(
                  rng.range(10, cfg.samplingInterruptPeriod / 2))
            : static_cast<Cycle>(rng.range(20, 200));
    cfg.l1d.mshrs = static_cast<unsigned>(rng.range(1, 4));
    cfg.l1d.hitLatency = static_cast<unsigned>(rng.range(1, 6));
    cfg.llc.hitLatency = static_cast<unsigned>(rng.range(8, 30));
    cfg.nextLinePrefetcher = rng.chance(0.5);
    cfg.dramLatency = static_cast<unsigned>(rng.range(40, 200));
    cfg.dramInterval = static_cast<unsigned>(rng.range(4, 20));
    return cfg;
}

Workload
randomWorkload(Rng &rng)
{
    switch (rng.below(6)) {
    case 0:
        return workloads::aluLoop(
            static_cast<unsigned>(rng.range(200, 2000)));
    case 1:
        return workloads::streamSum(
            static_cast<unsigned>(rng.range(32, 256)),
            static_cast<unsigned>(rng.range(1, 3)));
    case 2:
        return workloads::storeBurst(
            static_cast<unsigned>(rng.range(16, 64)),
            static_cast<unsigned>(rng.range(1, 4)));
    case 3:
        return workloads::branchNoise(
            static_cast<unsigned>(rng.range(500, 3000)),
            rng.next());
    case 4:
        return workloads::orderingViolator(
            static_cast<unsigned>(rng.range(50, 300)));
    default:
        return workloads::flushySqrt(
            static_cast<unsigned>(rng.range(50, 200)),
            rng.chance(0.5));
    }
}

TEST(FastpathProperty, RandomScheduleNeverSkipsScheduledEvent)
{
    // If the skip clock ever jumped past a cycle with real activity,
    // that cycle's commit frame (and everything downstream) would
    // differ from the reference — the fingerprint equality is the
    // property. Fixed seed: failures must reproduce.
    Rng rng(0x7ea5eedULL);
    constexpr int trials = 16;
    constexpr Cycle cap = 5'000'000;
    for (int t = 0; t < trials; ++t) {
        SCOPED_TRACE("trial " + std::to_string(t));
        CoreConfig cfg = randomConfig(rng);
        Workload w = randomWorkload(rng);
        Workload wr = w;
        TraceDigest ref =
            runDigest(std::move(w), cfg, false, cap, 256);
        TraceDigest fast =
            runDigest(std::move(wr), cfg, true, cap, 256);
        expectDigestsIdentical(ref, fast);
    }
}

} // namespace
