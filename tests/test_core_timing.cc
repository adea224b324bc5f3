/**
 * @file
 * White-box timing tests: hand-built programs with known cycle-level
 * behaviour, verifying the commit-state machine (the basis of
 * time-proportional attribution), latency propagation, forwarding and
 * flush shadows against first-principles expectations.
 */

#include <gtest/gtest.h>

#include "isa/builder.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

/**
 * Records the per-cycle commit-state sequence and attribution targets:
 * a Stalled cycle's is the ROB head, which in-order commit retires
 * next, and a Flushed cycle's the last retire before it.
 */
class StateTracker : public TraceSink
{
  public:
    void
    onCycle(const CycleRecord &rec) override
    {
        states.push_back(rec.state);
        if (rec.state == CommitState::Stalled)
            ++stalledPending;
        if (rec.state == CommitState::Flushed)
            flushedPcs.push_back(lastPc);
    }

    void
    onRetire(const RetireRecord &rec) override
    {
        stalledPcs.insert(stalledPcs.end(), stalledPending, rec.pc);
        stalledPending = 0;
        lastPc = rec.pc;
    }

    std::uint64_t
    count(CommitState s) const
    {
        std::uint64_t n = 0;
        for (CommitState st : states)
            n += st == s;
        return n;
    }

    std::vector<CommitState> states;
    std::vector<InstIndex> stalledPcs;
    std::vector<InstIndex> flushedPcs;
    std::size_t stalledPending = 0; ///< Stalled cycles since a retire
    InstIndex lastPc = invalidInstIndex; ///< the last retire's
};

/** Run a raw program (no data image) with a tracker attached. */
CoreRun
runTracked(Program prog, StateTracker &tracker,
           CoreConfig cfg = CoreConfig{})
{
    Workload w{std::move(prog), ArchState{}, "timing test"};
    CoreRun run = makeCore(std::move(w), cfg);
    run->addSink(&tracker);
    run->run();
    return run;
}

} // namespace

TEST(CoreTiming, StartupIsDrained)
{
    ProgramBuilder b("t");
    b.nop();
    b.halt();
    StateTracker tr;
    CoreRun run = runTracked(b.build(), tr);
    // Before anything commits, every cycle is Drained (front-end fill).
    ASSERT_GE(tr.states.size(), 2u);
    EXPECT_EQ(tr.states.front(), CommitState::Drained);
    EXPECT_GE(tr.count(CommitState::Drained), 3u); // icache miss + decode
    (void)run;
}

TEST(CoreTiming, IndependentAluOpsCommitAtFullWidth)
{
    // A loop of independent ALU ops: once the I-cache warms, commit
    // proceeds near full width (IPC close to 4).
    ProgramBuilder b("t");
    b.li(x(9), 0);
    b.li(x(10), 400);
    Label top = b.here();
    for (unsigned i = 0; i < 14; ++i)
        b.addi(x(5 + (i % 4)), x(0), 1);
    b.addi(x(9), x(9), 1);
    b.blt(x(9), x(10), top);
    b.halt();
    StateTracker tr;
    CoreRun run = runTracked(b.build(), tr);
    EXPECT_GT(run->stats().ipc(), 3.0);
    // Stalls only during cold start and predictor warmup.
    EXPECT_LT(tr.count(CommitState::Stalled), 30u);
}

TEST(CoreTiming, DependentChainLimitsIpcToOne)
{
    // A serial dependency chain commits at most one per cycle.
    ProgramBuilder b("t");
    b.li(x(5), 1);
    for (unsigned i = 0; i < 63; ++i)
        b.addi(x(5), x(5), 1);
    b.halt();
    StateTracker tr;
    CoreRun run = runTracked(b.build(), tr);
    EXPECT_EQ(run->archState().reg(x(5)), 64u);
    // 64 chain ops: >= 63 cycles from first to last commit.
    EXPECT_GE(run->stats().cycles, 63u);
}

TEST(CoreTiming, UnpipelinedDivStallsAtHead)
{
    ProgramBuilder b("t");
    b.li(x(5), 1000);
    b.li(x(6), 7);
    b.div(x(7), x(5), x(6));
    b.add(x(8), x(7), x(7));
    b.halt();
    StateTracker tr;
    CoreConfig cfg;
    CoreRun run = runTracked(b.build(), tr, cfg);
    // The divide stalls commit for most of its latency.
    EXPECT_GE(tr.count(CommitState::Stalled), cfg.intDivLatency - 4);
    // Stall cycles attribute to the divide instruction (index 2).
    ASSERT_FALSE(tr.stalledPcs.empty());
    unsigned div_stalls = 0;
    for (InstIndex pc : tr.stalledPcs)
        div_stalls += pc == 2;
    EXPECT_GT(div_stalls, cfg.intDivLatency / 2);
}

TEST(CoreTiming, MispredictCausesFlushShadow)
{
    // A data-dependent branch mispredicts on its first execution (the
    // predictor starts weakly not-taken and the branch is taken).
    ProgramBuilder b("t");
    b.li(x(5), 1);
    Label target = b.label();
    b.bne(x(5), x(0), target); // taken, predicted not-taken
    b.addi(x(6), x(6), 1);     // skipped
    b.bind(target);
    b.halt();
    StateTracker tr;
    CoreRun run = runTracked(b.build(), tr);
    EXPECT_EQ(run->stats().branchMispredicts, 1u);
    EXPECT_GE(tr.count(CommitState::Flushed), 1u);
    // Flushed cycles attribute to the mispredicted branch (index 1).
    for (InstIndex pc : tr.flushedPcs)
        EXPECT_EQ(pc, 1u);
}

TEST(CoreTiming, CsrFlushShadowAttributesToCsr)
{
    ProgramBuilder b("t");
    b.li(x(5), 1);
    b.fsflags(); // index 1: always flushes at commit
    b.addi(x(6), x(5), 1);
    b.halt();
    StateTracker tr;
    CoreConfig cfg;
    CoreRun run = runTracked(b.build(), tr, cfg);
    EXPECT_GE(tr.count(CommitState::Flushed), cfg.redirectPenalty - 1);
    for (InstIndex pc : tr.flushedPcs)
        EXPECT_EQ(pc, 1u);
    (void)run;
}

TEST(CoreTiming, StoreToLoadForwardingIsFast)
{
    // A load reading a just-stored value forwards from the store queue:
    // no cache events, and far faster than a cache miss.
    ProgramBuilder b("t");
    b.li(x(5), 0x30000000);
    b.li(x(6), 42);
    b.st(x(5), 0, x(6));
    b.ld(x(7), x(5), 0);
    b.add(x(8), x(7), x(7));
    b.halt();
    StateTracker tr;
    CoreRun run = runTracked(b.build(), tr);
    EXPECT_EQ(run->archState().reg(x(7)), 42u);
    // No ST-L1 event on the load: it forwarded.
    EXPECT_EQ(run->stats()
                  .eventCounts[static_cast<unsigned>(Event::StL1)],
              0u);
    EXPECT_EQ(run->stats().moViolations, 0u);
    // Bounded by pipeline fill + one cold I-cache line, far below a
    // data-cache miss round trip per access.
    EXPECT_LT(run->stats().cycles, 300u);
}

TEST(CoreTiming, ColdLoadStallsForDramLatency)
{
    ProgramBuilder b("t");
    b.li(x(5), 0x40000000);
    b.ld(x(6), x(5), 0);
    b.add(x(7), x(6), x(6));
    b.halt();
    StateTracker tr;
    CoreConfig cfg;
    CoreRun run = runTracked(b.build(), tr, cfg);
    EXPECT_GE(tr.count(CommitState::Stalled), cfg.dramLatency - 10);
    // The stall attributes to the load (index 1).
    unsigned load_stalls = 0;
    for (InstIndex pc : tr.stalledPcs)
        load_stalls += pc == 1;
    EXPECT_GE(load_stalls, cfg.dramLatency / 2);
    (void)run;
}

TEST(CoreTiming, TakenBranchDoesNotFlushWhenPredicted)
{
    // A loop branch becomes predictable: after warmup there are no
    // flush cycles despite thousands of taken branches.
    ProgramBuilder b("t");
    b.li(x(5), 0);
    b.li(x(6), 2000);
    Label top = b.here();
    b.addi(x(5), x(5), 1);
    b.blt(x(5), x(6), top);
    b.halt();
    StateTracker tr;
    CoreRun run = runTracked(b.build(), tr);
    // gshare warms up within ~14 iterations (history saturation), then
    // predicts the loop branch perfectly for the remaining ~1986.
    EXPECT_LT(run->stats().branchMispredicts, 20u);
    EXPECT_LT(tr.count(CommitState::Flushed), 280u);
}

TEST(CoreTiming, FetchStopsAtCacheLineBoundary)
{
    // 16 instructions fill exactly one 64 B line; with an 8-wide fetch
    // the line takes two packets, but a program spanning two lines needs
    // at least one extra fetch cycle for the second line.
    ProgramBuilder b("t");
    for (unsigned i = 0; i < 31; ++i)
        b.addi(x(5 + (i % 4)), x(0), 1);
    b.halt();
    StateTracker tr;
    CoreRun run = runTracked(b.build(), tr);
    EXPECT_TRUE(run->halted());
    EXPECT_EQ(run->stats().committedUops, 32u);
}

TEST(CoreTiming, DecodeLatencyDelaysFirstDispatch)
{
    CoreConfig fast;
    fast.decodeLatency = 1;
    CoreConfig slow;
    slow.decodeLatency = 6;
    ProgramBuilder b1("t");
    b1.halt();
    ProgramBuilder b2("t");
    b2.halt();
    StateTracker t1, t2;
    CoreRun r1 = runTracked(b1.build(), t1, fast);
    CoreRun r2 = runTracked(b2.build(), t2, slow);
    EXPECT_EQ(r2->stats().cycles - r1->stats().cycles, 5u);
}

TEST(CoreTiming, RedirectPenaltyShapesMispredictCost)
{
    auto cycles_with_penalty = [](unsigned penalty) {
        CoreConfig cfg;
        cfg.redirectPenalty = penalty;
        Workload w = workloads::branchNoise(2000, 99);
        CoreRun run = runCore(std::move(w), cfg);
        return run->stats().cycles;
    };
    Cycle cheap = cycles_with_penalty(2);
    Cycle costly = cycles_with_penalty(20);
    EXPECT_GT(costly, cheap + 1000);
}

TEST(CoreTiming, PrefetchInstructionDoesNotStallCommit)
{
    // A software prefetch to uncached memory completes immediately; the
    // following independent work is unaffected.
    ProgramBuilder b("t");
    b.li(x(5), 0x50000000);
    b.prefetch(x(5), 0);
    for (unsigned i = 0; i < 16; ++i)
        b.addi(x(6 + (i % 4)), x(0), 1);
    b.halt();
    StateTracker tr;
    CoreRun run = runTracked(b.build(), tr);
    // Cold I-cache fills dominate; the prefetch itself adds no stall.
    EXPECT_LT(run->stats().cycles, 400u);
    EXPECT_LT(tr.count(CommitState::Stalled), 5u);
    EXPECT_EQ(run->stats()
                  .eventCounts[static_cast<unsigned>(Event::StL1)],
              0u);
}
