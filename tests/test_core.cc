/**
 * @file
 * Pipeline tests: functional correctness against the pure-functional
 * oracle, commit-state accounting, event generation per mechanism, and
 * trace invariants.
 */

#include <gtest/gtest.h>

#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

/** Trace observer asserting structural invariants every cycle. */
class InvariantSink : public TraceSink
{
  public:
    void
    onCycle(const CycleRecord &rec) override
    {
        ++cycles;
        EXPECT_EQ(rec.cycle, cycles - 1);
        if (rec.state == CommitState::Compute) {
            EXPECT_GT(rec.numCommitted, 0u);
        } else {
            EXPECT_EQ(rec.numCommitted, 0u);
        }
        // In-order front end: fetch and dispatch only move forward,
        // dispatch never overtakes fetch, and a uop commits only after
        // it has dispatched.
        EXPECT_GE(rec.nextFetchSeq, nextFetch);
        EXPECT_GE(rec.nextDispatchSeq, nextDispatch);
        EXPECT_LE(rec.nextDispatchSeq, rec.nextFetchSeq);
        for (unsigned i = 0; i < rec.numCommitted; ++i)
            EXPECT_LT(rec.committed[i].seq, rec.nextDispatchSeq);
        // ROB occupancy: the ROB holds [next to commit,
        // nextDispatchSeq), so a Stalled cycle has a head and a Drained
        // or Flushed one an empty ROB. A Flushed cycle follows a commit.
        if (lastRetire != invalidSeqNum) {
            const SeqNum next = lastRetire + 1;
            if (rec.state == CommitState::Stalled) {
                EXPECT_GT(rec.nextDispatchSeq, next);
            }
            if (rec.state == CommitState::Drained ||
                rec.state == CommitState::Flushed) {
                EXPECT_EQ(rec.nextDispatchSeq, next);
            }
            EXPECT_GE(rec.nextDispatchSeq, next);
        } else {
            EXPECT_NE(rec.state, CommitState::Flushed);
        }
        nextFetch = rec.nextFetchSeq;
        nextDispatch = rec.nextDispatchSeq;
    }

    void
    onRetire(const RetireRecord &rec) override
    {
        if (lastRetire != invalidSeqNum) {
            EXPECT_EQ(rec.seq, lastRetire + 1); // in-order commit
        }
        lastRetire = rec.seq;
        ++retired;
    }

    void onEnd(Cycle final_cycle) override { endCycle = final_cycle; }

    Cycle cycles = 0;
    Cycle endCycle = 0;
    std::uint64_t retired = 0;
    SeqNum nextFetch = 0;    ///< last record's nextFetchSeq
    SeqNum nextDispatch = 0; ///< last record's nextDispatchSeq
    SeqNum lastRetire = invalidSeqNum;
};

std::uint64_t
eventCount(const CoreStats &s, Event e)
{
    return s.eventCounts[static_cast<unsigned>(e)];
}

} // namespace

TEST(CorePipeline, AluLoopFunctionalCorrectness)
{
    Workload w = workloads::aluLoop(500);
    ArchState oracle = runFunctional(w.program, w.initial);
    CoreRun run = runCore(std::move(w));
    for (unsigned r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(run->archState().regs[r], oracle.regs[r]) << "reg " << r;
}

TEST(CorePipeline, MemoryWorkloadFunctionalCorrectness)
{
    Workload w = workloads::pointerChase(64, 3, 256);
    ArchState oracle = runFunctional(w.program, w.initial);
    CoreRun run = runCore(std::move(w));
    for (unsigned r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(run->archState().regs[r], oracle.regs[r]) << "reg " << r;
}

TEST(CorePipeline, BranchWorkloadFunctionalCorrectness)
{
    Workload w = workloads::branchNoise(2000);
    ArchState oracle = runFunctional(w.program, w.initial);
    CoreRun run = runCore(std::move(w));
    EXPECT_EQ(run->archState().regs[x(8)], oracle.regs[x(8)]);
}

TEST(CorePipeline, OrderingWorkloadFunctionalCorrectness)
{
    Workload w = workloads::orderingViolator(50);
    ArchState oracle = runFunctional(w.program, w.initial);
    CoreRun run = runCore(std::move(w));
    EXPECT_EQ(run->archState().regs[x(12)], oracle.regs[x(12)]);
}

TEST(CorePipeline, StateCyclesSumToTotal)
{
    CoreRun run = runCore(workloads::branchNoise(3000));
    const CoreStats &s = run->stats();
    Cycle sum = 0;
    for (auto c : s.stateCycles)
        sum += c;
    EXPECT_EQ(sum, s.cycles);
}

TEST(CorePipeline, IpcBoundedByCommitWidth)
{
    CoreConfig cfg;
    CoreRun run = runCore(workloads::aluLoop(5000), cfg);
    EXPECT_LE(run->stats().ipc(), static_cast<double>(cfg.commitWidth));
    EXPECT_GT(run->stats().ipc(), 1.0); // ALU loop should be fast
}

TEST(CorePipeline, Deterministic)
{
    CoreRun a = runCore(workloads::byName("mcf"));
    CoreRun b = runCore(workloads::byName("mcf"));
    EXPECT_EQ(a->stats().cycles, b->stats().cycles);
    EXPECT_EQ(a->stats().committedUops, b->stats().committedUops);
    EXPECT_EQ(a->stats().moViolations, b->stats().moViolations);
}

TEST(CorePipeline, TraceInvariants)
{
    Workload w = workloads::branchNoise(2000);
    CoreRun run = makeCore(std::move(w));
    InvariantSink sink;
    run->addSink(&sink);
    run->run();
    EXPECT_EQ(sink.cycles, run->stats().cycles);
    EXPECT_EQ(sink.endCycle, run->stats().cycles);
    EXPECT_EQ(sink.retired, run->stats().committedUops);
    // No wrong path in the model: every fetched uop retires.
    EXPECT_EQ(sink.nextFetch, sink.retired);
}

TEST(CorePipeline, ChaseLoadGetsCacheEvents)
{
    // 4096 nodes x 4 KiB spacing: misses LLC and D-TLB.
    CoreRun run = runCore(workloads::pointerChase(4096, 2, 4096 + 64));
    const CoreStats &s = run->stats();
    EXPECT_GT(eventCount(s, Event::StL1), 4000u);
    EXPECT_GT(eventCount(s, Event::StLlc), 2000u);
    EXPECT_GT(eventCount(s, Event::StTlb), 2000u);
    // Dependent chase: most time stalled.
    EXPECT_GT(s.stateCycles[static_cast<unsigned>(CommitState::Stalled)],
              s.cycles / 2);
}

TEST(CorePipeline, L1ResidentLoopHasNoMemoryEvents)
{
    CoreRun run = runCore(workloads::aluLoop(3000));
    const CoreStats &s = run->stats();
    EXPECT_EQ(eventCount(s, Event::StLlc), 0u);
    EXPECT_EQ(eventCount(s, Event::DrSq), 0u);
    EXPECT_EQ(eventCount(s, Event::FlMo), 0u);
}

TEST(CorePipeline, StoreBurstDrainsAndSetsDrSq)
{
    // Stores missing the LLC fill the store queue.
    CoreRun run = runCore(workloads::storeBurst(20000, 1));
    const CoreStats &s = run->stats();
    EXPECT_GT(eventCount(s, Event::DrSq), 100u);
    EXPECT_GT(s.stateCycles[static_cast<unsigned>(CommitState::Drained)],
              0u);
    EXPECT_GT(s.drSqStallCycles, 0u);
}

TEST(CorePipeline, CsrOpsFlushAndSetFlEx)
{
    CoreRun flushy = runCore(workloads::flushySqrt(500, true));
    const CoreStats &s = flushy->stats();
    EXPECT_EQ(eventCount(s, Event::FlEx), 1000u); // 2 per iteration
    EXPECT_GT(s.stateCycles[static_cast<unsigned>(CommitState::Flushed)],
              0u);

    CoreRun plain = runCore(workloads::flushySqrt(500, false));
    EXPECT_EQ(eventCount(plain->stats(), Event::FlEx), 0u);
    EXPECT_LT(plain->stats().cycles, s.cycles); // flushes cost time
}

TEST(CorePipeline, MispredictsSetFlMbAndFlush)
{
    CoreRun run = runCore(workloads::branchNoise(4000));
    const CoreStats &s = run->stats();
    // ~50% taken random branch: expect a substantial mispredict count.
    EXPECT_GT(s.branchMispredicts, 800u);
    EXPECT_LT(s.branchMispredicts, 3000u);
    EXPECT_EQ(eventCount(s, Event::FlMb), s.branchMispredicts);
}

TEST(CorePipeline, IcacheWalkDrainsWithDrL1)
{
    CoreRun run = runCore(workloads::icacheWalk(600, 4));
    const CoreStats &s = run->stats();
    EXPECT_GT(eventCount(s, Event::DrL1), 1000u);
    EXPECT_GT(s.stateCycles[static_cast<unsigned>(CommitState::Drained)],
              s.cycles / 4);
}

TEST(CorePipeline, OrderingViolationsDetected)
{
    CoreConfig cfg;
    cfg.storeSetClearInterval = 0; // learn once, keep forever
    CoreRun run = runCore(workloads::orderingViolator(200), cfg);
    const CoreStats &s = run->stats();
    // 8 unrolled sites each violate once, then the store-set predictor
    // issues them conservatively.
    EXPECT_EQ(s.moViolations, 8u);
    EXPECT_EQ(eventCount(s, Event::FlMo), 8u);
}

TEST(CorePipeline, StoreSetAgingReintroducesViolations)
{
    CoreConfig cfg;
    cfg.storeSetClearInterval = 20000;
    CoreRun run = runCore(workloads::orderingViolator(2000), cfg);
    EXPECT_GT(run->stats().moViolations, 8u);
}

TEST(CorePipeline, HaltTerminatesRun)
{
    CoreRun run = runCore(workloads::aluLoop(10));
    EXPECT_TRUE(run->halted());
    EXPECT_LT(run->stats().cycles, 1000u);
}

TEST(CorePipeline, RunIsIdempotentAfterHalt)
{
    CoreRun run = runCore(workloads::aluLoop(10));
    Cycle c = run->cycle();
    run->run(); // no-op: already halted
    EXPECT_EQ(run->cycle(), c);
}

TEST(CorePipeline, PrefetchReducesCycles)
{
    workloads::LbmParams base;
    base.cells = 4096;
    base.sweeps = 1;
    workloads::LbmParams pf = base;
    pf.prefetchDistance = 4;
    CoreRun slow = runCore(workloads::lbm(base));
    CoreRun fast = runCore(workloads::lbm(pf));
    EXPECT_LT(fast->stats().cycles, slow->stats().cycles);
}

TEST(CorePipeline, SmallRobSlowsMemoryWorkload)
{
    CoreConfig big;
    CoreConfig small;
    small.robEntries = 16;
    CoreRun a = runCore(workloads::streamSum(4000, 1), big);
    CoreRun b = runCore(workloads::streamSum(4000, 1), small);
    EXPECT_LT(a->stats().cycles, b->stats().cycles);
}

TEST(CorePipeline, CommitWidthMattersForAluCode)
{
    CoreConfig wide;
    CoreConfig narrow;
    narrow.commitWidth = 1;
    narrow.dispatchWidth = 1;
    narrow.decodeWidth = 1;
    CoreRun a = runCore(workloads::aluLoop(4000), wide);
    CoreRun b = runCore(workloads::aluLoop(4000), narrow);
    EXPECT_LT(a->stats().cycles, b->stats().cycles);
}
