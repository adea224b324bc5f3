/**
 * @file
 * Tests for the TEA invariant auditor (analysis/audit): a clean trace —
 * live or replayed — must audit clean, and every seeded violation must
 * be detected with a diagnostic naming the offending cycle or sequence
 * number.
 */

#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "analysis/audit.hh"
#include "analysis/parallel_runner.hh"
#include "analysis/runner.hh"
#include "profilers/golden.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

/** An auditor that records instead of aborting. */
InvariantAuditor
collector()
{
    return InvariantAuditor(InvariantAuditor::Mode::Collect);
}

/** Fetch+dispatch+retire+cycle for one uop committing at @p cycle. */
void
emitComputeCycle(InvariantAuditor &a, Cycle cycle, SeqNum seq,
                 InstIndex pc)
{
    a.onFetch(UopRecord{seq, pc, cycle});
    a.onDispatch(UopRecord{seq, pc, cycle});
    a.onRetire(RetireRecord{seq, pc, Psv{}, cycle});
    CycleRecord rec;
    rec.cycle = cycle;
    rec.state = CommitState::Compute;
    rec.numCommitted = 1;
    rec.committed[0] = CommittedUop{seq, pc, Psv{}};
    rec.lastValid = true;
    rec.lastPc = pc;
    rec.lastPsv = Psv{};
    a.onCycle(rec);
}

/** A commit-less cycle record in state @p state at @p cycle. */
CycleRecord
idleCycle(Cycle cycle, CommitState state)
{
    CycleRecord rec;
    rec.cycle = cycle;
    rec.state = state;
    return rec;
}

/** True when some violation mentions every @p needles substring. */
bool
violationNaming(const InvariantAuditor &a,
                const std::vector<std::string> &needles)
{
    for (const std::string &v : a.violations()) {
        bool all = true;
        for (const std::string &n : needles) {
            if (v.find(n) == std::string::npos) {
                all = false;
                break;
            }
        }
        if (all)
            return true;
    }
    return false;
}

} // namespace

TEST(Audit, CleanSyntheticTracePasses)
{
    InvariantAuditor a = collector();
    emitComputeCycle(a, 0, 1, 5);
    CycleRecord drained = idleCycle(1, CommitState::Drained);
    drained.lastValid = true;
    drained.lastPc = 5;
    a.onCycle(drained);
    a.onEnd(2);
    a.finish();
    EXPECT_TRUE(a.clean()) << a.violations().front();
    EXPECT_EQ(a.cyclesAudited(), 2u);
    EXPECT_EQ(a.eventsAudited(), 6u);
}

TEST(Audit, DetectsDroppedCycle)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained));
    a.onCycle(idleCycle(2, CommitState::Drained)); // cycle 1 dropped
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-contiguous", "cycle 2",
                                    "cycle 0"}))
        << a.violations().front();
}

TEST(Audit, DetectsDuplicatedCycle)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained));
    a.onCycle(idleCycle(0, CommitState::Drained));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-contiguous", "cycle 0"}));
}

TEST(Audit, DetectsIllegalCommitState)
{
    InvariantAuditor a = collector();
    CycleRecord rec = idleCycle(0, static_cast<CommitState>(9));
    a.onCycle(rec);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"illegal commit state 9",
                                    "cycle 0"}));
}

TEST(Audit, DetectsIllegalPsvBit)
{
    InvariantAuditor a = collector();
    // Bit 12 is beyond the paper's nine architectural events.
    a.onRetire(RetireRecord{1, 5, Psv(std::uint16_t{1u << 12}), 0});
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"illegal PSV bits", "seq 1"}))
        << a.violations().front();
}

TEST(Audit, DetectsNonMonotonicRetireSeq)
{
    InvariantAuditor a = collector();
    a.onRetire(RetireRecord{5, 1, Psv{}, 0});
    a.onRetire(RetireRecord{3, 2, Psv{}, 0});
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-monotonic retire seq 3",
                                    "previous 5"}));
}

TEST(Audit, DetectsNonMonotonicDispatchSeq)
{
    InvariantAuditor a = collector();
    a.onDispatch(UopRecord{7, 1, 0});
    a.onDispatch(UopRecord{7, 1, 0});
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-monotonic dispatch seq 7"}));
}

TEST(Audit, DetectsCommitBeforeDispatch)
{
    InvariantAuditor a = collector();
    a.onFetch(UopRecord{1, 5, 0});
    a.onDispatch(UopRecord{1, 5, 0});
    // Seq 2 retires without ever dispatching.
    a.onRetire(RetireRecord{2, 6, Psv{}, 0});
    CycleRecord rec;
    rec.cycle = 0;
    rec.state = CommitState::Compute;
    rec.numCommitted = 1;
    rec.committed[0] = CommittedUop{2, 6, Psv{}};
    rec.lastValid = true;
    rec.lastPc = 6;
    a.onCycle(rec);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"seq 2", "never dispatched"}));
}

TEST(Audit, DetectsRetireCommitMismatch)
{
    InvariantAuditor a = collector();
    // A Compute cycle claims one committed uop, but no retire event was
    // delivered for it: the streams diverged.
    CycleRecord rec;
    rec.cycle = 0;
    rec.state = CommitState::Compute;
    rec.numCommitted = 1;
    rec.committed[0] = CommittedUop{1, 5, Psv{}};
    rec.lastValid = true;
    rec.lastPc = 5;
    a.onCycle(rec);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"cycle 0", "committed 1 uops",
                                    "0 retire events"}));
}

TEST(Audit, DetectsStalledWithoutHead)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Stalled));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"Stalled cycle 0",
                                    "valid ROB head"}));
}

TEST(Audit, DetectsBackwardsRobHead)
{
    InvariantAuditor a = collector();
    CycleRecord s0 = idleCycle(0, CommitState::Stalled);
    s0.headValid = true;
    s0.headSeq = 10;
    s0.headPc = 1;
    a.onCycle(s0);
    CycleRecord s1 = idleCycle(1, CommitState::Stalled);
    s1.headValid = true;
    s1.headSeq = 7; // older than the previous head
    s1.headPc = 1;
    a.onCycle(s1);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"ROB head moved backwards",
                                    "cycle 1", "seq 7", "seq 10"}));
}

TEST(Audit, DetectsEndMarkerDisagreement)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained));
    a.onEnd(5); // one cycle record delivered, so the end must carry 1
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"end marker cycle 5"}));
}

TEST(Audit, DetectsEventsAfterEnd)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained));
    a.onEnd(1);
    a.onCycle(idleCycle(1, CommitState::Drained));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"after the end marker"}));
}

TEST(Audit, CleanOnLiveCoreTrace)
{
    // The real core must satisfy every invariant the auditor enforces —
    // on a workload exercising stalls, flushes and multi-commit cycles.
    InvariantAuditor a = collector();
    CoreRun run = makeCore(workloads::branchNoise(2000));
    run->addSink(&a);
    run->run();
    a.finish();
    EXPECT_TRUE(a.clean()) << a.violations().front();
    EXPECT_EQ(a.cyclesAudited(), run->stats().cycles);
}

TEST(Audit, GoldenConservesCyclesOnLiveTrace)
{
    GoldenReference golden;
    CoreRun run = makeCore(workloads::pointerChase(64, 50, 4096));
    run->addSink(&golden);
    run->run();
    EXPECT_EQ(auditCycleConservation(golden, run->stats().cycles),
              std::string());
    // And the helper reports a broken law with the cycle arithmetic.
    std::string diag =
        auditCycleConservation(golden, run->stats().cycles + 3);
    EXPECT_NE(diag.find("cycle conservation violated"),
              std::string::npos)
        << diag;
}

TEST(Audit, PicsIdentityHelper)
{
    CoreRun a = runCore(workloads::aluLoop(500));
    GoldenReference ga;
    {
        CoreRun run = makeCore(workloads::aluLoop(500));
        run->addSink(&ga);
        run->run();
    }
    GoldenReference gb;
    {
        CoreRun run = makeCore(workloads::streamSum(64, 10));
        run->addSink(&gb);
        run->run();
    }
    EXPECT_EQ(auditPicsIdentical(ga.pics(), ga.pics()), std::string());
    std::string diag = auditPicsIdentical(ga.pics(), gb.pics());
    EXPECT_FALSE(diag.empty());
}

TEST(Audit, AuditedRunnerPassesSerial)
{
    RunnerOptions opts;
    opts.audit = 1; // FailFast: a violation aborts the test binary
    for (Workload w : {workloads::branchNoise(2000), workloads::mcf()}) {
        SCOPED_TRACE(w.program.name());
        ExperimentResult res =
            runWorkload(std::move(w), standardTechniques(), opts);
        EXPECT_GT(res.stats.cycles, 0u);
        ASSERT_NE(res.golden, nullptr);
        EXPECT_EQ(auditCycleConservation(*res.golden, res.stats.cycles),
                  std::string());
    }
}

TEST(Audit, AuditedRunnerPassesParallel)
{
    // Audited experiments in flight together: each worker runs its own
    // auditor over its own experiment's trace.
    RunnerOptions opts;
    opts.threads = 3;
    opts.audit = 1;
    const std::vector<std::string> names{"xz", "nab", "cam4"};
    std::vector<ExperimentResult> results =
        runBenchmarkSuite(names, standardTechniques(), opts);
    ASSERT_EQ(results.size(), names.size());
    for (const ExperimentResult &res : results) {
        SCOPED_TRACE(res.name);
        EXPECT_EQ(res.error, std::string());
        EXPECT_GT(res.stats.cycles, 0u);
        ASSERT_NE(res.golden, nullptr);
        EXPECT_EQ(auditCycleConservation(*res.golden, res.stats.cycles),
                  std::string());
    }
}
