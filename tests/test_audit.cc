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

/**
 * A Compute cycle record committing one uop (seq, pc, psv), with
 * nothing fetched or dispatched past it.
 */
CycleRecord
computeCycle(Cycle cycle, SeqNum seq, InstIndex pc, Psv psv = Psv{})
{
    CycleRecord rec;
    rec.cycle = cycle;
    rec.state = CommitState::Compute;
    rec.numCommitted = 1;
    rec.committed[0] = CommittedUop{seq, pc, psv};
    rec.nextFetchSeq = rec.nextDispatchSeq = seq + 1;
    return rec;
}

/**
 * A commit-less cycle record in state @p state at @p cycle, whose next
 * uops to fetch and dispatch are @p fetch and @p dispatch.
 */
CycleRecord
idleCycle(Cycle cycle, CommitState state, SeqNum fetch = 0,
          SeqNum dispatch = 0)
{
    CycleRecord rec;
    rec.cycle = cycle;
    rec.state = state;
    rec.nextFetchSeq = fetch;
    rec.nextDispatchSeq = dispatch;
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
    a.onCycle(computeCycle(0, 1, 5));
    a.onCycle(idleCycle(1, CommitState::Drained, 2, 2));
    a.onEnd(2);
    a.finish();
    EXPECT_TRUE(a.clean()) << a.violations().front();
    EXPECT_EQ(a.cyclesAudited(), 2u);
    EXPECT_EQ(a.eventsAudited(), 3u);
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
    a.onCycle(computeCycle(0, 1, 5, Psv(std::uint16_t{1u << 12})));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"illegal PSV bits", "committed uop",
                                    "seq 1"}))
        << a.violations().front();
}

TEST(Audit, DetectsNonMonotonicCommitSeq)
{
    InvariantAuditor a = collector();
    a.onCycle(computeCycle(0, 5, 1));
    a.onCycle(computeCycle(1, 3, 2));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-monotonic commit seq 3",
                                    "cycle 1", "was 5"}))
        << a.violations().front();
}

TEST(Audit, DetectsCommitSeqGap)
{
    InvariantAuditor a = collector();
    a.onCycle(computeCycle(0, 5, 1));
    a.onCycle(computeCycle(1, 7, 2)); // seq 6 never committed
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"commit seq gap", "seq 7",
                                    "cycle 1", "after seq 5"}))
        << a.violations().front();
}

TEST(Audit, DetectsNonMonotonicDispatchSeq)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained, 9, 8));
    a.onCycle(idleCycle(1, CommitState::Drained, 9, 7));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-monotonic dispatch seq 7",
                                    "cycle 1", "previous 8"}))
        << a.violations().front();
}

TEST(Audit, DetectsNonMonotonicFetchSeq)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained, 9, 8));
    a.onCycle(idleCycle(1, CommitState::Drained, 8, 8));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-monotonic fetch seq 8",
                                    "cycle 1", "previous 9"}))
        << a.violations().front();
}

TEST(Audit, DetectsDispatchAheadOfFetch)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained, 4, 5));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"next dispatch seq 5", "cycle 0",
                                    "ahead of next fetch seq 4"}))
        << a.violations().front();
}

TEST(Audit, DetectsCommitBeforeDispatch)
{
    InvariantAuditor a = collector();
    // Seq 2 commits while the front end has dispatched only seq 1.
    CycleRecord rec = computeCycle(0, 2, 6);
    rec.nextDispatchSeq = 2;
    a.onCycle(rec);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"seq 2", "cycle 0",
                                    "never dispatched"}))
        << a.violations().front();
}

TEST(Audit, DetectsStalledWithoutHead)
{
    // After seq 5 commits, dispatch is at seq 6, the next to commit:
    // the ROB is empty, so nothing can stall at its head.
    InvariantAuditor a = collector();
    a.onCycle(computeCycle(0, 5, 1));
    a.onCycle(idleCycle(1, CommitState::Stalled, 6, 6));
    ASSERT_EQ(a.violations().size(), 1u);
    EXPECT_TRUE(violationNaming(a, {"Stalled cycle 1", "without a ROB head",
                                    "next dispatch seq 6",
                                    "next seq to commit 6"}))
        << a.violations().front();
}

TEST(Audit, DetectsBackwardsRobHead)
{
    // After seq 5 commits, seqs 6-8 have dispatched and not committed:
    // the ROB holds them, so the cycle cannot be Drained or Flushed.
    // Before any commit the next seq to commit is unknown: no check.
    for (CommitState state : {CommitState::Drained, CommitState::Flushed}) {
        SCOPED_TRACE(commitStateName(state));
        InvariantAuditor a = collector();
        a.onCycle(idleCycle(0, state, 9, 9));
        EXPECT_TRUE(a.clean()) << a.violations().front();
        CycleRecord busy = computeCycle(1, 5, 1);
        busy.nextFetchSeq = busy.nextDispatchSeq = 9;
        a.onCycle(busy);
        a.onCycle(idleCycle(2, state, 9, 9));
        ASSERT_EQ(a.violations().size(), 1u);
        EXPECT_TRUE(violationNaming(a, {commitStateName(state),
                                        "cycle 2", "non-empty ROB",
                                        "next dispatch seq 9",
                                        "next seq to commit 6"}))
            << a.violations().front();
    }
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

TEST(Audit, CleanSpanAuditsItsExpandedCycles)
{
    InvariantAuditor a = collector();
    a.onCycle(computeCycle(0, 1, 5));
    a.onSpan(idleCycle(1, CommitState::Stalled, 3, 3), 40);
    a.onCycle(computeCycle(41, 2, 6));
    a.onEnd(42);
    a.finish();
    EXPECT_TRUE(a.clean()) << a.violations().front();
    EXPECT_EQ(a.cyclesAudited(), 42u); // the span's 40 cycles count
    EXPECT_EQ(a.eventsAudited(), 4u);  // the span is one event
}

TEST(Audit, DetectsSpanCoveringFewerThanTwoCycles)
{
    for (std::uint32_t n : {0u, 1u}) {
        SCOPED_TRACE(n);
        InvariantAuditor a = collector();
        a.onSpan(idleCycle(0, CommitState::Drained), n);
        ASSERT_FALSE(a.clean());
        EXPECT_TRUE(violationNaming(
            a, {"span at cycle 0", "covers " + std::to_string(n)}));
    }
}

TEST(Audit, DetectsComputeOrCommittingSpan)
{
    InvariantAuditor a = collector();
    a.onSpan(idleCycle(0, CommitState::Compute), 2);
    EXPECT_TRUE(violationNaming(a, {"span at cycle 0", "Compute",
                                    "idle cycles only"}));

    InvariantAuditor b = collector();
    CycleRecord busy = idleCycle(0, CommitState::Drained);
    busy.numCommitted = 1;
    busy.committed[0] = CommittedUop{1, 5, Psv{}};
    b.onSpan(busy, 2);
    EXPECT_TRUE(violationNaming(b, {"span at cycle 0", "Drained",
                                    "1 committed"}));
}

TEST(Audit, DetectsSpanRunningPastTheLastCycle)
{
    InvariantAuditor a = collector();
    a.onSpan(idleCycle(~Cycle{0} - 1, CommitState::Drained), 3);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"runs past the last cycle"}));
}

TEST(Audit, DetectsGapAfterSpan)
{
    // The density check runs across span boundaries: a span covering
    // [1, 11) must be followed by cycle 11.
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained));
    a.onSpan(idleCycle(1, CommitState::Drained), 10);
    a.onCycle(idleCycle(12, CommitState::Drained));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-contiguous", "cycle 12",
                                    "cycle 10"}));
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
