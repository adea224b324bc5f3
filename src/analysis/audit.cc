#include "analysis/audit.hh"

#include <cmath>

#include "common/logging.hh"
#include "profilers/golden.hh"

namespace tea {

namespace {

/** Collected-violation cap: keep pathological traces bounded. */
constexpr std::size_t maxCollected = 1024;

} // namespace

InvariantAuditor::InvariantAuditor(Mode mode) : mode_(mode) {}

void
InvariantAuditor::report(const std::string &msg)
{
    if (mode_ == Mode::FailFast)
        tea_fatal("TEA audit: %s", msg.c_str());
    if (violations_.size() < maxCollected)
        violations_.push_back(msg);
}

bool
InvariantAuditor::checkPsv(const Psv &psv, const char *what, Cycle cycle,
                           SeqNum seq)
{
    if ((psv.bits() >> numEvents) == 0)
        return true;
    report(strprintf("illegal PSV bits 0x%x on %s (cycle %llu, seq "
                     "%llu): beyond the %u architectural events",
                     psv.bits(), what,
                     static_cast<unsigned long long>(cycle),
                     static_cast<unsigned long long>(seq), numEvents));
    return false;
}

void
InvariantAuditor::onCycle(const CycleRecord &rec)
{
    ++events_;
    auditCycle(rec);
}

void
InvariantAuditor::onSpan(const CycleRecord &first, std::uint32_t n)
{
    ++events_;
    const auto at = static_cast<unsigned long long>(first.cycle);
    if (n < 2) {
        report(strprintf("span at cycle %llu covers %u cycle(s): a span "
                         "covers at least 2",
                         at, n));
    }
    if (first.state == CommitState::Compute || first.numCommitted != 0) {
        report(strprintf("span at cycle %llu is in state %s with %u "
                         "committed uops: a span covers idle cycles only",
                         at, commitStateName(first.state),
                         first.numCommitted));
    }
    if (first.cycle + n < first.cycle) {
        report(strprintf("span at cycle %llu of %u cycles runs past the "
                         "last cycle",
                         at, n));
        return;
    }
    CycleRecord rec = first;
    for (std::uint32_t i = 0; i < n; ++i) {
        rec.cycle = first.cycle + i;
        auditCycle(rec);
    }
}

void
InvariantAuditor::auditCycle(const CycleRecord &rec)
{
    ++cycles_;
    if (sawEnd_) {
        report(strprintf("cycle record %llu after the end marker "
                         "(end cycle %llu)",
                         static_cast<unsigned long long>(rec.cycle),
                         static_cast<unsigned long long>(endCycle_)));
    }

    // Dense, monotone cycle numbering: a dropped or duplicated cycle
    // record would silently re-weight every later attribution.
    if (sawCycle_ && rec.cycle != lastCycle_ + 1) {
        report(strprintf("non-contiguous cycle records: cycle %llu "
                         "follows cycle %llu (dropped or duplicated "
                         "cycle)",
                         static_cast<unsigned long long>(rec.cycle),
                         static_cast<unsigned long long>(lastCycle_)));
    }

    const unsigned state = static_cast<unsigned>(rec.state);
    if (state > static_cast<unsigned>(CommitState::Flushed)) {
        report(strprintf("illegal commit state %u at cycle %llu: not "
                         "one of the four paper states",
                         state,
                         static_cast<unsigned long long>(rec.cycle)));
    }

    if (rec.numCommitted > rec.committed.size()) {
        report(strprintf("commit count %u at cycle %llu overflows the "
                         "%zu-slot commit snapshot",
                         rec.numCommitted,
                         static_cast<unsigned long long>(rec.cycle),
                         rec.committed.size()));
    }

    // State / side-band consistency (Section 2's state machine).
    const bool compute = rec.state == CommitState::Compute;
    if (compute != (rec.numCommitted > 0)) {
        report(strprintf("state %s at cycle %llu with %u committed "
                         "uops",
                         commitStateName(rec.state),
                         static_cast<unsigned long long>(rec.cycle),
                         rec.numCommitted));
    }
    // Front-end seqs: each stage passes uops once, in seq order, and
    // dispatch never overtakes fetch.
    const auto at = static_cast<unsigned long long>(rec.cycle);
    if (rec.nextDispatchSeq > rec.nextFetchSeq) {
        report(strprintf("next dispatch seq %llu at cycle %llu is ahead "
                         "of next fetch seq %llu (dispatch before "
                         "fetch)",
                         static_cast<unsigned long long>(
                             rec.nextDispatchSeq),
                         at,
                         static_cast<unsigned long long>(
                             rec.nextFetchSeq)));
    }
    if (sawCycle_ && rec.nextDispatchSeq < lastNextDispatchSeq_) {
        report(strprintf("non-monotonic dispatch seq %llu at cycle %llu "
                         "(previous %llu)",
                         static_cast<unsigned long long>(
                             rec.nextDispatchSeq),
                         at,
                         static_cast<unsigned long long>(
                             lastNextDispatchSeq_)));
    }
    if (sawCycle_ && rec.nextFetchSeq < lastNextFetchSeq_) {
        report(strprintf("non-monotonic fetch seq %llu at cycle %llu "
                         "(previous %llu)",
                         static_cast<unsigned long long>(
                             rec.nextFetchSeq),
                         at,
                         static_cast<unsigned long long>(
                             lastNextFetchSeq_)));
    }
    lastNextDispatchSeq_ = rec.nextDispatchSeq;
    lastNextFetchSeq_ = rec.nextFetchSeq;

    // Committed uops: monotone seqs, each dispatched before it commits.
    const unsigned committed =
        std::min<unsigned>(rec.numCommitted,
                           static_cast<unsigned>(rec.committed.size()));
    for (unsigned i = 0; i < committed; ++i) {
        const CommittedUop &u = rec.committed[i];
        if (u.seq == invalidSeqNum || u.pc == invalidInstIndex) {
            report(strprintf("committed slot %u of cycle %llu is "
                             "uninitialized (seq %llu, pc %u)",
                             i,
                             static_cast<unsigned long long>(rec.cycle),
                             static_cast<unsigned long long>(u.seq),
                             u.pc));
            continue;
        }
        if (sawCommit_ && u.seq <= lastCommitSeq_) {
            report(strprintf("non-monotonic commit seq %llu at cycle "
                             "%llu (youngest committed was %llu)",
                             static_cast<unsigned long long>(u.seq),
                             static_cast<unsigned long long>(rec.cycle),
                             static_cast<unsigned long long>(
                                 lastCommitSeq_)));
        } else if (sawCommit_ && u.seq != lastCommitSeq_ + 1) {
            report(strprintf("commit seq gap: seq %llu commits at cycle "
                             "%llu after seq %llu",
                             static_cast<unsigned long long>(u.seq),
                             static_cast<unsigned long long>(rec.cycle),
                             static_cast<unsigned long long>(
                                 lastCommitSeq_)));
        }
        if (u.seq >= rec.nextDispatchSeq) {
            report(strprintf("seq %llu commits at cycle %llu but never "
                             "dispatched (next dispatch %llu)",
                             static_cast<unsigned long long>(u.seq),
                             static_cast<unsigned long long>(rec.cycle),
                             static_cast<unsigned long long>(
                                 rec.nextDispatchSeq)));
        }
        checkPsv(u.psv, "committed uop", rec.cycle, u.seq);
        lastCommitSeq_ = u.seq;
        sawCommit_ = true;
    }

    // ROB occupancy: the ROB holds every dispatched, uncommitted uop,
    // the seqs from the next to commit up to nextDispatchSeq. So a
    // Stalled cycle has a head (dispatch is past the next commit), and
    // a Drained or Flushed one an empty ROB (dispatch is at it). For a
    // Compute cycle this is the never-dispatched check above. Before
    // the first commit the next seq to commit is unknown.
    if (sawCommit_ && committed == 0) {
        const SeqNum next = lastCommitSeq_ + 1;
        const bool stalled = rec.state == CommitState::Stalled;
        const bool empty = rec.state == CommitState::Drained ||
                           rec.state == CommitState::Flushed;
        if (stalled && rec.nextDispatchSeq <= next) {
            report(strprintf("Stalled cycle %llu without a ROB head: "
                             "next dispatch seq %llu, next seq to "
                             "commit %llu",
                             at,
                             static_cast<unsigned long long>(
                                 rec.nextDispatchSeq),
                             static_cast<unsigned long long>(next)));
        }
        if (empty && rec.nextDispatchSeq != next) {
            report(strprintf("%s cycle %llu with a non-empty ROB: next "
                             "dispatch seq %llu, next seq to commit %llu",
                             commitStateName(rec.state), at,
                             static_cast<unsigned long long>(
                                 rec.nextDispatchSeq),
                             static_cast<unsigned long long>(next)));
        }
    }

    lastCycle_ = rec.cycle;
    sawCycle_ = true;
}

void
InvariantAuditor::onEnd(Cycle final_cycle)
{
    ++events_;
    if (sawEnd_) {
        report(strprintf("duplicate end marker (cycle %llu after "
                         "cycle %llu)",
                         static_cast<unsigned long long>(final_cycle),
                         static_cast<unsigned long long>(endCycle_)));
        return;
    }
    // The end marker carries the total cycle count: one past the last
    // cycle record (records are 0-based and dense).
    if (sawCycle_ && final_cycle != lastCycle_ + 1) {
        report(strprintf("end marker cycle %llu disagrees with the "
                         "%llu cycle records delivered (last cycle "
                         "%llu)",
                         static_cast<unsigned long long>(final_cycle),
                         static_cast<unsigned long long>(cycles_),
                         static_cast<unsigned long long>(lastCycle_)));
    }
    endCycle_ = final_cycle;
    sawEnd_ = true;
}

void
InvariantAuditor::finish()
{
    if (events_ > 0 && !sawCycle_) {
        report(strprintf("audited trace delivered %llu events but no "
                         "cycle record",
                         static_cast<unsigned long long>(events_)));
    }
}

std::string
auditCycleConservation(const GoldenReference &golden,
                       std::uint64_t total_cycles)
{
    const double attributed =
        golden.pics().total() + golden.droppedCycles();
    const double want = static_cast<double>(total_cycles);
    // Attribution splits each Compute cycle 1/n across n committing
    // uops, so exact conservation holds in exact arithmetic; 0.5 cycles
    // of float headroom is orders of magnitude above the accumulated
    // rounding while still catching any whole dropped/duplicated cycle.
    if (std::abs(attributed - want) <= 0.5)
        return std::string();
    return strprintf("cycle conservation violated: %.6f cycles "
                     "attributed (%.6f in the PICS + %.6f dropped "
                     "tail) vs %llu simulated",
                     attributed, golden.pics().total(),
                     golden.droppedCycles(),
                     static_cast<unsigned long long>(total_cycles));
}

std::string
auditPicsIdentical(const Pics &a, const Pics &b)
{
    if (a.size() != b.size()) {
        return strprintf("Pics differ: %zu vs %zu (unit, signature) "
                         "components",
                         a.size(), b.size());
    }
    if (a.total() != b.total()) {
        return strprintf("Pics totals differ bitwise: %.17g vs %.17g",
                         a.total(), b.total());
    }
    for (const PicsComponent &c : a.components()) {
        const double other = b.cycles(c.unit, c.signature);
        if (c.cycles != other) {
            return strprintf("Pics cell (unit %u, signature 0x%x) "
                             "differs bitwise: %.17g vs %.17g",
                             c.unit, c.signature, c.cycles, other);
        }
    }
    return std::string();
}

} // namespace tea
