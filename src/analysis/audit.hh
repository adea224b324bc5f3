/**
 * @file
 * TEA invariant auditor: a TraceSink that re-derives the conservation
 * laws a time-proportional cycle trace must obey and fails loudly —
 * naming the offending cycle and sequence number — when any is broken.
 *
 * A PICS is only trustworthy if every exposed cycle is conserved and
 * every PSV bit is justified; counter-based analyses are notorious for
 * silently drifting away from the microarchitectural truth they claim
 * to report. The auditor is the standing defence: threaded through
 * replay (TEA_AUDIT=1) it verifies, on every chunk, that
 *
 *  - cycle numbers are dense and monotonic (no dropped or duplicated
 *    cycle records),
 *  - every commit state is one of the paper's four states and is
 *    Compute iff uops committed,
 *  - commit sequence numbers are consecutive, and each record's
 *    front-end seqs (nextDispatchSeq, nextFetchSeq) are monotone and
 *    respect pipeline order (every committed seq is below the record's
 *    nextDispatchSeq, and nextDispatchSeq <= nextFetchSeq: nothing
 *    commits before dispatching, nothing dispatches before fetching),
 *  - once anything has committed, the commit state agrees with the ROB
 *    occupancy the front end implies: with n the next seq to commit,
 *    a Stalled record has nextDispatchSeq > n (a ROB head exists) and
 *    a Drained or Flushed one nextDispatchSeq == n (the ROB is empty),
 *  - every PSV is restricted to the nine architectural events,
 *  - every span (an idle run, TraceSink::onSpan) is one a producer may
 *    emit: at least 2 cycles, idle (not Compute, no commits) and not
 *    running past the last cycle; its expanded cycles are then audited
 *    like any others, and
 *  - the end marker agrees with the number of cycles actually
 *    delivered.
 *
 * The trace records each commit once, in its cycle record's commit
 * slots; the retire callbacks observers receive are derived from those
 * slots (deliverCycle, core/trace.hh), so the commit checks above cover
 * them too and there is no second stream to cross-check.
 *
 * Cycle conservation at the PICS level (attributed cycles + dropped
 * tail == simulated cycles, exactly) is verified by a free helper
 * below, which the runner invokes after every audited experiment;
 * auditPicsIdentical is the bit-identity check the differential tests
 * use.
 */

#ifndef TEA_ANALYSIS_AUDIT_HH
#define TEA_ANALYSIS_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/trace.hh"
#include "profilers/pics.hh"

namespace tea {

class GoldenReference;

/** Runtime trace-invariant checker (see file comment). */
class InvariantAuditor : public TraceSink
{
  public:
    enum class Mode
    {
        Collect,  ///< record violations for inspection (tests)
        FailFast, ///< tea_fatal on the first violation (production)
    };

    explicit InvariantAuditor(Mode mode = Mode::FailFast);

    void onCycle(const CycleRecord &rec) override;
    void onSpan(const CycleRecord &first, std::uint32_t n) override;
    void onEnd(Cycle final_cycle) override;

    /**
     * Final checks after the last event (idempotent): an audited trace
     * must have delivered at least one cycle and, if it saw an end
     * marker, nothing after it.
     */
    void finish();

    /** True when no invariant has been violated so far. */
    bool clean() const { return violations_.empty(); }

    /** Human-readable violations, in detection order (Collect mode). */
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    std::uint64_t cyclesAudited() const { return cycles_; }
    std::uint64_t eventsAudited() const { return events_; }

  private:
    void report(const std::string &msg);
    void auditCycle(const CycleRecord &rec);
    bool checkPsv(const Psv &psv, const char *what, Cycle cycle,
                  SeqNum seq);

    Mode mode_;
    std::vector<std::string> violations_;

    std::uint64_t cycles_ = 0; ///< cycles delivered (spans expanded)
    std::uint64_t events_ = 0; ///< all events delivered (a span is one)

    bool sawCycle_ = false;
    Cycle lastCycle_ = 0;   ///< last cycle record's number
    SeqNum lastNextFetchSeq_ = 0;    ///< last record's nextFetchSeq
    SeqNum lastNextDispatchSeq_ = 0; ///< last record's nextDispatchSeq
    bool sawEnd_ = false;
    Cycle endCycle_ = 0;

    bool sawCommit_ = false;   ///< anything committed so far
    SeqNum lastCommitSeq_ = 0; ///< youngest committed seq so far
};

/**
 * Cycle-conservation law (the heart of time-proportionality): the
 * golden reference must attribute *exactly* @p total_cycles cycles —
 * pics().total() plus the unattributable tail pending at program end.
 * @return empty string when conserved, else a diagnostic
 */
std::string auditCycleConservation(const GoldenReference &golden,
                                   std::uint64_t total_cycles);

/**
 * Bit-identity of two Pics (same components, same cycle counts, with
 * no floating-point tolerance): the determinism contract across core
 * modes, suite thread counts and the trace-cache codec.
 * @return empty string when identical, else a diagnostic naming the
 *         first differing (unit, signature) cell
 */
std::string auditPicsIdentical(const Pics &a, const Pics &b);

} // namespace tea

#endif // TEA_ANALYSIS_AUDIT_HH
