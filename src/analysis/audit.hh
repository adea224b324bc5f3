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
 *  - every commit state is one of the paper's four states and its
 *    side-band fields are consistent with it (Compute iff uops
 *    committed, Stalled implies a valid ROB head, Drained/Flushed
 *    imply an empty ROB snapshot),
 *  - commit, retire, dispatch and fetch sequence numbers are monotone
 *    and respect pipeline order (nothing commits before dispatching,
 *    nothing dispatches before fetching; the ROB head never moves
 *    backwards),
 *  - the retire stream and the per-cycle commit snapshots describe the
 *    same instructions (same seq/pc/PSV, cycle-by-cycle) — the
 *    cross-check that catches a sink being fed a divergent trace,
 *  - every PSV is restricted to the nine architectural events, and
 *  - the end marker agrees with the number of cycles actually
 *    delivered.
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
    void onDispatch(const UopRecord &rec) override;
    void onFetch(const UopRecord &rec) override;
    void onRetire(const RetireRecord &rec) override;
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
    bool checkPsv(const Psv &psv, const char *what, Cycle cycle,
                  SeqNum seq);

    Mode mode_;
    std::vector<std::string> violations_;

    std::uint64_t cycles_ = 0; ///< cycle records delivered
    std::uint64_t events_ = 0; ///< all events delivered

    bool sawCycle_ = false;
    Cycle lastCycle_ = 0;   ///< last cycle record's number
    bool sawEnd_ = false;
    Cycle endCycle_ = 0;

    bool sawCommit_ = false;   ///< lastValid must be monotone
    SeqNum lastCommitSeq_ = 0; ///< youngest committed seq so far
    bool sawHead_ = false;
    SeqNum lastHeadSeq_ = 0; ///< ROB head must be monotone

    bool sawDispatch_ = false;
    SeqNum lastDispatchSeq_ = 0;
    bool sawFetch_ = false;
    SeqNum lastFetchSeq_ = 0;
    bool sawRetire_ = false;
    SeqNum lastRetireSeq_ = 0;

    /** Retires since the previous cycle record, awaiting cross-check. */
    std::vector<RetireRecord> pendingRetires_;
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
