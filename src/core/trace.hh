/**
 * @file
 * Cycle-by-cycle trace interface (the in-process TraceDoctor equivalent).
 *
 * The core publishes, for every simulated cycle, one record of what
 * happened in that cycle: the commit state, the committing micro-ops
 * and their PSVs, and the next micro-ops to dispatch and to fetch.
 * Each commit is recorded once, in its cycle record: observers' retire
 * callbacks are derived from the record's commit slots (deliverCycle
 * below). Nothing that an observer can rebuild from earlier commits is
 * repeated: commit is in order, so a Stalled cycle's ROB head is the
 * next micro-op to retire, and the last-committed instruction a
 * Flushed cycle is charged to is the latest retire. Observers that
 * need the latter keep it as their own register, set in onRetire and
 * cleared in onEnd. The front end emits no per-uop events: dispatch
 * and fetch run in seq order after the record is built, so the
 * record's two front-end seqs name the first micro-op each stage
 * passes from that cycle on. A run of identical idle cycles is
 * published once, as a span (onSpan below), and the end of the program
 * through onEnd. All profiling techniques are TraceSinks and observe
 * the exact same cycles, mirroring the paper's out-of-band methodology
 * (Section 4).
 */

#ifndef TEA_CORE_TRACE_HH
#define TEA_CORE_TRACE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "events/event.hh"

namespace tea {

struct TraceEvent; // core/trace_buffer.hh

/** A micro-op committing in this cycle. */
struct CommittedUop
{
    SeqNum seq = invalidSeqNum;
    InstIndex pc = invalidInstIndex;
    Psv psv;
};

/**
 * Per-cycle commit-stage snapshot.
 *
 * Field order is a cache layout decision, not alphabetical: the scalar
 * fields every consumer reads sit before the 128-byte committed array,
 * so a typical record (0-2 commits) is produced and consumed touching
 * only the record's first cache lines. Keep the array last.
 */
struct CycleRecord
{
    Cycle cycle = 0;
    CommitState state = CommitState::Drained;

    /** Micro-ops committed this cycle (state == Compute). */
    std::uint8_t numCommitted = 0;

    /**
     * Front-end position when the record is built (after this cycle's
     * commits, before its dispatch and fetch): the seq the next fetched
     * micro-op gets, and the seq of the next one to dispatch (the
     * fetch-buffer head, or nextFetchSeq when the buffer is empty).
     * Both never decrease, and nextDispatchSeq <= nextFetchSeq. With
     * n the next seq to commit, the ROB holds [n, nextDispatchSeq):
     * a Stalled record has nextDispatchSeq > n, a Drained or Flushed
     * one nextDispatchSeq == n.
     */
    SeqNum nextFetchSeq = 0;
    SeqNum nextDispatchSeq = 0;

    /** Micro-ops committed this cycle (slots < numCommitted valid). */
    std::array<CommittedUop, 8> committed{};
};

/**
 * A micro-op passing a front-end stage (fetch or dispatch). The trace
 * carries no such events (CycleRecord's front-end seqs replace them).
 * The type and the onDispatch/onFetch hooks below have no caller; they
 * remain only because perfbench's TimedSink (perfbench/harness.cc)
 * overrides them.
 */
struct UopRecord
{
    SeqNum seq = invalidSeqNum;
    InstIndex pc = invalidInstIndex;
    Cycle cycle = 0;
};

/**
 * A micro-op retiring (committing) with its final PSV: one commit slot
 * of a CycleRecord, stamped with the record's cycle.
 */
struct RetireRecord
{
    SeqNum seq = invalidSeqNum;
    InstIndex pc = invalidInstIndex;
    Psv psv;
    Cycle cycle = 0;
};

/** Observer interface for the cycle trace. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per simulated cycle after commit. */
    virtual void onCycle(const CycleRecord &rec) { (void)rec; }

    /**
     * Called for a span: @p n (>= 2) consecutive idle cycles whose
     * records equal @p first except for the cycle stamp, which counts
     * up from first.cycle. Idle means not Compute, so nothing commits
     * and no retire is due; equal front-end seqs mean nothing was
     * fetched or dispatched inside the run. A span stands exactly where
     * its n records would. The default expands it into n onCycle calls
     * with consecutive stamps, so a sink that only overrides onCycle
     * sees the per-cycle stream; observers override it to handle the
     * run in one step, with results bit-identical to that expansion.
     */
    virtual void onSpan(const CycleRecord &first, std::uint32_t n);

    /** Never called: the trace has no per-uop events (UopRecord). */
    virtual void onDispatch(const UopRecord &rec) { (void)rec; }

    /** Never called: the trace has no per-uop events (UopRecord). */
    virtual void onFetch(const UopRecord &rec) { (void)rec; }

    /**
     * Called for every committing micro-op with its final PSV. The
     * trace carries no separate retire events: the calls are derived
     * from each cycle record's commit slots (deliverCycle), in slot
     * order, just before that record's onCycle.
     */
    virtual void onRetire(const RetireRecord &rec) { (void)rec; }

    /** Called once when the simulated program has terminated. */
    virtual void onEnd(Cycle final_cycle) { (void)final_cycle; }

    /**
     * Deliver @p n consecutive captured events (cycle records and
     * spans) in order. The default implementation
     * (core/trace_buffer.cc) fans each event out to the per-kind
     * callbacks above (a Span to onSpan), so sinks observe exactly the
     * stream a record-at-a-time producer would have delivered;
     * bulk-capable sinks (ChunkingSink) override it to append whole
     * ranges and skip the per-record virtual dispatch. Producers
     * batching through this hook must preserve capture order. The end
     * marker is not an event: it arrives through onEnd, after the last
     * batch.
     */
    virtual void onBatch(const TraceEvent *events, std::size_t n);
};

/** Commit slots of @p rec that deliverCycle retires, in slot order. */
inline unsigned
commitSlots(const CycleRecord &rec)
{
    return std::min<unsigned>(rec.numCommitted,
                              static_cast<unsigned>(rec.committed.size()));
}

/**
 * Deliver one cycle record to @p sink: an onRetire for each committed
 * slot, in slot order and stamped with the record's cycle, then
 * onCycle. This is the order the core commits in (the retires of a
 * cycle, then its record), and every delivery path goes through here,
 * so all observers see the same calls. Templated on the sink type so a
 * final sink's calls resolve statically inside its onBatch loop.
 */
template <typename Sink>
void
deliverCycle(Sink &sink, const CycleRecord &rec)
{
    const unsigned n = commitSlots(rec);
    for (unsigned i = 0; i < n; ++i) {
        const CommittedUop &u = rec.committed[i];
        sink.onRetire(RetireRecord{u.seq, u.pc, u.psv, rec.cycle});
    }
    sink.onCycle(rec);
}

} // namespace tea

#endif // TEA_CORE_TRACE_HH
