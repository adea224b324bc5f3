/**
 * @file
 * The golden reference (Section 4): time-proportional PICS computed from
 * every cycle of the trace. Unimplementable in real hardware (it would
 * require streaming PSVs for every dynamic instruction) but exact, and
 * therefore the baseline every sampling technique is scored against.
 *
 * A Flushed cycle is charged to the last-committed instruction. The
 * cycle record does not carry it: the reference keeps TEA's
 * last-committed register itself, set by every retire and cleared at
 * the end of each trace.
 *
 * It additionally records per-static-instruction event counts (for the
 * Fig 7 event-count-vs-impact correlation) and the distribution of
 * per-dynamic-instruction stall/drain attributions keyed by signature
 * (for the event-coverage claim: 99% of stalls of event-free
 * instructions are short).
 */

#ifndef TEA_PROFILERS_GOLDEN_HH
#define TEA_PROFILERS_GOLDEN_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "core/trace.hh"
#include "profilers/pics.hh"

namespace tea {

/**
 * Exact, non-sampling time-proportional PICS collector.
 *
 * It sees every committed uop of the trace, so its tables are flat and
 * indexed by static instruction (InstIndex is dense) rather than hashed:
 * a per-PC chain of (signature, cycles) cells in one pool, a per-PC row
 * of event counts, and one stall histogram slot per signature. The
 * Pics, with its hashed index, is built once, at onEnd.
 *
 * `final` matters for speed, not just hygiene: the batched replay path
 * (replayChunk, core/trace_buffer) delivers whole chunks through
 * onBatch, whose per-kind dispatch below devirtualizes into direct
 * calls only when the compiler can prove no subclass overrides them.
 */
class GoldenReference final : public TraceSink
{
  public:
    /** Event occurrence counts of one static instruction. */
    using EventCounts = std::array<std::uint64_t, numEvents>;

    /** One signature per subset of the nine events. */
    static constexpr std::size_t numSignatures = std::size_t{1}
                                                 << numEvents;

    /**
     * Stall histograms indexed by signature bits, null where no
     * instruction retired with the signature (a slot is a pointer, so an
     * empty table costs 4 KiB, not 512 histograms).
     */
    using StallHistograms =
        std::array<std::unique_ptr<Histogram>, numSignatures>;

    GoldenReference() = default;

    void onCycle(const CycleRecord &rec) override;
    void onSpan(const CycleRecord &first, std::uint32_t n) override;
    void onRetire(const RetireRecord &rec) override;
    void onEnd(Cycle final_cycle) override;
    void onBatch(const TraceEvent *events, std::size_t n) override;

    /**
     * The exact instruction-granularity PICS, complete once the trace's
     * End has been delivered (empty before).
     */
    const Pics &pics() const { return pics_; }

    /**
     * Pre-size the tables for a program with @p static_insts static
     * instructions (the golden reference touches nearly every one,
     * several signatures each). Without it, or for a pc past it, the
     * tables grow on first touch.
     */
    void reserveCells(std::size_t static_insts);

    /**
     * Dynamic occurrence count of each event, indexed by static
     * instruction. A row of zeros is an instruction that never retired
     * with that event; rows end at the highest pc seen or reserved.
     */
    const std::vector<EventCounts> &eventCounts() const
    {
        return eventCounts_;
    }

    /**
     * Distribution of stall/drain cycles attributed to single dynamic
     * instruction executions, indexed by the instruction's signature
     * bits. A signature no instruction retired with has no histogram.
     */
    const StallHistograms &stallHistograms() const { return stallHist_; }

    /** Cycles that were pending at program end (unattributable tail). */
    double droppedCycles() const { return dropped_; }

  private:
    /** Chain terminator and empty-head marker of the cell pool. */
    static constexpr std::uint32_t noCell = ~std::uint32_t{0};

    /**
     * The bodies of onRetire and onCycle. onBatch runs them inline, and
     * the two callbacks are thin wrappers over them, so both paths
     * share one implementation.
     */
    void retire(InstIndex pc, Psv psv);
    void chargeCycle(const CycleRecord &rec);

    void add(InstIndex pc, Psv psv, double cycles);
    std::uint32_t findOrAddCell(InstIndex pc, std::uint16_t sig);
    std::uint32_t addCell(InstIndex pc, std::uint16_t sig);
    void growTo(InstIndex pc);
    Histogram &newStallHistogram(std::uint16_t sig);

    /**
     * The cell pool: one (pc, signature, cycles) component per cell, in
     * first-touch order, so onEnd can hand it to Pics::fromCells as is.
     * nextCell_[i] links cell i to the next cell of the same pc.
     */
    std::vector<PicsComponent> cells_;
    std::vector<std::uint32_t> nextCell_;
    std::vector<std::uint32_t> firstCell_; ///< per pc: chain head
    double total_ = 0.0; ///< running total, in add() order

    /**
     * One-entry memo for add(): replay delivers long runs of cycles
     * attributed to the same (pc, signature) — a stalled instruction,
     * a tight loop. The key is (pc << 16) | signature, so bit 63 is
     * never set on a real one; a cell index (not a pointer) stays
     * valid as the pool grows.
     */
    static constexpr std::uint64_t noKey = ~std::uint64_t{0};
    std::uint64_t memoKey_ = noKey;
    std::uint32_t memoCell_ = noCell;

    Pics pics_;
    double pendingCycles_ = 0.0; ///< stalled/drained cycles to attribute

    /**
     * The last-committed register: the latest retire of this trace,
     * which Flushed cycles are charged to. Set in onRetire and cleared
     * in onEnd, so a further trace starts without one.
     */
    bool lastValid_ = false;
    InstIndex lastPc_ = 0;
    Psv lastPsv_;

    double dropped_ = 0.0;
    std::vector<EventCounts> eventCounts_;
    StallHistograms stallHist_;
};

} // namespace tea

#endif // TEA_PROFILERS_GOLDEN_HH
