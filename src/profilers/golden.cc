#include "profilers/golden.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/logging.hh"
#include "core/trace_buffer.hh"

namespace tea {

namespace {
/** Upper bin of the per-instance stall histograms (cycles). */
constexpr std::uint64_t stallHistMax = 512;

/**
 * Largest static-instruction table the golden reference grows to. Far
 * past any program here; a pc beyond it can only come from a damaged
 * trace, and the dense tables must not balloon to gigabytes for it.
 */
constexpr std::size_t maxStaticInsts = std::size_t{1} << 24;
} // namespace

void
GoldenReference::reserveCells(std::size_t static_insts)
{
    // Several signatures per instruction: four cells each.
    cells_.reserve(4 * static_insts);
    nextCell_.reserve(4 * static_insts);
    if (static_insts > firstCell_.size()) {
        firstCell_.resize(static_insts, noCell);
        eventCounts_.resize(static_insts);
    }
}

void
GoldenReference::growTo(InstIndex pc)
{
    if (pc >= maxStaticInsts) {
        throw std::length_error(strprintf(
            "golden reference: pc %u is past the %zu-instruction table "
            "limit (damaged trace?)",
            pc, maxStaticInsts));
    }
    const std::size_t size = std::min(
        maxStaticInsts,
        std::max(std::size_t{pc} + 1, 2 * firstCell_.size()));
    firstCell_.resize(size, noCell);
    eventCounts_.resize(size);
}

// Out of line, unlike the probe below: it runs once per cell, not once
// per add, so the inlined batch loop does not carry it.
// tea_lint: hot
std::uint32_t
GoldenReference::addCell(InstIndex pc, std::uint16_t sig)
{
    const auto i = static_cast<std::uint32_t>(cells_.size());
    cells_.push_back(PicsComponent{pc, sig, 0.0});
    nextCell_.push_back(firstCell_[pc]);
    firstCell_[pc] = i;
    return i;
}

// tea_lint: hot
inline std::uint32_t
GoldenReference::findOrAddCell(InstIndex pc, std::uint16_t sig)
{
    if (pc >= firstCell_.size())
        growTo(pc);
    for (std::uint32_t i = firstCell_[pc]; i != noCell; i = nextCell_[i]) {
        if (cells_[i].signature == sig)
            return i;
    }
    return addCell(pc, sig);
}

// tea_lint: hot
inline void
GoldenReference::add(InstIndex pc, Psv psv, double cycles)
{
    if (cycles <= 0.0)
        return;
    const std::uint64_t key =
        (static_cast<std::uint64_t>(pc) << 16) | psv.bits();
    if (key != memoKey_) {
        memoCell_ = findOrAddCell(pc, psv.bits());
        memoKey_ = key;
    }
    cells_[memoCell_].cycles += cycles;
    total_ += cycles;
}

Histogram &
GoldenReference::newStallHistogram(std::uint16_t sig)
{
    if (sig >= numSignatures) {
        throw std::out_of_range(strprintf(
            "golden reference: signature 0x%x has bits past the %u "
            "events (damaged trace?)",
            sig, numEvents));
    }
    stallHist_[sig] = std::make_unique<Histogram>(stallHistMax);
    return *stallHist_[sig];
}

// tea_lint: hot
inline void
GoldenReference::retire(InstIndex pc, Psv psv)
{
    std::uint64_t stalled = 0;
    if (pendingCycles_ > 0.0) {
        add(pc, psv, pendingCycles_);
        stalled = static_cast<std::uint64_t>(pendingCycles_);
        pendingCycles_ = 0.0;
    }
    const std::uint16_t sig = psv.bits();
    if (sig < numSignatures && stallHist_[sig])
        stallHist_[sig]->add(stalled);
    else
        newStallHistogram(sig).add(stalled);

    if (pc >= eventCounts_.size())
        growTo(pc);
    // Only the PSV's set bits, masked to the nine events.
    EventCounts &counts = eventCounts_[pc];
    for (unsigned bits = sig & (numSignatures - 1); bits != 0;
         bits &= bits - 1)
        ++counts[static_cast<unsigned>(std::countr_zero(bits))];
    lastValid_ = true;
    lastPc_ = pc;
    lastPsv_ = psv;
}

// tea_lint: hot
inline void
GoldenReference::chargeCycle(const CycleRecord &rec)
{
    switch (rec.state) {
      case CommitState::Compute: {
        double share = 1.0 / rec.numCommitted;
        for (unsigned i = 0; i < rec.numCommitted; ++i) {
            const CommittedUop &u = rec.committed[i];
            add(u.pc, u.psv, share);
        }
        break;
      }
      case CommitState::Stalled:
      case CommitState::Drained:
        // Attributed to the next-committing instruction; its PSV is only
        // final at retire, so accumulate until the next onRetire.
        pendingCycles_ += 1.0;
        break;
      case CommitState::Flushed:
        if (lastValid_) {
            add(lastPc_, lastPsv_, 1.0);
        } else {
            pendingCycles_ += 1.0; // start-up before any commit
        }
        break;
    }
}

void
GoldenReference::onCycle(const CycleRecord &rec)
{
    chargeCycle(rec);
}

void
GoldenReference::onSpan(const CycleRecord &first, std::uint32_t n)
{
    switch (first.state) {
      case CommitState::Compute:
        // Not a legal span (nothing commits in one); the per-cycle
        // expansion is the reference behaviour.
        TraceSink::onSpan(first, n);
        break;
      case CommitState::Stalled:
      case CommitState::Drained:
        // pendingCycles_ is a whole number, so one add of n is exact
        // and equals n adds of 1.0.
        pendingCycles_ += static_cast<double>(n);
        break;
      case CommitState::Flushed:
        if (lastValid_) {
            // A cell and the total may hold fractions (Compute shares),
            // and floating-point sums are not associative: 1/3 + 1.0 +
            // 1.0 is not 1/3 + 2.0. Keep the n adds onCycle would make.
            for (std::uint32_t i = 0; i < n; ++i)
                add(lastPc_, lastPsv_, 1.0);
        } else {
            pendingCycles_ += static_cast<double>(n);
        }
        break;
    }
}

void
GoldenReference::onRetire(const RetireRecord &rec)
{
    retire(rec.pc, rec.psv);
}

// tea_lint: hot
void
GoldenReference::onBatch(const TraceEvent *events, std::size_t n)
{
    // deliverEvent's calls in deliverEvent's order, with the retire and
    // cycle bodies inline instead of behind onRetire and onCycle.
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEvent &ev = events[i];
        switch (ev.kind) {
          case TraceEventKind::Cycle: {
            const unsigned slots = commitSlots(ev.rec);
            for (unsigned s = 0; s < slots; ++s)
                retire(ev.rec.committed[s].pc, ev.rec.committed[s].psv);
            chargeCycle(ev.rec);
            break;
          }
          case TraceEventKind::Span:
            onSpan(ev.rec, ev.spanCycles);
            break;
        }
    }
}

void
GoldenReference::onEnd(Cycle final_cycle)
{
    (void)final_cycle;
    dropped_ = pendingCycles_;
    pendingCycles_ = 0.0;
    lastValid_ = false;
    // The pool is already in first-touch order, the Pics's own; its
    // index is built once, here, where every cell is final.
    pics_ = Pics::fromCells(cells_, total_);
}

} // namespace tea
