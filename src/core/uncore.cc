#include "core/uncore.hh"

#include <algorithm>

namespace tea {

Uncore::Uncore(const CoreConfig &cfg)
    : cfg_(cfg),
      llc_(cfg.llc, "llc"),
      llcMshrs_(cfg.llc.mshrs),
      l2Tlb_(cfg.tlb.l2Entries)
{
}

Cycle
Uncore::dramAccess(Cycle start)
{
    Cycle service = std::max(start, dramNextFree_);
    dramNextFree_ = service + cfg_.dramInterval;
    ++dramTransfers_;
    return service + cfg_.dramLatency;
}

void
Uncore::writebackToLlc(const Eviction &ev)
{
    if (!ev.valid || !ev.dirty)
        return;
    if (llc_.contains(ev.line)) {
        llc_.markDirty(ev.line);
    } else {
        Eviction llc_ev = llc_.insert(ev.line, true);
        if (llc_ev.valid && llc_ev.dirty) {
            // Dirty LLC eviction consumes DRAM write bandwidth.
            dramNextFree_ += cfg_.dramInterval;
            ++dramTransfers_;
        }
    }
}

Cycle
Uncore::llcAccess(Addr line, Cycle start, bool &llc_miss)
{
    // A line whose fill is still in flight has its tag installed but no
    // data yet; the MSHRs take precedence over a tag hit.
    Cycle merged = llcMshrs_.outstandingFill(line, start);
    if (merged != invalidCycle) {
        llc_miss = true;
        llc_.access(line); // keep LRU/statistics coherent
        return std::max(merged, start + cfg_.llc.hitLatency);
    }

    if (llc_.access(line))
        return start + cfg_.llc.hitLatency;

    llc_miss = true;

    Cycle alloc = llcMshrs_.allocatableAt(start);
    Cycle begin = std::max(start + cfg_.llc.hitLatency, alloc);
    Cycle fill = dramAccess(begin);
    llcMshrs_.allocate(line, fill);
    Eviction ev = llc_.insert(line, false);
    if (ev.valid && ev.dirty) {
        dramNextFree_ += cfg_.dramInterval;
        ++dramTransfers_;
    }
    return fill;
}

} // namespace tea
