#include "core/memory_system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/memory.hh"

namespace tea {

MemorySystem::MemorySystem(const CoreConfig &cfg)
    : cfg_(cfg),
      ownedUncore_(std::make_unique<Uncore>(cfg)),
      uncore_(ownedUncore_.get()),
      l1i_(cfg.l1i, "l1i"),
      l1d_(cfg.l1d, "l1d"),
      l1dMshrs_(cfg.l1d.mshrs),
      l1iMshrs_(cfg.l1i.mshrs),
      dtlb_(cfg.tlb, uncore_->l2Tlb(), "dtlb"),
      itlb_(cfg.tlb, uncore_->l2Tlb(), "itlb")
{
}

MemorySystem::MemorySystem(const CoreConfig &cfg, Uncore &uncore)
    : cfg_(cfg),
      uncore_(&uncore),
      l1i_(cfg.l1i, "l1i"),
      l1d_(cfg.l1d, "l1d"),
      l1dMshrs_(cfg.l1d.mshrs),
      l1iMshrs_(cfg.l1i.mshrs),
      dtlb_(cfg.tlb, uncore_->l2Tlb(), "dtlb"),
      itlb_(cfg.tlb, uncore_->l2Tlb(), "itlb")
{
}

// tea_lint: hot
MemAccessResult
MemorySystem::l1dAccess(Addr line, Cycle now, bool is_store, bool demand)
{
    MemAccessResult res;

    // A line with a fill in flight is not yet usable even though its tag
    // has been installed; check the MSHRs first.
    Cycle merged = l1dMshrs_.outstandingFill(line, now);
    if (merged != invalidCycle) {
        res.l1Miss = true;
        res.done = std::max(merged, now + cfg_.l1d.hitLatency);
        if (is_store)
            l1d_.markDirty(line);
        return res;
    }

    if (l1d_.access(line)) {
        res.done = now + cfg_.l1d.hitLatency;
        if (is_store)
            l1d_.markDirty(line);
        return res;
    }

    res.l1Miss = true;
    Cycle alloc = l1dMshrs_.allocatableAt(now);
    Cycle begin = std::max(now + cfg_.l1d.hitLatency, alloc);
    Cycle fill = uncore_->llcAccess(line, begin, res.llcMiss);
    l1dMshrs_.allocate(line, fill);
    Eviction ev = l1d_.insert(line, is_store);
    uncore_->writebackToLlc(ev);
    res.done = fill;

    // Next-line prefetcher: on a demand miss, pull the next line from the
    // LLC into the L1D (LLC-to-L1 only; lines absent from the LLC are not
    // prefetched -- see DESIGN.md).
    if (demand && cfg_.nextLinePrefetcher) {
        Addr next = line + lineBytes;
        if (uncore_->llcContains(next) && !l1d_.contains(next) &&
            l1dMshrs_.outstandingFill(next, now) == invalidCycle &&
            l1dMshrs_.allocatableAt(now) == now) {
            bool dummy = false;
            Cycle pf_fill = uncore_->llcAccess(next, now, dummy);
            l1dMshrs_.allocate(next, pf_fill);
            Eviction pf_ev = l1d_.insert(next, false);
            uncore_->writebackToLlc(pf_ev);
        }
    }
    return res;
}

MemAccessResult
MemorySystem::load(Addr addr, Cycle now)
{
    return l1dAccess(lineOf(addr), now, false, true);
}

MemAccessResult
MemorySystem::storeDrain(Addr addr, Cycle now)
{
    return l1dAccess(lineOf(addr), now, true, false);
}

MemAccessResult
MemorySystem::prefetch(Addr addr, Cycle now)
{
    return l1dAccess(lineOf(addr), now, false, false);
}

// tea_lint: hot
IFetchResult
MemorySystem::ifetch(Addr pc, Cycle now)
{
    IFetchResult res;
    TlbResult tlb = itlb_.translate(pc);
    res.itlbMiss = tlb.l1Miss;
    Cycle start = now + tlb.extraLatency;

    Addr line = lineOf(pc);
    Cycle merged = l1iMshrs_.outstandingFill(line, start);
    if (merged != invalidCycle) {
        res.l1Miss = true;
        res.done = std::max(merged, start + cfg_.l1i.hitLatency);
        return res;
    }
    if (l1i_.access(line)) {
        res.done = start + cfg_.l1i.hitLatency;
        return res;
    }
    res.l1Miss = true;
    bool llc_miss = false;
    Cycle alloc = l1iMshrs_.allocatableAt(start);
    Cycle begin = std::max(start + cfg_.l1i.hitLatency, alloc);
    Cycle fill = uncore_->llcAccess(line, begin, llc_miss);
    l1iMshrs_.allocate(line, fill);
    l1i_.insert(line, false);
    res.done = fill;
    return res;
}

} // namespace tea
