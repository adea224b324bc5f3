#include "core/tlb.hh"

#include "common/logging.hh"
#include "isa/memory.hh"

namespace tea {

TlbArray::TlbArray(unsigned entries, std::string name)
    : name_(std::move(name)), entries_(entries)
{
}

// tea_lint: hot
bool
TlbArray::access(Addr page)
{
    ++accesses;
    for (Entry &e : entries_) {
        if (e.valid && e.page == page) {
            e.lastUse = ++useClock_;
            return true;
        }
    }
    ++misses;
    return false;
}

// tea_lint: hot
void
TlbArray::insert(Addr page)
{
    Entry *victim = &entries_.front();
    for (Entry &e : entries_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lastUse < victim->lastUse)
            victim = &e;
    }
    victim->valid = true;
    victim->page = page;
    victim->lastUse = ++useClock_;
}

L2Tlb::L2Tlb(unsigned entries) : slots_(entries, 0), valid_(entries, false)
{
}

// tea_lint: hot
bool
L2Tlb::access(Addr page)
{
    ++accesses;
    std::size_t idx = static_cast<std::size_t>(page) % slots_.size();
    if (valid_[idx] && slots_[idx] == page)
        return true;
    ++misses;
    return false;
}

// tea_lint: hot
void
L2Tlb::insert(Addr page)
{
    std::size_t idx = static_cast<std::size_t>(page) % slots_.size();
    slots_[idx] = page;
    valid_[idx] = true;
}

TlbHierarchy::TlbHierarchy(const TlbConfig &cfg, L2Tlb &l2, std::string name)
    : cfg_(cfg), l1_(cfg.l1Entries, std::move(name)), l2_(l2)
{
}

// tea_lint: hot
TlbResult
TlbHierarchy::translate(Addr addr)
{
    Addr page = pageOf(addr);
    TlbResult res;
    if (l1_.access(page))
        return res;
    res.l1Miss = true;
    if (l2_.access(page)) {
        res.extraLatency = cfg_.l2HitLatency;
    } else {
        res.extraLatency = cfg_.walkLatency;
        l2_.insert(page);
    }
    l1_.insert(page);
    return res;
}

} // namespace tea
