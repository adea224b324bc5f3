#include "core/cache.hh"

#include <algorithm>

#include "common/logging.hh"
#include "isa/memory.hh"

namespace tea {

CacheArray::CacheArray(const CacheConfig &cfg, std::string name)
    : name_(std::move(name)), ways_(cfg.ways)
{
    std::uint64_t lines = cfg.sizeBytes / lineBytes;
    tea_assert(lines % ways_ == 0, "%s: size not divisible by ways",
               name_.c_str());
    numSets_ = static_cast<unsigned>(lines / ways_);
    tea_assert((numSets_ & (numSets_ - 1)) == 0,
               "%s: set count must be a power of two", name_.c_str());
    tags_.resize(static_cast<std::size_t>(numSets_) * ways_);
}

std::size_t
CacheArray::setOf(Addr line) const
{
    return static_cast<std::size_t>((line / lineBytes) & (numSets_ - 1)) *
           ways_;
}

CacheArray::Way *
CacheArray::find(Addr line)
{
    std::size_t base = setOf(line);
    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = tags_[base + w];
        if (way.valid && way.line == line)
            return &way;
    }
    return nullptr;
}

const CacheArray::Way *
CacheArray::find(Addr line) const
{
    return const_cast<CacheArray *>(this)->find(line);
}

bool
CacheArray::contains(Addr line) const
{
    return find(line) != nullptr;
}

// tea_lint: hot
bool
CacheArray::access(Addr line)
{
    ++accesses;
    Way *w = find(line);
    if (w) {
        w->lastUse = ++useClock_;
        return true;
    }
    ++misses;
    return false;
}

// tea_lint: hot
Eviction
CacheArray::insert(Addr line, bool dirty)
{
    Eviction ev;
    if (Way *existing = find(line)) {
        existing->dirty = existing->dirty || dirty;
        existing->lastUse = ++useClock_;
        return ev;
    }
    std::size_t base = setOf(line);
    Way *victim = &tags_[base];
    for (unsigned w = 0; w < ways_; ++w) {
        Way &way = tags_[base + w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lastUse < victim->lastUse)
            victim = &way;
    }
    if (victim->valid) {
        ev.valid = true;
        ev.dirty = victim->dirty;
        ev.line = victim->line;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->line = line;
    victim->lastUse = ++useClock_;
    return ev;
}

void
CacheArray::markDirty(Addr line)
{
    if (Way *w = find(line))
        w->dirty = true;
}

void
CacheArray::invalidate(Addr line)
{
    if (Way *w = find(line))
        w->valid = false;
}

MshrFile::MshrFile(unsigned entries) : entries_(entries)
{
    pending_.reserve(entries);
}

// tea_lint: hot
void
MshrFile::prune(Cycle now)
{
    // Swap-erase: order carries no meaning, so completed fills are
    // replaced by the tail entry instead of shifting the array.
    for (std::size_t i = 0; i < pending_.size();) {
        if (pending_[i].fill <= now) {
            pending_[i] = pending_.back();
            pending_.pop_back();
        } else {
            ++i;
        }
    }
}

// tea_lint: hot
MshrFile::Pending *
MshrFile::find(Addr line)
{
    for (Pending &p : pending_) {
        if (p.line == line)
            return &p;
    }
    return nullptr;
}

// tea_lint: hot
Cycle
MshrFile::allocatableAt(Cycle now)
{
    prune(now);
    if (pending_.size() < entries_)
        return now;
    Cycle earliest = invalidCycle;
    for (const Pending &p : pending_)
        earliest = std::min(earliest, p.fill);
    return earliest;
}

// tea_lint: hot
void
MshrFile::allocate(Addr line, Cycle fill)
{
    if (Pending *p = find(line))
        p->fill = std::min(p->fill, fill);
    else
        pending_.push_back(Pending{line, fill});
}

// tea_lint: hot
Cycle
MshrFile::outstandingFill(Addr line, Cycle now)
{
    prune(now);
    Pending *p = find(line);
    return p == nullptr ? invalidCycle : p->fill;
}

unsigned
MshrFile::inFlight(Cycle now)
{
    prune(now);
    return static_cast<unsigned>(pending_.size());
}

} // namespace tea
