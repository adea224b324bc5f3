/**
 * @file
 * Set-associative cache tag array with true-LRU replacement and an MSHR
 * file that merges requests to outstanding lines.
 */

#ifndef TEA_CORE_CACHE_HH
#define TEA_CORE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/config.hh"

namespace tea {

/** Result of inserting a line: what was evicted, if anything. */
struct Eviction
{
    bool valid = false; ///< an occupied line was evicted
    bool dirty = false; ///< the evicted line was dirty
    Addr line = 0;      ///< evicted line address
};

/**
 * Tag array of a set-associative, true-LRU, write-back cache.
 *
 * Pure state container: levels are composed (with latencies, MSHRs and
 * bandwidth) by MemorySystem.
 */
class CacheArray
{
  public:
    CacheArray(const CacheConfig &cfg, std::string name);

    /** Probe for @p line without touching LRU state. */
    bool contains(Addr line) const;

    /** Probe and, on hit, update LRU. @return hit */
    bool access(Addr line);

    /** Insert @p line, evicting the LRU way if the set is full. */
    Eviction insert(Addr line, bool dirty);

    /** Mark @p line dirty if present. */
    void markDirty(Addr line);

    /** Invalidate @p line if present. */
    void invalidate(Addr line);

    unsigned numSets() const { return numSets_; }
    const std::string &name() const { return name_; }

    // Statistics.
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

  private:
    struct Way
    {
        Addr line = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    std::size_t setOf(Addr line) const;
    Way *find(Addr line);
    const Way *find(Addr line) const;

    std::string name_;
    unsigned ways_;
    unsigned numSets_;
    std::vector<Way> tags_; ///< numSets_ * ways_, set-major
    std::uint64_t useClock_ = 0;
};

/**
 * Miss-status holding registers: outstanding line fills with merge
 * support and a bounded number of concurrently outstanding lines.
 */
class MshrFile
{
  public:
    explicit MshrFile(unsigned entries);

    /**
     * Earliest cycle at which a new miss can allocate an MSHR. Returns
     * @p now when an entry is free, otherwise the earliest fill time.
     */
    Cycle allocatableAt(Cycle now);

    /** Record a fill in flight for @p line completing at @p fill. */
    void allocate(Addr line, Cycle fill);

    /**
     * If @p line is already outstanding, return its fill cycle (merge);
     * otherwise return invalidCycle.
     */
    Cycle outstandingFill(Addr line, Cycle now);

    /** Current number of outstanding entries (after pruning @p now). */
    unsigned inFlight(Cycle now);

  private:
    /** One outstanding line fill. */
    struct Pending
    {
        Addr line = 0;
        Cycle fill = 0;
    };

    void prune(Cycle now);
    Pending *find(Addr line);

    unsigned entries_;
    /**
     * Outstanding fills, unordered. Bounded by entries_ (a handful to a
     * few dozen), and probed on every cache access, so a flat array with
     * linear scans beats a node-based map: no allocation per miss, and
     * the whole file fits in one or two cache lines.
     */
    std::vector<Pending> pending_;
};

} // namespace tea

#endif // TEA_CORE_CACHE_HH
