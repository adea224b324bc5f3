/**
 * @file
 * Two-level TLB model: per-side fully associative L1 TLBs backed by a
 * shared direct-mapped L2 TLB and a fixed-latency page-table walker.
 */

#ifndef TEA_CORE_TLB_HH
#define TEA_CORE_TLB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/config.hh"

namespace tea {

/** Fully associative, true-LRU translation buffer over page numbers. */
class TlbArray
{
  public:
    TlbArray(unsigned entries, std::string name);

    /** Probe and update LRU. @return hit */
    bool access(Addr page);

    /** Insert a translation, evicting LRU. */
    void insert(Addr page);

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

  private:
    struct Entry
    {
        Addr page = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::string name_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
};

/** Shared direct-mapped second-level TLB. */
class L2Tlb
{
  public:
    explicit L2Tlb(unsigned entries);

    /** Probe. @return hit */
    bool access(Addr page);

    /** Insert a translation. */
    void insert(Addr page);

    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

  private:
    std::vector<Addr> slots_;
    std::vector<bool> valid_;
};

/** Result of a TLB translation. */
struct TlbResult
{
    unsigned extraLatency = 0; ///< added on top of the cache access
    bool l1Miss = false;       ///< the L1 TLB missed (ST-TLB / DR-TLB)
};

/**
 * TLB hierarchy for one side (instruction or data); the L2 is shared and
 * owned by MemorySystem.
 */
class TlbHierarchy
{
  public:
    TlbHierarchy(const TlbConfig &cfg, L2Tlb &l2, std::string name);

    /** Translate the page of @p addr, filling on miss. */
    TlbResult translate(Addr addr);

    const TlbArray &l1() const { return l1_; }

  private:
    TlbConfig cfg_;
    TlbArray l1_;
    L2Tlb &l2_;
};

} // namespace tea

#endif // TEA_CORE_TLB_HH
