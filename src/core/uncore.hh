/**
 * @file
 * The uncore: LLC, DRAM channel and the shared L2 TLB. One Uncore per
 * physical chip; single-core systems own a private one, multi-core
 * systems share one between all cores (Section 3: one TEA unit per core,
 * a shared memory system below the L1s).
 */

#ifndef TEA_CORE_UNCORE_HH
#define TEA_CORE_UNCORE_HH

#include <cstdint>

#include "common/types.hh"
#include "core/cache.hh"
#include "core/config.hh"
#include "core/tlb.hh"

namespace tea {

/** Shared LLC + DRAM + L2 TLB. */
class Uncore
{
  public:
    explicit Uncore(const CoreConfig &cfg);

    /**
     * Access the LLC for @p line starting at @p start; fills from DRAM
     * on a miss. @return absolute data-ready cycle
     */
    Cycle llcAccess(Addr line, Cycle start, bool &llc_miss);

    /** Write back a dirty line evicted from a private L1. */
    void writebackToLlc(const Eviction &ev);

    /** True if @p line currently resides in the LLC. */
    bool llcContains(Addr line) const { return llc_.contains(line); }

    /** Charge one DRAM line transfer starting no earlier than @p start. */
    Cycle dramAccess(Cycle start);

    L2Tlb &l2Tlb() { return l2Tlb_; }
    const CacheArray &llc() const { return llc_; }
    std::uint64_t dramLineTransfers() const { return dramTransfers_; }

  private:
    const CoreConfig &cfg_;
    CacheArray llc_;
    MshrFile llcMshrs_;
    L2Tlb l2Tlb_;
    Cycle dramNextFree_ = 0;
    std::uint64_t dramTransfers_ = 0;
};

} // namespace tea

#endif // TEA_CORE_UNCORE_HH
