/**
 * @file
 * The per-core memory hierarchy: L1I, L1D (with MSHRs and a next-line
 * prefetcher) and L1 TLBs, backed by an Uncore (LLC + DRAM + shared L2
 * TLB). Single-core systems let MemorySystem own a private Uncore;
 * multi-core systems pass a shared one. All timing is computed
 * analytically: an access performed at cycle `now` returns the absolute
 * cycle its data is available.
 */

#ifndef TEA_CORE_MEMORY_SYSTEM_HH
#define TEA_CORE_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>

#include "common/types.hh"
#include "core/cache.hh"
#include "core/config.hh"
#include "core/tlb.hh"
#include "core/uncore.hh"

namespace tea {

/** Timing and event outcome of a data-side access. */
struct MemAccessResult
{
    Cycle done = 0;      ///< absolute cycle the data is available
    bool l1Miss = false; ///< missed in the L1 D-cache (ST-L1)
    bool llcMiss = false; ///< missed in the LLC (ST-LLC)
};

/** Timing and event outcome of an instruction fetch. */
struct IFetchResult
{
    Cycle done = 0;       ///< absolute cycle the fetch packet is ready
    bool l1Miss = false;  ///< missed in the L1 I-cache (DR-L1)
    bool itlbMiss = false; ///< missed in the L1 I-TLB (DR-TLB)
};

/** The L1-level memory system of one core. */
class MemorySystem
{
  public:
    /** Single-core: owns a private Uncore. */
    explicit MemorySystem(const CoreConfig &cfg);

    /** Multi-core: uses the shared @p uncore (not owned). */
    MemorySystem(const CoreConfig &cfg, Uncore &uncore);

    /** Translate a data address (load/store execute). */
    TlbResult dataTranslate(Addr addr) { return dtlb_.translate(addr); }

    /**
     * Demand load of @p addr at cycle @p now (post-translation); fills
     * the hierarchy and triggers the next-line prefetcher.
     */
    MemAccessResult load(Addr addr, Cycle now);

    /**
     * Post-commit store drain: writes @p addr, fetching the line on a
     * write miss (write-allocate, write-back).
     */
    MemAccessResult storeDrain(Addr addr, Cycle now);

    /** Software prefetch of @p addr into the L1 D-cache. */
    MemAccessResult prefetch(Addr addr, Cycle now);

    /** Instruction fetch of the line containing @p pc. */
    IFetchResult ifetch(Addr pc, Cycle now);

    // Inspection for tests and reports.
    const CacheArray &l1i() const { return l1i_; }
    const CacheArray &l1d() const { return l1d_; }
    const CacheArray &llc() const { return uncore_->llc(); }
    const TlbHierarchy &dtlbHierarchy() const { return dtlb_; }
    Uncore &uncore() { return *uncore_; }
    std::uint64_t dramLineTransfers() const
    {
        return uncore_->dramLineTransfers();
    }

  private:
    /**
     * L1D fill path shared by loads, store drains and prefetches.
     * Handles MSHR merging/allocation and the next-line prefetcher.
     */
    MemAccessResult l1dAccess(Addr line, Cycle now, bool is_store,
                              bool demand);

    const CoreConfig &cfg_;
    std::unique_ptr<Uncore> ownedUncore_; ///< single-core convenience
    Uncore *uncore_;
    CacheArray l1i_;
    CacheArray l1d_;
    MshrFile l1dMshrs_;
    MshrFile l1iMshrs_;
    TlbHierarchy dtlb_;
    TlbHierarchy itlb_;
};

} // namespace tea

#endif // TEA_CORE_MEMORY_SYSTEM_HH
