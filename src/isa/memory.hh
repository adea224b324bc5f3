/**
 * @file
 * Sparse functional data memory (64-bit word granular, page-backed).
 */

#ifndef TEA_ISA_MEMORY_HH
#define TEA_ISA_MEMORY_HH

#include <array>
#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace tea {

/** Simulated page size in bytes (4 KiB, matching the TLB model). */
inline constexpr Addr pageBytes = 4096;

/** Cache line size in bytes. */
inline constexpr Addr lineBytes = 64;

/** Page number of a byte address. */
constexpr Addr
pageOf(Addr a)
{
    return a / pageBytes;
}

/** Cache line address (aligned) of a byte address. */
constexpr Addr
lineOf(Addr a)
{
    return a & ~(lineBytes - 1);
}

/**
 * Sparse 64-bit-word functional memory.
 *
 * Unwritten locations read as zero. Accesses are 8-byte aligned (the
 * mini-ISA only has 64-bit loads/stores).
 */
class SparseMemory
{
  public:
    /** Read the 64-bit word at @p addr (8-byte aligned). */
    std::uint64_t read(Addr addr) const;

    /** Write the 64-bit word at @p addr (8-byte aligned). */
    void write(Addr addr, std::uint64_t value);

    /** Read as a double bit pattern. */
    double readDouble(Addr addr) const;

    /** Write a double bit pattern. */
    void writeDouble(Addr addr, double value);

    /** Number of populated pages (test/inspection aid). */
    std::size_t populatedPages() const { return pages_.size(); }

    /**
     * Order-independent 64-bit hash of the full memory contents
     * (page-number-sorted), used to fingerprint initial state for the
     * trace cache. Identical contents hash identically regardless of
     * the order writes populated the pages, and an all-zero page hashes
     * like an absent one. Word-wise: a change to any one word changes
     * the hash.
     */
    std::uint64_t contentHash() const;

  private:
    static constexpr std::size_t wordsPerPage = pageBytes / 8;
    using Page = std::array<std::uint64_t, wordsPerPage>;

    std::unordered_map<Addr, Page> pages_;
};

} // namespace tea

#endif // TEA_ISA_MEMORY_HH
