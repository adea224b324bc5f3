/**
 * @file
 * Per-Instruction Cycle Stacks (PICS).
 *
 * A Pics maps (static instruction, performance-event signature) to the
 * number of cycles the architecture spent exposing that instruction's
 * latency while it carried that signature. Aggregation to basic-block,
 * function and application granularity, masking to a technique's event
 * set, and the paper's error metric (Section 4) are provided here.
 */

#ifndef TEA_PROFILERS_PICS_HH
#define TEA_PROFILERS_PICS_HH

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fingerprint.hh"
#include "common/types.hh"
#include "events/event.hh"
#include "isa/program.hh"

namespace tea {

/** Analysis granularity (Fig 9). */
enum class Granularity
{
    Instruction,
    BasicBlock,
    Function,
    Application,
};

/** Name of a granularity level. */
const char *granularityName(Granularity g);

/** One component of a cycle stack. */
struct PicsComponent
{
    std::uint32_t unit = 0;   ///< unit id at the chosen granularity
    std::uint16_t signature = 0; ///< PSV bits of the component
    double cycles = 0.0;
};

/** Cycle stacks over units of one granularity. */
class Pics
{
  public:
    /** Add @p cycles to (unit @p pc, signature @p psv). */
    void add(InstIndex pc, Psv psv, double cycles);

    /**
     * Build a finished Pics in one pass from a collector's own table
     * (GoldenReference): @p cells are distinct components in the order
     * they were first touched, @p total is the running sum of every
     * cycle they received, in the order received, and @p reserved is
     * the reserve() an add()-built table would have had (0 for none).
     * Inserting in first-touch order into an equally reserved table
     * gives the bucket layout that add() calls would have given, so
     * iteration order, and every floating-point sum over it, stays
     * bit-identical; carrying the running total keeps total()
     * bit-identical too.
     */
    static Pics fromCells(std::span<const PicsComponent> cells,
                          double total, std::size_t reserved);

    /**
     * Pre-size the cell table for @p cells expected (unit, signature)
     * components. A Pics on the simulate/replay hot path grows to one
     * cell per live (pc, signature) pair; reserving up front (e.g. from
     * the program's static-instruction count) avoids repeated rehashes
     * of a multi-megabyte table while the trace streams through.
     */
    void reserve(std::size_t cells) { cells_.reserve(cells); }

    /** Total attributed cycles. */
    double total() const { return total_; }

    /** Cycles attributed to a specific (unit, signature). */
    double cycles(std::uint32_t unit, std::uint16_t signature) const;

    /** Cycles attributed to a unit across all signatures. */
    double unitCycles(std::uint32_t unit) const;

    /** All components (unordered). */
    std::vector<PicsComponent> components() const;

    /** Number of distinct (unit, signature) components. */
    std::size_t size() const { return cells_.size(); }

    /** Units ranked by descending total cycles. */
    std::vector<std::uint32_t> topUnits(std::size_t n) const;

    /**
     * Project every signature onto @p event_mask, merging components
     * that become identical (the per-scheme golden projection of §4).
     */
    Pics masked(std::uint16_t event_mask) const;

    /** Rescale all components so that total() == new_total. */
    Pics normalized(double new_total) const;

    /**
     * Re-aggregate instruction-granularity stacks to @p g using the
     * program's symbol/basic-block information. Unit ids become basic
     * block ids, function ids + 1 (0 = anonymous), or 0.
     */
    Pics aggregated(const Program &prog, Granularity g) const;

    /**
     * The paper's error metric: E = (C_total - C_correct) / C_total with
     * C_correct = sum over components of min(this, golden), where this
     * Pics is first normalized to the golden total. Callers mask the
     * golden reference to the technique's event set beforehand.
     */
    double errorAgainst(const Pics &golden) const;

  private:
    static std::uint64_t key(std::uint32_t unit, std::uint16_t sig)
    {
        return (static_cast<std::uint64_t>(unit) << 16) | sig;
    }

    /**
     * Keys are (unit << 16) | signature, so with the standard library's
     * identity hash consecutive pcs with the same signature land 2^16
     * buckets apart while all signatures of one pc collide into adjacent
     * buckets; mixing restores uniform occupancy.
     */
    struct KeyHash
    {
        std::size_t operator()(std::uint64_t k) const noexcept
        {
            return static_cast<std::size_t>(mix64(k));
        }
    };

    std::unordered_map<std::uint64_t, double, KeyHash> cells_;
    double total_ = 0.0;
};

} // namespace tea

#endif // TEA_PROFILERS_PICS_HH
