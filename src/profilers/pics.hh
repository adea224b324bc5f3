/**
 * @file
 * Per-Instruction Cycle Stacks (PICS).
 *
 * A Pics maps (static instruction, performance-event signature) to the
 * number of cycles the architecture spent exposing that instruction's
 * latency while it carried that signature. Aggregation to basic-block,
 * function and application granularity, masking to a technique's event
 * set, and the paper's error metric (Section 4) are provided here.
 *
 * Order contract: a Pics iterates its components in first-touch order,
 * the order in which add() (or fromCells) first gave each (unit,
 * signature) a positive amount. Nothing else decides it: not
 * reserve(), not copies or moves, not the standard library. Every
 * table derived from one (masked, normalized, aggregated) is built by
 * walking the source in that order, and every floating-point sum over
 * a table (total() of an aggregation, unitCycles, topUnits,
 * errorAgainst) adds in that order, so the same trace gives the same
 * bits on any build.
 */

#ifndef TEA_PROFILERS_PICS_HH
#define TEA_PROFILERS_PICS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

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
     * they were first touched, and @p total is the running sum of every
     * cycle they received, in the order received. The cells become the
     * table as they are, so it iterates, and sums, exactly as the
     * add() calls that built them would have made it; carrying the
     * running total keeps total() bit-identical too. Panics on a
     * repeated (unit, signature).
     */
    static Pics fromCells(std::span<const PicsComponent> cells,
                          double total);

    /**
     * Pre-size the table for @p cells expected (unit, signature)
     * components. A Pics on the simulate/replay hot path grows to one
     * cell per live (pc, signature) pair; reserving up front (e.g. from
     * the program's static-instruction count) avoids regrowing it while
     * the trace streams through. It does not change the order.
     */
    void reserve(std::size_t cells);

    /** Total attributed cycles. */
    double total() const { return total_; }

    /** Cycles attributed to a specific (unit, signature). */
    double cycles(std::uint32_t unit, std::uint16_t signature) const;

    /** Cycles attributed to a unit across all signatures. */
    double unitCycles(std::uint32_t unit) const;

    /** All components, in first-touch order. */
    std::vector<PicsComponent> components() const;

    /** Number of distinct (unit, signature) components. */
    std::size_t size() const { return cells_.size(); }

    /** Units ranked by descending total cycles, ties by ascending id. */
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
    /** Empty index slot; so at most 2^32 - 1 cells. */
    static constexpr std::uint32_t noCell = ~std::uint32_t{0};

    static std::uint64_t key(std::uint32_t unit, std::uint16_t sig)
    {
        return (static_cast<std::uint64_t>(unit) << 16) | sig;
    }

    static std::uint64_t key(const PicsComponent &c)
    {
        return key(c.unit, c.signature);
    }

    /**
     * The index slot of @p k: the one holding its cell, or the empty
     * slot where probing for it stops. Needs a non-empty index.
     */
    std::size_t slotOf(std::uint64_t k) const;

    /** The cell of (@p unit, @p sig), or noCell. */
    std::uint32_t find(std::uint32_t unit, std::uint16_t sig) const;

    /** The cell of (@p unit, @p sig), appended with 0 cycles if new. */
    std::uint32_t findOrAdd(std::uint32_t unit, std::uint16_t sig);
    std::uint32_t addCell(std::size_t slot, std::uint32_t unit,
                          std::uint16_t sig);

    /** Rebuild the index for at least @p cells cells. */
    void rehash(std::size_t cells);

    /** The components, in first-touch order. */
    std::vector<PicsComponent> cells_;

    /**
     * Open-addressed index over cells_: a power-of-two array of cell
     * numbers (noCell when empty), probed linearly from the mix64 of
     * the key and at most 3/4 full. Keys are (unit << 16) | signature,
     * so unmixed, all signatures of one pc would fill adjacent slots.
     */
    std::vector<std::uint32_t> slots_;
    double total_ = 0.0;
};

} // namespace tea

#endif // TEA_PROFILERS_PICS_HH
