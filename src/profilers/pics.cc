#include "profilers/pics.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "common/fingerprint.hh"
#include "common/logging.hh"

namespace tea {

const char *
granularityName(Granularity g)
{
    switch (g) {
      case Granularity::Instruction: return "instruction";
      case Granularity::BasicBlock: return "basic-block";
      case Granularity::Function: return "function";
      case Granularity::Application: return "application";
    }
    tea_panic("unknown granularity");
}

// tea_lint: hot
inline std::size_t
Pics::slotOf(std::uint64_t k) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t s = static_cast<std::size_t>(mix64(k)) & mask;
    while (slots_[s] != noCell && key(cells_[slots_[s]]) != k)
        s = (s + 1) & mask;
    return s;
}

std::uint32_t
Pics::find(std::uint32_t unit, std::uint16_t sig) const
{
    return slots_.empty() ? noCell : slots_[slotOf(key(unit, sig))];
}

// tea_lint: hot
inline std::uint32_t
Pics::findOrAdd(std::uint32_t unit, std::uint16_t sig)
{
    std::size_t s = 0;
    if (!slots_.empty()) {
        s = slotOf(key(unit, sig));
        if (slots_[s] != noCell)
            return slots_[s];
    }
    return addCell(s, unit, sig);
}

// Out of line, unlike the probe: it runs once per cell, not once per
// add, so the inlined callers do not carry it.
std::uint32_t
Pics::addCell(std::size_t slot, std::uint32_t unit, std::uint16_t sig)
{
    if (cells_.size() >= noCell) {
        throw std::length_error(
            strprintf("pics: more than %u cells", noCell));
    }
    const auto i = static_cast<std::uint32_t>(cells_.size());
    cells_.push_back(PicsComponent{unit, sig, 0.0});
    if (4 * cells_.size() > 3 * slots_.size())
        rehash(cells_.size());
    else
        slots_[slot] = i;
    return i;
}

void
Pics::rehash(std::size_t cells)
{
    // The smallest power of two at least 4/3 of the cells, and 8.
    const std::size_t size =
        std::bit_ceil(std::max<std::size_t>(8, (4 * cells + 2) / 3));
    slots_.assign(size, noCell);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        const std::size_t s = slotOf(key(cells_[i]));
        tea_assert(slots_[s] == noCell, "pics: unit %u signature 0x%x "
                   "is in two cells", cells_[i].unit, cells_[i].signature);
        slots_[s] = static_cast<std::uint32_t>(i);
    }
}

void
Pics::reserve(std::size_t cells)
{
    cells_.reserve(cells);
    if (4 * cells > 3 * slots_.size())
        rehash(cells);
}

// tea_lint: hot
void
Pics::add(InstIndex pc, Psv psv, double cycles)
{
    if (cycles <= 0.0)
        return;
    cells_[findOrAdd(pc, psv.bits())].cycles += cycles;
    total_ += cycles;
}

Pics
Pics::fromCells(std::span<const PicsComponent> cells, double total)
{
    Pics out;
    out.cells_.assign(cells.begin(), cells.end());
    out.rehash(cells.size());
    out.total_ = total;
    return out;
}

double
Pics::cycles(std::uint32_t unit, std::uint16_t signature) const
{
    const std::uint32_t i = find(unit, signature);
    return i == noCell ? 0.0 : cells_[i].cycles;
}

double
Pics::unitCycles(std::uint32_t unit) const
{
    double sum = 0.0;
    for (const PicsComponent &c : cells_) {
        if (c.unit == unit)
            sum += c.cycles;
    }
    return sum;
}

std::vector<PicsComponent>
Pics::components() const
{
    return cells_;
}

std::vector<std::uint32_t>
Pics::topUnits(std::size_t n) const
{
    Pics per_unit;
    for (const PicsComponent &c : cells_)
        per_unit.cells_[per_unit.findOrAdd(c.unit, 0)].cycles += c.cycles;
    std::vector<PicsComponent> &ranked = per_unit.cells_;
    std::sort(ranked.begin(), ranked.end(),
              [](const PicsComponent &a, const PicsComponent &b) {
                  if (a.cycles != b.cycles)
                      return a.cycles > b.cycles;
                  return a.unit < b.unit;
              });
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < ranked.size() && i < n; ++i)
        out.push_back(ranked[i].unit);
    return out;
}

Pics
Pics::masked(std::uint16_t event_mask) const
{
    Pics out;
    out.reserve(cells_.size());
    for (const PicsComponent &c : cells_) {
        const auto sig = static_cast<std::uint16_t>(c.signature & event_mask);
        out.cells_[out.findOrAdd(c.unit, sig)].cycles += c.cycles;
    }
    out.total_ = total_;
    return out;
}

Pics
Pics::normalized(double new_total) const
{
    Pics out;
    if (total_ <= 0.0)
        return out;
    double scale = new_total / total_;
    // The same keys in the same cells, so the index carries over.
    out.cells_ = cells_;
    for (PicsComponent &c : out.cells_)
        c.cycles *= scale;
    out.slots_ = slots_;
    out.total_ = new_total;
    return out;
}

Pics
Pics::aggregated(const Program &prog, Granularity g) const
{
    if (g == Granularity::Instruction)
        return *this;
    std::vector<std::uint32_t> bbs;
    if (g == Granularity::BasicBlock)
        bbs = prog.basicBlockIds();

    Pics out;
    for (const PicsComponent &c : cells_) {
        const std::uint32_t pc = c.unit;
        std::uint32_t unit = 0;
        switch (g) {
          case Granularity::BasicBlock:
            unit = pc < bbs.size() ? bbs[pc] : 0;
            break;
          case Granularity::Function:
            unit = static_cast<std::uint32_t>(
                prog.functionOf(static_cast<InstIndex>(pc)) + 1);
            break;
          case Granularity::Application:
          case Granularity::Instruction:
            unit = 0;
            break;
        }
        out.cells_[out.findOrAdd(unit, c.signature)].cycles += c.cycles;
        out.total_ += c.cycles;
    }
    return out;
}

double
Pics::errorAgainst(const Pics &golden) const
{
    if (golden.total() <= 0.0)
        return 0.0;
    // normalized(golden.total()) without the copy: each cell is scaled
    // as the loop reads it, so the products and their order of
    // summation (the golden table's) are the same. Like normalized(),
    // a table whose total is not positive leaves nothing correct.
    double correct = 0.0;
    if (!(total_ <= 0.0)) {
        const double scale = golden.total() / total_;
        for (const PicsComponent &c : golden.cells_) {
            const std::uint32_t i = find(c.unit, c.signature);
            if (i != noCell)
                correct += std::min(c.cycles, cells_[i].cycles * scale);
        }
    }
    return (golden.total() - correct) / golden.total();
}

} // namespace tea
