#include "profilers/pics.hh"

#include <algorithm>

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
void
Pics::add(InstIndex pc, Psv psv, double cycles)
{
    if (cycles <= 0.0)
        return;
    cells_[key(pc, psv.bits())] += cycles;
    total_ += cycles;
}

Pics
Pics::fromCells(std::span<const PicsComponent> cells, double total,
                std::size_t reserved)
{
    Pics out;
    // Even reserve(0) resizes the bucket array, so a table that never
    // reserved must not call it.
    if (reserved > 0)
        out.reserve(reserved);
    for (const PicsComponent &c : cells)
        out.cells_.emplace(key(c.unit, c.signature), c.cycles);
    out.total_ = total;
    return out;
}

double
Pics::cycles(std::uint32_t unit, std::uint16_t signature) const
{
    auto it = cells_.find(key(unit, signature));
    return it == cells_.end() ? 0.0 : it->second;
}

double
Pics::unitCycles(std::uint32_t unit) const
{
    double sum = 0.0;
    for (const auto &[k, v] : cells_) {
        if ((k >> 16) == unit)
            sum += v;
    }
    return sum;
}

std::vector<PicsComponent>
Pics::components() const
{
    std::vector<PicsComponent> out;
    out.reserve(cells_.size());
    for (const auto &[k, v] : cells_) {
        out.push_back(PicsComponent{static_cast<std::uint32_t>(k >> 16),
                                    static_cast<std::uint16_t>(k & 0xffff),
                                    v});
    }
    return out;
}

std::vector<std::uint32_t>
Pics::topUnits(std::size_t n) const
{
    std::unordered_map<std::uint32_t, double> per_unit;
    for (const auto &[k, v] : cells_)
        per_unit[static_cast<std::uint32_t>(k >> 16)] += v;
    std::vector<std::pair<std::uint32_t, double>> ranked(per_unit.begin(),
                                                         per_unit.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto &a,
                                               const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    std::vector<std::uint32_t> out;
    for (std::size_t i = 0; i < ranked.size() && i < n; ++i)
        out.push_back(ranked[i].first);
    return out;
}

Pics
Pics::masked(std::uint16_t event_mask) const
{
    Pics out;
    for (const auto &[k, v] : cells_) {
        auto unit = static_cast<std::uint32_t>(k >> 16);
        auto sig = static_cast<std::uint16_t>(k & 0xffff & event_mask);
        out.cells_[key(unit, sig)] += v;
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
    for (const auto &[k, v] : cells_)
        out.cells_[k] = v * scale;
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
    for (const auto &[k, v] : cells_) {
        auto pc = static_cast<std::uint32_t>(k >> 16);
        auto sig = static_cast<std::uint16_t>(k & 0xffff);
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
        out.cells_[key(unit, sig)] += v;
        out.total_ += v;
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
        for (const auto &[k, v] : golden.cells_) {
            auto it = cells_.find(k);
            if (it != cells_.end())
                correct += std::min(v, it->second * scale);
        }
    }
    return (golden.total() - correct) / golden.total();
}

} // namespace tea
