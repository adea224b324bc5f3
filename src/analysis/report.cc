#include "analysis/report.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/table.hh"
#include "isa/disasm.hh"

namespace tea {

namespace {

/**
 * Signature components of one unit, largest first and, among equal
 * cycles, by ascending signature, so the table's order never shows.
 */
std::vector<PicsComponent>
unitComponents(const Pics &pics, std::uint32_t unit)
{
    std::vector<PicsComponent> comps;
    for (const PicsComponent &c : pics.components()) {
        if (c.unit == unit)
            comps.push_back(c);
    }
    std::sort(comps.begin(), comps.end(),
              [](const PicsComponent &a, const PicsComponent &b) {
                  if (a.cycles != b.cycles)
                      return a.cycles > b.cycles;
                  return a.signature < b.signature;
              });
    return comps;
}

} // namespace

std::string
renderInstructionStack(const Program &prog, const Pics &pics, InstIndex pc,
                       double total_cycles)
{
    if (total_cycles <= 0.0)
        total_cycles = 1.0;
    std::string out;
    double unit_total = pics.unitCycles(pc);
    out += strprintf("  %-40s %12.0f cycles  (%5.2f%% of total)\n",
                     disassemble(prog, pc).c_str(), unit_total,
                     100.0 * unit_total / total_cycles);
    for (const PicsComponent &c : unitComponents(pics, pc)) {
        Psv sig(c.signature);
        out += strprintf("      %-28s %12.0f  %5.2f%%  |%s\n",
                         sig.name().c_str(), c.cycles,
                         100.0 * c.cycles / total_cycles,
                         bar(c.cycles, unit_total, 30).c_str());
    }
    return out;
}

std::string
renderTopInstructions(const Program &prog, const Pics &pics, std::size_t n,
                      double total_cycles)
{
    std::string out;
    for (std::uint32_t unit : pics.topUnits(n)) {
        out += renderInstructionStack(prog, pics,
                                      static_cast<InstIndex>(unit),
                                      total_cycles);
    }
    return out;
}

} // namespace tea
