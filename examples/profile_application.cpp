/**
 * @file
 * Developer workflow: profile an application with TEA and read its PICS
 * at instruction and function granularity -- the Section 6 use case.
 *
 * Usage: profile_application [benchmark] [period]
 * Defaults: lbm at one sample per 127 cycles.
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/report.hh"
#include "analysis/runner.hh"
#include "common/env.hh"
#include "common/table.hh"

using namespace tea;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "lbm";
    Cycle period = argc > 2 ? parseUnsigned("period", argv[2], 1, UINT64_MAX)
                            : 127;

    ExperimentResult res = runBenchmark(name, {teaConfig(period)});
    const TechniqueResult &tea = res.technique("TEA");

    std::printf("=== %s: %s cycles, IPC %.2f, %s samples "
                "(%.2f%% est. overhead at this rate) ===\n\n",
                name.c_str(), fmtCount(res.stats.cycles).c_str(),
                res.stats.ipc(), fmtCount(tea.samplesTaken).c_str(),
                100.0 * 8800.0 / static_cast<double>(period) / 100.0);

    std::puts("-- Per-instruction cycle stacks (top 8):");
    std::fputs(renderTopInstructions(res.program, tea.pics, 8,
                                     tea.pics.total())
                   .c_str(),
               stdout);

    std::puts("\n-- Per-function totals:");
    Pics by_fn = tea.pics.aggregated(res.program, Granularity::Function);
    Table t;
    t.header({"function", "cycles", "share", "top signature"});
    for (std::uint32_t unit : by_fn.topUnits(8)) {
        double cycles = by_fn.unitCycles(unit);
        std::string top_sig = "-";
        double best = 0.0;
        for (const PicsComponent &c : by_fn.components()) {
            if (c.unit == unit && c.cycles > best) {
                best = c.cycles;
                top_sig = Psv(c.signature).name();
            }
        }
        t.row({res.program.functionName(static_cast<int>(unit) - 1),
               fmtCount(static_cast<std::uint64_t>(cycles)),
               fmtPercent(cycles / by_fn.total()), top_sig});
    }
    t.print();

    std::printf("\naccuracy vs golden reference on this run: %.1f%%\n",
                100.0 * res.errorOf(tea));
    return 0;
}
