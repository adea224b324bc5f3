/**
 * @file
 * PICS diff: profile a workload before and after an optimization and
 * print the per-instruction deltas -- the workflow behind the paper's
 * Fig 11 ("sweeping prefetch distances to identify the point where load
 * latency and store bandwidth balance out").
 *
 * Usage: pics_diff [prefetch-distance]   (default 3; compares to 0)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "analysis/runner.hh"
#include "common/env.hh"
#include "common/table.hh"
#include "isa/disasm.hh"

using namespace tea;

int
main(int argc, char **argv)
{
    const unsigned distance =
        argc > 1 ? static_cast<unsigned>(parseUnsigned(
                       "prefetch-distance", argv[1], 0,
                       std::numeric_limits<unsigned>::max()))
                 : 3;

    workloads::LbmParams before_params;
    workloads::LbmParams after_params;
    after_params.prefetchDistance = distance;

    ExperimentResult before = runWorkload(workloads::lbm(before_params),
                                          {teaConfig()});
    ExperimentResult after = runWorkload(workloads::lbm(after_params),
                                         {teaConfig()});
    const Pics &pb = before.technique("TEA").pics;
    const Pics &pa = after.technique("TEA").pics;

    std::printf("lbm: %s cycles -> %s cycles with prefetch distance %u "
                "(speedup %.2fx)\n\n",
                fmtCount(before.stats.cycles).c_str(),
                fmtCount(after.stats.cycles).c_str(), distance,
                static_cast<double>(before.stats.cycles) /
                    static_cast<double>(after.stats.cycles));

    // The programs differ (prefetches inserted), so align instructions
    // by disassembly+occurrence rather than index.
    struct Row
    {
        std::string disasm;
        double before = 0.0;
        double after = 0.0;
    };
    std::vector<Row> rows;
    auto accumulate = [&](const Pics &pics, const Program &prog,
                          bool is_before) {
        for (std::uint32_t unit : pics.topUnits(1000)) {
            std::string d =
                disassemble(prog.inst(static_cast<InstIndex>(unit)));
            auto it = std::find_if(rows.begin(), rows.end(),
                                   [&](const Row &r) {
                                       return r.disasm == d;
                                   });
            if (it == rows.end()) {
                rows.push_back(Row{d, 0.0, 0.0});
                it = rows.end() - 1;
            }
            (is_before ? it->before : it->after) +=
                pics.unitCycles(unit);
        }
    };
    accumulate(pb, before.program, true);
    accumulate(pa, after.program, false);

    std::sort(rows.begin(), rows.end(), [](const Row &a, const Row &b) {
        return std::abs(a.before - a.after) >
               std::abs(b.before - b.after);
    });

    Table t;
    t.header({"instruction", "cycles before", "cycles after", "delta"});
    unsigned shown = 0;
    for (const Row &r : rows) {
        if (++shown > 10)
            break;
        double delta = r.after - r.before;
        std::string signed_delta(1, delta >= 0 ? '+' : '-');
        signed_delta +=
            fmtCount(static_cast<std::uint64_t>(std::abs(delta)));
        t.row({r.disasm,
               fmtCount(static_cast<std::uint64_t>(r.before)),
               fmtCount(static_cast<std::uint64_t>(r.after)),
               signed_delta});
    }
    t.print();
    std::puts("\nThe critical load's cycles collapse; store-side cycles "
              "(DR-SQ pressure) absorb part of the win -- exactly the "
              "trade-off Fig 11 sweeps.");
    return 0;
}
