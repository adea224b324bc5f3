/**
 * @file
 * Quantified claims from Sections 2/3/5:
 *  - 30.0% of dynamic instruction executions that encounter at least one
 *    event encounter combined events;
 *  - 99% of the commit stalls of instructions that TEA assigns no event
 *    to are shorter than 5.8 clock cycles (event coverage);
 *  - the golden reference attributes (almost) every cycle.
 */

#include <cstdio>

#include "analysis/parallel_runner.hh"
#include "analysis/runner.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace tea;

int
main()
{
    std::uint64_t with_events = 0;
    std::uint64_t with_combined = 0;
    std::vector<double> p99s;

    Table t;
    t.header({"benchmark", "event uops", "combined share",
              "event-free stall p99 (cycles)", "golden coverage"});

    std::vector<std::string> names = workloads::suiteNames();
    std::vector<ExperimentResult> runs =
        runBenchmarkSuite(names, {}, RunnerOptions::fromEnv());
    for (std::size_t n = 0; n < names.size(); ++n) {
        const std::string &name = names[n];
        const ExperimentResult &res = runs[n];
        with_events += res.stats.uopsWithEvents;
        with_combined += res.stats.uopsWithCombined;

        // Stall-length distribution of instructions with an empty PSV.
        std::uint64_t p99 = 0;
        const auto &eventFree = res.golden->stallHistograms()[0];
        if (eventFree)
            p99 = eventFree->quantile(0.99);
        p99s.push_back(static_cast<double>(p99));

        double coverage = res.golden->pics().total() /
                          static_cast<double>(res.stats.cycles);
        t.row({name, fmtCount(res.stats.uopsWithEvents),
               res.stats.uopsWithEvents
                   ? fmtPercent(static_cast<double>(
                                    res.stats.uopsWithCombined) /
                                static_cast<double>(
                                    res.stats.uopsWithEvents))
                   : "-",
               std::to_string(p99), fmtPercent(coverage)});
    }

    std::puts("Quantified paper claims (Sections 2, 3 and 5)");
    t.print();
    std::printf("combined-event share across the suite: %.1f%% "
                "(paper: 30.0%%)\n",
                100.0 * static_cast<double>(with_combined) /
                    static_cast<double>(with_events));
    std::printf("event-free stall p99, suite mean: %.1f cycles "
                "(paper: 99%% of such stalls < 5.8 cycles)\n",
                mean(p99s));
    return suiteExitCode(runs);
}
