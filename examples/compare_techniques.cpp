/**
 * @file
 * Compare profiling techniques on one benchmark: run IBS, SPE, RIS,
 * NCI-TEA and TEA out-of-band on the same trace and show how differently
 * they explain the same execution (the paper's central experiment, on a
 * single benchmark of your choosing).
 *
 * Usage: compare_techniques [benchmark]
 *
 * All techniques observe the one simulated (or cached) trace on the
 * calling thread; the runner knobs (TEA_AUDIT, TEA_TRACE_CACHE, ...)
 * apply.
 */

#include <cstdio>
#include <string>

#include "analysis/report.hh"
#include "analysis/runner.hh"
#include "common/table.hh"

using namespace tea;

int
main(int argc, char **argv)
{
    if (argc > 2) {
        std::fputs("usage: compare_techniques [benchmark]\n", stderr);
        return 2;
    }
    std::string name = argc > 1 ? argv[1] : "omnetpp";
    RunnerOptions opts = RunnerOptions::fromEnv();
    ExperimentResult res;
    try {
        res = runBenchmark(name, standardTechniques(), opts);
    } catch (const std::exception &e) {
        // An experiment failure (an observer exception, an injected
        // fault) must end as a clean nonzero exit, not std::terminate.
        std::fprintf(stderr, "compare_techniques: %s\n", e.what());
        return 1;
    }
    double total = res.golden->pics().total();

    Table t;
    t.header({"technique", "policy", "events", "samples", "dropped",
              "error (instr)", "error (func)"});
    for (const TechniqueResult &tr : res.techniques) {
        t.row({tr.config.name, samplePolicyName(tr.config.policy),
               std::to_string(Psv(tr.config.eventMask).popcount()),
               fmtCount(tr.samplesTaken), fmtCount(tr.samplesDropped),
               fmtPercent(res.errorOf(tr, Granularity::Instruction)),
               fmtPercent(res.errorOf(tr, Granularity::Function))});
    }
    std::printf("=== %s (%s cycles) ===\n", name.c_str(),
                fmtCount(res.stats.cycles).c_str());
    t.print();
    std::fputs(res.replay.render().c_str(), stdout);

    std::puts("\n-- What each technique thinks the #1 instruction is:");
    std::puts("golden reference:");
    std::fputs(renderTopInstructions(res.program, res.golden->pics(), 1,
                                     total)
                   .c_str(),
               stdout);
    for (const TechniqueResult &tr : res.techniques) {
        std::printf("%s:\n", tr.config.name.c_str());
        std::fputs(renderTopInstructions(res.program,
                                         tr.pics.normalized(total), 1,
                                         total)
                       .c_str(),
                   stdout);
    }
    return 0;
}
