/**
 * @file
 * Figure 5: PICS error per benchmark for IBS, SPE, RIS, NCI-TEA and TEA
 * against the golden reference (instruction granularity, default
 * sampling frequency).
 *
 * Paper result: TEA 2.1% average (max 7.7%); NCI-TEA 11.3% (max 22.0%);
 * RIS 56.0%, IBS 55.6%, SPE 55.5% (each up to 79.7%).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/parallel_runner.hh"
#include "analysis/runner.hh"
#include "common/env.hh"
#include "common/table.hh"

using namespace tea;

int
main()
{
    // Up to TEA_THREADS benchmarks simulate concurrently (default: all
    // hardware threads); within each, every technique observes the one
    // trace out-of-band. Results are bit-identical to a serial loop.
    // Set TEA_RUNNER_STATS=1 to print per-benchmark wall times.
    RunnerOptions opts = RunnerOptions::fromEnv();
    const bool show_stats = envUnsigned("TEA_RUNNER_STATS", 0, 0, 1) != 0;

    std::vector<SamplerConfig> techs = standardTechniques();
    std::vector<std::string> names = workloads::suiteNames();

    Table t;
    t.header({"benchmark", "IBS", "SPE", "RIS", "NCI-TEA", "TEA"});
    std::vector<double> sums(techs.size(), 0.0);
    std::vector<double> maxima(techs.size(), 0.0);

    const auto start = std::chrono::steady_clock::now();
    std::vector<ExperimentResult> all =
        runBenchmarkSuite(names, techs, opts);
    const double total_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    for (std::size_t n = 0; n < names.size(); ++n) {
        const ExperimentResult &res = all[n];
        if (show_stats) {
            std::printf("%s: %s\n", names[n].c_str(),
                        res.replay.renderLine().c_str());
        }
        std::vector<std::string> row{names[n]};
        for (std::size_t i = 0; i < res.techniques.size(); ++i) {
            double err = res.errorOf(res.techniques[i]);
            sums[i] += err;
            maxima[i] = std::max(maxima[i], err);
            row.push_back(fmtPercent(err));
        }
        t.row(row);
    }

    t.separator();
    std::vector<std::string> avg{"average"};
    std::vector<std::string> mx{"max"};
    for (std::size_t i = 0; i < techs.size(); ++i) {
        avg.push_back(
            fmtPercent(sums[i] / static_cast<double>(names.size())));
        mx.push_back(fmtPercent(maxima[i]));
    }
    t.row(avg);
    t.row(mx);

    std::puts("Figure 5: PICS error vs golden reference "
              "(instruction granularity)");
    t.print();
    std::puts("Paper: IBS 55.6% / SPE 55.5% / RIS 56.0% / NCI-TEA 11.3% / "
              "TEA 2.1% average.");
    std::printf("[%u experiment(s) in flight, %.2f s total]\n",
                opts.threads, total_seconds);
    return suiteExitCode(all);
}
