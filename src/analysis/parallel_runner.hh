/**
 * @file
 * Suite runner: many experiments in flight at once. Every technique is
 * a pure observer of the one trace its experiment produces (TEA §4), so
 * experiments are independent and the suite is the parallel axis: each
 * experiment runs runWorkload() on one worker thread, with all of its
 * observers replaying the trace in capture order, and every result is
 * bit-identical to a serial loop.
 */

#ifndef TEA_ANALYSIS_PARALLEL_RUNNER_HH
#define TEA_ANALYSIS_PARALLEL_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "analysis/runner.hh"

namespace tea {

/**
 * One experiment of a suite run: a workload factory plus the core
 * configuration to simulate it on. The factory (rather than a
 * materialized Workload) keeps a many-hundred-experiment sweep from
 * holding every program and initial heap image in memory at once — a
 * workload is built on the worker that runs it and freed with the
 * result.
 */
struct SuiteExperiment
{
    std::string name;                 ///< experiment (result/report) name
    std::function<Workload()> make;   ///< builds the workload to run
    CoreConfig cfg;                   ///< core configuration to run under
};

/**
 * Run many experiments concurrently: the fig 5/8/9 and sweep shape
 * (many (workload, config) pairs × a fixed technique set). Up to
 * opts.threads experiments are in flight at a time; each runs
 * runWorkload() on one thread, so every result is bit-identical to a
 * serial loop.
 *
 * @return results in the order of @p experiments
 */
std::vector<ExperimentResult> runExperimentSuite(
    const std::vector<SuiteExperiment> &experiments,
    const std::vector<SamplerConfig> &techniques,
    const RunnerOptions &opts = RunnerOptions{});

/**
 * Convenience wrapper over runExperimentSuite: every named suite
 * benchmark (workloads::byName) under one shared core configuration.
 *
 * @return results in the order of @p names
 */
std::vector<ExperimentResult> runBenchmarkSuite(
    const std::vector<std::string> &names,
    const std::vector<SamplerConfig> &techniques,
    const RunnerOptions &opts = RunnerOptions{},
    const CoreConfig &cfg = CoreConfig{});

/**
 * Per-experiment error report of a suite run: one line per failed
 * experiment, empty string when every experiment succeeded.
 */
std::string renderSuiteErrors(const std::vector<ExperimentResult> &results);

/**
 * main()-tail for suite tools: print renderSuiteErrors to stderr and
 * return 1 when any experiment failed, 0 otherwise — a degraded suite
 * run must not exit 0 and look healthy to scripts.
 */
int suiteExitCode(const std::vector<ExperimentResult> &results);

} // namespace tea

#endif // TEA_ANALYSIS_PARALLEL_RUNNER_HH
