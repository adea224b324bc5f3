/**
 * @file
 * The benchmark harness: workload definitions, the correctness digest,
 * untraced and traced passes, and the result record. main.cc only
 * parses arguments and prints.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/parallel_runner.hh"
#include "analysis/runner.hh"
#include "spans.hh"

namespace perfbench {

/** One metric of the result record. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

/** True when @p name matches [A-Za-z0-9_.-]+. */
bool validMetricName(const std::string &name);

/**
 * The last line the benchmark prints. Throws std::invalid_argument on
 * a metric name outside [A-Za-z0-9_.-]+ or a repeated name; a value
 * that is not finite is written as 0.
 */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed,
                       const std::vector<Metric> &metrics);

/**
 * Digest of one experiment's outputs: its name, CoreStats cycle count,
 * the golden PICS and each technique's name and PICS (cells sorted, so
 * hash-table order cannot leak in).
 */
std::uint64_t experimentDigest(const tea::ExperimentResult &res);

/**
 * Recorded digests, one line per input set:
 *   <key> <digest of experiment 0> <digest of experiment 1> ...
 * with "#" comment lines. Keys are "fig5" and "sweep/<kernel seed>".
 */
using DigestTable = std::map<std::string, std::vector<std::uint64_t>>;

/** Parse a digest table; throws std::runtime_error when unreadable. */
DigestTable loadDigests(const std::string &path);

/**
 * Mark every result whose digest differs from @p expected (same order)
 * as failed, unless it already failed. A missing expectation is a
 * mismatch. @return results failed after the check
 */
unsigned checkDigests(std::vector<tea::ExperimentResult> &results,
                      const std::vector<std::uint64_t> &expected);

/**
 * The traced pass is a hand copy of runWorkload's default path. Mark
 * every traced result whose path record (cache hit or store, entry
 * bytes, chunks and events, simulated cycles, ...) differs from the
 * ReplayStats of the reference result for the same experiment as
 * failed, unless it already failed. A traced result without a
 * successful reference counterpart fails too.
 * @return results failed after the check
 */
unsigned checkTracedPath(std::vector<tea::ExperimentResult> &traced,
                         const std::vector<tea::ExperimentResult> &reference);

/** Directory removed with everything under it when the object dies. */
class ScratchDir
{
  public:
    /** Create @p path (and parents); throws when that fails. */
    explicit ScratchDir(std::string path);
    ~ScratchDir();

    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Bytes in regular files under @p dir (0 when absent). */
std::uint64_t directoryBytes(const std::string &dir);

/** A benchmark input set: experiments plus their digest-table key. */
struct Suite
{
    std::string digestKey;
    std::vector<tea::SuiteExperiment> experiments;
};

/** The 15 Fig-5 benchmarks on the default core (seedless). */
Suite fig5Suite();

/** Kernel seeds ordinary --seed values rotate through (1 to 16). */
std::vector<std::uint64_t> sweepKernelSeeds();

/**
 * The held-out kernel seed (17). No ordinary --seed reaches it; only
 * --seed heldOutSeed does, so a gain tuned on the rotation can be
 * checked on inputs no tuning run saw.
 */
constexpr std::uint64_t heldOutKernelSeed = 17;
constexpr std::uint64_t heldOutSeed = 1000000;

/** Kernel seed for benchmark seed @p seed. */
std::uint64_t sweepKernelSeed(std::uint64_t seed);

/** The example kernel_gen sweep (5 presets x 24 kernels) at @p seed. */
Suite sweepSuite(std::uint64_t kernel_seed);

/** Options of one benchmark run. */
struct RunConfig
{
    std::string workload; ///< fig5_warm | sweep_uncached
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string digests;  ///< digest table path
    std::string workDir;  ///< scratch root for cache directories
    std::string spansOut; ///< where the traced run writes its spans
    std::string commit = "unknown"; ///< source revision, for the record
};

/** What one run measured. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::string report; ///< human-readable summary (stderr)
};

/** Run one workload as @p cfg says. Throws on unusable arguments. */
RunResult runBenchmark(const RunConfig &cfg);

/** Machine and build context stamped on every result. */
std::string machineContext(const std::string &commit);

/**
 * Record mode: run every input set the digest table must cover
 * (fig5, the rotation and the held-out kernel seed) uncached and print
 * its lines.
 */
std::string recordDigests();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
