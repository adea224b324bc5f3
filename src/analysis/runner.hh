/**
 * @file
 * Experiment runner: simulates one workload once while the golden
 * reference and any number of sampling techniques observe the same cycle
 * trace (the paper's single-run, out-of-band evaluation methodology).
 */

#ifndef TEA_ANALYSIS_RUNNER_HH
#define TEA_ANALYSIS_RUNNER_HH

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/cache_janitor.hh"
#include "analysis/trace_cache.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "profilers/golden.hh"
#include "profilers/sampler.hh"
#include "workloads/workload.hh"

namespace tea {

/** Outcome of one technique in one run. */
struct TechniqueResult
{
    SamplerConfig config;
    Pics pics;
    std::uint64_t samplesTaken = 0;
    std::uint64_t samplesDropped = 0;
};

/**
 * How experiments are executed. runWorkload() runs one experiment on
 * the calling thread: every observer is attached directly to the live
 * core or, on a trace-cache hit, replays the decoded chunks inline.
 * runExperimentSuite() keeps up to `threads` experiments in flight.
 */
struct RunnerOptions
{
    /** Experiments in flight in a suite run; runWorkload does not read it. */
    unsigned threads = 1;
    std::size_t chunkEvents = 4096; ///< trace events per cache frame

    /**
     * Invariant audit level (analysis/audit): 0 or 1. 1 threads an
     * InvariantAuditor through the replay (fatal, naming the offending
     * cycle/sequence, on the first broken trace invariant) and
     * verifies golden cycle conservation.
     */
    unsigned audit = 0;

    /**
     * Persistent trace cache (analysis/trace_cache): when enabled, a
     * (workload, config) pair is simulated at most once; later runs
     * replay the cached on-disk trace through the observers instead of
     * re-simulating, with bit-identical results.
     */
    TraceCacheOptions cache;

    /**
     * Cache-lifecycle budgets (analysis/cache_janitor): recovery GC on
     * first cache access, and — when janitor.maxBytes is set — entry
     * admission control plus a budget-enforcing janitor pass after
     * every store.
     */
    JanitorConfig janitor;

    /**
     * How long a cache miss waits for the per-entry advisory write lock
     * (common/file_lock) before degrading to simulate-without-storing.
     * The lock serializes concurrent processes rewriting the same
     * entry; flock semantics make a crashed holder's lock evaporate, so
     * a timeout here means live contention, not a stale lock.
     */
    unsigned cacheLockTimeoutMs = 5000;

    /** Exists only because perfbench reads it; decode is inline. */
    static constexpr unsigned decodeThreads = 1;

    /** Exists only because perfbench reads it; simulation is serial. */
    struct SimOptions
    {
        bool wantsParallel() const { return false; }
    } sim;

    /**
     * Options from the environment: TEA_THREADS (default, and 0: one
     * per hardware thread), TEA_AUDIT (default 0, see audit above),
     * the trace-cache controls TEA_TRACE_CACHE / TEA_TRACE_CACHE_DIR
     * (see TraceCacheOptions) and the janitor's byte budget
     * TEA_TRACE_CACHE_MAX_BYTES (see JanitorConfig::fromEnv).
     * chunkEvents and cacheLockTimeoutMs are set in code only.
     * Integers go through envUnsigned (common/env.hh): a sign, an
     * overflow or an out-of-range value is fatal.
     */
    static RunnerOptions fromEnv();

    /**
     * A thread count typed for @p what (TEA_THREADS, --threads): digits
     * in [0, UINT_MAX] (anything else is fatal), 0 meaning one per
     * hardware thread.
     */
    static unsigned parseThreads(const char *what, std::string_view text);
};

/** Outcome of simulating one workload with all observers attached. */
struct ExperimentResult
{
    std::string name;
    Program program;
    CoreStats stats;
    ReplayStats replay;
    std::unique_ptr<GoldenReference> golden;
    std::vector<TechniqueResult> techniques;

    /**
     * Non-empty when this experiment threw and the failure was
     * contained to it (suite runs only; see runExperimentSuite). A
     * failed result carries no usable Pics.
     */
    std::string error;

    /** True when the experiment failed (see error). */
    bool failed() const { return !error.empty(); }

    /** Result of the technique named @p name (fatal if absent). */
    const TechniqueResult &technique(const std::string &name) const;

    /**
     * Error of technique @p t against the golden reference projected to
     * the technique's event set, at granularity @p g (Section 4).
     */
    double errorOf(const TechniqueResult &t,
                   Granularity g = Granularity::Instruction) const;
};

/** The five techniques compared in Fig 5, in paper order. */
std::vector<SamplerConfig> standardTechniques(Cycle period = 127);

/**
 * Simulate @p workload with @p techniques and the golden reference
 * attached, or replay its cached trace (opts.cache) through them, on
 * the calling thread. Implemented in parallel_runner.cc.
 */
ExperimentResult runWorkload(Workload workload,
                             std::vector<SamplerConfig> techniques,
                             const RunnerOptions &opts = RunnerOptions{},
                             const CoreConfig &cfg = CoreConfig{});

/** Convenience: construct a suite benchmark by name and run it. */
ExperimentResult runBenchmark(const std::string &name,
                              std::vector<SamplerConfig> techniques,
                              const RunnerOptions &opts = RunnerOptions{},
                              const CoreConfig &cfg = CoreConfig{});

/** Compatibility overloads: runWorkload(w, t, RunnerOptions{}, cfg). */
ExperimentResult runWorkload(Workload workload,
                             std::vector<SamplerConfig> techniques,
                             const CoreConfig &cfg);
ExperimentResult runBenchmark(const std::string &name,
                              std::vector<SamplerConfig> techniques,
                              const CoreConfig &cfg);

} // namespace tea

#endif // TEA_ANALYSIS_RUNNER_HH
