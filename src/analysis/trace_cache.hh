/**
 * @file
 * Persistent trace cache: simulate each (workload, CoreConfig) pair
 * once, keep its full cycle trace on disk in the compact chunked format
 * (core/trace_io, core/trace_codec), and satisfy every later run of the
 * same pair by memory-mapping the cached file and replaying it —
 * techniques are pure observers (TEA §4), so a cached trace answers any
 * set of them, at any thread count, bit-identically.
 *
 * Entries are keyed by a content fingerprint of the workload (program
 * instructions, symbols, initial architectural state), the complete
 * CoreConfig, and the codec version — never by name alone, so two
 * workloads that share a name but differ in parameters (e.g. lbm with
 * different prefetch distances) can never alias. Stale, truncated or
 * corrupted entries fail validation on open and are transparently
 * re-simulated and rewritten via atomic rename.
 */

#ifndef TEA_ANALYSIS_TRACE_CACHE_HH
#define TEA_ANALYSIS_TRACE_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/retry.hh"
#include "core/config.hh"
#include "core/trace_io.hh"
#include "workloads/workload.hh"

namespace tea {

/**
 * Outcome counters of one cache operation, merged into ReplayStats by
 * the runner (see DESIGN.md, "Failure model and recovery").
 */
struct CacheOpStats
{
    RetryStats retry;              ///< transient-I/O retries/recoveries
    std::uint64_t quarantined = 0; ///< damaged entries moved aside
    bool damaged = false; ///< an entry existed but failed validation
};

/** Where (and whether) traces are cached. */
struct TraceCacheOptions
{
    bool enabled = false; ///< off unless explicitly requested
    std::string dir;      ///< cache directory (created on first use)

    /**
     * Controls from the environment:
     *  - TEA_TRACE_CACHE_DIR=<dir> enables caching into <dir>;
     *  - TEA_TRACE_CACHE=1 enables it into
     *    ${TMPDIR:-/tmp}/tea-trace-cache when no dir is given;
     *  - TEA_TRACE_CACHE=0 forces it off regardless.
     */
    static TraceCacheOptions fromEnv();

    /**
     * The directory used when caching is on and no directory is
     * given: ${TMPDIR:-/tmp}/tea-trace-cache.
     */
    static std::string defaultDir();
};

/**
 * One cache directory. Construction creates the directory (disabling
 * the cache with a warning on failure); all subsequent operations are
 * best-effort and never fatal — a broken cache degrades to simulating.
 */
class TraceCache
{
  public:
    explicit TraceCache(TraceCacheOptions opts);

    bool enabled() const { return opts_.enabled; }

    /** The options this cache was built with (dir for the janitor). */
    const TraceCacheOptions &options() const { return opts_; }

    /**
     * Content fingerprint of a (workload, config) pair under the
     * current codec version.
     */
    static std::uint64_t fingerprintOf(const Workload &workload,
                                       const CoreConfig &cfg);

    /** Path of the entry for @p name with fingerprint @p fp. */
    std::string entryPath(const std::string &name,
                          std::uint64_t fp) const;

    /**
     * On-disk byte size of the entry @p workload under @p cfg would
     * replay from in the cache @p opts describes, or 0 when there is
     * none (or the cache is off). A plain probe for scheduling
     * (runExperimentSuite's suite order): it creates no directory,
     * validates nothing and passes through no failpoint seam or retry,
     * since a wrong answer can only change an order.
     */
    static std::uint64_t probeEntryBytes(const TraceCacheOptions &opts,
                                         const Workload &workload,
                                         const CoreConfig &cfg);

    /**
     * Open and fully validate the entry at @p path. Returns nullptr on
     * miss. Transient open/stat/mmap errors are retried with capped
     * backoff; a *damaged* entry (as opposed to a simply absent one)
     * logs a warning naming the reason, is quarantined out of the
     * cache, and @p ops->damaged is set so the caller can rewrite it.
     * A successful open bumps the entry's mtime (best effort), which
     * is the last-use order the janitor's size-budget eviction walks
     * (analysis/cache_janitor).
     */
    std::unique_ptr<MappedTraceFile> openEntry(const std::string &path,
                                               std::uint64_t fp,
                                               CacheOpStats *ops) const;

    /** Convenience overload that discards the operation counters. */
    std::unique_ptr<MappedTraceFile>
    openEntry(const std::string &path, std::uint64_t fp) const
    {
        return openEntry(path, fp, nullptr);
    }

    /**
     * Move the damaged entry at @p path into <dir>/quarantine/ under a
     * unique name, next to a .reason file recording @p reason, so it
     * can be inspected later but can never be opened as a cache entry
     * again. Falls back to unlinking the entry (and removing the
     * already-written .reason note) when the quarantine move itself
     * fails. Quarantine space is reclaimed by janitor passes
     * (analysis/cache_janitor): entries age out and the directory is
     * capped by count, so repeated damage can never grow it without
     * bound. @return true when the entry was moved
     */
    bool quarantineEntry(const std::string &path,
                         const std::string &reason) const;

    /** Directory damaged entries are moved into. */
    std::string quarantineDir() const { return opts_.dir + "/quarantine"; }

    /**
     * Advisory lock file guarding the (re)write of @p entry_path
     * against concurrent processes (see common/file_lock).
     */
    static std::string lockPathFor(const std::string &entry_path)
    {
        return entry_path + ".lock";
    }

  private:
    TraceCacheOptions opts_;
};

} // namespace tea

#endif // TEA_ANALYSIS_TRACE_CACHE_HH
