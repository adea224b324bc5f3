/**
 * @file
 * Cache janitor: keeps a trace-cache directory (analysis/trace_cache)
 * healthy and bounded across process crashes and unbounded use.
 *
 * The cache's write protocol is crash-safe per entry — tmp + fsync +
 * rename + directory fsync means readers only ever see complete,
 * validated files — but crashes still leave *debris*: orphaned
 * `<entry>.<pid>.<ctr>.tmp` files from writers that died mid-write,
 * `.lock` sidecars whose entries are gone, and quarantined entries
 * nobody will ever look at. And nothing in the write path bounds total
 * cache size. The janitor closes both gaps:
 *
 *  - recovery GC: remove tmp files whose writing process is dead (the
 *    pid is embedded in the name) or that have aged past a threshold;
 *    remove lock files that are unheld, entry-less and old; age out
 *    and count-cap the quarantine directory;
 *  - stale entries: remove entries an older codec version wrote. The
 *    fingerprint hashes the version, so no run can hit them again,
 *    and a rewrite lands next to them under a new name;
 *  - size budget: when TEA_TRACE_CACHE_MAX_BYTES is set, evict entries
 *    oldest-last-use first (openEntry bumps mtime on every hit) until
 *    the live entries fit the budget. Eviction unlinks; concurrent
 *    readers that already mapped the entry keep their mapping (mmap
 *    survives unlink), and a concurrent *re*-writer simply republishes
 *    — the rename protocol makes that safe.
 *
 * Every pass serializes on an exclusive flock of `<dir>/janitor.lock`
 * (common/file_lock); a busy lock skips the pass (some other process
 * is already cleaning). The per-entry `.lock` rewrite locks are NOT
 * taken: the worst race — evicting an entry as another process
 * rewrites it — costs one duplicated simulation, never corruption.
 */

#ifndef TEA_ANALYSIS_CACHE_JANITOR_HH
#define TEA_ANALYSIS_CACHE_JANITOR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace tea {

/** Budgets and thresholds of one janitor pass. */
struct JanitorConfig
{
    /** Live-entry byte budget; 0 (the default) disables eviction. */
    std::uint64_t maxBytes = 0;

    /** Most quarantined entries kept; older ones go first. */
    std::uint64_t quarantineMaxCount = 32;

    /** Quarantined entries older than this are removed (seconds). */
    std::uint64_t quarantineMaxAgeS = 7 * 24 * 3600;

    /**
     * Debris (.tmp with a live or unparseable pid, entry-less .lock)
     * must be at least this old (seconds) before removal — younger
     * files may belong to an in-flight writer.
     */
    std::uint64_t orphanMaxAgeS = 3600;

    /**
     * How long gc() waits for <dir>/janitor.lock before skipping the
     * pass. Short by design: a busy janitor means the work is already
     * being done.
     */
    unsigned lockTimeoutMs = 100;

    /**
     * The defaults above, with the byte budget from
     * TEA_TRACE_CACHE_MAX_BYTES when it is set. The other fields are
     * set in code only.
     */
    static JanitorConfig fromEnv();
};

/** One file found by scanCacheDir. */
struct CacheFileInfo
{
    std::string path;
    std::uint64_t bytes = 0;
    std::int64_t mtimeS = 0; ///< last modification (= last use), epoch s
};

/** Everything living in a cache directory, classified. */
struct CacheScan
{
    std::vector<CacheFileInfo> entries;    ///< *.teatrc (live entries)
    std::vector<CacheFileInfo> tmpFiles;   ///< *.tmp (in-flight/orphan)
    std::vector<CacheFileInfo> lockFiles;  ///< *.teatrc.lock sidecars
    std::vector<CacheFileInfo> quarantine; ///< quarantine/* payloads
    std::vector<CacheFileInfo> reasons;    ///< quarantine/*.reason notes
    std::uint64_t entryBytes = 0; ///< bytes in live entries only
    std::uint64_t totalBytes = 0; ///< bytes in everything scanned
};

/**
 * Scan @p dir (and its quarantine/ subdirectory) without modifying
 * anything. Unreadable files are skipped; a missing directory yields an
 * empty scan. <dir>/janitor.lock is not reported.
 */
CacheScan scanCacheDir(const std::string &dir);

/** What one janitor pass did (merged into ReplayStats by the runner). */
struct JanitorStats
{
    std::uint64_t evictedEntries = 0; ///< live entries evicted (budget)
    std::uint64_t evictedBytes = 0;   ///< bytes those entries held
    std::uint64_t removedTmp = 0;     ///< orphaned tmp files removed
    std::uint64_t removedLocks = 0;   ///< stale lock files removed
    std::uint64_t removedQuarantine = 0; ///< quarantine files removed
    std::uint64_t removedStale = 0; ///< older-codec entries removed
    std::uint64_t scannedEntries = 0; ///< live entries seen by the pass
    std::uint64_t scannedBytes = 0;   ///< live-entry bytes seen
    bool lockBusy = false; ///< pass skipped: another janitor was active

    /** Total debris files removed (everything but budget eviction). */
    std::uint64_t removals() const
    {
        return removedTmp + removedLocks + removedQuarantine +
               removedStale;
    }
};

/**
 * Janitor over one cache directory. Stateless between passes; safe to
 * construct ad hoc wherever a pass is wanted.
 */
class CacheJanitor
{
  public:
    CacheJanitor(std::string dir, JanitorConfig cfg);

    /**
     * One full pass under <dir>/janitor.lock: recovery GC (orphan tmp,
     * stale locks, quarantine aging/capping, older-codec entries) then
     * budget eviction.
     * Returns immediately with lockBusy set when the lock cannot be
     * taken within the configured timeout. Never throws; individual
     * removals that fail are warned about and skipped.
     */
    JanitorStats gc() const;

    /**
     * Run gc() at most once per (process, directory): the runner calls
     * this on first cache access so crash debris from previous runs is
     * reclaimed before new work lands on top of it, without paying a
     * scan per experiment.
     */
    static JanitorStats recoverOnce(const std::string &dir,
                                    const JanitorConfig &cfg);

    /** The advisory lock file serializing janitor passes on @p dir. */
    static std::string lockPathFor(const std::string &dir)
    {
        return dir + "/janitor.lock";
    }

  private:
    std::string dir_;
    JanitorConfig cfg_;
};

/**
 * Extract the content fingerprint encoded in a cache entry's filename
 * (`<name>-<16 hex digits>.teatrc`, see TraceCache::entryPath).
 * @return true and sets @p fp when @p path has the expected shape
 */
bool parseEntryFingerprint(const std::string &path, std::uint64_t *fp);

/** Outcome of verifyCacheDir. */
struct CacheVerifyReport
{
    std::uint64_t checked = 0; ///< entries examined
    std::uint64_t healthy = 0; ///< entries that validated completely
    std::uint64_t stale = 0;   ///< entries of an older codec version
    std::uint64_t damaged = 0; ///< entries that failed validation
    std::vector<std::string> stalePaths;   ///< the stale entries
    std::vector<std::string> damagedPaths; ///< what failed, path list

    bool clean() const { return damaged == 0; }
};

/**
 * Open and fully validate every live entry in @p dir against the
 * fingerprint its own filename claims (header magic, codec version,
 * CRCs, frame scan — everything MappedTraceFile::open checks — and a
 * decode of every frame, since a CRC-clean frame can fail to). An
 * entry whose name does not parse counts as damaged. An entry whose
 * header is intact but written by an older codec version is stale,
 * not damaged: it is left for the janitor's gc() to remove. When
 * @p quarantine_damaged is set, damaged entries are quarantined the
 * same way a cache miss would; otherwise they are left in place and
 * only reported (teacachectl's read-only `verify`).
 */
CacheVerifyReport verifyCacheDir(const std::string &dir,
                                 bool quarantine_damaged);

} // namespace tea

#endif // TEA_ANALYSIS_CACHE_JANITOR_HH
