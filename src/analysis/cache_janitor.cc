#include "analysis/cache_janitor.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <limits>

#include <dirent.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <fcntl.h>
#include <unistd.h>

#include "analysis/trace_cache.hh"
#include "common/env.hh"
#include "common/failpoint.hh"
#include "common/file_lock.hh"
#include "common/logging.hh"
#include "common/sync.hh"
#include "core/trace_io.hh"

namespace tea {

namespace {

// Janitor seams live under the trace_cache. prefix so the crash matrix
// (tests/test_crash_matrix) sweeps them automatically: a pass killed
// between any two removals must leave a cache the next pass finishes
// cleaning, never one it corrupts.
Failpoint fpJanitorScan("trace_cache.janitor_scan", EIO);
Failpoint fpJanitorUnlink("trace_cache.janitor_unlink", EACCES);

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/**
 * Unlink one piece of debris. All janitor removals are best-effort: a
 * failure is warned about and the file stays for the next pass.
 */
bool
removeFile(const std::string &path)
{
    // Removal *is* the janitor's recovery action — there is no retry
    // layer to route through, the next pass simply tries again.
    // tea_check: allow(raw-io)
    int rc = ::unlink(path.c_str());
    if (rc == 0 && TEA_FAILPOINT(fpJanitorUnlink)) {
        errno = fpJanitorUnlink.failErrno();
        rc = -1;
    }
    if (rc != 0 && errno != ENOENT) {
        tea_warn("cache janitor: cannot remove %s (%s)", path.c_str(),
                 errnoString(errno).c_str());
        return false;
    }
    return true;
}

/** stat one directory member into a CacheFileInfo; false if unstatable. */
bool
statFile(const std::string &path, CacheFileInfo *out)
{
    struct ::stat st{};
    // Scan probe; an unstatable (e.g. concurrently removed) file is
    // simply not part of this pass.
    // tea_check: allow(raw-io)
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
        return false;
    out->path = path;
    out->bytes = static_cast<std::uint64_t>(st.st_size);
    out->mtimeS = static_cast<std::int64_t>(st.st_mtime);
    return true;
}

/** All regular files directly inside @p dir (no recursion). */
std::vector<CacheFileInfo>
listDir(const std::string &dir)
{
    std::vector<CacheFileInfo> out;
    ::DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return out; // missing or unreadable: nothing to scan
    while (struct ::dirent *ent = ::readdir(d)) {
        if (std::strcmp(ent->d_name, ".") == 0 ||
            std::strcmp(ent->d_name, "..") == 0)
            continue;
        CacheFileInfo info;
        if (statFile(dir + "/" + ent->d_name, &info))
            out.push_back(std::move(info));
    }
    ::closedir(d);
    return out;
}

/**
 * Writer pid embedded in a tmp file name
 * (`<entry>.<pid>.<counter>.tmp`, see CompactTraceWriter).
 * @return true and sets @p pid when the name parses
 */
bool
parseTmpPid(const std::string &path, long *pid)
{
    if (!endsWith(path, ".tmp"))
        return false;
    const std::string stem = path.substr(0, path.size() - 4);
    std::size_t ctr_dot = stem.find_last_of('.');
    if (ctr_dot == std::string::npos || ctr_dot == 0)
        return false;
    std::size_t pid_dot = stem.find_last_of('.', ctr_dot - 1);
    if (pid_dot == std::string::npos)
        return false;
    const std::string pid_s = stem.substr(pid_dot + 1,
                                          ctr_dot - pid_dot - 1);
    char *end = nullptr;
    long value = std::strtol(pid_s.c_str(), &end, 10);
    if (pid_s.empty() || *end != '\0' || value <= 0)
        return false;
    *pid = value;
    return true;
}

/** True when the process that wrote @p path is verifiably dead. */
bool
writerIsDead(const std::string &path)
{
    long pid = 0;
    if (!parseTmpPid(path, &pid))
        return false; // unparseable: fall back to the age threshold
    // Signal 0 probes existence without delivering anything. EPERM
    // means the pid exists (owned by someone else): treat as alive.
    return ::kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH;
}

std::int64_t
ageOf(const CacheFileInfo &f, std::int64_t now)
{
    return now >= f.mtimeS ? now - f.mtimeS : 0;
}

/** Oldest-first by last use; path breaks ties deterministically. */
void
sortByAge(std::vector<CacheFileInfo> &files)
{
    std::sort(files.begin(), files.end(),
              [](const CacheFileInfo &a, const CacheFileInfo &b) {
                  if (a.mtimeS != b.mtimeS)
                      return a.mtimeS < b.mtimeS;
                  return a.path < b.path;
              });
}

/**
 * Once-per-(process, directory) gate for recoverOnce. Meyers singleton
 * for the same static-initialization-order reasons as the failpoint
 * registry.
 */
class RecoverRegistry
{
  public:
    static RecoverRegistry &instance()
    {
        static RecoverRegistry r;
        return r;
    }

    /** True the first time @p dir is seen in this process. */
    bool firstVisit(const std::string &dir)
    {
        MutexLock lk(mu_);
        for (const std::string &seen : dirs_) {
            if (seen == dir)
                return false;
        }
        dirs_.push_back(dir);
        return true;
    }

  private:
    Mutex mu_;
    std::vector<std::string> dirs_ TEA_GUARDED_BY(mu_);
};

} // namespace

JanitorConfig
JanitorConfig::fromEnv()
{
    constexpr std::uint64_t maxU64 =
        std::numeric_limits<std::uint64_t>::max();
    JanitorConfig cfg;
    cfg.maxBytes =
        envUnsigned("TEA_TRACE_CACHE_MAX_BYTES", cfg.maxBytes, 0, maxU64);
    cfg.quarantineMaxCount = envUnsigned(
        "TEA_CACHE_QUARANTINE_MAX", cfg.quarantineMaxCount, 0, maxU64);
    cfg.quarantineMaxAgeS = envUnsigned("TEA_CACHE_QUARANTINE_MAX_AGE_S",
                                        cfg.quarantineMaxAgeS, 0, maxU64);
    cfg.orphanMaxAgeS = envUnsigned("TEA_CACHE_ORPHAN_MAX_AGE_S",
                                    cfg.orphanMaxAgeS, 0, maxU64);
    return cfg;
}

CacheScan
scanCacheDir(const std::string &dir)
{
    CacheScan scan;
    const std::string janitor_lock = CacheJanitor::lockPathFor(dir);
    for (CacheFileInfo &f : listDir(dir)) {
        scan.totalBytes += f.bytes;
        if (endsWith(f.path, ".teatrc")) {
            scan.entryBytes += f.bytes;
            scan.entries.push_back(std::move(f));
        } else if (endsWith(f.path, ".tmp")) {
            scan.tmpFiles.push_back(std::move(f));
        } else if (f.path == janitor_lock) {
            scan.totalBytes -= f.bytes; // the janitor's own machinery
        } else if (endsWith(f.path, ".lock")) {
            scan.lockFiles.push_back(std::move(f));
        }
    }
    for (CacheFileInfo &f : listDir(dir + "/quarantine")) {
        scan.totalBytes += f.bytes;
        if (endsWith(f.path, ".reason"))
            scan.reasons.push_back(std::move(f));
        else
            scan.quarantine.push_back(std::move(f));
    }
    return scan;
}

CacheJanitor::CacheJanitor(std::string dir, JanitorConfig cfg)
    : dir_(std::move(dir)), cfg_(cfg)
{
}

JanitorStats
CacheJanitor::gc() const
{
    JanitorStats stats;

    FileLock lock;
    if (!lock.acquire(lockPathFor(dir_), cfg_.lockTimeoutMs)) {
        // Busy (or uncreatable) janitor lock: someone else is cleaning
        // this directory right now, or it is unusable — either way the
        // pass is not ours to run.
        stats.lockBusy = true;
        return stats;
    }

    if (TEA_FAILPOINT(fpJanitorScan)) {
        tea_warn("cache janitor: cannot scan %s (%s); skipping pass",
                 dir_.c_str(),
                 errnoString(fpJanitorScan.failErrno()).c_str());
        return stats;
    }

    CacheScan scan = scanCacheDir(dir_);
    stats.scannedEntries = scan.entries.size();
    stats.scannedBytes = scan.entryBytes;
    const std::int64_t now =
        static_cast<std::int64_t>(::time(nullptr));

    // --- orphaned tmp files ------------------------------------------
    // A tmp file whose writer is dead can never be published; one whose
    // pid is alive (or unparseable) gets the benefit of the doubt until
    // it ages past the threshold — no in-flight write lasts an hour.
    for (const CacheFileInfo &f : scan.tmpFiles) {
        const bool dead = writerIsDead(f.path);
        const bool aged =
            ageOf(f, now) >
            static_cast<std::int64_t>(cfg_.orphanMaxAgeS);
        if ((dead || aged) && removeFile(f.path))
            ++stats.removedTmp;
    }

    // --- stale lock files --------------------------------------------
    // A `<entry>.teatrc.lock` sidecar is only debris when its entry is
    // gone (evicted or quarantined), nobody holds the flock, and it is
    // old enough that no writer is between lock-acquire and publish.
    // The flock is held across the unlink so a concurrent acquirer
    // either beat us (flock fails, keep the file) or will recreate the
    // file fresh (O_CREAT in FileLock::acquire) — never blocks on a
    // lock we are deleting.
    for (const CacheFileInfo &f : scan.lockFiles) {
        const std::string entry = f.path.substr(0, f.path.size() - 5);
        struct ::stat st{};
        // Existence probe: a live entry keeps its lock file.
        // tea_check: allow(raw-io)
        if (::stat(entry.c_str(), &st) == 0)
            continue;
        if (ageOf(f, now) <=
            static_cast<std::int64_t>(cfg_.orphanMaxAgeS))
            continue;
        // tea_check: allow(raw-io)
        int fd = ::open(f.path.c_str(), O_RDWR | O_CLOEXEC);
        if (fd < 0)
            continue; // already gone (or unreadable): not ours
        // tea_check: allow(raw-io)
        if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
            // Held: a live writer is using it after all.
            // tea_check: allow(raw-io)
            ::close(fd); // tea_lint: allow(unchecked-io)
            continue;
        }
        if (removeFile(f.path))
            ++stats.removedLocks;
        // tea_check: allow(raw-io)
        ::close(fd); // tea_lint: allow(unchecked-io)
    }

    // --- quarantine aging and capping --------------------------------
    // Oldest damage goes first: whoever wanted to inspect it has had
    // quarantineMaxAgeS to do so, and past the count cap the oldest
    // entries are the least interesting. The .reason note travels with
    // its payload; a note whose payload is already gone (crash between
    // the reason write and the rename, see TraceCache::quarantineEntry)
    // ages out on the orphan threshold.
    // Orphaned .reason notes first, judged against scan-time state, so
    // notes removed along with their payload below are never seen (and
    // counted) twice.
    for (const CacheFileInfo &f : scan.reasons) {
        const std::string payload =
            f.path.substr(0, f.path.size() - 7);
        struct ::stat st{};
        // tea_check: allow(raw-io)
        const bool orphan = ::stat(payload.c_str(), &st) != 0;
        const bool aged =
            ageOf(f, now) >
            static_cast<std::int64_t>(cfg_.orphanMaxAgeS);
        if (orphan && aged && removeFile(f.path))
            ++stats.removedQuarantine;
    }
    sortByAge(scan.quarantine);
    std::size_t keep = scan.quarantine.size();
    for (std::size_t i = 0; i < scan.quarantine.size(); ++i) {
        const CacheFileInfo &f = scan.quarantine[i];
        const bool aged =
            ageOf(f, now) >
            static_cast<std::int64_t>(cfg_.quarantineMaxAgeS);
        const bool over_cap =
            keep > cfg_.quarantineMaxCount; // oldest-first order
        if (!aged && !over_cap)
            break; // sorted: everything later is newer and under cap
        if (removeFile(f.path)) {
            ++stats.removedQuarantine;
            --keep;
            removeFile(f.path + ".reason"); // travels with its payload
        }
    }

    // --- size-budget eviction ----------------------------------------
    // Evict in last-use order (openEntry bumps mtime on every hit)
    // until the live entries fit. Unlink is safe against concurrent
    // readers — an mmap survives the unlink — and against concurrent
    // rewriters, whose tmp+rename publish recreates the entry whole.
    if (cfg_.maxBytes > 0) {
        sortByAge(scan.entries);
        std::uint64_t live = scan.entryBytes;
        for (const CacheFileInfo &f : scan.entries) {
            if (live <= cfg_.maxBytes)
                break;
            if (!removeFile(f.path))
                continue;
            live -= f.bytes;
            ++stats.evictedEntries;
            stats.evictedBytes += f.bytes;
        }
    }
    return stats;
}

JanitorStats
CacheJanitor::recoverOnce(const std::string &dir,
                          const JanitorConfig &cfg)
{
    if (!RecoverRegistry::instance().firstVisit(dir))
        return JanitorStats{};
    return CacheJanitor(dir, cfg).gc();
}

bool
parseEntryFingerprint(const std::string &path, std::uint64_t *fp)
{
    const char suffix[] = ".teatrc";
    const std::size_t suffix_len = sizeof(suffix) - 1;
    const std::size_t hex_len = 16;
    if (!endsWith(path, suffix) ||
        path.size() < suffix_len + hex_len + 1)
        return false;
    const std::size_t hex_at = path.size() - suffix_len - hex_len;
    if (path[hex_at - 1] != '-')
        return false;
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < hex_len; ++i) {
        const char c = path[hex_at + i];
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false; // hashHex emits lowercase only
        value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    *fp = value;
    return true;
}

CacheVerifyReport
verifyCacheDir(const std::string &dir, bool quarantine_damaged)
{
    CacheVerifyReport report;
    CacheScan scan = scanCacheDir(dir);

    TraceCacheOptions opts;
    opts.enabled = true;
    opts.dir = dir;
    TraceCache cache(opts);

    for (const CacheFileInfo &f : scan.entries) {
        ++report.checked;
        std::uint64_t fp = 0;
        std::string why;
        if (!parseEntryFingerprint(f.path, &fp)) {
            why = "unrecognized entry name (no fingerprint suffix)";
        } else {
            int sys_err = 0;
            auto mapped =
                MappedTraceFile::open(f.path, fp, &why, &sys_err);
            if (mapped != nullptr) {
                ++report.healthy;
                continue;
            }
            if (why.empty())
                why = strprintf("cannot open: %s",
                                errnoString(sys_err).c_str());
        }
        ++report.damaged;
        report.damagedPaths.push_back(
            strprintf("%s: %s", f.path.c_str(), why.c_str()));
        if (quarantine_damaged)
            cache.quarantineEntry(f.path, why);
    }
    return report;
}

} // namespace tea
