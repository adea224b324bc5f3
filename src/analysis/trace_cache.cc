#include "analysis/trace_cache.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "core/trace_codec.hh"

namespace tea {

namespace {

// Fault-injection seams (see common/failpoint and DESIGN.md, "Failure
// model and recovery"). The fingerprint seam perturbs the key instead
// of erroring: a perturbed key is still self-consistent within the run,
// so it exercises the forced-miss/stale paths without corrupting state.
Failpoint fpCacheMkdir("trace_cache.mkdir", EACCES);
Failpoint fpCacheStat("trace_cache.stat", EIO);
Failpoint fpFingerprint("trace_cache.fingerprint", 0);
Failpoint fpQuarantine("trace_cache.quarantine", EACCES);
Failpoint fpCacheTouch("trace_cache.touch", EACCES);

/**
 * mkdir -p: create @p dir and any missing parents. Returns false (with
 * errno set) on the first failure other than "already exists".
 */
bool
makeDirs(const std::string &dir)
{
    std::string path;
    path.reserve(dir.size());
    std::size_t i = 0;
    while (i < dir.size()) {
        std::size_t slash = dir.find('/', i + 1);
        if (slash == std::string::npos)
            slash = dir.size();
        path.assign(dir, 0, slash);
        i = slash;
        if (path.empty())
            continue;
        // Cache-setup primitive; every caller degrades (warns and
        // disables caching) instead of retrying.
        // tea_lint: allow(raw-io)
        if (::mkdir(path.c_str(), 0777) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

/** Keep entry names shell- and filesystem-safe. */
std::string
sanitizeName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                  c == '-';
        out.push_back(ok ? c : '_');
    }
    if (out.empty())
        out = "workload";
    return out;
}

std::string
entryPathIn(const std::string &dir, const std::string &name,
            std::uint64_t fp)
{
    return dir + "/" + sanitizeName(name) + "-" + hashHex(fp) + ".teatrc";
}

/** fingerprintOf without its failpoint seam. */
std::uint64_t
contentFingerprint(const Workload &workload, const CoreConfig &cfg)
{
    Fnv1a h;
    h.add(std::uint64_t{traceCodecVersion});

    // Program: every static instruction plus the code layout that the
    // I-side timing model sees.
    const Program &prog = workload.program;
    h.add(prog.name());
    h.add(prog.codeBase());
    h.add(std::uint64_t{prog.entry()});
    h.add(std::uint64_t{prog.size()});
    for (const StaticInst &inst : prog.insts()) {
        h.add(static_cast<std::uint64_t>(inst.op));
        h.add(std::uint64_t{inst.rd});
        h.add(std::uint64_t{inst.rs1});
        h.add(std::uint64_t{inst.rs2});
        h.addSigned(inst.imm);
        h.add(std::uint64_t{inst.target});
    }
    // Symbols affect nothing in the trace itself but are cheap to hash
    // and keep PSV/function attribution honest if they ever do.
    for (const Symbol &sym : prog.functions()) {
        h.add(sym.name);
        h.add(std::uint64_t{sym.begin});
        h.add(std::uint64_t{sym.end});
    }

    // Initial architectural state.
    for (std::uint64_t r : workload.initial.regs)
        h.add(r);
    h.add(workload.initial.mem.contentHash());

    hashConfig(h, cfg);
    return h.value();
}

} // namespace

TraceCacheOptions
TraceCacheOptions::fromEnv()
{
    TraceCacheOptions opts;
    if (const char *dir = std::getenv("TEA_TRACE_CACHE_DIR");
        dir != nullptr && *dir != '\0') {
        opts.enabled = true;
        opts.dir = dir;
    }
    if (const char *env = std::getenv("TEA_TRACE_CACHE");
        env != nullptr && *env != '\0') {
        if (std::strcmp(env, "0") == 0) {
            opts.enabled = false;
        } else if (std::strcmp(env, "1") == 0) {
            opts.enabled = true;
        } else {
            tea_fatal("TEA_TRACE_CACHE must be 0 or 1, got \"%s\"", env);
        }
    }
    if (opts.enabled && opts.dir.empty())
        opts.dir = defaultDir();
    return opts;
}

std::string
TraceCacheOptions::defaultDir()
{
    const char *tmp = std::getenv("TMPDIR");
    std::string base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
    if (base.back() == '/')
        base.pop_back();
    return base + "/tea-trace-cache";
}

TraceCache::TraceCache(TraceCacheOptions opts) : opts_(std::move(opts))
{
    if (!opts_.enabled)
        return;
    bool made = !opts_.dir.empty() && makeDirs(opts_.dir);
    if (made && TEA_FAILPOINT(fpCacheMkdir)) {
        errno = fpCacheMkdir.failErrno();
        made = false;
    }
    if (!made) {
        tea_warn("trace cache: cannot create directory \"%s\" (%s); "
                 "caching disabled",
                 opts_.dir.c_str(), errnoString(errno).c_str());
        opts_.enabled = false;
    }
}

std::uint64_t
TraceCache::fingerprintOf(const Workload &workload, const CoreConfig &cfg)
{
    std::uint64_t fp = contentFingerprint(workload, cfg);
    // Deterministic perturbation: the run still agrees with itself on
    // the key, but it can never match (or be matched by) a healthy run,
    // which forces the miss/stale-entry machinery to engage.
    if (TEA_FAILPOINT(fpFingerprint))
        fp ^= 1;
    return fp;
}

std::string
TraceCache::entryPath(const std::string &name, std::uint64_t fp) const
{
    return entryPathIn(opts_.dir, name, fp);
}

std::uint64_t
TraceCache::probeEntryBytes(const TraceCacheOptions &opts,
                            const Workload &workload, const CoreConfig &cfg)
{
    if (!opts.enabled || opts.dir.empty())
        return 0;
    const std::string path = entryPathIn(
        opts.dir, workload.program.name(), contentFingerprint(workload, cfg));
    struct ::stat st{};
    // Scheduling probe, outside the seams on purpose: a failure only
    // reads as "no entry".
    // tea_lint: allow(raw-io)
    if (::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
        return 0;
    return static_cast<std::uint64_t>(st.st_size);
}

std::unique_ptr<MappedTraceFile>
TraceCache::openEntry(const std::string &path, std::uint64_t fp,
                      CacheOpStats *ops) const
{
    if (!opts_.enabled)
        return nullptr;
    struct ::stat st{};
    // Existence probe only; any failure degrades to a cache miss.
    // tea_lint: allow(raw-io)
    int stat_rc = ::stat(path.c_str(), &st);
    if (stat_rc == 0 && TEA_FAILPOINT(fpCacheStat)) {
        errno = fpCacheStat.failErrno();
        stat_rc = -1;
    }
    if (stat_rc != 0)
        return nullptr; // plain miss: nothing cached yet (or unreadable
                        // — degrading to a miss is the safe answer)

    std::unique_ptr<MappedTraceFile> mapped;
    std::string why;
    int sys_err = 0;
    RetryStats local;
    RetryStats &retry = ops != nullptr ? ops->retry : local;
    RetryPolicy policy;
    retryTransient(policy, retry, [&] {
        mapped = MappedTraceFile::open(path, fp, &why, &sys_err);
        if (mapped == nullptr && sys_err != 0) {
            errno = sys_err; // let retryTransient classify it
            return false;
        }
        return true; // mapped, or a validation verdict retry can't fix
    });
    if (mapped != nullptr) {
        // Bump the entry's mtime so it records last *use*, not last
        // write: the janitor's size-budget eviction walks entries in
        // mtime order, and a hot entry that never gets rewritten must
        // not look like the coldest one. Best effort — a cache hit is
        // already in hand and a failed touch only skews eviction order.
        // tea_lint: allow(raw-io)
        int touch_rc = ::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);
        if (touch_rc == 0 && TEA_FAILPOINT(fpCacheTouch)) {
            errno = fpCacheTouch.failErrno();
            touch_rc = -1;
        }
        if (touch_rc != 0)
            tea_warn("trace cache: cannot bump last-use time of %s (%s)",
                     path.c_str(), errnoString(errno).c_str());
        return mapped;
    }

    if (sys_err != 0) {
        // Syscall failure that survived the retries: degrade to a miss.
        tea_warn("trace cache: cannot open entry %s: %s", path.c_str(),
                 errnoString(sys_err).c_str());
        return nullptr;
    }
    if (!why.empty()) {
        // A reason with no errno means the file existed but failed
        // validation (corruption, truncation, stale codec/fingerprint):
        // warn, move it out of the way, and let the caller rewrite.
        tea_warn("trace cache: discarding entry %s: %s", path.c_str(),
                 why.c_str());
        if (ops != nullptr)
            ops->damaged = true;
        if (quarantineEntry(path, why) && ops != nullptr)
            ++ops->quarantined;
    }
    return nullptr;
}

bool
TraceCache::quarantineEntry(const std::string &path,
                            const std::string &reason) const
{
    if (!opts_.enabled)
        return false;

    // Unique destination name so repeated damage to the same entry
    // (or two racing processes) never collide; a losing rename just
    // means someone else already moved the file.
    static std::atomic<unsigned> seq{0};
    std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::string dest =
        strprintf("%s/%s.%ld.%u", quarantineDir().c_str(), base.c_str(),
                  static_cast<long>(::getpid()),
                  // relaxed: only uniqueness of the counter value
                  // matters, not ordering against any other memory.
                  seq.fetch_add(1, std::memory_order_relaxed));

    bool moved = makeDirs(quarantineDir());

    // Write the .reason note *before* moving the entry: a crash between
    // the two steps then leaves a reason with no entry (harmless, aged
    // out by the janitor) instead of a quarantined entry with no
    // explanation. Diagnostic convenience, best effort, no seams.
    const std::string reason_path = dest + ".reason";
    if (moved) {
        // tea_lint: allow(raw-io)
        if (std::FILE *f = std::fopen(reason_path.c_str(), "w");
            f != nullptr) {
            // tea_lint: allow(raw-io)
            std::fputs(reason.c_str(), f);
            // tea_lint: allow(raw-io)
            std::fputc('\n', f);
            // tea_lint: allow(raw-io)
            std::fclose(f);
        }
    }

    if (moved && TEA_FAILPOINT(fpQuarantine)) {
        errno = fpQuarantine.failErrno();
        moved = false;
    }
    // Quarantine is already the failure path: a rename that fails
    // falls through to the unlink below, nothing to retry.
    // tea_lint: allow(raw-io)
    moved = moved && std::rename(path.c_str(), dest.c_str()) == 0;
    if (!moved) {
        tea_warn("trace cache: cannot quarantine %s (%s); unlinking it "
                 "instead",
                 path.c_str(), errnoString(errno).c_str());
        // Last resort: a damaged entry must never be reopened as if it
        // were healthy. Failure here means it is already gone. The
        // freshly written reason note describes nothing now — take it
        // with us rather than leave an orphan.
        // tea_lint: allow(raw-io)
        std::remove(path.c_str());
        // tea_lint: allow(raw-io)
        std::remove(reason_path.c_str());
        return false;
    }
    return true;
}

} // namespace tea
