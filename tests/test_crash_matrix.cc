/**
 * @file
 * Crash-consistency matrix (the PR's acceptance test): for every
 * registered I/O seam in the cache pipeline, a child process is forked
 * with the seam armed `always@crash` — the process _exits at the seam,
 * no unwind, no destructors, exactly like a SIGKILL — against both the
 * store path (cold cache) and the load path (healthy entry). The parent
 * then verifies the crash contract on whatever the child left behind:
 *
 *  1. a disarmed, audited rerun is bit-identical to the fault-free
 *     baseline (surviving entries are valid or transparently healed —
 *     never silently wrong);
 *  2. an aggressive janitor pass reclaims every piece of debris (tmp
 *     files, stale locks, quarantine) without touching live entries;
 *  3. end-to-end validation of every surviving entry reports zero
 *     damage — no crash point can publish a torn file.
 *
 * A multi-process stress test then hammers one cache directory from
 * several forked workers with a tight byte budget, so stores, hits,
 * evictions and janitor passes interleave freely across processes —
 * every replay must stay bit-identical and the directory must come out
 * clean.
 */

#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/cache_janitor.hh"
#include "analysis/runner.hh"
#include "analysis/trace_cache.hh"
#include "common/failpoint.hh"
#include "profilers/golden.hh"
#include "profilers/pics.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

std::vector<PicsComponent>
sortedComponents(const Pics &p)
{
    std::vector<PicsComponent> cs = p.components();
    std::sort(cs.begin(), cs.end(),
              [](const PicsComponent &a, const PicsComponent &b) {
                  return a.unit != b.unit ? a.unit < b.unit
                                          : a.signature < b.signature;
              });
    return cs;
}

/** Exact comparison usable from forked children (no gtest state). */
bool
picsIdentical(const Pics &a, const Pics &b)
{
    if (a.total() != b.total())
        return false;
    std::vector<PicsComponent> ca = sortedComponents(a);
    std::vector<PicsComponent> cb = sortedComponents(b);
    if (ca.size() != cb.size())
        return false;
    for (std::size_t i = 0; i < ca.size(); ++i) {
        if (ca[i].unit != cb[i].unit ||
            ca[i].signature != cb[i].signature ||
            ca[i].cycles != cb[i].cycles)
            return false;
    }
    return true;
}

void
expectPicsIdentical(const Pics &a, const Pics &b)
{
    EXPECT_TRUE(picsIdentical(a, b));
}

/** A scratch cache directory removed (recursively) on destruction. */
class TempCacheDir
{
  public:
    TempCacheDir()
    {
        char tmpl[] = "/tmp/tea-crash-matrix-XXXXXX";
        const char *d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        dir_ = d ? d : "";
    }

    ~TempCacheDir()
    {
        if (!dir_.empty())
            removeTree(dir_);
    }

    const std::string &path() const { return dir_; }

    std::vector<std::string> list(const std::string &sub = "") const
    {
        return listAt(sub.empty() ? dir_ : dir_ + "/" + sub);
    }

    bool anyWithSuffix(const std::string &suffix) const
    {
        for (const std::string &name : list()) {
            if (endsWith(name, suffix))
                return true;
            for (const std::string &sub : list(name)) {
                if (endsWith(sub, suffix))
                    return true;
            }
        }
        return false;
    }

    static bool endsWith(const std::string &s, const std::string &tail)
    {
        return s.size() >= tail.size() &&
               s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
    }

  private:
    static std::vector<std::string> listAt(const std::string &at)
    {
        std::vector<std::string> out;
        if (DIR *d = ::opendir(at.c_str())) {
            while (struct dirent *e = ::readdir(d)) {
                std::string name = e->d_name;
                if (name != "." && name != "..")
                    out.push_back(name);
            }
            ::closedir(d);
        }
        return out;
    }

    static void removeTree(const std::string &at)
    {
        for (const std::string &name : listAt(at)) {
            const std::string full = at + "/" + name;
            struct ::stat st{};
            if (::lstat(full.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
                removeTree(full);
            else
                std::remove(full.c_str());
        }
        ::rmdir(at.c_str());
    }

    std::string dir_;
};

RunnerOptions
cachedOptions(const TempCacheDir &dir)
{
    RunnerOptions o;
    o.cache.enabled = true;
    o.cache.dir = dir.path();
    o.cacheLockTimeoutMs = 50;
    return o;
}

ExperimentResult
runOnce(const RunnerOptions &opts, unsigned iterations = 300)
{
    return runWorkload(workloads::aluLoop(iterations), {teaConfig()},
                       opts);
}

/** Back-date every file in @p dir (and quarantine/) so age-gated GC
 *  passes see the post-crash state as old, not in-flight. */
void
backdateTree(const std::string &dir)
{
    struct ::timeval tv[2];
    tv[0].tv_sec = ::time(nullptr) - 100000;
    tv[0].tv_usec = 0;
    tv[1] = tv[0];
    for (const std::string &sub : {std::string(""),
                                   std::string("/quarantine")}) {
        const std::string at = dir + sub;
        DIR *d = ::opendir(at.c_str());
        if (d == nullptr)
            continue;
        while (struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                ::utimes((at + "/" + name).c_str(), tv);
        }
        ::closedir(d);
    }
}

/**
 * Fork a child that arms @p seam with `always@crash` and runs one
 * cached experiment; returns the child's wait status. The child leaves
 * through _exit only: 0 when the seam was never on the executed path,
 * crashExitCode when it died at the seam, 97 on an unexpected throw.
 */
int
forkAndCrash(const std::string &seam, const RunnerOptions &opts)
{
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = ::fork();
    if (pid == 0) {
        failpoints::configure(seam, "always@crash");
        try {
            (void)runOnce(opts);
        } catch (...) {
            ::_exit(97);
        }
        ::_exit(0);
    }
    int status = -1;
    ::waitpid(pid, &status, 0);
    return status;
}

class CrashMatrix : public ::testing::Test
{
  protected:
    void SetUp() override { failpoints::resetAll(); }
    void TearDown() override { failpoints::resetAll(); }
};

} // namespace

TEST_F(CrashMatrix, CrashKindDiesAtTheSeamWithTheAgreedCode)
{
    // Deterministic sanity check of the harness itself: the payload
    // fsync is always on the cold store path, so the child must die
    // there — with crashExitCode, not cleanly and not by signal.
    TempCacheDir dir;
    const int status = forkAndCrash("trace_io.fsync",
                                    cachedOptions(dir));
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), failpoints::crashExitCode);
    // The kill left the tmp file behind — exactly what the janitor
    // exists for — and published nothing.
    EXPECT_TRUE(dir.anyWithSuffix(".tmp"));
    EXPECT_TRUE(verifyCacheDir(dir.path(), false).clean());
}

TEST_F(CrashMatrix, EveryCacheSeamCrashLeavesRecoverableState)
{
    const ExperimentResult base = runOnce(RunnerOptions{});

    // Every seam in the cache pipeline: the trace-cache format and
    // publish path, the cache/janitor bookkeeping, and the advisory
    // lock. (runner.experiment is exception-based and covered by the
    // fault matrix.)
    std::vector<std::string> seams;
    for (Failpoint *fp : failpoints::all()) {
        const std::string &n = fp->name();
        if (n.rfind("trace_io.", 0) == 0 ||
            n.rfind("trace_cache.", 0) == 0 || n == "cache.lock")
            seams.push_back(n);
    }
    ASSERT_GE(seams.size(), 12u);

    unsigned crashes = 0;
    for (const std::string &seam : seams) {
        for (bool warm : {false, true}) {
            SCOPED_TRACE(seam + (warm ? " [load]" : " [store]"));
            TempCacheDir dir;
            RunnerOptions opts = cachedOptions(dir);
            if (warm) {
                const ExperimentResult populate = runOnce(opts);
                ASSERT_FALSE(populate.failed());
            }

            const int status = forkAndCrash(seam, opts);
            // The child either never reached the seam (0) or was
            // killed at it (crashExitCode). Anything else — a signal,
            // an exception, a fatal — breaks the crash model.
            ASSERT_TRUE(WIFEXITED(status));
            const int code = WEXITSTATUS(status);
            ASSERT_TRUE(code == 0 ||
                        code == failpoints::crashExitCode)
                << "child exited " << code;
            crashes += code == failpoints::crashExitCode ? 1 : 0;

            // Contract 1: a disarmed, audited rerun over the crash
            // debris is bit-identical to the fault-free baseline.
            RunnerOptions audited = opts;
            audited.audit = 1;
            const ExperimentResult after = runOnce(audited);
            expectPicsIdentical(base.golden->pics(),
                                after.golden->pics());

            // Contract 2: an aggressive janitor pass (everything aged,
            // zero quarantine budget) reclaims all debris. Dead-writer
            // tmp files need no aging; the rest is back-dated.
            backdateTree(dir.path());
            JanitorConfig cfg;
            cfg.orphanMaxAgeS = 0;
            cfg.quarantineMaxAgeS = 0;
            cfg.quarantineMaxCount = 0;
            cfg.lockTimeoutMs = 2000;
            const JanitorStats js =
                CacheJanitor(dir.path(), cfg).gc();
            ASSERT_FALSE(js.lockBusy);
            EXPECT_FALSE(dir.anyWithSuffix(".tmp"));
            EXPECT_TRUE(dir.list("quarantine").empty());
            for (const std::string &name : dir.list()) {
                if (!TempCacheDir::endsWith(name, ".lock") ||
                    name == "janitor.lock")
                    continue;
                // Any surviving lock sidecar belongs to a live entry.
                const std::string entry =
                    dir.path() + "/" +
                    name.substr(0, name.size() - 5);
                struct ::stat st{};
                EXPECT_EQ(::stat(entry.c_str(), &st), 0)
                    << "stale lock survived: " << name;
            }

            // Contract 3: every surviving entry validates end to end.
            const CacheVerifyReport report =
                verifyCacheDir(dir.path(), false);
            EXPECT_EQ(report.damaged, 0u)
                << (report.damagedPaths.empty()
                        ? ""
                        : report.damagedPaths.front());
        }
    }
    // The matrix only proves something if children actually died.
    EXPECT_GT(crashes, 0u);
}

TEST_F(CrashMatrix, MultiProcessStressStaysIdenticalUnderEviction)
{
    const unsigned kIterations[] = {200, 300, 400};
    const int kWorkers = 4;
    const int kRounds = 3;

    // Baselines computed before the fork so every child inherits them
    // copy-on-write and can compare without gtest machinery.
    std::vector<ExperimentResult> base;
    for (unsigned it : kIterations)
        base.push_back(runOnce(RunnerOptions{}, it));

    // Budget ≈ 1.5× the largest entry: small enough that the janitor
    // keeps evicting while workers publish, large enough that every
    // entry passes admission control.
    TempCacheDir dir;
    const ExperimentResult probe = runOnce(cachedOptions(dir), 400);
    ASSERT_TRUE(probe.replay.cacheStored);
    const std::uint64_t budget = probe.replay.cacheBytes * 3 / 2;
    ASSERT_GT(budget, 0u);

    std::fflush(stdout);
    std::fflush(stderr);
    std::vector<pid_t> children;
    for (int w = 0; w < kWorkers; ++w) {
        pid_t pid = ::fork();
        if (pid == 0) {
            // Child: hammer the shared cache dir. Stores, hits, lock
            // degrades and evictions interleave freely with the other
            // workers; the only hard requirement is bit-identical
            // replays. Exit: 0 ok, 1 result mismatch, 2 unexpected
            // throw.
            for (int r = 0; r < kRounds; ++r) {
                for (std::size_t i = 0; i < 3; ++i) {
                    RunnerOptions o = cachedOptions(dir);
                    o.janitor.maxBytes = budget;
                    o.cacheLockTimeoutMs = 200;
                    try {
                        const ExperimentResult res =
                            runOnce(o, kIterations[i]);
                        if (!picsIdentical(base[i].golden->pics(),
                                           res.golden->pics()))
                            ::_exit(1);
                    } catch (...) {
                        ::_exit(2);
                    }
                }
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children) {
        int status = -1;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // All writers are dead: a final pass must leave zero debris and a
    // within-budget, fully valid cache.
    backdateTree(dir.path());
    JanitorConfig cfg;
    cfg.maxBytes = budget;
    cfg.orphanMaxAgeS = 0;
    cfg.quarantineMaxAgeS = 0;
    cfg.quarantineMaxCount = 0;
    cfg.lockTimeoutMs = 2000;
    const JanitorStats js = CacheJanitor(dir.path(), cfg).gc();
    ASSERT_FALSE(js.lockBusy);
    EXPECT_FALSE(dir.anyWithSuffix(".tmp"));
    EXPECT_TRUE(dir.list("quarantine").empty());

    const CacheScan scan = scanCacheDir(dir.path());
    EXPECT_LE(scan.entryBytes, budget);
    const CacheVerifyReport report = verifyCacheDir(dir.path(), false);
    EXPECT_EQ(report.damaged, 0u);
    EXPECT_GT(report.checked, 0u); // something useful survived
}
