/**
 * @file
 * Cache-lifecycle tests (analysis/cache_janitor and the runner's use of
 * it): scan accounting, size-budget eviction in last-use order with the
 * mtime bump on hits, orphaned-tmp / stale-lock / quarantine GC,
 * admission control, durable publish (directory fsync), the
 * degrade-to-no-store path under real lock contention, and end-to-end
 * entry verification.
 */

#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <thread>
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
#include "common/file_lock.hh"
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

/** Assert two Pics are bit-identical (exact doubles, same cells). */
void
expectPicsIdentical(const Pics &a, const Pics &b)
{
    EXPECT_EQ(a.total(), b.total()); // exact, not approximate
    std::vector<PicsComponent> ca = sortedComponents(a);
    std::vector<PicsComponent> cb = sortedComponents(b);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].unit, cb[i].unit);
        EXPECT_EQ(ca[i].signature, cb[i].signature);
        EXPECT_EQ(ca[i].cycles, cb[i].cycles);
    }
}

/** A scratch cache directory removed (recursively) on destruction. */
class TempCacheDir
{
  public:
    TempCacheDir()
    {
        char tmpl[] = "/tmp/tea-janitor-XXXXXX";
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

    std::vector<std::string> entries() const
    {
        std::vector<std::string> out;
        for (const std::string &name : list()) {
            if (endsWith(name, ".teatrc"))
                out.push_back(name);
        }
        return out;
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

/** Set a file's mtime (and atime) to @p when, for age/order tests. */
void
setMTime(const std::string &path, std::time_t when)
{
    struct ::timeval tv[2];
    tv[0].tv_sec = when;
    tv[0].tv_usec = 0;
    tv[1] = tv[0];
    ASSERT_EQ(::utimes(path.c_str(), tv), 0) << path;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr) << path;
    std::fputs(content.c_str(), f);
    std::fclose(f);
}

/** A pid that verifiably belonged to a now-dead process. */
pid_t
deadPid()
{
    pid_t pid = ::fork();
    if (pid == 0)
        ::_exit(0);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return pid;
}

class CacheJanitorTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!failpoints::compiledIn())
            GTEST_SKIP() << "failpoint seams compiled out";
        failpoints::resetAll();
    }
    void TearDown() override { failpoints::resetAll(); }
};

} // namespace

TEST_F(CacheJanitorTest, ParseEntryFingerprint)
{
    std::uint64_t fp = 0;
    EXPECT_TRUE(parseEntryFingerprint(
        "/c/alu_loop-00deadbeef015a7e.teatrc", &fp));
    EXPECT_EQ(fp, 0x00deadbeef015a7eULL);
    EXPECT_FALSE(parseEntryFingerprint("/c/alu_loop.teatrc", &fp));
    EXPECT_FALSE(parseEntryFingerprint( // uppercase is not hashHex's
        "/c/alu_loop-00DEADBEEF015A7E.teatrc", &fp));
    EXPECT_FALSE(parseEntryFingerprint(
        "/c/alu_loop-00deadbeef015a7e.tmp", &fp));
    EXPECT_FALSE(parseEntryFingerprint("0123456789abcdef.teatrc", &fp));
}

TEST_F(CacheJanitorTest, ScanClassifiesAndAccounts)
{
    TempCacheDir dir;
    ASSERT_TRUE(runOnce(cachedOptions(dir), 200).replay.cacheStored);
    ASSERT_TRUE(runOnce(cachedOptions(dir), 300).replay.cacheStored);
    writeFile(dir.path() + "/stray.teatrc.1234.0.tmp", "partial");
    ASSERT_EQ(::mkdir((dir.path() + "/quarantine").c_str(), 0777), 0);
    writeFile(dir.path() + "/quarantine/old.teatrc.1.0", "damaged");
    writeFile(dir.path() + "/quarantine/old.teatrc.1.0.reason", "why");

    CacheScan scan = scanCacheDir(dir.path());
    EXPECT_EQ(scan.entries.size(), 2u);
    EXPECT_EQ(scan.tmpFiles.size(), 1u);
    EXPECT_EQ(scan.lockFiles.size(), 2u); // one .lock per stored entry
    EXPECT_EQ(scan.quarantine.size(), 1u);
    EXPECT_EQ(scan.reasons.size(), 1u);
    EXPECT_GT(scan.entryBytes, 0u);
    EXPECT_GT(scan.totalBytes, scan.entryBytes);

    std::uint64_t summed = 0;
    for (const CacheFileInfo &f : scan.entries)
        summed += f.bytes;
    EXPECT_EQ(summed, scan.entryBytes);
}

TEST_F(CacheJanitorTest, BudgetEvictsColdestFirst)
{
    TempCacheDir dir;
    ASSERT_TRUE(runOnce(cachedOptions(dir), 200).replay.cacheStored);
    ASSERT_TRUE(runOnce(cachedOptions(dir), 300).replay.cacheStored);
    ASSERT_TRUE(runOnce(cachedOptions(dir), 400).replay.cacheStored);

    CacheScan scan = scanCacheDir(dir.path());
    ASSERT_EQ(scan.entries.size(), 3u);

    // Give the three entries unambiguous last-use times (scan order is
    // directory order, not age): [0] coldest, [2] hottest.
    const std::time_t now = ::time(nullptr);
    setMTime(scan.entries[0].path, now - 3000);
    setMTime(scan.entries[1].path, now - 2000);
    setMTime(scan.entries[2].path, now - 1000);

    JanitorConfig cfg;
    cfg.maxBytes = scan.entryBytes - 1; // one eviction must suffice
    JanitorStats stats = CacheJanitor(dir.path(), cfg).gc();
    EXPECT_FALSE(stats.lockBusy);
    EXPECT_EQ(stats.evictedEntries, 1u);
    EXPECT_EQ(stats.evictedBytes, scan.entries[0].bytes);

    struct ::stat st{};
    EXPECT_NE(::stat(scan.entries[0].path.c_str(), &st), 0); // coldest
    EXPECT_EQ(::stat(scan.entries[1].path.c_str(), &st), 0);
    EXPECT_EQ(::stat(scan.entries[2].path.c_str(), &st), 0);
}

TEST_F(CacheJanitorTest, HitBumpsLastUseAndProtectsFromEviction)
{
    TempCacheDir dir;
    const ExperimentResult a = runOnce(cachedOptions(dir), 200);
    const ExperimentResult b = runOnce(cachedOptions(dir), 300);
    ASSERT_TRUE(a.replay.cacheStored);
    ASSERT_TRUE(b.replay.cacheStored);

    CacheScan scan = scanCacheDir(dir.path());
    ASSERT_EQ(scan.entries.size(), 2u);
    const std::time_t now = ::time(nullptr);
    for (const CacheFileInfo &f : scan.entries)
        setMTime(f.path, now - 5000); // both stone cold

    // A hit on the 200-iteration entry must bump its mtime to "now"...
    const ExperimentResult warm = runOnce(cachedOptions(dir), 200);
    ASSERT_TRUE(warm.replay.cacheHit);
    expectPicsIdentical(a.golden->pics(), warm.golden->pics());

    // ...so eviction under a one-entry budget removes the *other* one.
    JanitorConfig cfg;
    cfg.maxBytes = scan.entryBytes - 1;
    JanitorStats stats = CacheJanitor(dir.path(), cfg).gc();
    EXPECT_GE(stats.evictedEntries, 1u);

    const ExperimentResult still = runOnce(cachedOptions(dir), 200);
    EXPECT_TRUE(still.replay.cacheHit); // the hot entry survived
}

TEST_F(CacheJanitorTest, OrphanTmpAndStaleLockCollection)
{
    TempCacheDir dir;
    ASSERT_TRUE(runOnce(cachedOptions(dir)).replay.cacheStored);

    // Orphan tmp from a verifiably dead writer: removed regardless of
    // age. Tmp from a live pid (ours): kept while young.
    const std::string dead_tmp =
        dir.path() + "/x.teatrc." + std::to_string(deadPid()) + ".0.tmp";
    const std::string live_tmp =
        dir.path() + "/y.teatrc." + std::to_string(::getpid()) +
        ".0.tmp";
    writeFile(dead_tmp, "dead");
    writeFile(live_tmp, "live");

    // Stale lock: entry-less and old. Fresh lock sidecars of the live
    // entry must survive.
    const std::string stale_lock = dir.path() + "/gone.teatrc.lock";
    writeFile(stale_lock, "1\n");
    setMTime(stale_lock, ::time(nullptr) - 7200);

    JanitorConfig cfg; // default orphanMaxAgeS = 3600
    JanitorStats stats = CacheJanitor(dir.path(), cfg).gc();
    EXPECT_EQ(stats.removedTmp, 1u);
    EXPECT_EQ(stats.removedLocks, 1u);

    struct ::stat st{};
    EXPECT_NE(::stat(dead_tmp.c_str(), &st), 0);
    EXPECT_EQ(::stat(live_tmp.c_str(), &st), 0);
    EXPECT_NE(::stat(stale_lock.c_str(), &st), 0);
    EXPECT_EQ(dir.entries().size(), 1u); // the real entry is untouched
}

TEST_F(CacheJanitorTest, HeldLockIsNeverCollected)
{
    TempCacheDir dir;
    const std::string held = dir.path() + "/busy.teatrc.lock";
    FileLock holder;
    ASSERT_TRUE(holder.acquire(held, 100));
    setMTime(held, ::time(nullptr) - 7200); // old and entry-less...

    JanitorConfig cfg;
    JanitorStats stats = CacheJanitor(dir.path(), cfg).gc();
    EXPECT_EQ(stats.removedLocks, 0u); // ...but held, so kept

    struct ::stat st{};
    EXPECT_EQ(::stat(held.c_str(), &st), 0);
}

TEST_F(CacheJanitorTest, QuarantineAgesOutAndRespectsCap)
{
    TempCacheDir dir;
    const std::string q = dir.path() + "/quarantine";
    ASSERT_EQ(::mkdir(q.c_str(), 0777), 0);
    const std::time_t now = ::time(nullptr);
    // Five quarantined payloads with distinct ages, each with a note;
    // q0 is old enough to age out on its own.
    for (int i = 0; i < 5; ++i) {
        const std::string payload =
            q + "/e" + std::to_string(i) + ".teatrc.1." +
            std::to_string(i);
        writeFile(payload, "damaged");
        writeFile(payload + ".reason", "why");
        const std::time_t when =
            i == 0 ? now - 10 * 24 * 3600 : now - 1000 - i;
        setMTime(payload, when);
        setMTime(payload + ".reason", when);
    }
    // Plus one orphaned note (payload lost to a crash), old.
    writeFile(q + "/lost.teatrc.9.9.reason", "why");
    setMTime(q + "/lost.teatrc.9.9.reason", now - 7200);

    JanitorConfig cfg; // quarantineMaxAgeS default 7 d catches q0
    cfg.quarantineMaxCount = 2;
    JanitorStats stats = CacheJanitor(dir.path(), cfg).gc();
    // q0 (aged) + two more for the cap, + the orphaned note.
    EXPECT_EQ(stats.removedQuarantine, 4u);

    CacheScan scan = scanCacheDir(dir.path());
    EXPECT_EQ(scan.quarantine.size(), 2u); // the two newest survive
    EXPECT_EQ(scan.reasons.size(), 2u);    // notes travel with payloads
    for (const CacheFileInfo &f : scan.quarantine)
        EXPECT_GE(f.mtimeS, now - 1002); // the newest two: e1 and e2
}

TEST_F(CacheJanitorTest, RunnerRecoversDebrisOnFirstCacheAccess)
{
    TempCacheDir dir;
    // Debris planted before the process ever touches this cache dir.
    const std::string dead_tmp =
        dir.path() + "/x.teatrc." + std::to_string(deadPid()) + ".0.tmp";
    writeFile(dead_tmp, "dead");

    const ExperimentResult res = runOnce(cachedOptions(dir));
    EXPECT_TRUE(res.replay.cacheStored);
    EXPECT_GE(res.replay.janitorRemovals, 1u); // recoverOnce swept it
    struct ::stat st{};
    EXPECT_NE(::stat(dead_tmp.c_str(), &st), 0);
    EXPECT_NE(res.replay.render().find("janitor:"), std::string::npos);
}

TEST_F(CacheJanitorTest, StoreEnforcesBudgetAndCountsEvictions)
{
    TempCacheDir dir;
    ASSERT_TRUE(runOnce(cachedOptions(dir), 200).replay.cacheStored);
    ASSERT_TRUE(runOnce(cachedOptions(dir), 300).replay.cacheStored);
    const std::uint64_t resident = scanCacheDir(dir.path()).entryBytes;
    ASSERT_GT(resident, 0u);

    // Budget = what is resident now: the third store is admitted (it
    // is smaller than the budget) but pushes the total over it, so the
    // post-store janitor pass must evict back under.
    RunnerOptions opts = cachedOptions(dir);
    opts.janitor.maxBytes = resident;
    const ExperimentResult third = runOnce(opts, 400);
    EXPECT_TRUE(third.replay.cacheStored);
    EXPECT_GE(third.replay.cacheEvictions, 1u);
    EXPECT_GT(third.replay.cacheEvictedBytes, 0u);

    CacheScan scan = scanCacheDir(dir.path());
    EXPECT_LE(scan.entryBytes, opts.janitor.maxBytes);
}

TEST_F(CacheJanitorTest, OversizedEntryIsDeniedAdmission)
{
    TempCacheDir dir;
    RunnerOptions opts = cachedOptions(dir);
    opts.janitor.maxBytes = 64; // nothing real fits in 64 bytes
    const ExperimentResult base = runOnce(RunnerOptions{});
    const ExperimentResult res = runOnce(opts);
    EXPECT_FALSE(res.replay.cacheStored);
    EXPECT_TRUE(res.replay.cacheAdmissionDenied);
    expectPicsIdentical(base.golden->pics(), res.golden->pics());
    EXPECT_TRUE(dir.entries().empty());
    EXPECT_FALSE(dir.anyWithSuffix(".tmp")); // abandoned, not leaked
    EXPECT_NE(res.replay.render().find("admission denied"),
              std::string::npos);
}

TEST_F(CacheJanitorTest, DirFsyncFaultDegradesButStillPublishes)
{
    TempCacheDir dir;
    failpoints::configure("trace_io.dir_fsync", "always@eio");
    const ExperimentResult cold = runOnce(cachedOptions(dir));
    // The entry is valid this boot even though its durability after
    // power loss is degraded: the store succeeds with a warning.
    EXPECT_TRUE(cold.replay.cacheStored);
    EXPECT_GE(failpoints::find("trace_io.dir_fsync")->fired(), 1u);
    failpoints::resetAll();

    const ExperimentResult warm = runOnce(cachedOptions(dir));
    EXPECT_TRUE(warm.replay.cacheHit);
    expectPicsIdentical(cold.golden->pics(), warm.golden->pics());
}

TEST_F(CacheJanitorTest, QuarantineFallbackCleansUpItsReasonNote)
{
    TempCacheDir dir;
    const ExperimentResult cold = runOnce(cachedOptions(dir));
    ASSERT_TRUE(cold.replay.cacheStored);
    std::vector<std::string> entries = dir.entries();
    ASSERT_EQ(entries.size(), 1u);
    const std::string entry = dir.path() + "/" + entries[0];
    {
        std::FILE *f = std::fopen(entry.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
        std::fputc(0x5a, f);
        std::fclose(f);
    }

    // The quarantine move itself fails: the fallback must unlink the
    // damaged entry AND the reason note written moments before — a
    // half-done quarantine may not leave orphan notes behind.
    failpoints::configure("trace_cache.quarantine", "always");
    const ExperimentResult again = runOnce(cachedOptions(dir));
    failpoints::resetAll();
    EXPECT_FALSE(again.replay.cacheHit);
    EXPECT_EQ(again.replay.quarantined, 0u); // unlinked, not moved
    expectPicsIdentical(cold.golden->pics(), again.golden->pics());
    EXPECT_FALSE(dir.anyWithSuffix(".reason"));
    for (const std::string &name : dir.list("quarantine"))
        ADD_FAILURE() << "unexpected quarantine file: " << name;

    const ExperimentResult warm = runOnce(cachedOptions(dir));
    EXPECT_TRUE(warm.replay.cacheHit); // rewritten cleanly after
}

TEST_F(CacheJanitorTest, LockContentionDegradesToNoStore)
{
    TempCacheDir dir;
    const ExperimentResult cold = runOnce(cachedOptions(dir));
    ASSERT_TRUE(cold.replay.cacheStored);
    std::vector<std::string> entries = dir.entries();
    ASSERT_EQ(entries.size(), 1u);
    const std::string entry = dir.path() + "/" + entries[0];
    ASSERT_EQ(std::remove(entry.c_str()), 0); // force the next miss

    // Hold the entry's write lock the way a concurrent rewriter would
    // (flock is per open descriptor, so one process can contend with
    // itself). The run must simulate, skip the store, and say so.
    FileLock other;
    ASSERT_TRUE(other.acquire(TraceCache::lockPathFor(entry), 100));
    RunnerOptions opts = cachedOptions(dir);
    opts.cacheLockTimeoutMs = 30;
    const ExperimentResult degraded = runOnce(opts);
    EXPECT_FALSE(degraded.replay.cacheHit);
    EXPECT_FALSE(degraded.replay.cacheStored);
    EXPECT_EQ(degraded.replay.lockDegrades, 1u);
    expectPicsIdentical(cold.golden->pics(), degraded.golden->pics());
    EXPECT_TRUE(dir.entries().empty());
    EXPECT_NE(degraded.replay.render().find("lock degrade"),
              std::string::npos);

    // Released: the next run rewrites and the one after hits.
    other.release();
    EXPECT_TRUE(runOnce(cachedOptions(dir)).replay.cacheStored);
    const ExperimentResult warm = runOnce(cachedOptions(dir));
    EXPECT_TRUE(warm.replay.cacheHit);
    expectPicsIdentical(cold.golden->pics(), warm.golden->pics());
}

TEST_F(CacheJanitorTest, ConcurrentMissesStoreExactlyOnce)
{
    TempCacheDir dir;
    const ExperimentResult base = runOnce(RunnerOptions{});

    // Two threads race the same cold entry with a generous lock
    // timeout: the loser must wait, revalidate under the lock, and
    // turn the winner's store into its own hit.
    RunnerOptions opts = cachedOptions(dir);
    opts.cacheLockTimeoutMs = 10000;
    ExperimentResult r1, r2;
    std::thread t1([&] { r1 = runOnce(opts); });
    std::thread t2([&] { r2 = runOnce(opts); });
    t1.join();
    t2.join();

    const unsigned stored = (r1.replay.cacheStored ? 1 : 0) +
                            (r2.replay.cacheStored ? 1 : 0);
    const unsigned hits = (r1.replay.cacheHit ? 1 : 0) +
                          (r2.replay.cacheHit ? 1 : 0);
    EXPECT_EQ(stored, 1u);
    EXPECT_EQ(hits, 1u);
    expectPicsIdentical(base.golden->pics(), r1.golden->pics());
    expectPicsIdentical(base.golden->pics(), r2.golden->pics());
    EXPECT_EQ(dir.entries().size(), 1u);
}

TEST_F(CacheJanitorTest, VerifyDetectsAndQuarantinesDamage)
{
    TempCacheDir dir;
    ASSERT_TRUE(runOnce(cachedOptions(dir), 200).replay.cacheStored);
    ASSERT_TRUE(runOnce(cachedOptions(dir), 300).replay.cacheStored);

    CacheVerifyReport clean = verifyCacheDir(dir.path(), false);
    EXPECT_EQ(clean.checked, 2u);
    EXPECT_EQ(clean.healthy, 2u);
    EXPECT_TRUE(clean.clean());

    std::vector<std::string> entries = dir.entries();
    ASSERT_EQ(entries.size(), 2u);
    const std::string victim = dir.path() + "/" + entries[0];
    {
        std::FILE *f = std::fopen(victim.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 150, SEEK_SET), 0);
        std::fputc(0x3c, f);
        std::fclose(f);
    }

    // Read-only verify reports the damage but leaves it in place.
    CacheVerifyReport found = verifyCacheDir(dir.path(), false);
    EXPECT_EQ(found.damaged, 1u);
    ASSERT_EQ(found.damagedPaths.size(), 1u);
    EXPECT_NE(found.damagedPaths[0].find(victim), std::string::npos);
    EXPECT_EQ(dir.entries().size(), 2u);

    // Repairing verify quarantines it; the cache is then clean again.
    CacheVerifyReport repaired = verifyCacheDir(dir.path(), true);
    EXPECT_EQ(repaired.damaged, 1u);
    EXPECT_EQ(dir.entries().size(), 1u);
    EXPECT_TRUE(dir.anyWithSuffix(".reason"));
    CacheVerifyReport after = verifyCacheDir(dir.path(), false);
    EXPECT_TRUE(after.clean());
    EXPECT_EQ(after.checked, 1u);
}
