/**
 * @file
 * Fault-injection matrix over the replay/cache pipeline (the PR's
 * acceptance test): for every registered failpoint, armed on both the
 * cache store path (cold run) and the load path (warm run), the outcome
 * must be one of exactly two things — a recovered run whose Pics are
 * bit-identical to the fault-free baseline, or a localized
 * per-experiment failure (an exception, never process death). In both
 * cases a disarmed rerun against whatever on-disk state the faulted run
 * left behind must fully recover: no failpoint may poison the cache.
 *
 * Targeted tests then pin down the individual self-healing behaviours:
 * transient-error retry, quarantine of damaged entries, per-experiment
 * containment in suites, and lock-serialized rewrites.
 */

#include <algorithm>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/parallel_runner.hh"
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

/** A scratch cache directory removed (recursively) on destruction. */
class TempCacheDir
{
  public:
    TempCacheDir()
    {
        char tmpl[] = "/tmp/tea-fault-matrix-XXXXXX";
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

    /** Names in @p sub relative to the cache dir ("" = the root). */
    std::vector<std::string> list(const std::string &sub = "") const
    {
        return listAt(sub.empty() ? dir_ : dir_ + "/" + sub);
    }

    /** Cache entries (*.teatrc) in the root, unsorted. */
    std::vector<std::string> entries() const
    {
        std::vector<std::string> out;
        for (const std::string &name : list()) {
            if (endsWith(name, ".teatrc"))
                out.push_back(name);
        }
        return out;
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
    // Injected lock contention must not stall the matrix for the
    // production default of 5 s per acquire.
    o.cacheLockTimeoutMs = 50;
    return o;
}

/** The matrix workload: small, deterministic, non-trivial Pics. */
ExperimentResult
runOnce(const RunnerOptions &opts)
{
    return runWorkload(workloads::aluLoop(300), {teaConfig()}, opts);
}

/** Every test starts and ends with all failpoints disarmed. */
class FaultMatrix : public ::testing::Test
{
  protected:
    void SetUp() override { failpoints::resetAll(); }
    void TearDown() override { failpoints::resetAll(); }
};

} // namespace

TEST_F(FaultMatrix, EveryFailpointRecoversOrFailsLocalized)
{
    // Fault-free baseline: cache off.
    const ExperimentResult base = runOnce(RunnerOptions{});

    std::vector<std::string> names;
    for (Failpoint *fp : failpoints::all())
        names.push_back(fp->name());
    ASSERT_EQ(names.size(), 19u); // the wired seams are all registered

    for (const std::string &name : names) {
        // warm=false arms the seam for a cold run (store path); warm
        // arms it against a healthy pre-populated entry (load path).
        for (bool warm : {false, true}) {
            SCOPED_TRACE(name + (warm ? " [load]" : " [store]"));
            TempCacheDir dir;
            RunnerOptions opts = cachedOptions(dir);
            if (warm) {
                const ExperimentResult populate = runOnce(opts);
                ASSERT_FALSE(populate.failed());
            }

            failpoints::configure(name, "always");
            bool localized = false;
            try {
                const ExperimentResult got = runOnce(opts);
                // Recovered: the run healed around the fault and its
                // result is bit-identical to the baseline.
                expectPicsIdentical(base.golden->pics(),
                                    got.golden->pics());
            } catch (const std::exception &) {
                // Localized: the experiment failed as a containable
                // exception. (Process death would fail the whole test
                // binary, which is the point.)
                localized = true;
            }
            failpoints::resetAll();

            // Either way, a disarmed rerun against whatever the faulted
            // run left on disk must fully recover — a poisoned cache
            // would diverge here.
            const ExperimentResult after = runOnce(opts);
            expectPicsIdentical(base.golden->pics(),
                                after.golden->pics());
            (void)localized;
        }
    }
}

TEST_F(FaultMatrix, TransientLoadFaultRetriesToAHit)
{
    TempCacheDir dir;
    const ExperimentResult cold = runOnce(cachedOptions(dir));
    ASSERT_TRUE(cold.replay.cacheStored);

    // One injected EAGAIN on the entry's open: the retry layer must
    // turn it into an ordinary hit, and count the recovery.
    failpoints::configure("trace_io.map_open", "nth:1@eagain");
    const ExperimentResult warm = runOnce(cachedOptions(dir));
    EXPECT_TRUE(warm.replay.cacheHit);
    EXPECT_GE(warm.replay.ioRetries, 1u);
    EXPECT_GE(warm.replay.ioRecoveries, 1u);
    expectPicsIdentical(cold.golden->pics(), warm.golden->pics());
}

TEST_F(FaultMatrix, DamagedEntryIsQuarantinedThenRewritten)
{
    TempCacheDir dir;
    const ExperimentResult cold = runOnce(cachedOptions(dir));
    ASSERT_TRUE(cold.replay.cacheStored);
    std::vector<std::string> entries = dir.entries();
    ASSERT_EQ(entries.size(), 1u);
    const std::string entry = dir.path() + "/" + entries[0];

    // Corrupt one payload byte in place.
    {
        std::FILE *f = std::fopen(entry.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
        int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
        std::fputc(c ^ 0xff, f);
        std::fclose(f);
    }

    const ExperimentResult again = runOnce(cachedOptions(dir));
    EXPECT_FALSE(again.replay.cacheHit);
    EXPECT_TRUE(again.replay.cacheStored);
    EXPECT_EQ(again.replay.quarantined, 1u);
    expectPicsIdentical(cold.golden->pics(), again.golden->pics());
    EXPECT_NE(again.replay.render().find("quarantined"),
              std::string::npos);

    // The damaged file moved (with its reason) under quarantine/ and
    // can never satisfy a lookup again; the rewritten entry hits.
    std::vector<std::string> q = dir.list("quarantine");
    EXPECT_EQ(q.size(), 2u); // the moved entry + its .reason note
    bool has_reason = false;
    for (const std::string &name : q)
        has_reason = has_reason || TempCacheDir::endsWith(name, ".reason");
    EXPECT_TRUE(has_reason);

    const ExperimentResult warm = runOnce(cachedOptions(dir));
    EXPECT_TRUE(warm.replay.cacheHit);
    expectPicsIdentical(cold.golden->pics(), warm.golden->pics());
}

TEST_F(FaultMatrix, SuiteContainsPerExperimentFailures)
{
    const std::vector<std::string> names = {"exchange2", "mcf", "nab"};

    // Fail the second experiment of the suite; the others must
    // complete untouched.
    failpoints::configure("runner.experiment", "nth:2");
    std::vector<ExperimentResult> results =
        runBenchmarkSuite(names, {teaConfig()}, RunnerOptions{});
    failpoints::resetAll();

    ASSERT_EQ(results.size(), names.size());
    EXPECT_FALSE(results[0].failed());
    EXPECT_TRUE(results[1].failed());
    EXPECT_FALSE(results[2].failed());
    EXPECT_NE(results[1].error.find("runner.experiment"),
              std::string::npos);
    for (const ExperimentResult &r : results)
        EXPECT_EQ(r.replay.degradedExperiments, 1u);

    const std::string report = renderSuiteErrors(results);
    EXPECT_NE(report.find("mcf"), std::string::npos);
    EXPECT_EQ(report.find("exchange2"), std::string::npos);

    // The healthy experiments really are healthy, bit for bit.
    std::vector<ExperimentResult> clean =
        runBenchmarkSuite(names, {teaConfig()}, RunnerOptions{});
    EXPECT_TRUE(renderSuiteErrors(clean).empty());
    for (const ExperimentResult &r : clean)
        EXPECT_EQ(r.replay.degradedExperiments, 0u);
    expectPicsIdentical(clean[0].golden->pics(),
                        results[0].golden->pics());
    expectPicsIdentical(clean[2].golden->pics(),
                        results[2].golden->pics());
}

TEST_F(FaultMatrix, ParallelSuiteContainsExactlyTheInjectedFailure)
{
    const std::vector<std::string> names = {"exchange2", "mcf", "nab"};
    RunnerOptions opts;
    opts.threads = 3;
    failpoints::configure("runner.experiment", "nth:2");
    std::vector<ExperimentResult> results =
        runBenchmarkSuite(names, {teaConfig()}, opts);
    failpoints::resetAll();

    unsigned failures = 0;
    for (const ExperimentResult &r : results)
        failures += r.failed() ? 1 : 0;
    EXPECT_EQ(failures, 1u); // which worker drew it is scheduling, the
                             // count is not
    for (const ExperimentResult &r : results)
        EXPECT_EQ(r.replay.degradedExperiments, 1u);
}

TEST_F(FaultMatrix, RewriteOfDamagedEntryRequiresTheLock)
{
    TempCacheDir dir;
    const ExperimentResult cold = runOnce(cachedOptions(dir));
    ASSERT_TRUE(cold.replay.cacheStored);
    std::vector<std::string> entries = dir.entries();
    ASSERT_EQ(entries.size(), 1u);
    const std::string entry = dir.path() + "/" + entries[0];

    // Damage the entry, then hold its write lock as a concurrent
    // process would while rewriting it.
    {
        std::FILE *f = std::fopen(entry.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
        std::fputc(0x5a, f);
        std::fclose(f);
    }
    FileLock other;
    ASSERT_TRUE(other.acquire(TraceCache::lockPathFor(entry), 100));

    // The damaged entry is quarantined (rename needs no lock — it is
    // atomic and at-most-once), but the rewrite must NOT proceed
    // without the lock: this run degrades to simulate-without-storing.
    const ExperimentResult blocked = runOnce(cachedOptions(dir));
    EXPECT_FALSE(blocked.replay.cacheHit);
    EXPECT_FALSE(blocked.replay.cacheStored);
    EXPECT_EQ(blocked.replay.quarantined, 1u);
    expectPicsIdentical(cold.golden->pics(), blocked.golden->pics());
    EXPECT_TRUE(dir.entries().empty()); // no unserialized rewrite

    // Once the holder releases, the next run rewrites and hits again.
    other.release();
    const ExperimentResult rewrite = runOnce(cachedOptions(dir));
    EXPECT_TRUE(rewrite.replay.cacheStored);
    const ExperimentResult warm = runOnce(cachedOptions(dir));
    EXPECT_TRUE(warm.replay.cacheHit);
    expectPicsIdentical(cold.golden->pics(), warm.golden->pics());
}
