/**
 * @file
 * Unit tests for the fault-injection framework (common/failpoint), the
 * transient-error retry layer (common/retry) and the advisory file lock
 * (common/file_lock) — the three legs the self-healing replay/cache
 * pipeline stands on (DESIGN.md, "Failure model and recovery").
 */

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/failpoint.hh"
#include "common/file_lock.hh"
#include "common/retry.hh"

using namespace tea;

namespace {

// Test-owned seams: registered once at static init like production
// seams. Names are namespaced under "test." so they can never collide
// with a real seam.
Failpoint fpAlpha("test.alpha", EIO);
Failpoint fpBeta("test.beta", ENOSPC);

/** Every test starts and ends with all failpoints disarmed. */
class FailpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { failpoints::resetAll(); }
    void TearDown() override { failpoints::resetAll(); }
};

} // namespace

TEST_F(FailpointTest, OffByDefaultAndFreeWhenDisarmed)
{
    EXPECT_EQ(fpAlpha.hits(), 0u);
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(fpAlpha.fire());
    // The disarmed fast path is one atomic load — it does not even
    // count hits, by design.
    EXPECT_EQ(fpAlpha.hits(), 0u);
    EXPECT_EQ(fpAlpha.fired(), 0u);
    EXPECT_EQ(fpAlpha.failErrno(), EIO);
}

TEST_F(FailpointTest, AlwaysFiresEveryHit)
{
    std::string err;
    ASSERT_TRUE(fpAlpha.configure("always", &err)) << err;
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(fpAlpha.fire());
    EXPECT_EQ(fpAlpha.fired(), 3u);
}

TEST_F(FailpointTest, NthFiresExactlyOnce)
{
    std::string err;
    ASSERT_TRUE(fpAlpha.configure("nth:3", &err)) << err;
    EXPECT_FALSE(fpAlpha.fire());
    EXPECT_FALSE(fpAlpha.fire());
    EXPECT_TRUE(fpAlpha.fire()); // the 3rd hit
    EXPECT_FALSE(fpAlpha.fire());
    EXPECT_EQ(fpAlpha.hits(), 4u);
    EXPECT_EQ(fpAlpha.fired(), 1u);
}

TEST_F(FailpointTest, ProbIsDeterministicPerSeed)
{
    auto draw = [&](const std::string &spec, int n) {
        std::string err;
        EXPECT_TRUE(fpAlpha.configure(spec, &err)) << err;
        std::vector<bool> fires;
        for (int i = 0; i < n; ++i)
            fires.push_back(fpAlpha.fire());
        fpAlpha.reset();
        return fires;
    };
    std::vector<bool> a = draw("prob:0.5:42", 200);
    std::vector<bool> b = draw("prob:0.5:42", 200);
    EXPECT_EQ(a, b); // same seed, bit-identical decision stream

    std::vector<bool> c = draw("prob:0.5:43", 200);
    EXPECT_NE(a, c); // different seed, different stream

    // The rates are sane at the extremes.
    std::vector<bool> never = draw("prob:0.0:1", 100);
    std::vector<bool> ever = draw("prob:1.0:1", 100);
    EXPECT_EQ(std::count(never.begin(), never.end(), true), 0);
    EXPECT_EQ(std::count(ever.begin(), ever.end(), true), 100);
}

TEST_F(FailpointTest, KindSuffixOverridesErrno)
{
    std::string err;
    ASSERT_TRUE(fpAlpha.configure("always@enospc", &err)) << err;
    EXPECT_EQ(fpAlpha.failErrno(), ENOSPC);
    ASSERT_TRUE(fpAlpha.configure("always@eagain", &err)) << err;
    EXPECT_EQ(fpAlpha.failErrno(), EAGAIN);
    ASSERT_TRUE(fpAlpha.configure("always@eio", &err)) << err;
    EXPECT_EQ(fpAlpha.failErrno(), EIO);
    fpAlpha.reset();
    EXPECT_EQ(fpAlpha.failErrno(), EIO); // back to the seam's default

    ASSERT_TRUE(fpBeta.configure("always", &err)) << err;
    EXPECT_EQ(fpBeta.failErrno(), ENOSPC); // default kind preserved
}

TEST_F(FailpointTest, MalformedSpecsAreRejected)
{
    std::string err;
    for (const char *bad :
         {"", "sometimes", "nth:", "nth:x", "nth:0", "prob:", "prob:2:1",
          "prob:-1:1", "prob:0.5", "always@ebadness", "nth:-1", "nth:+3",
          "prob:0.5:-3"}) {
        SCOPED_TRACE(bad);
        err.clear();
        EXPECT_FALSE(fpAlpha.configure(bad, &err));
        EXPECT_FALSE(err.empty());
    }
    // A failed configure leaves the failpoint disarmed.
    EXPECT_FALSE(fpAlpha.fire());
}

TEST_F(FailpointTest, RegistryFindsAndResets)
{
    EXPECT_EQ(failpoints::find("test.alpha"), &fpAlpha);
    EXPECT_EQ(failpoints::find("no.such.seam"), nullptr);

    std::vector<Failpoint *> all = failpoints::all();
    EXPECT_NE(std::find(all.begin(), all.end(), &fpAlpha), all.end());
    EXPECT_NE(std::find(all.begin(), all.end(), &fpBeta), all.end());

    failpoints::configure("test.alpha", "always");
    EXPECT_TRUE(fpAlpha.fire());
    EXPECT_EQ(fpAlpha.hits(), 1u);
    failpoints::resetAll();
    EXPECT_FALSE(fpAlpha.fire());
    EXPECT_EQ(fpAlpha.hits(), 0u); // reset zeroed the counters
}

TEST_F(FailpointTest, ConfigureListParsesMultipleSeams)
{
    failpoints::configureList(
        "test.alpha=nth:2@eagain,test.beta=always");
    EXPECT_FALSE(fpAlpha.fire());
    EXPECT_TRUE(fpAlpha.fire());
    EXPECT_EQ(fpAlpha.failErrno(), EAGAIN);
    EXPECT_TRUE(fpBeta.fire());
}

TEST_F(FailpointTest, ConfigureFromEnvironment)
{
    ::setenv("TEA_FAILPOINTS", "test.beta=nth:1", 1);
    failpoints::configureFromEnv();
    EXPECT_TRUE(fpBeta.fire());
    EXPECT_FALSE(fpBeta.fire());
    ::unsetenv("TEA_FAILPOINTS");
}

TEST_F(FailpointTest, UnknownEnvNameIsFatalOnceWorkStarts)
{
    // Unknown names from TEA_FAILPOINTS are parked during static init
    // (the seam's TU may simply register later); checkEnvConsumed is
    // the runner's pre-experiment gate that turns a never-claimed park
    // — i.e. a typo — into a clean fatal instead of injecting nothing.
    ::setenv("TEA_FAILPOINTS", "no.such.seam=always", 1);
    EXPECT_EXIT(
        {
            failpoints::configureFromEnv();
            failpoints::checkEnvConsumed();
        },
        ::testing::ExitedWithCode(1), "unknown failpoint");
    ::unsetenv("TEA_FAILPOINTS");
    failpoints::checkEnvConsumed(); // nothing parked in the parent
}

TEST_F(FailpointTest, UnknownOrMalformedConfigurationIsFatal)
{
    // A typo'd fault-injection run must not silently test nothing.
    EXPECT_EXIT(failpoints::configure("no.such.seam", "always"),
                ::testing::ExitedWithCode(1), "unknown failpoint");
    EXPECT_EXIT(failpoints::configure("test.alpha", "bogus"),
                ::testing::ExitedWithCode(1), "failpoint");
    EXPECT_EXIT(failpoints::configureList("test.alpha"),
                ::testing::ExitedWithCode(1), "malformed entry");
}

TEST_F(FailpointTest, RaiseThrowsFailpointError)
{
    try {
        fpAlpha.raise();
        FAIL() << "raise() returned";
    } catch (const FailpointError &e) {
        EXPECT_NE(std::string(e.what()).find("test.alpha"),
                  std::string::npos);
    }
}

TEST(ErrnoClassification, TransientVersusPermanent)
{
    for (int e : {EINTR, EAGAIN, EBUSY, ENFILE, EMFILE}) {
        SCOPED_TRACE(e);
        EXPECT_EQ(classifyErrno(e), ErrorClass::Transient);
    }
    for (int e : {EIO, ENOSPC, EACCES, ENOENT, EBADF, 0, 9999}) {
        SCOPED_TRACE(e);
        EXPECT_EQ(classifyErrno(e), ErrorClass::Permanent);
    }
}

TEST(Backoff, DelaysAreBoundedAndGrow)
{
    RetryPolicy policy;
    policy.baseDelayUs = 100;
    policy.maxDelayUs = 1000;
    Rng rng(policy.jitterSeed);
    for (unsigned retry = 1; retry <= 10; ++retry) {
        std::uint64_t window = policy.baseDelayUs;
        for (unsigned i = 1; i < retry && window < policy.maxDelayUs;
             ++i)
            window *= 2;
        window = std::min<std::uint64_t>(window, policy.maxDelayUs);
        for (int draw = 0; draw < 50; ++draw) {
            unsigned d = backoffDelayUs(policy, retry, rng);
            EXPECT_GE(d, 1u);
            EXPECT_LE(d, window);
        }
    }
}

TEST(RetryTransient, RecoversCountsAndGivesUp)
{
    RetryPolicy fast;
    fast.maxAttempts = 4;
    fast.baseDelayUs = 1;
    fast.maxDelayUs = 2;

    // Succeeds on the 3rd attempt after two transient failures.
    RetryStats stats;
    int calls = 0;
    EXPECT_TRUE(retryTransient(fast, stats, [&] {
        if (++calls < 3) {
            errno = EAGAIN;
            return false;
        }
        return true;
    }));
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(stats.recoveries, 1u);

    // A permanent error is never retried.
    stats = RetryStats{};
    calls = 0;
    EXPECT_FALSE(retryTransient(fast, stats, [&] {
        ++calls;
        errno = ENOSPC;
        return false;
    }));
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(stats.retries, 0u);

    // A persistent transient error exhausts the attempt budget.
    stats = RetryStats{};
    calls = 0;
    EXPECT_FALSE(retryTransient(fast, stats, [&] {
        ++calls;
        errno = EAGAIN;
        return false;
    }));
    EXPECT_EQ(calls, 4);
    EXPECT_EQ(stats.retries, 3u);
    EXPECT_EQ(stats.recoveries, 0u);

    // First-try success costs nothing.
    stats = RetryStats{};
    EXPECT_TRUE(retryTransient(fast, stats, [] { return true; }));
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.recoveries, 0u);
}

TEST(RetryStatsMerge, Accumulates)
{
    RetryStats a{3, 1};
    RetryStats b{2, 2};
    a.merge(b);
    EXPECT_EQ(a.retries, 5u);
    EXPECT_EQ(a.recoveries, 3u);
}

namespace {

/** A scratch lock-file path unlinked on destruction. */
struct TempLockFile
{
    TempLockFile()
    {
        char tmpl[] = "/tmp/tea-lock-test-XXXXXX";
        int fd = ::mkstemp(tmpl);
        EXPECT_GE(fd, 0);
        if (fd >= 0)
            ::close(fd);
        path = tmpl;
    }
    ~TempLockFile() { ::unlink(path.c_str()); }
    std::string path;
};

} // namespace

TEST(FileLockTest, AcquireHoldReleaseReacquire)
{
    TempLockFile f;
    FileLock lock;
    EXPECT_FALSE(lock.held());
    ASSERT_TRUE(lock.acquire(f.path, 100));
    EXPECT_TRUE(lock.held());
    lock.release();
    EXPECT_FALSE(lock.held());
    ASSERT_TRUE(lock.acquire(f.path, 100));
    EXPECT_TRUE(lock.held());
}

TEST(FileLockTest, ContendedLockTimesOut)
{
    TempLockFile f;
    FileLock holder;
    ASSERT_TRUE(holder.acquire(f.path, 100));

    // A second open file description cannot take the flock while the
    // first holds it — this is exactly the cross-process situation.
    FileLock second;
    EXPECT_FALSE(second.acquire(f.path, 50));
    EXPECT_FALSE(second.held());

    holder.release();
    EXPECT_TRUE(second.acquire(f.path, 100));
}

TEST(FileLockTest, StaleLockFromDeadHolderIsTakenOver)
{
    TempLockFile f;
    // Simulate a crashed holder: lock the file on a raw descriptor and
    // close it without unlocking — the kernel drops the flock with the
    // descriptor, so the file left behind is just an unlocked file.
    int fd = ::open(f.path.c_str(), O_RDWR);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::flock(fd, LOCK_EX), 0);
    ::close(fd);

    FileLock lock;
    EXPECT_TRUE(lock.acquire(f.path, 50));
}

TEST(FileLockTest, AcquireCreatesMissingLockFile)
{
    TempLockFile f;
    ::unlink(f.path.c_str());
    FileLock lock;
    EXPECT_TRUE(lock.acquire(f.path, 50));
    EXPECT_EQ(::access(f.path.c_str(), F_OK), 0);
}

TEST(FileLockTest, InjectedAcquireFailureDegrades)
{
    failpoints::resetAll();
    TempLockFile f;
    failpoints::configure("cache.lock", "always");
    FileLock lock;
    EXPECT_FALSE(lock.acquire(f.path, 30));
    EXPECT_FALSE(lock.held());
    failpoints::resetAll();
    EXPECT_TRUE(lock.acquire(f.path, 30));
}
