/**
 * @file
 * Persistent trace cache tests: codec round-trip fidelity, on-disk
 * validation (corruption, truncation, stale fingerprints must never
 * crash or poison a run — they fall back to simulation), and the
 * headline guarantee that a cache-hit replay is bit-identical to a
 * direct simulation, standalone and in a suite.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/parallel_runner.hh"
#include "analysis/runner.hh"
#include "analysis/trace_cache.hh"
#include "common/rng.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"
#include "core/trace_io.hh"
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

/** Assert two experiment results are equivalent to the last bit. */
void
expectExperimentsIdentical(const ExperimentResult &ref,
                           const ExperimentResult &got)
{
    expectPicsIdentical(ref.golden->pics(), got.golden->pics());
    EXPECT_EQ(ref.golden->eventCounts().size(),
              got.golden->eventCounts().size());
    ASSERT_EQ(ref.techniques.size(), got.techniques.size());
    for (std::size_t i = 0; i < ref.techniques.size(); ++i) {
        const TechniqueResult &s = ref.techniques[i];
        const TechniqueResult &p = got.techniques[i];
        SCOPED_TRACE(s.config.name);
        EXPECT_EQ(s.samplesTaken, p.samplesTaken);
        EXPECT_EQ(s.samplesDropped, p.samplesDropped);
        expectPicsIdentical(s.pics, p.pics);
        EXPECT_EQ(ref.errorOf(s), got.errorOf(p));
        EXPECT_EQ(ref.errorOf(s, Granularity::Function),
                  got.errorOf(p, Granularity::Function));
    }
}

/** A scratch cache directory removed (recursively) on destruction. */
class TempCacheDir
{
  public:
    TempCacheDir()
    {
        char tmpl[] = "/tmp/tea-trace-cache-test-XXXXXX";
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

    /**
     * Cache entries (*.teatrc) currently in the directory, unsorted.
     * Lock files and the quarantine subdirectory are bookkeeping, not
     * entries, and are excluded.
     */
    std::vector<std::string> entries() const
    {
        std::vector<std::string> out;
        for (const std::string &name : list(dir_)) {
            if (name.size() > 7 &&
                name.compare(name.size() - 7, 7, ".teatrc") == 0)
                out.push_back(name);
        }
        return out;
    }

    /** All names in @p sub (relative to the cache dir; "" = root). */
    std::vector<std::string> listDir(const std::string &sub = "") const
    {
        return list(sub.empty() ? dir_ : dir_ + "/" + sub);
    }

  private:
    static std::vector<std::string> list(const std::string &at)
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
        for (const std::string &name : list(at)) {
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
    return o;
}

/** Pseudo-random but structurally valid trace event stream. */
std::vector<TraceEvent>
randomEvents(Rng &rng, std::size_t count)
{
    std::vector<TraceEvent> events;
    events.reserve(count);
    Cycle cycle = 0;
    SeqNum seq = 1;
    for (std::size_t i = 0; i < count; ++i) {
        TraceEvent ev;
        switch (rng.below(5)) {
          case 0: {
            ev.kind = TraceEventKind::Cycle;
            ev.p.cycle = CycleRecord{};
            CycleRecord &c = ev.p.cycle;
            cycle += rng.range(1, 5);
            c.cycle = cycle;
            c.state = static_cast<CommitState>(rng.below(4));
            c.numCommitted =
                c.state == CommitState::Compute
                    ? static_cast<std::uint8_t>(rng.range(1, 8))
                    : 0;
            for (unsigned u = 0; u < c.numCommitted; ++u) {
                c.committed[u].seq = seq++;
                c.committed[u].pc =
                    static_cast<InstIndex>(rng.below(4096));
                c.committed[u].psv =
                    Psv(static_cast<std::uint16_t>(rng.below(512)));
            }
            c.headValid = c.state == CommitState::Stalled;
            if (c.headValid) {
                c.headSeq = seq + rng.below(16);
                c.headPc = static_cast<InstIndex>(rng.below(4096));
            }
            c.lastValid = rng.chance(0.9);
            if (c.lastValid) {
                c.lastPc = static_cast<InstIndex>(rng.below(4096));
                c.lastPsv =
                    Psv(static_cast<std::uint16_t>(rng.below(512)));
            }
            break;
          }
          case 1:
            ev.kind = TraceEventKind::Dispatch;
            ev.p.uop = UopRecord{seq++,
                                 static_cast<InstIndex>(rng.below(4096)),
                                 cycle};
            break;
          case 2:
            ev.kind = TraceEventKind::Fetch;
            ev.p.uop = UopRecord{seq++,
                                 static_cast<InstIndex>(rng.below(4096)),
                                 cycle};
            break;
          case 3:
            ev.kind = TraceEventKind::Retire;
            ev.p.retire = RetireRecord{
                seq++, static_cast<InstIndex>(rng.below(4096)),
                Psv(static_cast<std::uint16_t>(rng.below(512))), cycle};
            break;
          default:
            ev.kind = TraceEventKind::End;
            ev.p.end = cycle;
            break;
        }
        events.push_back(ev);
    }
    return events;
}

/** Encode → decode must reproduce an observer-equivalent chunk. */
void
expectRoundTrips(const TraceChunk &chunk)
{
    std::vector<std::uint8_t> frame;
    encodeChunk(chunk, frame);

    std::string why;
    ASSERT_TRUE(verifyFrame(frame.data(), frame.size(), &why)) << why;

    TraceChunk back;
    std::size_t consumed = 0;
    ASSERT_TRUE(
        decodeChunk(frame.data(), frame.size(), back, &consumed, &why))
        << why;
    EXPECT_EQ(consumed, frame.size());
    EXPECT_EQ(back.cycleRecords, chunk.cycleRecords);
    ASSERT_EQ(back.events.size(), chunk.events.size());
    for (std::size_t i = 0; i < chunk.events.size(); ++i) {
        EXPECT_TRUE(eventsEquivalent(chunk.events[i], back.events[i]))
            << "event " << i << " kind "
            << static_cast<int>(chunk.events[i].kind);
    }
}

} // namespace

TEST(TraceCodec, RandomStreamsRoundTripBitIdentical)
{
    Rng rng(0xc0dec);
    for (unsigned round = 0; round < 20; ++round) {
        SCOPED_TRACE(round);
        TraceChunk chunk;
        chunk.events = randomEvents(rng, rng.range(1, 3000));
        for (const TraceEvent &ev : chunk.events) {
            if (ev.kind == TraceEventKind::Cycle)
                ++chunk.cycleRecords;
        }
        expectRoundTrips(chunk);
    }
}

TEST(TraceCodec, RealTraceRoundTrips)
{
    Workload w = workloads::orderingViolator(500);
    TraceBuffer buf(512);
    CoreRun run = makeCore(std::move(w));
    run->addSink(&buf);
    run->run();
    buf.finish();

    ASSERT_FALSE(buf.chunks().empty());
    for (const TraceChunkPtr &chunk : buf.chunks())
        expectRoundTrips(*chunk);
}

TEST(TraceCodec, EmptyChunkRoundTrips)
{
    TraceChunk chunk;
    expectRoundTrips(chunk);
}

TEST(TraceCodec, DecodeRejectsCorruptedFrames)
{
    Rng rng(7);
    TraceChunk chunk;
    chunk.events = randomEvents(rng, 500);
    for (const TraceEvent &ev : chunk.events) {
        if (ev.kind == TraceEventKind::Cycle)
            ++chunk.cycleRecords;
    }
    std::vector<std::uint8_t> frame;
    encodeChunk(chunk, frame);

    // Flipping any single byte must fail CRC verification (sampled).
    for (std::size_t at = 0; at < frame.size();
         at += std::max<std::size_t>(1, frame.size() / 37)) {
        std::vector<std::uint8_t> bad = frame;
        bad[at] ^= 0x40;
        std::string why;
        EXPECT_FALSE(verifyFrame(bad.data(), bad.size(), &why))
            << "flip at " << at << " not detected";
    }

    // Truncation at any point must be rejected, never read past end.
    for (std::size_t keep : {std::size_t{0}, std::size_t{3},
                             frame.size() / 2, frame.size() - 1}) {
        std::string why;
        EXPECT_FALSE(verifyFrame(frame.data(), keep, &why));
    }
}

TEST(TraceCacheFile, WriteThenMapReplaysIdentically)
{
    TempCacheDir dir;
    const std::string path = dir.path() + "/entry.teatrc";
    const std::uint64_t fp = 0x1234abcd5678ef00ULL;

    // Record a real trace both into memory and through the writer.
    TraceBuffer buf(256);
    Workload w = workloads::pointerChase(64, 20, 4096);
    CoreRun run = makeCore(std::move(w));
    run->addSink(&buf);
    run->run();
    buf.finish();

    CompactTraceWriter writer(path, fp);
    ASSERT_TRUE(writer.active());
    for (const TraceChunkPtr &chunk : buf.chunks())
        writer.writeChunk(*chunk);
    ASSERT_TRUE(writer.commit(run->stats()));

    std::string why;
    auto mapped = MappedTraceFile::open(path, fp, &why);
    ASSERT_NE(mapped, nullptr) << why;
    EXPECT_EQ(mapped->chunkCount(), buf.chunks().size());
    EXPECT_EQ(mapped->coreStats().cycles, run->stats().cycles);
    EXPECT_EQ(mapped->coreStats().committedUops,
              run->stats().committedUops);

    std::size_t i = 0;
    while (TraceChunkPtr c = mapped->nextChunk()) {
        ASSERT_LT(i, buf.chunks().size());
        const TraceChunk &orig = *buf.chunks()[i];
        ASSERT_EQ(c->events.size(), orig.events.size());
        for (std::size_t e = 0; e < orig.events.size(); ++e)
            EXPECT_TRUE(eventsEquivalent(orig.events[e], c->events[e]));
        ++i;
    }
    EXPECT_EQ(i, buf.chunks().size());
}

TEST(TraceCacheFile, OpenRejectsDamage)
{
    TempCacheDir dir;
    const std::string path = dir.path() + "/entry.teatrc";
    const std::uint64_t fp = 42;

    TraceBuffer buf(256);
    CoreRun run = makeCore(workloads::aluLoop(300));
    run->addSink(&buf);
    run->run();
    buf.finish();

    CompactTraceWriter writer(path, fp);
    for (const TraceChunkPtr &chunk : buf.chunks())
        writer.writeChunk(*chunk);
    ASSERT_TRUE(writer.commit(run->stats()));

    struct ::stat st{};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    std::vector<char> original(static_cast<std::size_t>(st.st_size));
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fread(original.data(), 1, original.size(), f),
                  original.size());
        std::fclose(f);
    }
    auto rewrite = [&](const std::vector<char> &bytes) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        // data() of an empty vector may be null, which fwrite's nonnull
        // contract forbids even for a zero-byte write.
        if (!bytes.empty()) {
            ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                      bytes.size());
        }
        std::fclose(f);
    };

    // Pristine file opens.
    std::string why;
    EXPECT_NE(MappedTraceFile::open(path, fp, &why), nullptr) << why;

    // Wrong fingerprint (stale workload/config) is rejected.
    EXPECT_EQ(MappedTraceFile::open(path, fp + 1, &why), nullptr);
    EXPECT_NE(why.find("fingerprint"), std::string::npos) << why;

    // A flipped byte anywhere — header, stats or payload — is rejected.
    for (std::size_t at : {std::size_t{9}, std::size_t{70},
                           original.size() / 2, original.size() - 2}) {
        std::vector<char> bad = original;
        bad[at] ^= 0x01;
        rewrite(bad);
        EXPECT_EQ(MappedTraceFile::open(path, fp, &why), nullptr)
            << "corruption at byte " << at << " not detected";
    }

    // Truncations are rejected.
    for (std::size_t keep : {std::size_t{0}, std::size_t{10},
                             original.size() / 2, original.size() - 1}) {
        std::vector<char> bad(original.begin(),
                              original.begin() +
                                  static_cast<std::ptrdiff_t>(keep));
        rewrite(bad);
        EXPECT_EQ(MappedTraceFile::open(path, fp, &why), nullptr)
            << "truncation to " << keep << " bytes not detected";
    }

    // A missing file is rejected the same way.
    ASSERT_EQ(std::remove(path.c_str()), 0);
    EXPECT_EQ(MappedTraceFile::open(path, fp, &why), nullptr);
}

TEST(TraceCache, MissThenHitIsBitIdentical)
{
    TempCacheDir dir;
    const std::string name = "exchange2";

    // Reference: cache off.
    ExperimentResult direct =
        runBenchmark(name, standardTechniques(), RunnerOptions{});
    EXPECT_FALSE(direct.replay.cacheHit);

    // Cold run populates the cache (still simulating).
    ExperimentResult cold =
        runBenchmark(name, standardTechniques(), cachedOptions(dir));
    EXPECT_FALSE(cold.replay.cacheHit);
    EXPECT_TRUE(cold.replay.cacheStored);
    EXPECT_GT(cold.replay.cacheBytes, 0u);
    EXPECT_EQ(direct.stats.cycles, cold.stats.cycles);
    expectExperimentsIdentical(direct, cold);

    // The warm run replays from disk.
    ExperimentResult warm =
        runBenchmark(name, standardTechniques(), cachedOptions(dir));
    EXPECT_TRUE(warm.replay.cacheHit);
    // The split-seconds contract: a warm hit spends no simulate time,
    // and decode time is accounted separately from replay.
    EXPECT_EQ(warm.replay.simulateSeconds, 0.0);
    EXPECT_GT(warm.replay.decodeSeconds, 0.0);
    EXPECT_EQ(direct.stats.cycles, warm.stats.cycles);
    EXPECT_EQ(direct.stats.committedUops, warm.stats.committedUops);
    EXPECT_EQ(direct.stats.branchMispredicts,
              warm.stats.branchMispredicts);
    expectExperimentsIdentical(direct, warm);
}

TEST(TraceCache, DifferentConfigsKeepDistinctEntries)
{
    TempCacheDir dir;
    CoreConfig a;
    CoreConfig b;
    b.robEntries = 32; // small window: measurably different timing

    ExperimentResult ra =
        runBenchmark("mcf", {teaConfig()}, cachedOptions(dir), a);
    ExperimentResult rb =
        runBenchmark("mcf", {teaConfig()}, cachedOptions(dir), b);
    EXPECT_FALSE(ra.replay.cacheHit);
    EXPECT_FALSE(rb.replay.cacheHit);
    EXPECT_EQ(dir.entries().size(), 2u);
    EXPECT_NE(ra.stats.cycles, rb.stats.cycles);

    // Each config hits its own entry and reproduces its own result.
    ExperimentResult ha =
        runBenchmark("mcf", {teaConfig()}, cachedOptions(dir), a);
    ExperimentResult hb =
        runBenchmark("mcf", {teaConfig()}, cachedOptions(dir), b);
    EXPECT_TRUE(ha.replay.cacheHit);
    EXPECT_TRUE(hb.replay.cacheHit);
    EXPECT_EQ(ha.stats.cycles, ra.stats.cycles);
    EXPECT_EQ(hb.stats.cycles, rb.stats.cycles);
}

TEST(TraceCache, CorruptEntryFallsBackAndRewrites)
{
    TempCacheDir dir;
    ExperimentResult cold =
        runBenchmark("nab", {teaConfig()}, cachedOptions(dir));
    EXPECT_TRUE(cold.replay.cacheStored);

    std::vector<std::string> entries = dir.entries();
    ASSERT_EQ(entries.size(), 1u);
    const std::string path = dir.path() + "/" + entries[0];

    // Corrupt one payload byte in place.
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
        int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        ASSERT_EQ(std::fseek(f, 200, SEEK_SET), 0);
        std::fputc(c ^ 0xff, f);
        std::fclose(f);
    }

    // The damaged entry must not crash or poison the run: it simulates,
    // matches the clean result, and rewrites the entry atomically.
    ExperimentResult again =
        runBenchmark("nab", {teaConfig()}, cachedOptions(dir));
    EXPECT_FALSE(again.replay.cacheHit);
    EXPECT_TRUE(again.replay.cacheStored);
    EXPECT_EQ(again.stats.cycles, cold.stats.cycles);
    expectPicsIdentical(cold.golden->pics(), again.golden->pics());

    // ...after which the rewritten entry hits again.
    ExperimentResult warm =
        runBenchmark("nab", {teaConfig()}, cachedOptions(dir));
    EXPECT_TRUE(warm.replay.cacheHit);
    EXPECT_EQ(warm.stats.cycles, cold.stats.cycles);
}

TEST(TraceCache, SuiteRunnerSharesTheCache)
{
    TempCacheDir dir;
    std::vector<std::string> names = {"exchange2", "mcf"};
    RunnerOptions opts = cachedOptions(dir);
    opts.threads = 4;

    std::vector<ExperimentResult> cold =
        runBenchmarkSuite(names, {teaConfig()}, opts);
    std::vector<ExperimentResult> warm =
        runBenchmarkSuite(names, {teaConfig()}, opts);
    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        SCOPED_TRACE(names[i]);
        EXPECT_FALSE(cold[i].replay.cacheHit);
        EXPECT_TRUE(warm[i].replay.cacheHit);
        EXPECT_EQ(cold[i].stats.cycles, warm[i].stats.cycles);
        expectPicsIdentical(cold[i].golden->pics(),
                            warm[i].golden->pics());
    }
}

TEST(TraceCacheOptionsEnv, ParsesControls)
{
    ::unsetenv("TEA_TRACE_CACHE");
    ::unsetenv("TEA_TRACE_CACHE_DIR");
    EXPECT_FALSE(TraceCacheOptions::fromEnv().enabled);

    ::setenv("TEA_TRACE_CACHE_DIR", "/some/dir", 1);
    TraceCacheOptions with_dir = TraceCacheOptions::fromEnv();
    EXPECT_TRUE(with_dir.enabled);
    EXPECT_EQ(with_dir.dir, "/some/dir");

    ::setenv("TEA_TRACE_CACHE", "0", 1);
    EXPECT_FALSE(TraceCacheOptions::fromEnv().enabled);

    ::unsetenv("TEA_TRACE_CACHE_DIR");
    ::setenv("TEA_TRACE_CACHE", "1", 1);
    TraceCacheOptions dflt = TraceCacheOptions::fromEnv();
    EXPECT_TRUE(dflt.enabled);
    EXPECT_FALSE(dflt.dir.empty());
    ::unsetenv("TEA_TRACE_CACHE");
}

TEST(TraceCacheFingerprint, SensitiveToWorkloadAndConfig)
{
    CoreConfig cfg;
    Workload a = workloads::aluLoop(100);
    Workload b = workloads::aluLoop(101);
    EXPECT_EQ(TraceCache::fingerprintOf(a, cfg),
              TraceCache::fingerprintOf(workloads::aluLoop(100), cfg));
    EXPECT_NE(TraceCache::fingerprintOf(a, cfg),
              TraceCache::fingerprintOf(b, cfg));

    CoreConfig other;
    other.robEntries += 1;
    EXPECT_NE(TraceCache::fingerprintOf(a, cfg),
              TraceCache::fingerprintOf(a, other));

    workloads::LbmParams p1;
    workloads::LbmParams p2;
    p2.prefetchDistance = 8;
    EXPECT_NE(
        TraceCache::fingerprintOf(workloads::lbm(p1), cfg),
        TraceCache::fingerprintOf(workloads::lbm(p2), cfg));
}
