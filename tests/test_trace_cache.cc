/**
 * @file
 * Persistent trace cache tests: codec round-trip fidelity, on-disk
 * validation (corruption, truncation, stale fingerprints must never
 * crash or poison a run — they fall back to simulation), and the
 * headline guarantee that a cache-hit replay is bit-identical to a
 * direct simulation, standalone and in a suite.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <optional>
#include <string>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "analysis/parallel_runner.hh"
#include "analysis/runner.hh"
#include "analysis/trace_cache.hh"
#include "common/fingerprint.hh"
#include "common/rng.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"
#include "core/trace_io.hh"
#include "profilers/golden.hh"
#include "profilers/pics.hh"
#include "profilers/sample_record.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

/** Assert two experiment results are equivalent to the last bit. */
void
expectExperimentsIdentical(const ExperimentResult &ref,
                           const ExperimentResult &got)
{
    expectPicsIdentical(ref.golden->pics(), got.golden->pics());
    EXPECT_EQ(ref.golden->eventCounts(), got.golden->eventCounts());
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

/** A chunk of @p count random events; @p ends marks it the last one. */
TraceChunk
randomChunk(Rng &rng, std::size_t count, bool ends)
{
    TraceChunk chunk;
    Cycle end = 0;
    chunk.events = randomEvents(rng, count, &end);
    for (const TraceEvent &ev : chunk.events)
        chunk.cycleRecords += cyclesCovered(ev);
    if (ends)
        chunk.endCycle = end;
    return chunk;
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
    EXPECT_EQ(back.endCycle, chunk.endCycle);
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
        expectRoundTrips(
            randomChunk(rng, rng.range(1, 3000), round % 4 == 3));
    }
}

TEST(TraceCodec, RealTraceRoundTrips)
{
    // Every frame size cuts the trace somewhere else, so frames open
    // inside an idle run, right after a commit and before the first
    // commit: each needs its entry state.
    bool inIdleRun = false, afterCommit = false, beforeFirstCommit = false;
    for (std::size_t frame : {1u, 2u, 3u, 7u, 4096u}) {
        SCOPED_TRACE(frame);
        TraceBuffer buf(frame);
        CoreRun run = makeCore(workloads::orderingViolator(500));
        run->addSink(&buf);
        run->run();
        buf.finish();

        ASSERT_FALSE(buf.chunks().empty());
        const TraceEvent *prev = nullptr;
        bool committed = false; // by an earlier frame
        for (const TraceChunkPtr &chunk : buf.chunks()) {
            expectRoundTrips(*chunk);
            if (chunk->events.empty())
                continue;
            const CycleRecord &first = chunk->events.front().rec;
            if (prev) {
                inIdleRun |= prev->rec.state != CommitState::Compute &&
                             first.state != CommitState::Compute;
                afterCommit |= prev->rec.numCommitted != 0;
            }
            beforeFirstCommit |= !committed && first.numCommitted == 0;
            for (const TraceEvent &ev : chunk->events)
                committed |= ev.rec.numCommitted != 0;
            prev = &chunk->events.back();
        }
        EXPECT_EQ(buf.chunks().back()->endCycle,
                  std::optional<Cycle>(run->stats().cycles));
    }
    EXPECT_TRUE(inIdleRun);
    EXPECT_TRUE(afterCommit);
    EXPECT_TRUE(beforeFirstCommit);
}

TEST(TraceCodec, EmptyChunkRoundTrips)
{
    TraceChunk chunk;
    expectRoundTrips(chunk);
}

TEST(TraceCodec, EndOnlyChunkRoundTrips)
{
    // A trace whose last chunk closed exactly at a frame boundary ends
    // with a frame that holds only the end marker.
    TraceChunk chunk;
    chunk.endCycle = 123456789;
    expectRoundTrips(chunk);
}

namespace {

/**
 * A small chunk that obeys every codec rule: a Compute cycle 10
 * committing seq 5 at pc 7, then a Stalled cycle 11 whose ROB holds
 * seq 6, ending the trace at cycle 12.
 */
TraceChunk
wellFormedChunk()
{
    TraceChunk chunk;
    chunk.events.resize(2);
    CycleRecord &c = chunk.events[0].rec;
    c.cycle = 10;
    c.state = CommitState::Compute;
    c.numCommitted = 1;
    c.committed[0] = CommittedUop{5, 7, Psv(0x3)};
    c.nextFetchSeq = c.nextDispatchSeq = 7;
    CycleRecord &s = chunk.events[1].rec;
    s = c;
    s.cycle = 11;
    s.state = CommitState::Stalled;
    s.numCommitted = 0;
    chunk.cycleRecords = 2;
    chunk.endCycle = 12;
    return chunk;
}

/** Encode @p chunk (the death tests expect encodeChunk to refuse it). */
void
encode(const TraceChunk &chunk)
{
    std::vector<std::uint8_t> frame;
    encodeChunk(chunk, frame);
}

} // namespace

TEST(TraceCodec, WellFormedChunkRoundTrips)
{
    expectRoundTrips(wellFormedChunk());
}

TEST(TraceCodecDeathTest, EncodeRefusesACycleGap)
{
    TraceChunk chunk = wellFormedChunk();
    chunk.events[1].rec.cycle = 12;
    chunk.endCycle = 13;
    EXPECT_DEATH(encode(chunk), "dense cycles only");
}

TEST(TraceCodecDeathTest, EncodeRefusesACommitSeqGap)
{
    TraceChunk chunk = wellFormedChunk();
    CycleRecord &c = chunk.events[0].rec;
    c.numCommitted = 2;
    c.committed[1] = CommittedUop{7, 7, Psv(0x3)}; // seq 6 skipped
    EXPECT_DEATH(encode(chunk), "consecutive commits only");
}

TEST(TraceCodecDeathTest, EncodeRefusesAnEndOtherThanTheNextCycle)
{
    TraceChunk chunk = wellFormedChunk();
    chunk.endCycle = 13;
    EXPECT_DEATH(encode(chunk), "one past the last record");
}

TEST(TraceCodec, DecodeRejectsCorruptedFrames)
{
    Rng rng(7);
    std::vector<std::uint8_t> frame;
    encodeChunk(randomChunk(rng, 500, true), frame);

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

namespace {

/**
 * A hand-built codec frame, for the inputs encodeChunk refuses to
 * write. The payload follows the on-disk layout (trace_codec.cc): the
 * entry state (first cycle, next seq, flags), then the streams in
 * directory order: 0 cycle flags, 1-2 commit slots, 3-4 next fetch and
 * dispatch seqs, 5 span length.
 */
struct HandFrame
{
    static constexpr unsigned cycFlags = 0, comPc = 1, comPsv = 2,
                              nextFetch = 3, nextDisp = 4, spanLen = 5;

    Cycle first = 0;
    /** Entry-state flags: 0x1 the trace ends after this frame. */
    std::uint8_t flags = 0;
    /** Written for every commit slot: the zigzag pc delta and the PSV. */
    std::uint64_t pcDelta = 0, psv = 0;
    std::array<std::vector<std::uint8_t>, 6> streams;
    std::uint32_t records = 0;
    std::uint32_t spans = 0;
    std::uint64_t cycles = 0;

    static void
    put(std::vector<std::uint8_t> &out, std::uint64_t v)
    {
        while (v >= 0x80) {
            out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
            v >>= 7;
        }
        out.push_back(static_cast<std::uint8_t>(v));
    }

    /** Append a record's flags and fields. */
    void
    record(bool span, CommitState state, unsigned commits)
    {
        ++records;
        streams[cycFlags].push_back(static_cast<std::uint8_t>(
            (static_cast<unsigned>(state) << 6) | (commits << 2) |
            (span ? 1u : 0u)));
        for (unsigned i = 0; i < commits; ++i) {
            put(streams[comPc], pcDelta);
            put(streams[comPsv], psv);
        }
        put(streams[nextFetch], 0);
        put(streams[nextDisp], 0);
    }

    void
    cycle(CommitState state, unsigned commits = 0)
    {
        record(false, state, commits);
        ++cycles;
    }

    void
    span(CommitState state, std::uint64_t n, unsigned commits = 0)
    {
        record(true, state, commits);
        put(streams[spanLen], n);
        ++spans;
        cycles += n;
    }

    std::vector<std::uint8_t>
    bytes() const
    {
        std::vector<std::uint8_t> payload;
        put(payload, first);
        put(payload, 0); // next seq
        payload.push_back(flags);
        for (const auto &st : streams) {
            put(payload, st.size());
            payload.insert(payload.end(), st.begin(), st.end());
        }
        ChunkFrameHeader hdr;
        hdr.frameBytes =
            static_cast<std::uint32_t>(sizeof(hdr) + payload.size());
        hdr.eventCount = records;
        hdr.spanEvents = spans;
        hdr.payloadCrc = crc32(0, payload.data(), payload.size());
        hdr.cycleRecords = cycles;
        std::vector<std::uint8_t> out(sizeof(hdr));
        std::memcpy(out.data(), &hdr, sizeof(hdr));
        out.insert(out.end(), payload.begin(), payload.end());
        return out;
    }
};

/** Decode @p frame; @return the rejection reason, "" when accepted. */
std::string
decodeError(const HandFrame &frame, TraceChunk *out = nullptr)
{
    const std::vector<std::uint8_t> b = frame.bytes();
    std::string why;
    EXPECT_TRUE(verifyFrame(b.data(), b.size(), &why)) << why;
    TraceChunk chunk;
    std::size_t consumed = 0;
    if (!decodeChunk(b.data(), b.size(), out ? *out : chunk, &consumed,
                     &why))
        return why.empty() ? "rejected without a reason" : why;
    return "";
}

} // namespace

TEST(TraceCodec, HandBuiltSpanDecodes)
{
    // The builder itself is sound: a legal span decodes to what it says.
    HandFrame f;
    f.first = 7;
    f.flags = 0x1; // the trace ends after this frame
    f.cycle(CommitState::Compute, 1);
    f.span(CommitState::Drained, 5);
    f.cycle(CommitState::Flushed);
    TraceChunk chunk;
    ASSERT_EQ(decodeError(f, &chunk), "");
    ASSERT_EQ(chunk.events.size(), 3u);
    EXPECT_EQ(chunk.cycleRecords, 7u);
    const TraceEvent &sp = chunk.events[1];
    EXPECT_EQ(sp.kind, TraceEventKind::Span);
    EXPECT_EQ(sp.spanCycles, 5u);
    EXPECT_EQ(sp.rec.cycle, 8u);
    EXPECT_EQ(sp.rec.state, CommitState::Drained);
    EXPECT_EQ(chunk.events[2].rec.cycle, 13u);
    EXPECT_EQ(chunk.endCycle, std::optional<Cycle>(14));
}

TEST(TraceCodec, DecodeRejectsSpanShorterThanTwoCycles)
{
    for (std::uint64_t n : {0u, 1u}) {
        SCOPED_TRACE(n);
        // Padding Cycle events keep the header's cycle total plausible,
        // so the rejection comes from the span rule itself.
        HandFrame f;
        f.span(CommitState::Drained, n);
        f.cycle(CommitState::Drained);
        f.cycle(CommitState::Drained);
        EXPECT_EQ(decodeError(f), "span shorter than 2 cycles");
    }
}

TEST(TraceCodec, DecodeRejectsSpanLongerThanTheLengthField)
{
    HandFrame f;
    f.span(CommitState::Drained, std::uint64_t{maxSpanCycles} + 1);
    f.span(CommitState::Drained, 2);
    EXPECT_EQ(decodeError(f), "span longer than maxSpanCycles");
}

TEST(TraceCodec, DecodeRejectsComputeSpan)
{
    HandFrame f;
    f.span(CommitState::Compute, 4);
    EXPECT_EQ(decodeError(f), "span of a Compute record or with commits");
}

TEST(TraceCodec, DecodeRejectsSpanWithCommits)
{
    HandFrame f;
    f.span(CommitState::Stalled, 4, 1);
    EXPECT_EQ(decodeError(f), "span of a Compute record or with commits");
}

TEST(TraceCodec, DecodeRejectsSpanRunningPastTheLastCycle)
{
    // Starts at 2^64 - 2 and covers 3 cycles.
    HandFrame f;
    f.first = ~Cycle{0} - 1;
    f.span(CommitState::Flushed, 3);
    EXPECT_EQ(decodeError(f), "frame runs past the last cycle");
}

TEST(TraceCodec, DecodeRejectsFrameRunningPastTheLastCycle)
{
    // Two records from 2^64 - 1: the second cycle wraps to 0.
    HandFrame f;
    f.first = ~Cycle{0};
    f.cycle(CommitState::Drained);
    f.cycle(CommitState::Drained);
    EXPECT_EQ(decodeError(f), "frame runs past the last cycle");
}

TEST(TraceCodec, DecodeRejectsUnknownHeaderFlags)
{
    for (unsigned bit = 0x2; bit <= 0x80; bit <<= 1) {
        SCOPED_TRACE(bit);
        HandFrame f;
        f.flags = static_cast<std::uint8_t>(bit);
        f.cycle(CommitState::Drained);
        EXPECT_EQ(decodeError(f), "unknown frame header flags");
    }
}

TEST(TraceCodec, DecodeRejectsUnknownRecordFlagBit)
{
    // Bit 1 of a record's flag byte carries nothing. Nine records, so
    // the bit is tested both in an eight-record word and in the tail.
    for (unsigned at : {0u, 8u}) {
        SCOPED_TRACE(at);
        HandFrame f;
        for (int i = 0; i < 9; ++i)
            f.cycle(CommitState::Drained);
        f.streams[HandFrame::cycFlags][at] |= 0x2;
        EXPECT_EQ(decodeError(f), "unknown record flag bit");
    }
}

TEST(TraceCodec, DecodeRejectsCommitPcOutsideInstIndex)
{
    // The pc deltas sum to 2^32, or below 0: either would be truncated
    // into another instruction.
    for (std::uint64_t delta : {std::uint64_t{1} << 33, std::uint64_t{1}}) {
        SCOPED_TRACE(delta);
        HandFrame f;
        f.pcDelta = delta; // zigzag: +2^32, then -1
        f.cycle(CommitState::Compute, 1);
        EXPECT_EQ(decodeError(f), "commit pc past the instruction index");
    }
    // The largest InstIndex is a pc like any other.
    HandFrame ok;
    ok.pcDelta = std::uint64_t{invalidInstIndex} << 1;
    ok.cycle(CommitState::Compute, 1);
    TraceChunk chunk;
    ASSERT_EQ(decodeError(ok, &chunk), "");
    EXPECT_EQ(chunk.events[0].rec.committed[0].pc, invalidInstIndex);
}

TEST(TraceCodec, DecodeRejectsCommitPsvBeyondTheNineEvents)
{
    // 0x10001 would be truncated to 0x1; 0x200 sets a tenth event.
    for (std::uint64_t psv : {std::uint64_t{0x10001}, std::uint64_t{0x200}}) {
        SCOPED_TRACE(psv);
        HandFrame f;
        f.psv = psv;
        f.cycle(CommitState::Compute, 2);
        EXPECT_EQ(decodeError(f), "commit PSV bits past the nine events");
    }
    HandFrame ok;
    ok.psv = 0x1FF;
    ok.cycle(CommitState::Compute, 1);
    TraceChunk chunk;
    ASSERT_EQ(decodeError(ok, &chunk), "");
    EXPECT_EQ(chunk.events[0].rec.committed[0].psv, Psv(0x1FF));
}

TEST(TraceCodec, DecodeRejectsFrameWhoseCycleTotalDisagrees)
{
    HandFrame f;
    f.span(CommitState::Drained, 6);
    f.cycles += 1;
    EXPECT_EQ(decodeError(f), "cycle-record count mismatch");
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
    // Frames count covered cycles, not events: this memory-bound run's
    // idle spans cover more cycles than all its events together.
    EXPECT_EQ(mapped->cycleCount(), run->stats().cycles);
    EXPECT_EQ(mapped->eventCount(), buf.eventsCaptured());
    EXPECT_LT(mapped->eventCount(), mapped->cycleCount());
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

TEST(TraceCacheFile, ResealedHeaderWithImplausibleSizesIsQuarantined)
{
    // A header whose CRC is intact but whose counts are absurd must be
    // rejected with a reason, not size an allocation from them, and the
    // cache must quarantine the entry (then re-simulate).
    TempCacheDir dir;
    TraceCache cache(cachedOptions(dir).cache);
    ASSERT_TRUE(cache.enabled());
    Workload w = workloads::aluLoop(300);
    const std::uint64_t fp = TraceCache::fingerprintOf(w, CoreConfig{});
    const std::string path = cache.entryPath("alu", fp);

    TraceBuffer buf(256);
    CoreRun run = makeCore(std::move(w));
    run->addSink(&buf);
    run->run();
    buf.finish();
    std::vector<char> original;
    {
        CompactTraceWriter writer(path, fp);
        for (const TraceChunkPtr &chunk : buf.chunks())
            writer.writeChunk(*chunk);
        ASSERT_TRUE(writer.commit(run->stats()));
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char byte;
        while (std::fread(&byte, 1, 1, f) == 1)
            original.push_back(byte);
        std::fclose(f);
    }
    ASSERT_GT(original.size(), 64u);

    // Header layout (trace_io.cc): chunkCount at byte 24, payloadBytes
    // at 48, statsCrc at 56, and headerCrc at 60 over bytes [0, 60).
    auto put = [](std::vector<char> &bytes, std::size_t at, auto value) {
        std::memcpy(bytes.data() + at, &value, sizeof(value));
    };
    auto reseal = [&](std::vector<char> bytes) {
        put(bytes, 60, crc32(0, bytes.data(), 60));
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fclose(f);
    };

    // 2^62 chunks cannot fit in the payload.
    std::vector<char> count = original;
    put(count, 24, std::uint64_t{1} << 62);
    reseal(count);
    std::string why;
    EXPECT_EQ(MappedTraceFile::open(path, fp, &why), nullptr);
    EXPECT_NE(why.find("chunks"), std::string::npos) << why;

    CacheOpStats ops;
    EXPECT_EQ(cache.openEntry(path, fp, &ops), nullptr);
    EXPECT_TRUE(ops.damaged);
    EXPECT_EQ(ops.quarantined, 1u);
    struct ::stat st{};
    EXPECT_NE(::stat(path.c_str(), &st), 0) << "entry left in place";

    // A payload size that wraps the header + stats + payload sum around
    // to the length of a header-only file: the stats would be read past
    // the end of the file.
    std::vector<char> wrap(original.begin(), original.begin() + 64);
    put(wrap, 24, std::uint64_t{1} << 62);
    put(wrap, 48, std::uint64_t{0} - sizeof(CoreStats));
    const std::vector<char> zeros(sizeof(CoreStats), 0);
    put(wrap, 56, crc32(0, zeros.data(), zeros.size()));
    reseal(wrap);
    EXPECT_EQ(MappedTraceFile::open(path, fp, &why), nullptr);
    EXPECT_NE(why.find("file size"), std::string::npos) << why;
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

TEST(TraceCache, CrcCleanUndecodableEntryFallsBackAndRewrites)
{
    // A frame whose CRC holds but which the decoder rejects is found
    // only mid-replay, after the observers have seen every earlier
    // chunk. The run must not abort: it quarantines the entry, replays
    // nothing of it, simulates on fresh observers and stores anew.
    TempCacheDir dir;
    const ExperimentResult uncached =
        runBenchmark("nab", standardTechniques(), RunnerOptions{});
    ExperimentResult cold =
        runBenchmark("nab", standardTechniques(), cachedOptions(dir));
    ASSERT_TRUE(cold.replay.cacheStored);
    ASSERT_GT(cold.replay.chunksProduced, 1u);
    ASSERT_EQ(dir.entries().size(), 1u);
    ASSERT_TRUE(spliceUndecodableFrame(dir.path() + "/" +
                                       dir.entries()[0]));

    ExperimentResult again =
        runBenchmark("nab", standardTechniques(), cachedOptions(dir));
    EXPECT_FALSE(again.replay.cacheHit);
    EXPECT_EQ(again.replay.quarantined, 1u);
    EXPECT_TRUE(again.replay.cacheStored);
    expectExperimentsIdentical(uncached, again);

    ExperimentResult warm =
        runBenchmark("nab", standardTechniques(), cachedOptions(dir));
    EXPECT_TRUE(warm.replay.cacheHit);
    EXPECT_EQ(warm.replay.quarantined, 0u);
    expectExperimentsIdentical(uncached, warm);
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

namespace {

/**
 * Records every observer callback in order. Not final and without an
 * onBatch override, so batches reach it through TraceSink::onBatch and
 * deliverEvent, the path every non-final sink takes.
 */
class CallRecorder : public TraceSink
{
  public:
    /** One callback: a retire, a cycle record or the end marker. */
    struct Call
    {
        bool isRetire = false;
        RetireRecord retire;
        TraceEvent event;
        std::optional<Cycle> end;
    };

    void onCycle(const CycleRecord &rec) override
    {
        calls.push_back(Call{});
        calls.back().event.rec = rec;
    }
    void onRetire(const RetireRecord &rec) override
    {
        calls.push_back(Call{true, rec, TraceEvent{}, std::nullopt});
    }
    void onEnd(Cycle final_cycle) override
    {
        calls.push_back(Call{});
        calls.back().end = final_cycle;
    }

    std::vector<Call> calls;
};

bool
sameRetire(const RetireRecord &a, const RetireRecord &b)
{
    return a.seq == b.seq && a.pc == b.pc && a.psv == b.psv &&
           a.cycle == b.cycle;
}

/**
 * Forwards every per-kind callback to @p inner; no onBatch and no
 * onSpan override, so @p inner sees a span as per-cycle onCycle calls.
 */
class Forwarder : public TraceSink
{
  public:
    explicit Forwarder(TraceSink &inner) : inner_(inner) {}

    void onCycle(const CycleRecord &rec) override { inner_.onCycle(rec); }
    void onRetire(const RetireRecord &rec) override
    {
        inner_.onRetire(rec);
    }
    void onEnd(Cycle final_cycle) override { inner_.onEnd(final_cycle); }

  private:
    TraceSink &inner_;
};

} // namespace

TEST(TraceDelivery, RetiresAreTheCommitSlotsBeforeTheirCycle)
{
    // The trace records each commit once, in its cycle record; the
    // retire callbacks are derived from it. A live core and a cache-hit
    // replay of the same workload must make the same calls, and each
    // cycle's retires must be its commit slots, in slot order, stamped
    // with its cycle, delivered just before its onCycle.
    TempCacheDir dir;
    const RunnerOptions opts = cachedOptions(dir);
    ExperimentResult cold =
        runWorkload(workloads::branchNoise(2000), {}, opts);
    ASSERT_TRUE(cold.replay.cacheStored);

    CallRecorder live;
    CoreRun run = makeCore(workloads::branchNoise(2000));
    run->addSink(&live);
    run->run();

    CallRecorder hit;
    {
        TraceCache cache(opts.cache);
        Workload w = workloads::branchNoise(2000);
        const std::uint64_t fp = TraceCache::fingerprintOf(w, CoreConfig{});
        auto mapped = cache.openEntry(cache.entryPath(cold.name, fp), fp);
        ASSERT_NE(mapped, nullptr);
        while (TraceChunkPtr chunk = mapped->nextChunk())
            replayChunk(*chunk, {&hit});
    }

    ASSERT_EQ(live.calls.size(), hit.calls.size());
    for (std::size_t i = 0; i < live.calls.size(); ++i) {
        SCOPED_TRACE(i);
        const CallRecorder::Call &a = live.calls[i];
        const CallRecorder::Call &b = hit.calls[i];
        ASSERT_EQ(a.isRetire, b.isRetire);
        ASSERT_EQ(a.end, b.end);
        EXPECT_TRUE(a.isRetire ? sameRetire(a.retire, b.retire)
                               : eventsEquivalent(a.event, b.event));
    }

    std::uint64_t retires = 0, multiCommit = 0;
    std::size_t pending = 0; // first retire since the last onCycle
    for (std::size_t i = 0; i < live.calls.size(); ++i) {
        const CallRecorder::Call &c = live.calls[i];
        if (c.isRetire) {
            ++retires;
            continue;
        }
        if (!c.end) {
            const CycleRecord &rec = c.event.rec;
            ASSERT_EQ(i - pending, rec.numCommitted)
                << "cycle " << rec.cycle;
            for (unsigned s = 0; s < rec.numCommitted; ++s) {
                const CommittedUop &u = rec.committed[s];
                EXPECT_TRUE(sameRetire(live.calls[pending + s].retire,
                                       RetireRecord{u.seq, u.pc, u.psv,
                                                    rec.cycle}))
                    << "cycle " << rec.cycle << " slot " << s;
            }
            multiCommit += rec.numCommitted > 1;
        } else {
            // End never splits a cycle's retires from its record.
            ASSERT_EQ(i, pending) << "call " << i;
        }
        pending = i + 1;
    }
    EXPECT_EQ(pending, live.calls.size());
    EXPECT_EQ(retires, run->stats().committedUops);
    EXPECT_GT(multiCommit, 0u);
}

namespace {

/**
 * Synthetic traces with idle spans in every state, for pinning the
 * span handlers against per-cycle delivery. Cycle stamps are dense
 * within a trace; every record's front-end seqs name the next uop to
 * commit, as if each uop were fetched and dispatched just before the
 * cycle it commits in, so the tagging samplers have something to tag.
 * end() closes the open trace and opens another, so the records after
 * it come before that trace's first retire.
 */
struct SpanStream
{
    std::vector<TraceChunk> traces{1}; ///< the last one is open
    Cycle next = 0;
    SeqNum seq = 1;
    std::uint64_t cycles = 0; ///< covered by all traces

    TraceEvent &push(TraceEventKind kind, const CycleRecord &rec,
                     std::uint32_t n)
    {
        TraceChunk &chunk = traces.back();
        chunk.events.emplace_back();
        TraceEvent &ev = chunk.events.back();
        ev.kind = kind;
        ev.rec = rec;
        chunk.cycleRecords += n;
        cycles += n;
        next += n;
        return ev;
    }

    /** One Compute cycle committing a uop at each of @p pcs. */
    void compute(std::initializer_list<InstIndex> pcs, Psv psv = Psv{})
    {
        CycleRecord rec;
        rec.cycle = next;
        rec.state = CommitState::Compute;
        for (InstIndex pc : pcs)
            rec.committed[rec.numCommitted++] = CommittedUop{seq++, pc, psv};
        rec.nextFetchSeq = rec.nextDispatchSeq = seq;
        push(TraceEventKind::Cycle, rec, 1);
    }

    /** One idle cycle in @p state. */
    void idle(CommitState state)
    {
        CycleRecord rec;
        rec.cycle = next;
        rec.state = state;
        rec.nextFetchSeq = rec.nextDispatchSeq = seq;
        push(TraceEventKind::Cycle, rec, 1);
    }

    /** @p n idle cycles in @p state as one span (n >= 2). */
    void span(CommitState state, std::uint32_t n)
    {
        CycleRecord rec;
        rec.cycle = next;
        rec.state = state;
        rec.nextFetchSeq = rec.nextDispatchSeq = seq;
        push(TraceEventKind::Span, rec, n).spanCycles = n;
    }

    /** Close the open trace with its end marker and open another. */
    void end()
    {
        traces.back().endCycle = next;
        traces.emplace_back();
    }

    /** Replay every trace in order; @return the cycles delivered. */
    std::uint64_t replay(const std::vector<TraceSink *> &sinks) const
    {
        std::uint64_t delivered = 0;
        for (const TraceChunk &chunk : traces)
            delivered += replayChunk(chunk, sinks);
        return delivered;
    }
};

void
expectGoldenIdentical(const GoldenReference &a, const GoldenReference &b)
{
    expectPicsIdentical(a.pics(), b.pics());
    EXPECT_EQ(a.droppedCycles(), b.droppedCycles());
    EXPECT_EQ(a.eventCounts(), b.eventCounts());
    for (std::size_t sig = 0; sig < GoldenReference::numSignatures;
         ++sig) {
        const Histogram *x = a.stallHistograms()[sig].get();
        const Histogram *y = b.stallHistograms()[sig].get();
        ASSERT_EQ(x == nullptr, y == nullptr) << "signature " << sig;
        if (x) {
            EXPECT_EQ(x->count(), y->count()) << "signature " << sig;
            EXPECT_EQ(x->bins(), y->bins()) << "signature " << sig;
        }
    }
}

/** Every sampler configuration: Fig 5's five, TIP and DTAG-TEA. */
std::vector<SamplerConfig>
allTechniques(Cycle period, Cycle phase)
{
    std::vector<SamplerConfig> out = standardTechniques(period);
    out.push_back(tipConfig(period));
    out.push_back(dtagTeaConfig(period));
    for (SamplerConfig &cfg : out)
        cfg.phase = phase;
    return out;
}

/** The trace the core emits for @p w, as one chunk with its end marker. */
TraceChunk
capturedTrace(Workload w)
{
    TraceBuffer buf;
    CoreRun run = makeCore(std::move(w));
    run->addSink(&buf);
    run->run();
    buf.finish();
    TraceChunk out;
    for (const TraceChunkPtr &chunk : buf.chunks()) {
        out.events.insert(out.events.end(), chunk->events.begin(),
                          chunk->events.end());
        out.cycleRecords += chunk->cycleRecords;
        if (chunk->endCycle)
            out.endCycle = chunk->endCycle;
    }
    return out;
}

/**
 * @p traces random traces of about @p count events each, every one but
 * the last closed by its end marker, reshaped from randomEvents so that
 * every observer can replay them per cycle:
 *  - spans cover at most 200 cycles, and the stamps are re-counted so
 *    that they stay dense;
 *  - pcs fall within a 4096-instruction program, and PSVs keep
 *    randomEvents' uniform nine bits, several per commit on average;
 *  - commit seqs skip a number now and then, and a quarter of the
 *    multi-commit cycles list their slots in reverse seq order;
 *  - the front-end seqs name commits up to 14 ahead (past the trace's
 *    last one near its end), so tags complete, overlap, and stay in
 *    flight at the end marker;
 *  - a third of the spans carry stale commit slots (seqs of upcoming
 *    commits, pcs the commits never use), which no callback reads.
 */
std::vector<TraceChunk>
observerStream(Rng &rng, std::size_t traces, std::size_t count)
{
    std::vector<TraceChunk> out;
    SeqNum seq = 1 + rng.below(1000);
    for (std::size_t t = 0; t < traces; ++t) {
        TraceChunk chunk;
        chunk.events = randomEvents(rng, count);
        Cycle cycle = chunk.events.front().rec.cycle;
        std::vector<SeqNum> commits;
        for (TraceEvent &ev : chunk.events) {
            CycleRecord &rec = ev.rec;
            rec.cycle = cycle;
            if (ev.kind == TraceEventKind::Span)
                ev.spanCycles = 2 + ev.spanCycles % 199;
            for (unsigned s = 0; s < rec.numCommitted; ++s) {
                seq += rng.chance(0.1) ? 1 + rng.below(3) : 1;
                rec.committed[s].seq = seq;
                rec.committed[s].pc %= 4096;
                commits.push_back(seq);
            }
            if (rec.numCommitted > 1 && rng.chance(0.25)) {
                std::reverse(rec.committed.begin(),
                             rec.committed.begin() + rec.numCommitted);
                std::reverse(commits.end() - rec.numCommitted,
                             commits.end());
            }
            cycle += cyclesCovered(ev);
        }
        std::size_t next = 0; // commits delivered so far
        for (TraceEvent &ev : chunk.events) {
            CycleRecord &rec = ev.rec;
            next += commitSlots(rec);
            auto ahead = [&](std::size_t k) {
                return k < commits.size() ? commits[k] : seq + 1 + k;
            };
            const std::size_t dispatch = next + rng.below(12);
            rec.nextDispatchSeq = ahead(dispatch);
            rec.nextFetchSeq = ahead(dispatch + rng.below(4));
            if (ev.kind == TraceEventKind::Span && rng.chance(1.0 / 3)) {
                rec.numCommitted = static_cast<std::uint8_t>(
                    1 + rng.below(rec.committed.size()));
                for (unsigned s = 0; s < rec.numCommitted; ++s) {
                    rec.committed[s] = CommittedUop{
                        ahead(next + s), static_cast<InstIndex>(5000 + s),
                        Psv(static_cast<std::uint16_t>(
                            rng.below(std::uint64_t{1} << numEvents)))};
                }
            }
        }
        for (const TraceEvent &ev : chunk.events)
            chunk.cycleRecords += cyclesCovered(ev);
        if (t + 1 < traces)
            chunk.endCycle = cycle;
        out.push_back(std::move(chunk));
    }
    return out;
}

/** Stream groups the delivery tests replay, each a run of traces. */
struct NamedStream
{
    std::string name;
    std::vector<TraceChunk> traces;
};

/**
 * Real traces (branchNoise; a short nab, whose Flushed cycles the TP
 * samplers charge to the last commit; a pointer chase, whose misses keep
 * tags in flight for hundreds of cycles), a SpanStream with several end
 * markers, and the random observerStream traces.
 */
std::vector<NamedStream>
deliveryStreams()
{
    std::vector<NamedStream> out;
    out.push_back(
        {"branchNoise", {capturedTrace(workloads::branchNoise(2000))}});
    workloads::NabParams nab;
    nab.iterations = 400;
    out.push_back({"nab", {capturedTrace(workloads::nab(nab))}});
    out.push_back(
        {"pointerChase",
         {capturedTrace(workloads::pointerChase(256, 4, 4096))}});

    SpanStream st;
    Rng rng(0x5eed);
    const CommitState idle[] = {CommitState::Stalled, CommitState::Drained,
                                CommitState::Flushed};
    for (int trace = 0; trace < 6; ++trace) {
        for (int i = 0; i < 300; ++i) {
            switch (rng.below(3)) {
              case 0: {
                const auto pc = static_cast<InstIndex>(rng.below(64));
                const Psv psv(static_cast<std::uint16_t>(rng.below(512)));
                if (rng.chance(0.5))
                    st.compute({pc}, psv);
                else
                    st.compute({pc, pc + 1, pc + 2}, psv);
                break;
              }
              case 1:
                st.idle(idle[rng.below(3)]);
                break;
              default:
                st.span(idle[rng.below(3)],
                        static_cast<std::uint32_t>(rng.range(2, 300)));
                break;
            }
        }
        if (trace < 5)
            st.end(); // the last trace has no end marker
    }
    out.push_back({"SpanStream", st.traces});

    Rng random(0xbeef);
    out.push_back({"random", observerStream(random, 4, 1500)});
    return out;
}

/**
 * Replay @p traces into @p sink through its onBatch, @p batch events
 * per call, each trace's end marker after its events.
 */
void
replayInBatches(const std::vector<TraceChunk> &traces, TraceSink &sink,
                std::size_t batch)
{
    for (const TraceChunk &chunk : traces) {
        const std::size_t n = chunk.events.size();
        for (std::size_t i = 0; i < n; i += batch)
            sink.onBatch(chunk.events.data() + i, std::min(batch, n - i));
        if (chunk.endCycle)
            sink.onEnd(*chunk.endCycle);
    }
}

/**
 * Replay @p traces into @p sink one event at a time, through the
 * per-kind callbacks, each trace's end marker after its events.
 */
void
replayPerEvent(const std::vector<TraceChunk> &traces, TraceSink &sink)
{
    for (const TraceChunk &chunk : traces) {
        for (const TraceEvent &ev : chunk.events)
            deliverEvent(ev, sink);
        if (chunk.endCycle)
            sink.onEnd(*chunk.endCycle);
    }
}

/** Expect two samplers bit-identical, sample records included. */
void
expectSamplersIdentical(const TechniqueSampler &a, const SampleBuffer &ra,
                        const TechniqueSampler &b, const SampleBuffer &rb)
{
    EXPECT_EQ(a.samplesTaken(), b.samplesTaken());
    EXPECT_EQ(a.samplesDropped(), b.samplesDropped());
    expectPicsIdentical(a.pics(), b.pics());
    ASSERT_EQ(ra.size(), rb.size());
    EXPECT_EQ(std::memcmp(ra.records().data(), rb.records().data(),
                          ra.size() * sizeof(SampleRecord)),
              0);
}

} // namespace

TEST(TraceDelivery, SamplersMatchThroughOnBatchAndDeliverEvent)
{
    // Each sampler's own onBatch derives the retires inline; a sink
    // without an onBatch override gets them from deliverEvent. Both
    // must leave every sampler bit-identical.
    TraceBuffer buf;
    CoreRun run = makeCore(workloads::branchNoise(2000));
    run->addSink(&buf);
    run->run();
    buf.finish();

    for (const SamplerConfig &cfg : standardTechniques(7)) {
        SCOPED_TRACE(cfg.name);
        TechniqueSampler direct(cfg);
        TechniqueSampler forwarded(cfg);
        Forwarder fwd(forwarded);
        buf.replay({&direct, &fwd});
        EXPECT_GT(direct.samplesTaken(), 0u);
        EXPECT_EQ(direct.samplesTaken(), forwarded.samplesTaken());
        EXPECT_EQ(direct.samplesDropped(), forwarded.samplesDropped());
        expectPicsIdentical(direct.pics(), forwarded.pics());
    }

    // onBatch delivers only the events that can change the sampler
    // and keeps the last-committed register from the commits it skips.
    // Batches of 1 and 3 events end between a skipped commit and the
    // event that reads it; 4096 is the replay's chunk size. Forwarder
    // sees every event, and every span as per-cycle onCycle calls.
    for (const NamedStream &stream : deliveryStreams()) {
        SCOPED_TRACE(stream.name);
        for (Cycle period : {1, 2, 7, 127}) {
            for (Cycle phase : {0, 5}) {
                for (const SamplerConfig &cfg :
                     allTechniques(period, phase)) {
                    SCOPED_TRACE(testing::Message()
                                 << cfg.name << " period " << period
                                 << " phase " << phase);
                    TechniqueSampler perEvent(cfg);
                    SampleBuffer perEventRecords;
                    perEvent.setRecorder(&perEventRecords);
                    Forwarder fwd(perEvent);
                    replayPerEvent(stream.traces, fwd);
                    EXPECT_GT(perEvent.samplesTaken(), 0u);
                    for (std::size_t batch : {1, 3, 4096}) {
                        SCOPED_TRACE(testing::Message()
                                     << "batch " << batch);
                        TechniqueSampler batched(cfg);
                        SampleBuffer batchedRecords;
                        batched.setRecorder(&batchedRecords);
                        replayInBatches(stream.traces, batched, batch);
                        expectSamplersIdentical(batched, batchedRecords,
                                                perEvent, perEventRecords);
                    }
                }
            }
        }
    }
}

TEST(TraceDelivery, GoldenMatchesThroughOnBatchAndDeliverEvent)
{
    // The golden reference's onBatch runs its retire and cycle bodies
    // inline; Forwarder reaches them one event at a time through
    // onRetire and onCycle, and expands every span into per-cycle
    // onCycle calls. The random traces' PSVs carry several events each,
    // so the event counts walk several set bits per retire.
    for (const NamedStream &stream : deliveryStreams()) {
        SCOPED_TRACE(stream.name);
        GoldenReference perEvent;
        Forwarder fwd(perEvent);
        replayPerEvent(stream.traces, fwd);
        EXPECT_GT(perEvent.pics().total(), 0.0);
        for (std::size_t batch : {1, 3, 4096}) {
            SCOPED_TRACE(testing::Message() << "batch " << batch);
            GoldenReference batched;
            replayInBatches(stream.traces, batched, batch);
            expectGoldenIdentical(batched, perEvent);
        }
    }
}

TEST(TraceDelivery, SpanHandlersMatchPerCycleDelivery)
{
    // The golden reference and the samplers handle a span in one step
    // (onSpan); a sink without onBatch and onSpan overrides sees the
    // same span as per-cycle onCycle calls. Every state, with and
    // without a last-committed instruction (after a retire of the same
    // trace, or before any), at lengths around the sampling period and
    // at every offset to a fire point, must leave both routes
    // bit-identical.
    constexpr Cycle period = 7;
    SpanStream st;
    st.compute({10, 11, 12}, Psv(0x41)); // thirds: fractional cells
    const std::uint32_t lengths[] = {2, period - 1, period, period + 1};
    for (CommitState state : {CommitState::Stalled, CommitState::Drained,
                              CommitState::Flushed}) {
        for (bool retired : {false, true}) {
            for (std::uint32_t n : lengths) {
                for (Cycle offset = 0; offset < period; ++offset) {
                    if (retired) {
                        // Pad with Compute cycles so the span starts
                        // at `offset` cycles past a fire point.
                        while (st.next % period != offset)
                            st.compute({static_cast<InstIndex>(
                                           20 + st.next % 5)},
                                       Psv(static_cast<std::uint16_t>(
                                           st.next % 3)));
                    } else {
                        // A new trace opens with the span, at `offset`
                        // cycles past a fire point.
                        st.end();
                        st.next += (offset + period - st.next % period) %
                                   period;
                    }
                    st.span(state, n);
                    st.compute({30, 31, 32}, Psv(0x100)); // thirds
                }
            }
        }
    }
    st.span(CommitState::Stalled, period + 1); // pending at End
    st.end();

    GoldenReference golden, goldenPerCycle;
    Forwarder goldenFwd(goldenPerCycle);
    std::vector<TraceSink *> sinks{&golden, &goldenFwd};
    std::vector<std::unique_ptr<TechniqueSampler>> samplers;
    std::vector<std::unique_ptr<SampleBuffer>> records;
    std::vector<std::unique_ptr<Forwarder>> forwarders;
    for (const SamplerConfig &cfg : standardTechniques(period)) {
        for (int route = 0; route < 2; ++route) {
            samplers.push_back(std::make_unique<TechniqueSampler>(cfg));
            records.push_back(std::make_unique<SampleBuffer>());
            samplers.back()->setRecorder(records.back().get());
            if (route == 0) {
                sinks.push_back(samplers.back().get());
            } else {
                forwarders.push_back(
                    std::make_unique<Forwarder>(*samplers.back()));
                sinks.push_back(forwarders.back().get());
            }
        }
    }
    EXPECT_EQ(st.replay(sinks), st.cycles);

    expectGoldenIdentical(golden, goldenPerCycle);
    EXPECT_GT(golden.droppedCycles(), 0.0);
    for (std::size_t i = 0; i < samplers.size(); i += 2) {
        const TechniqueSampler &spanned = *samplers[i];
        const TechniqueSampler &perCycle = *samplers[i + 1];
        SCOPED_TRACE(spanned.config().name);
        EXPECT_GT(spanned.samplesTaken(), 0u);
        EXPECT_EQ(spanned.samplesTaken(), perCycle.samplesTaken());
        EXPECT_EQ(spanned.samplesDropped(), perCycle.samplesDropped());
        expectPicsIdentical(spanned.pics(), perCycle.pics());
        const std::vector<SampleRecord> &a = records[i]->records();
        const std::vector<SampleRecord> &b = records[i + 1]->records();
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(SampleRecord)),
                  0);
    }
}

TEST(TraceDelivery, GoldenFlushedSpanKeepsItsPerCycleAdds)
{
    // A cell at 1/3 plus two adds of 1.0 is 2.333333333333333; one add
    // of 2.0 would give 2.3333333333333335. A Flushed span charged to
    // the last-committed instruction must make the per-cycle adds.
    SpanStream st;
    st.compute({10, 11, 12});
    st.span(CommitState::Flushed, 2);
    st.end();

    GoldenReference spanned, perCycle;
    Forwarder fwd(perCycle);
    st.replay({&spanned, &fwd});

    double expect = 1.0 / 3;
    expect += 1.0;
    expect += 1.0;
    EXPECT_EQ(perCycle.pics().cycles(12, 0), expect);
    EXPECT_EQ(spanned.pics().cycles(12, 0), expect);
    expectGoldenIdentical(spanned, perCycle);
}

TEST(TraceDelivery, LastCommittedRegisterStartsEmptyOnEachTrace)
{
    // The observers keep the last-committed register from the retires
    // they see. A trace's Flushed cycles before its first commit have
    // none, so they wait for that commit, on observers that replayed an
    // earlier trace just as on fresh ones; they must not go to the
    // earlier trace's last commit. Trace A misses every fire point, so
    // the samplers take no sample in it, and its pcs are not B's, so
    // the golden reference's cells for B's pcs are B's alone.
    constexpr Cycle period = 5;
    SpanStream a;
    a.next = 1;
    a.compute({40});
    a.compute({41}, Psv(0x2));
    a.end();

    SpanStream b;
    b.idle(CommitState::Flushed);    // cycle 0, a fire point
    b.span(CommitState::Flushed, 6); // [1, 7): fires at 5
    b.compute({50}, Psv(0x1));
    b.compute({51, 52});
    b.span(CommitState::Flushed, 3); // [9, 12): fires at 10
    b.compute({53});
    b.span(CommitState::Stalled, 4); // [13, 17): fires at 15, pending
    b.end();

    GoldenReference goldenA, goldenB, goldenAB;
    a.replay({&goldenA});
    b.replay({&goldenB});
    a.replay({&goldenAB});
    b.replay({&goldenAB});
    EXPECT_EQ(goldenB.pics().cycles(50, 0x1), 8.0); // 7 Flushed + its own
    EXPECT_EQ(goldenAB.droppedCycles(), goldenB.droppedCycles());
    const Pics &ab = goldenAB.pics();
    EXPECT_EQ(ab.size(), goldenA.pics().size() + goldenB.pics().size());
    EXPECT_EQ(ab.total(), goldenA.pics().total() + goldenB.pics().total());
    for (const Pics *alone : {&goldenA.pics(), &goldenB.pics()}) {
        for (const PicsComponent &c : alone->components()) {
            EXPECT_EQ(ab.cycles(c.unit, c.signature), c.cycles)
                << "pc " << c.unit << " signature " << c.signature;
        }
    }

    for (const SamplerConfig &cfg : standardTechniques(period)) {
        SCOPED_TRACE(cfg.name);
        TechniqueSampler fresh(cfg), reused(cfg);
        b.replay({&fresh});
        a.replay({&reused});
        EXPECT_EQ(reused.samplesTaken(), 0u);
        EXPECT_EQ(reused.samplesDropped(), 0u);
        b.replay({&reused});
        EXPECT_GT(fresh.samplesTaken(), 0u);
        EXPECT_EQ(reused.samplesTaken(), fresh.samplesTaken());
        EXPECT_EQ(reused.samplesDropped(), fresh.samplesDropped());
        expectPicsIdentical(reused.pics(), fresh.pics());
    }
}
