/**
 * @file
 * Value tests of the varint decoder and of the chunk codec built on it.
 * decodeVarints (core/varint.hh) keeps the verdicts of the original
 * per-value reader on any input bytes. These cases pin them by value:
 * the widest accepted encoding, bits past 63 dropped, continuation past
 * 64 bits and truncated tails rejected, and randomized canonical
 * encodings round-tripping at misaligned heap offsets. Whole chunk
 * frames with extreme delta patterns must round-trip too, alone and
 * concatenated at misaligned offsets.
 *
 * The suite names (SimdVarint, SimdCodec) date from when the decoder
 * had vector kernels; they are kept so the test ids stay stable.
 *
 * Runs under the asan-ubsan preset (label: sanitize): every stream sits
 * in a heap buffer of exactly its size, so a read past its end is a
 * hard failure.
 */

#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"
#include "core/varint.hh"

using namespace tea;

namespace {

using Values = std::vector<std::uint64_t>;

/**
 * decodeVarints over @p bytes: the decoded values, or nullopt when the
 * stream is rejected. The output is poisoned first, so a count that
 * claims more values than were written shows up as a wrong value.
 */
std::optional<Values>
decoded(const std::vector<std::uint8_t> &bytes)
{
    // Exact-size heap copy: the caller's vector may have spare capacity
    // that would hide an overread from ASan.
    const std::vector<std::uint8_t> exact(bytes.begin(), bytes.end());
    Values out(exact.size() + 1, 0xabad1deacafeull);
    std::size_t count = 0;
    if (!decodeVarints(exact.data(), exact.size(), out.data(), &count))
        return std::nullopt;
    out.resize(count);
    return out;
}

/** Canonical LEB128 append of @p v. */
void
appendVarint(std::vector<std::uint8_t> &bytes, std::uint64_t v)
{
    while (v >= 0x80) {
        bytes.push_back(static_cast<std::uint8_t>(v) | 0x80u);
        v >>= 7;
    }
    bytes.push_back(static_cast<std::uint8_t>(v));
}

} // namespace

TEST(SimdVarint, MaxWidthValues)
{
    // The widest accepted varint: ten bytes, the last holding bit 63.
    std::vector<std::uint8_t> widest(9, 0xff);
    widest.push_back(0x01);
    EXPECT_EQ(decoded(widest), (Values{~0ull}));

    // Bits past 63 are dropped, as `v |= (b & 0x7f) << 63` drops them:
    // the tenth byte's 0x02 shifts out entirely.
    std::vector<std::uint8_t> overflow(9, 0x80);
    overflow.push_back(0x02);
    EXPECT_EQ(decoded(overflow), (Values{0}));
}

TEST(SimdVarint, ContinuationRunsAndTruncatedTails)
{
    // A continuation bit still set on the tenth byte runs past 64 bits.
    std::vector<std::uint8_t> tooLong(10, 0xff);
    tooLong.push_back(0x01);
    EXPECT_EQ(decoded(tooLong), std::nullopt);

    // The stream ends inside its second varint.
    EXPECT_EQ(decoded({0x05, 0x80}), std::nullopt);

    // Every proper prefix of a ten-byte varint is truncated.
    std::vector<std::uint8_t> widest(9, 0xff);
    widest.push_back(0x01);
    for (std::size_t len = 1; len < widest.size(); ++len) {
        SCOPED_TRACE(len);
        EXPECT_EQ(decoded({widest.begin(), widest.begin() + len}),
                  std::nullopt);
    }

    // An empty stream is a valid stream of no values.
    EXPECT_EQ(decoded({}), Values{});
}

TEST(SimdVarint, BlockBoundaryStraddles)
{
    // The smallest value of every width from 2 to 10 bytes, at every
    // offset in [0, 40) of a run of single-byte values, with the stream
    // ending right after it or 40 values later: the one- and two-byte
    // fast paths and the generic reader hand over cleanly at any
    // position, including the stream's last bytes.
    for (unsigned width = 2; width <= 10; ++width) {
        const std::uint64_t wide = 1ull << (7 * (width - 1));
        for (unsigned off = 0; off < 40; ++off) {
            for (unsigned tail : {0u, 40u}) {
                SCOPED_TRACE(::testing::Message()
                             << width << " bytes at " << off << ", "
                             << tail << " after");
                std::vector<std::uint8_t> bytes(off, 0x01);
                appendVarint(bytes, wide);
                ASSERT_EQ(bytes.size(), off + width);
                bytes.insert(bytes.end(), tail, 0x02);
                Values want(off, 1);
                want.push_back(wide);
                want.insert(want.end(), tail, 2);
                EXPECT_EQ(decoded(bytes), want);
            }
        }
    }
}

TEST(SimdVarint, MisalignedBuffers)
{
    // The mmap path hands the decoder pointers at arbitrary alignment
    // (frame payloads start wherever the previous frame ended). Canonical
    // encodings 1 to 10 bytes wide, ~0ull among them, decode to exactly
    // the encoded values at every misaligned offset.
    Rng rng(0x54);
    Values want;
    std::vector<std::uint8_t> stream;
    for (unsigned i = 0; i < 500; ++i) {
        const auto bits = static_cast<unsigned>(1 + rng.below(64));
        want.push_back(i % 50 == 0 ? ~0ull : rng.next() >> (64 - bits));
        appendVarint(stream, want.back());
    }
    for (std::size_t off : {std::size_t{1}, std::size_t{3}, std::size_t{5},
                            std::size_t{13}}) {
        SCOPED_TRACE(off);
        // Heap-allocate so ASan guards the edges of the shifted copy.
        std::vector<std::uint8_t> shifted(off + stream.size());
        std::memcpy(shifted.data() + off, stream.data(), stream.size());
        Values out(stream.size() + 1);
        std::size_t count = 0;
        ASSERT_TRUE(decodeVarints(shifted.data() + off, stream.size(),
                                  out.data(), &count));
        out.resize(count);
        EXPECT_EQ(out, want);
    }
}

namespace {

/**
 * A structurally valid chunk whose field values are chosen to make the
 * codec's delta streams pathological: cycles and sequence numbers jump
 * between tiny and near-2^64 values, so the zigzag deltas exercise
 * every varint width up to the 10-byte maximum, back to back.
 */
TraceChunk
extremeChunk(Rng &rng, std::size_t count)
{
    TraceChunk c;
    c.events.reserve(count);
    Cycle cycle = 0;
    SeqNum seq = 1;
    bool swing = false;
    auto wildPc = [&]() {
        return static_cast<InstIndex>(
            swing ? 0xfffffff0u - rng.below(8) : rng.below(64));
    };
    for (std::size_t i = 0; i < count; ++i) {
        swing = !swing;
        cycle += swing ? (0x7fffffffffffffull + rng.below(1024)) : 1;
        seq += swing ? (0x3fffffffffffffull + rng.below(1024)) : 1;
        TraceEvent ev;
        switch (rng.below(5)) {
          case 0: {
            ev.kind = TraceEventKind::Cycle;
            ev.p.cycle = CycleRecord{};
            CycleRecord &r = ev.p.cycle;
            r.cycle = cycle;
            r.state = static_cast<CommitState>(rng.below(4));
            r.numCommitted =
                r.state == CommitState::Compute
                    ? static_cast<std::uint8_t>(rng.range(1, 8))
                    : 0;
            for (unsigned u = 0; u < r.numCommitted; ++u) {
                r.committed[u].seq = seq += 0x1fffffffffffull;
                r.committed[u].pc = wildPc();
                r.committed[u].psv =
                    Psv(static_cast<std::uint16_t>(rng.below(512)));
            }
            r.headValid = r.state == CommitState::Stalled;
            if (r.headValid) {
                r.headSeq = seq + 0x7ffffffffull;
                r.headPc = wildPc();
            }
            r.lastValid = rng.chance(0.9);
            if (r.lastValid) {
                r.lastPc = wildPc();
                r.lastPsv =
                    Psv(static_cast<std::uint16_t>(rng.below(512)));
            }
            break;
          }
          case 1:
            ev.kind = TraceEventKind::Dispatch;
            ev.p.uop = UopRecord{seq, wildPc(), cycle};
            break;
          case 2:
            ev.kind = TraceEventKind::Fetch;
            ev.p.uop = UopRecord{seq, wildPc(), cycle};
            break;
          case 3:
            ev.kind = TraceEventKind::Retire;
            ev.p.retire = RetireRecord{
                seq, wildPc(),
                Psv(static_cast<std::uint16_t>(rng.below(512))), cycle};
            break;
          default:
            ev.kind = TraceEventKind::End;
            ev.p.end = cycle;
            break;
        }
        if (ev.kind == TraceEventKind::Cycle)
            ++c.cycleRecords;
        c.events.push_back(ev);
    }
    return c;
}

} // namespace

TEST(SimdCodec, ExtremeDeltaChunksRoundTripUnderEveryKernel)
{
    Rng rng(0xdec0de);
    for (unsigned round = 0; round < 10; ++round) {
        TraceChunk chunk = extremeChunk(rng, 64 + rng.below(512));
        std::vector<std::uint8_t> frame;
        encodeChunk(chunk, frame);

        ChunkDecoder decoder;
        TraceChunk back;
        std::size_t consumed = 0;
        std::string why;
        ASSERT_TRUE(decoder.decode(frame.data(), frame.size(), back,
                                   &consumed, &why))
            << why;
        EXPECT_EQ(consumed, frame.size());
        EXPECT_EQ(back.cycleRecords, chunk.cycleRecords);
        ASSERT_EQ(back.events.size(), chunk.events.size());
        for (std::size_t i = 0; i < chunk.events.size(); ++i)
            ASSERT_TRUE(eventsEquivalent(chunk.events[i], back.events[i]))
                << "event " << i;
    }
}

TEST(SimdCodec, MultiFrameStreamsDecodeIdenticallyAtAnyOffset)
{
    // Several frames concatenated (delta state must reset per frame),
    // the whole stream then shifted to misaligned offsets like an
    // arbitrary position inside an mmap'd cache file.
    Rng rng(0xf8a);
    std::vector<TraceChunk> chunks;
    std::vector<std::uint8_t> stream;
    for (unsigned f = 0; f < 6; ++f) {
        chunks.push_back(extremeChunk(rng, 32 + rng.below(160)));
        encodeChunk(chunks.back(), stream);
    }

    for (std::size_t off : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                            std::size_t{5}}) {
        SCOPED_TRACE(off);
        std::vector<std::uint8_t> shifted(off + stream.size());
        std::memcpy(shifted.data() + off, stream.data(), stream.size());
        ChunkDecoder decoder;
        std::size_t at = off;
        for (const TraceChunk &want : chunks) {
            TraceChunk back;
            std::size_t consumed = 0;
            std::string why;
            ASSERT_TRUE(decoder.decode(shifted.data() + at,
                                       shifted.size() - at, back,
                                       &consumed, &why))
                << why;
            at += consumed;
            ASSERT_EQ(back.events.size(), want.events.size());
            for (std::size_t i = 0; i < want.events.size(); ++i)
                ASSERT_TRUE(eventsEquivalent(want.events[i],
                                             back.events[i]))
                    << "event " << i;
        }
        EXPECT_EQ(at, off + stream.size());
    }
}
