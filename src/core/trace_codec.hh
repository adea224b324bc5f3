/**
 * @file
 * Compact structure-of-arrays codec for trace chunks.
 *
 * One TraceChunk is encoded as one self-contained *frame*: a fixed
 * header (sizes, record and cycle counts, payload CRC-32), then the
 * payload: the entry state (the state entering the frame) and a fixed
 * set of length-prefixed field streams. Within a stream, values of the
 * same field are stored back-to-back (structure-of-arrays),
 * delta-encoded against the previous value of the same stream and
 * written as zigzag LEB128 varints — PCs loop over small ranges and a
 * record's front-end seqs (nextFetchSeq, nextDispatchSeq) advance by
 * at most the fetch or dispatch width, so most values fit in one byte.
 *
 * The frame stores only what the decoder cannot derive. The core's
 * trace obeys three rules, and the encoder asserts each of them:
 *  - cycles are dense: each record starts where the previous one ended;
 *  - commit seqs are consecutive;
 *  - the end marker is one cycle past the last record.
 * So no cycle stamp or seq is stored, and the end marker is one flag.
 * The entry state holds what the frame's first record needs: the
 * first cycle, the next commit seq (the first commit slot's, 0 if the
 * frame has none) and whether the trace ends after this frame; the end
 * cycle is the first cycle plus the cycles covered.
 *
 * Six streams follow: the packed per-record flags (state, commit
 * count, span), the commit slots' pcs and PSVs, the two front-end seqs
 * and the span lengths. A Span event (an idle run, TraceSink::onSpan)
 * is its first cycle record plus a length, so the span flag needs no
 * kind array. The decoder rejects what no producer can emit: a span
 * shorter than 2 cycles, longer than maxSpanCycles, in the Compute
 * state or with commits; a commit pc past InstIndex or a PSV bit past
 * the nine events; an unknown flag bit; and a frame whose cycles run
 * past the last representable cycle.
 *
 * Frames are independent (all delta state resets per frame), so a file
 * of concatenated frames supports chunk-at-a-time streaming decode
 * straight out of a memory-mapped region, and a corrupted frame is
 * detectable (CRC) without touching its neighbours.
 *
 * Committed slots beyond numCommitted are not encoded, and decode
 * leaves them unspecified. Every consumer must honor numCommitted —
 * which TraceSink observers and eventsEquivalent() (trace_buffer.hh)
 * do already — so replay through the codec is observationally
 * identical to in-memory replay while decode touches a fraction of the
 * record's bytes.
 */

#ifndef TEA_CORE_TRACE_CODEC_HH
#define TEA_CORE_TRACE_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/trace_buffer.hh"

namespace tea {

/**
 * Version of the on-disk chunk encoding *and* of everything else a
 * cached trace file embeds (CoreStats layout, header layout). Bump on
 * any change; stale files then fail validation and are re-simulated.
 */
inline constexpr std::uint32_t traceCodecVersion = 6;

/** Fixed per-frame header (little-endian, packed by construction). */
struct ChunkFrameHeader
{
    std::uint32_t frameBytes = 0; ///< total frame size incl. header
    std::uint32_t eventCount = 0; ///< events (records) in the chunk
    std::uint32_t spanEvents = 0; ///< Span events among them
    std::uint32_t payloadCrc = 0; ///< CRC-32 of the payload bytes
    /**
     * Cycles the events cover: one per Cycle event plus each span's
     * length (TraceChunk::cycleRecords). 64 bits, so no frame can
     * overflow it: at most 2^30 events of at most maxSpanCycles each.
     */
    std::uint64_t cycleRecords = 0;
};

/** Hard upper bound on one frame (sanity check against corruption). */
inline constexpr std::uint32_t maxChunkFrameBytes = 1u << 30;

/**
 * Encode @p chunk as one frame appended to @p out. The chunk must obey
 * the rules in the file comment; a chunk that breaks one is an internal
 * error (tea_assert), never a frame written with a wrong trace in it.
 */
void encodeChunk(const TraceChunk &chunk, std::vector<std::uint8_t> &out);

/**
 * Peek the frame header at @p data without decoding.
 * @return false (with @p why set) when the header is out of bounds or
 *         structurally implausible
 */
bool peekFrame(const std::uint8_t *data, std::size_t avail,
               ChunkFrameHeader *header, std::string *why);

/**
 * CRC-check the frame at @p data against its header without decoding.
 * @return false (with @p why set) on bounds or checksum failure
 */
bool verifyFrame(const std::uint8_t *data, std::size_t avail,
                 std::string *why);

/**
 * Reusable frame decoder.
 *
 * Decoding runs in two stages: first every varint stream of the frame
 * is bulk-decoded into a per-stream value lane (core/varint); then one
 * assembly loop writes the records in order, rebuilding absolute
 * values from the zigzag deltas as each lane is consumed in encode
 * order and the derived fields from the entry state.
 * The lanes are owned by the decoder and grow to the largest frame
 * seen, so a decoder held across a replay loop allocates only on the
 * first few frames.
 *
 * Not thread-safe; use one decoder per thread.
 */
class ChunkDecoder
{
  public:
    ChunkDecoder();
    ~ChunkDecoder();

    ChunkDecoder(ChunkDecoder &&) noexcept;
    ChunkDecoder &operator=(ChunkDecoder &&) noexcept;

    /**
     * Decode the frame at @p data into @p out (replacing its contents).
     * Every read is bounds-checked, so arbitrary bytes never crash —
     * they produce an error. Does not re-verify the CRC; callers
     * validating untrusted input run verifyFrame() first (the mmap
     * reader does this for the whole file before any event is
     * delivered).
     *
     * @param consumed set to the frame size on success
     * @return false (with @p why set) on malformed input
     */
    bool decode(const std::uint8_t *data, std::size_t avail,
                TraceChunk &out, std::size_t *consumed, std::string *why);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * One-shot convenience wrapper around ChunkDecoder::decode (same
 * contract). Callers decoding many frames should hold a ChunkDecoder
 * to reuse its lanes instead.
 */
bool decodeChunk(const std::uint8_t *data, std::size_t avail,
                 TraceChunk &out, std::size_t *consumed, std::string *why);

} // namespace tea

#endif // TEA_CORE_TRACE_CODEC_HH
