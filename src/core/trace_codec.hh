/**
 * @file
 * Compact structure-of-arrays codec for trace chunks.
 *
 * One TraceChunk is encoded as one self-contained *frame*: a fixed
 * header (sizes, event counts, payload CRC-32) followed by the event
 * kind array and a fixed set of length-prefixed field streams. Within a
 * stream, values of the same field are stored back-to-back
 * (structure-of-arrays), delta-encoded against the previous value of
 * the same stream and written as zigzag LEB128 varints — cycles and
 * sequence numbers are near-monotonic, PCs loop over small ranges, so
 * most values fit in one byte (~10x smaller than the in-memory events).
 *
 * Frames are independent (all delta state resets per frame), so a file
 * of concatenated frames supports chunk-at-a-time streaming decode
 * straight out of a memory-mapped region, and a corrupted frame is
 * detectable (CRC) without touching its neighbours.
 *
 * Fields gated by a validity flag (ROB head, last-committed, committed
 * slots beyond numCommitted) are encoded only when valid, and decode
 * writes only the valid ones back: gated fields whose flag is clear
 * hold unspecified contents in a decoded record. Every consumer must
 * honor the validity flags — which TraceSink observers and
 * eventsEquivalent() (trace_buffer.hh) do already — so replay through
 * the codec is observationally identical to in-memory replay while
 * decode touches a fraction of the record's bytes.
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
inline constexpr std::uint32_t traceCodecVersion = 1;

/** Fixed per-frame header (little-endian, packed by construction). */
struct ChunkFrameHeader
{
    std::uint32_t frameBytes = 0;   ///< total frame size incl. header
    std::uint32_t eventCount = 0;   ///< events in the chunk
    std::uint32_t cycleRecords = 0; ///< Cycle events among them
    std::uint32_t payloadCrc = 0;   ///< CRC-32 of the payload bytes
};

/** Hard upper bound on one frame (sanity check against corruption). */
inline constexpr std::uint32_t maxChunkFrameBytes = 1u << 30;

/** Encode @p chunk as one frame appended to @p out. */
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
 * is bulk-decoded into a per-stream value lane (core/varint); then
 * kind-grouped assembly loops write each event's fields in place,
 * rebuilding absolute values from the zigzag deltas as each lane is
 * consumed in encode order.
 * The lanes are owned by the decoder and grow to the largest frame
 * seen, so a decoder held across a replay loop allocates only on the
 * first few frames.
 *
 * Not thread-safe; use one decoder per thread. Results are identical
 * to the original event-at-a-time decoder.
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
