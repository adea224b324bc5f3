/**
 * @file
 * Cycle-trace serialization (the TraceDoctor role in the paper's §4):
 * dump the full cycle-by-cycle trace of one simulation to a binary file
 * and replay it later through any set of TraceSinks. This is what lets
 * many analysis configurations be evaluated out-of-band from a single
 * simulation run.
 *
 * One format lives here, CompactTraceWriter/MappedTraceFile: a
 * validated header plus CoreStats snapshot plus compact SoA chunk
 * frames (core/trace_codec), published by atomic rename and read back
 * zero-copy through mmap. Writes are best-effort (warn, never fatal):
 * the trace cache computes each experiment's results in memory, so a
 * full disk must not kill the run, only the cache entry.
 */

#ifndef TEA_CORE_TRACE_IO_HH
#define TEA_CORE_TRACE_IO_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/retry.hh"
#include "core/core.hh"
#include "core/trace.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"

namespace tea {

/**
 * Streaming writer of the compact chunked trace-cache format.
 *
 * Writes to a uniquely named temporary file next to @p final_path;
 * commit() seals the header (counts, CRCs), fsyncs, and atomically
 * renames onto the final path, so readers only ever observe complete
 * files. If the writer is destroyed without commit() the temporary is
 * unlinked. All I/O errors demote the writer to inactive with a warning
 * — the cache is an accelerator, never a correctness dependency.
 */
class CompactTraceWriter
{
  public:
    CompactTraceWriter(std::string final_path, std::uint64_t fingerprint);
    ~CompactTraceWriter();

    CompactTraceWriter(const CompactTraceWriter &) = delete;
    CompactTraceWriter &operator=(const CompactTraceWriter &) = delete;

    /** False once any I/O error has been hit (entry abandoned). */
    bool active() const { return file_ != nullptr; }

    /** Encode and append one chunk frame. */
    void writeChunk(const TraceChunk &chunk);

    /**
     * Admission control: abandon the entry (with a warning) as soon as
     * it grows past @p max_bytes — an entry larger than the whole cache
     * budget can never survive a janitor pass, so finishing the write
     * only wastes disk and eviction work. 0 (the default) disables the
     * limit.
     */
    void setByteLimit(std::uint64_t max_bytes) { byteLimit_ = max_bytes; }

    /** True when setByteLimit caused the entry to be abandoned. */
    bool admissionDenied() const { return admissionDenied_; }

    /**
     * Seal and publish the entry, embedding the simulation's final
     * @p stats so cache hits can reproduce them without simulating.
     * After the tmp→final rename, the containing directory is fsync'd
     * so the rename itself survives power-loss ordering, not just
     * process death (a failing directory fsync degrades the durability
     * guarantee with a warning; the entry is still valid this boot).
     * @return true when the entry is durably in place
     */
    bool commit(const CoreStats &stats);

    /**
     * On-disk size of the entry so far (header + stats + frames), the
     * same figure MappedTraceFile::fileBytes() reports on a hit.
     */
    std::uint64_t bytesWritten() const;

    /**
     * Transient-I/O retry counters for this entry (tmp-file creation,
     * fsync and the publishing rename are retried with backoff; see
     * common/retry.hh). Merged into ReplayStats by the runner.
     */
    const RetryStats &retryStats() const { return retryStats_; }

  private:
    void abandon();

    std::FILE *file_ = nullptr;
    std::string finalPath_;
    std::string tmpPath_;
    std::uint64_t fingerprint_ = 0;
    std::uint64_t chunkCount_ = 0;
    std::uint64_t eventCount_ = 0;
    std::uint64_t cycleCount_ = 0;
    std::uint64_t payloadBytes_ = 0;
    std::uint64_t byteLimit_ = 0; ///< admission cap (0 = unlimited)
    bool admissionDenied_ = false;
    std::vector<std::uint8_t> scratch_; ///< reused frame encode buffer
    RetryPolicy retryPolicy_;
    RetryStats retryStats_;
};

/**
 * Memory-mapped, zero-copy reader of the compact trace-cache format.
 *
 * open() maps the file and validates *everything* up front — magic,
 * codec version, header CRC, fingerprint, CoreStats CRC, and the CRC
 * and bounds of every chunk frame — before a single event can be
 * delivered, so a corrupted or truncated file can never poison an
 * observer mid-replay: it simply fails to open (with a reason) and the
 * caller falls back to simulation. After open() succeeds, chunks are
 * decoded on demand straight out of the mapping (no read buffers, no
 * up-front materialization of the trace).
 */
class MappedTraceFile
{
  public:
    ~MappedTraceFile();

    MappedTraceFile(const MappedTraceFile &) = delete;
    MappedTraceFile &operator=(const MappedTraceFile &) = delete;

    /**
     * Map and validate @p path.
     * @param expected_fingerprint the (workload, config, codec) key the
     *        caller derived; a mismatch rejects the file
     * @param why_not set to a human-readable reason on failure
     * @param sys_err set to the failing syscall's errno when the
     *        rejection came from open/stat/mmap (so the caller can
     *        classify it transient and retry), 0 when the file itself
     *        failed validation (damage — retrying cannot help)
     * @return the reader, or nullptr when the file is missing, stale,
     *         truncated or corrupt
     */
    static std::unique_ptr<MappedTraceFile>
    open(const std::string &path, std::uint64_t expected_fingerprint,
         std::string *why_not, int *sys_err = nullptr);

    /** Simulation statistics captured when the trace was recorded. */
    const CoreStats &coreStats() const { return stats_; }

    std::uint64_t chunkCount() const { return chunkCount_; }
    std::uint64_t eventCount() const { return eventCount_; }
    std::uint64_t cycleCount() const { return cycleCount_; }

    /** Size of the mapped file in bytes. */
    std::uint64_t fileBytes() const { return size_; }

    /** Reset the chunk cursor to the first chunk. */
    void rewind() { nextFrame_ = 0; }

    /**
     * Decode and return the next chunk, or nullptr after the last one.
     * The file was fully CRC-verified at open(), so a decode failure
     * here is an internal invariant violation (panic), not a user
     * error. Uses the file's own decoder; not thread-safe.
     */
    TraceChunkPtr nextChunk();

  private:
    MappedTraceFile() = default;

    /** Decode frame @p index into @p out (replaced); panics on failure. */
    void decodeFrameInto(std::size_t index, TraceChunk &out);

    const std::uint8_t *base_ = nullptr;
    std::size_t size_ = 0;
    std::size_t payloadOffset_ = 0;
    std::size_t nextFrame_ = 0; ///< nextChunk() cursor (frame index)
    std::string path_;
    CoreStats stats_{};
    std::uint64_t chunkCount_ = 0;
    std::uint64_t eventCount_ = 0;
    std::uint64_t cycleCount_ = 0;
    std::vector<std::size_t> frameOffsets_; ///< byte offset per frame
    ChunkDecoder decoder_;
    /**
     * nextChunk() storage ring. Entries are reused once the consumer
     * has dropped them, so a caller holding a batch of n decoded
     * chunks in flight grows the ring to n+1 slots and every later
     * decode recycles warm storage instead of paying a fresh
     * chunk-sized allocation (and the kernel's page zeroing) per
     * frame.
     */
    std::vector<std::shared_ptr<TraceChunk>> scratch_;
    std::size_t scratchNext_ = 0; ///< ring rotation cursor
};

} // namespace tea

#endif // TEA_CORE_TRACE_IO_HH
