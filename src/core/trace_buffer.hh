/**
 * @file
 * In-memory cycle-trace capture (the filesystem-free TraceDoctor path).
 *
 * A TraceSink records every trace event — cycle snapshots, fetch and
 * dispatch uops, retires and the end marker — into fixed-size chunks of
 * a tagged union, preserving the exact interleaving the core produced.
 * Chunks can be replayed through any set of TraceSinks, delivering
 * byte-identical records in the original order, which is what makes
 * out-of-band replay deterministic regardless of who replays them or
 * when (see DESIGN.md, "Out-of-band replay at scale").
 *
 * Two sinks are provided:
 *  - ChunkingSink: streams completed chunks to a callback (the runner
 *    tees them into a trace-cache writer while the core is still
 *    simulating).
 *  - TraceBuffer: retains all chunks for repeated in-process replay.
 */

#ifndef TEA_CORE_TRACE_BUFFER_HH
#define TEA_CORE_TRACE_BUFFER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/trace.hh"

namespace tea {

/** Discriminator for one captured trace event. */
enum class TraceEventKind : std::uint8_t
{
    Cycle,
    Dispatch,
    Fetch,
    Retire,
    End,
};

/** One captured trace event (tagged union; all payloads are trivial). */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::End;
    union Payload
    {
        CycleRecord cycle;
        UopRecord uop; ///< Dispatch and Fetch
        RetireRecord retire;
        Cycle end;

        Payload() : end(0) {}
    } p;
};

/** A batch of consecutive trace events. */
struct TraceChunk
{
    std::vector<TraceEvent> events;

    /** Cycle records contained (for replayed-cycle accounting). */
    std::uint64_t cycleRecords = 0;
};

using TraceChunkPtr = std::shared_ptr<const TraceChunk>;

/**
 * True when @p a and @p b are indistinguishable to any TraceSink: same
 * kind and same values in every field an observer may legally read.
 * Fields gated by a validity flag (ROB head, last-committed, committed
 * slots at index >= numCommitted) are compared only when valid — the
 * core reuses its working buffers, so invalid slots can hold stale
 * bytes that a canonicalizing round trip (e.g. the on-disk codec)
 * legitimately normalizes away.
 */
bool eventsEquivalent(const TraceEvent &a, const TraceEvent &b);

/** Deliver one captured event to @p sink. */
void deliverEvent(const TraceEvent &ev, TraceSink &sink);

/**
 * Replay every event of @p chunk through @p sinks in capture order.
 * @return number of cycle records delivered
 */
std::uint64_t replayChunk(const TraceChunk &chunk,
                          const std::vector<TraceSink *> &sinks);

/**
 * TraceSink that batches events into chunks of @c chunkEvents and hands
 * each completed chunk to a callback. The final (possibly partial) chunk
 * is emitted by finish(), which the owner must call after the simulation
 * completes (onEnd alone does not flush: the core may legally emit no
 * end marker when it hits a cycle limit).
 */
class ChunkingSink : public TraceSink
{
  public:
    using Emit = std::function<void(TraceChunkPtr)>;

    /**
     * @param chunk_events events per chunk (>= 1)
     * @param emit called with each completed chunk
     */
    ChunkingSink(std::size_t chunk_events, Emit emit);

    void onCycle(const CycleRecord &rec) override;
    void onDispatch(const UopRecord &rec) override;
    void onFetch(const UopRecord &rec) override;
    void onRetire(const RetireRecord &rec) override;
    void onEnd(Cycle final_cycle) override;
    void onBatch(const TraceEvent *events, std::size_t n) override;

    /** Flush the trailing partial chunk (idempotent). */
    void finish();

    /** Events captured so far. */
    std::uint64_t eventsCaptured() const { return events_; }

    /** Chunks emitted so far. */
    std::uint64_t chunksEmitted() const { return chunks_; }

  private:
    TraceEvent &append(TraceEventKind kind);

    std::size_t chunkEvents_;
    Emit emit_;
    std::shared_ptr<TraceChunk> open_;
    std::uint64_t events_ = 0;
    std::uint64_t chunks_ = 0;
};

/**
 * TraceSink that retains the whole trace in memory for repeated replay.
 */
class TraceBuffer : public TraceSink
{
  public:
    explicit TraceBuffer(std::size_t chunk_events = 4096);

    void onCycle(const CycleRecord &rec) override;
    void onDispatch(const UopRecord &rec) override;
    void onFetch(const UopRecord &rec) override;
    void onRetire(const RetireRecord &rec) override;
    void onEnd(Cycle final_cycle) override;
    void onBatch(const TraceEvent *events, std::size_t n) override;

    /** Flush the trailing partial chunk (idempotent). */
    void finish();

    /** Captured chunks (finish() first to include the tail). */
    const std::vector<TraceChunkPtr> &chunks() const { return chunks_; }

    /** Events captured. */
    std::uint64_t eventsCaptured() const
    {
        return sink_.eventsCaptured();
    }

    /**
     * Replay the full captured trace through @p sinks.
     * @return number of cycle records delivered
     */
    std::uint64_t replay(const std::vector<TraceSink *> &sinks) const;

  private:
    ChunkingSink sink_;
    std::vector<TraceChunkPtr> chunks_;
};

} // namespace tea

#endif // TEA_CORE_TRACE_BUFFER_HH
