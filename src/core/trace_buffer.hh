/**
 * @file
 * In-memory cycle-trace capture (the filesystem-free TraceDoctor path).
 *
 * A TraceSink records every trace event — cycle records and idle
 * spans — into fixed-size chunks, preserving the exact order the core
 * produced; the chunk that closes the trace also carries the end
 * marker's cycle (TraceChunk::endCycle), so the end marker is never an
 * event.
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
#include <optional>
#include <vector>

#include "core/trace.hh"

namespace tea {

/** Discriminator for one captured trace event. */
enum class TraceEventKind : std::uint8_t
{
    Cycle,
    Span, ///< a run of identical idle cycle records (TraceSink::onSpan)
};

/**
 * Longest idle span: the length is a 32-bit field. A longer idle run is
 * split into back-to-back spans, the first ones exactly this long.
 */
inline constexpr std::uint32_t maxSpanCycles = ~std::uint32_t{0};

/** One captured trace event: a cycle record or a span. */
struct TraceEvent
{
    TraceEventKind kind = TraceEventKind::Cycle;

    /**
     * Span only: the cycles the span covers (2..maxSpanCycles). It
     * lives in the alignment padding after the kind, so a span costs
     * no more memory than a cycle record.
     */
    std::uint32_t spanCycles = 0;

    CycleRecord rec; ///< the Cycle's record, or the Span's first one
};

static_assert(sizeof(TraceEvent) ==
                  sizeof(CycleRecord) + alignof(CycleRecord),
              "the span length must fit in the padding after the kind");

/** Cycles @p ev covers: 1 for a Cycle, the length for a Span. */
inline std::uint64_t
cyclesCovered(const TraceEvent &ev)
{
    return ev.kind == TraceEventKind::Span ? ev.spanCycles : 1;
}

/** A batch of consecutive trace events. */
struct TraceChunk
{
    std::vector<TraceEvent> events;

    /**
     * Cycles the events cover (cyclesCovered summed), for
     * replayed-cycle accounting.
     */
    std::uint64_t cycleRecords = 0;

    /**
     * Set on the chunk that closes the trace: the end marker's cycle
     * (TraceSink::onEnd), delivered after the chunk's events. The core
     * stamps it one past its last cycle record.
     */
    std::optional<Cycle> endCycle;
};

using TraceChunkPtr = std::shared_ptr<const TraceChunk>;

/**
 * True when @p a and @p b are indistinguishable to any TraceSink: same
 * kind, same span length and same values in every field an observer
 * may legally read.
 * Commit slots at index >= numCommitted are not compared — the core
 * reuses its working buffers, so those slots can hold stale bytes that
 * a canonicalizing round trip (e.g. the on-disk codec) legitimately
 * normalizes away.
 */
bool eventsEquivalent(const TraceEvent &a, const TraceEvent &b);

/**
 * Deliver one captured event to @p sink: a Cycle event through
 * deliverCycle, so its commit slots reach onRetire first; a Span
 * through onSpan. Templated on the sink type like deliverCycle, so a
 * final sink's onBatch loop resolves every call statically.
 */
template <typename Sink>
void
deliverEvent(const TraceEvent &ev, Sink &sink)
{
    switch (ev.kind) {
      case TraceEventKind::Cycle:
        deliverCycle(sink, ev.rec);
        break;
      case TraceEventKind::Span:
        sink.onSpan(ev.rec, ev.spanCycles);
        break;
    }
}

/**
 * Replay every event of @p chunk through @p sinks in capture order,
 * then, when the chunk closes the trace, its end marker (onEnd).
 * @return number of cycle records delivered
 */
std::uint64_t replayChunk(const TraceChunk &chunk,
                          const std::vector<TraceSink *> &sinks);

/**
 * TraceSink that batches events into chunks of @c chunkEvents and hands
 * each completed chunk to a callback. onEnd stamps the open chunk (an
 * empty one if none is open) with the end marker's cycle and emits it.
 * Otherwise the final (possibly partial) chunk is emitted by finish(),
 * which the owner must call after the simulation completes: the core
 * may legally emit no end marker when it hits a cycle limit.
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
    void onSpan(const CycleRecord &first, std::uint32_t n) override;
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
    TraceChunk &openChunk();

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
    void onSpan(const CycleRecord &first, std::uint32_t n) override;
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
