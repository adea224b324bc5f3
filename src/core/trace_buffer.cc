#include "core/trace_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tea {

bool
eventsEquivalent(const TraceEvent &a, const TraceEvent &b)
{
    if (a.kind != b.kind ||
        (a.kind == TraceEventKind::Span && a.spanCycles != b.spanCycles))
        return false;
    const CycleRecord &x = a.rec;
    const CycleRecord &y = b.rec;
    if (x.cycle != y.cycle || x.state != y.state ||
        x.numCommitted != y.numCommitted ||
        x.nextFetchSeq != y.nextFetchSeq ||
        x.nextDispatchSeq != y.nextDispatchSeq)
        return false;
    for (unsigned i = 0; i < x.numCommitted; ++i) {
        if (x.committed[i].seq != y.committed[i].seq ||
            x.committed[i].pc != y.committed[i].pc ||
            x.committed[i].psv != y.committed[i].psv)
            return false;
    }
    return true;
}

void
TraceSink::onSpan(const CycleRecord &first, std::uint32_t n)
{
    CycleRecord rec = first;
    for (std::uint32_t i = 0; i < n; ++i) {
        rec.cycle = first.cycle + i;
        onCycle(rec);
    }
}

void
TraceSink::onBatch(const TraceEvent *events, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        deliverEvent(events[i], *this);
}

std::uint64_t
replayChunk(const TraceChunk &chunk, const std::vector<TraceSink *> &sinks)
{
    // Sink-major batched delivery: one onBatch call per sink per
    // chunk, instead of two virtual calls per (event, sink) pair.
    // Sinks are independent observers — each still sees every event in
    // capture order, only the interleaving across sinks changes, which
    // no observer can detect. The end marker follows the chunk's
    // events through its dedicated onEnd call (core/trace.hh).
    if (!chunk.events.empty()) {
        for (TraceSink *s : sinks)
            s->onBatch(chunk.events.data(), chunk.events.size());
    }
    if (chunk.endCycle) {
        for (TraceSink *s : sinks)
            s->onEnd(*chunk.endCycle);
    }
    return chunk.cycleRecords;
}

ChunkingSink::ChunkingSink(std::size_t chunk_events, Emit emit)
    : chunkEvents_(chunk_events), emit_(std::move(emit))
{
    tea_assert(chunkEvents_ >= 1, "chunk size must be >= 1");
    tea_assert(emit_, "ChunkingSink needs an emit callback");
}

TraceChunk &
ChunkingSink::openChunk()
{
    if (!open_) {
        open_ = std::make_shared<TraceChunk>();
        open_->events.reserve(chunkEvents_);
    }
    return *open_;
}

TraceEvent &
ChunkingSink::append(TraceEventKind kind)
{
    TraceEvent &ev = openChunk().events.emplace_back();
    ev.kind = kind;
    ++events_;
    return ev;
}

void
ChunkingSink::onCycle(const CycleRecord &rec)
{
    append(TraceEventKind::Cycle).rec = rec;
    ++open_->cycleRecords;
    if (open_->events.size() >= chunkEvents_)
        finish();
}

void
ChunkingSink::onSpan(const CycleRecord &first, std::uint32_t n)
{
    TraceEvent &ev = append(TraceEventKind::Span);
    ev.spanCycles = n;
    ev.rec = first;
    open_->cycleRecords += n;
    if (open_->events.size() >= chunkEvents_)
        finish();
}

void
ChunkingSink::onEnd(Cycle final_cycle)
{
    openChunk().endCycle = final_cycle;
    finish();
}

void
ChunkingSink::onBatch(const TraceEvent *events, std::size_t n)
{
    // Bulk path: append whole ranges into the open chunk. Chunk
    // boundaries are byte-identical to record-at-a-time delivery — a
    // chunk closes exactly when it reaches chunkEvents_ events, the
    // same point finish() fires on the per-record path above.
    std::size_t i = 0;
    while (i < n) {
        TraceChunk &c = openChunk();
        const std::size_t take =
            std::min(chunkEvents_ - c.events.size(), n - i);
        c.events.insert(c.events.end(), events + i, events + i + take);
        for (std::size_t k = i; k < i + take; ++k)
            c.cycleRecords += cyclesCovered(events[k]);
        events_ += take;
        i += take;
        if (c.events.size() >= chunkEvents_)
            finish();
    }
}

void
ChunkingSink::finish()
{
    if (!open_)
        return;
    ++chunks_;
    emit_(std::move(open_));
    open_.reset();
}

TraceBuffer::TraceBuffer(std::size_t chunk_events)
    : sink_(chunk_events,
            [this](TraceChunkPtr c) { chunks_.push_back(std::move(c)); })
{
}

void
TraceBuffer::onCycle(const CycleRecord &rec)
{
    sink_.onCycle(rec);
}

void
TraceBuffer::onSpan(const CycleRecord &first, std::uint32_t n)
{
    sink_.onSpan(first, n);
}

void
TraceBuffer::onEnd(Cycle final_cycle)
{
    sink_.onEnd(final_cycle);
}

void
TraceBuffer::onBatch(const TraceEvent *events, std::size_t n)
{
    sink_.onBatch(events, n);
}

void
TraceBuffer::finish()
{
    sink_.finish();
}

std::uint64_t
TraceBuffer::replay(const std::vector<TraceSink *> &sinks) const
{
    std::uint64_t cycles = 0;
    for (const TraceChunkPtr &c : chunks_)
        cycles += replayChunk(*c, sinks);
    return cycles;
}

} // namespace tea
