#include "core/trace_codec.hh"

#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <tuple>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "core/varint.hh"

namespace tea {

namespace {

/**
 * The field streams of one frame, in on-disk order. Each stream holds
 * one field across the whole chunk (SoA), so runs of similar values
 * sit together and delta-varint coding stays tight. Cycle stamps and
 * commit seqs are not stored: the decoder rebuilds them from the
 * frame's entry state.
 */
enum Stream : unsigned
{
    CycFlags = 0, ///< packed state/numCommitted/span
    ComPc,        ///< committed[i].pc (zigzag delta)
    ComPsv,       ///< committed[i].psv bits (varint)
    NextFetch,    ///< nextFetchSeq (zigzag delta)
    NextDisp,     ///< nextDispatchSeq (zigzag delta)
    SpanLen,      ///< cycles each Span covers (varint)
    NumStreams,
};

// CycFlags packing: 2 bits state, 4 bits numCommitted (<= 8), one
// unused bit that must be clear, then the span flag.
constexpr unsigned flagStateShift = 6;
constexpr unsigned flagCountShift = 2;
constexpr unsigned flagUnused = 0x2;
constexpr unsigned flagSpan = 0x1;

// Entry-state flags (the byte after the first cycle and next seq).
constexpr unsigned entryEndsTrace = 0x1; ///< the end marker follows

// Frame-layout lock (enforced by tea_lint's codec-version-lock rule):
// the stream directory, the flag packing, the entry state and the
// frame header are the on-disk contract. Changing any of them
// invalidates every cached trace, so the change must come with a
// traceCodecVersion bump — update the pinned values here in the same
// commit that bumps the version.
static_assert(traceCodecVersion == 6,
              "codec version changed: re-pin the layout asserts below");
static_assert(sizeof(ChunkFrameHeader) == 24,
              "ChunkFrameHeader layout changed: bump traceCodecVersion");
static_assert(NumStreams == 6,
              "stream directory changed: bump traceCodecVersion");
static_assert(maxSpanCycles == 0xFFFFFFFFu,
              "span length bound changed: bump traceCodecVersion");
static_assert(flagStateShift == 6 && flagCountShift == 2 &&
                  flagUnused == 0x2 && flagSpan == 0x1,
              "CycFlags packing changed: bump traceCodecVersion");
static_assert(entryEndsTrace == 0x1,
              "entry-state flags changed: bump traceCodecVersion");
static_assert(std::tuple_size_v<decltype(CycleRecord{}.committed)> <=
                  0xF,
              "commit snapshot exceeds the 4-bit CycFlags count field");

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t d)
{
    return (static_cast<std::uint64_t>(d) << 1) ^
           static_cast<std::uint64_t>(d >> 63);
}

std::int64_t
unzigzag(std::uint64_t z)
{
    return static_cast<std::int64_t>(z >> 1) ^
           -static_cast<std::int64_t>(z & 1);
}

/** Per-stream delta encoder state (reset at every frame). */
struct DeltaState
{
    std::uint64_t prev = 0;

    std::uint64_t
    encode(std::uint64_t v)
    {
        std::uint64_t z = zigzag(static_cast<std::int64_t>(v - prev));
        prev = v;
        return z;
    }
};

/** Bounds-checked reader over a mapped frame's payload. */
struct Cursor
{
    const std::uint8_t *p = nullptr;
    const std::uint8_t *end = nullptr;

    bool exhausted() const { return p == end; }

    bool
    readByte(std::uint8_t *v)
    {
        if (p >= end)
            return false;
        *v = *p++;
        return true;
    }

    bool
    readVarint(std::uint64_t *v)
    {
        std::uint64_t out = 0;
        unsigned shift = 0;
        while (p < end && shift < 64) {
            std::uint8_t b = *p++;
            out |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
            if (!(b & 0x80u)) {
                *v = out;
                return true;
            }
            shift += 7;
        }
        return false; // truncated or > 64-bit varint
    }
};

bool
fail(std::string *why, const char *msg)
{
    if (why)
        *why = msg;
    return false;
}

} // namespace

void
encodeChunk(const TraceChunk &chunk, std::vector<std::uint8_t> &out)
{
    const std::vector<TraceEvent> &events = chunk.events;

    // The entry state: what the first record needs that no earlier
    // frame may supply. The next commit seq is the first commit slot's;
    // a frame without commits has no seq to rebuild.
    const Cycle first = events.empty() ? chunk.endCycle.value_or(0)
                                       : events.front().rec.cycle;
    SeqNum seq = 0;
    for (const TraceEvent &ev : events) {
        if (ev.rec.numCommitted != 0) {
            seq = ev.rec.committed[0].seq;
            break;
        }
    }

    std::vector<std::uint8_t> payload;
    putVarint(payload, first);
    putVarint(payload, seq);
    payload.push_back(
        static_cast<std::uint8_t>(chunk.endCycle ? entryEndsTrace : 0u));

    // Every field the decoder rebuilds is asserted here instead of
    // stored: a record breaking a rule would be written as a CRC-clean
    // frame that replays a different trace, or none.
    std::array<std::vector<std::uint8_t>, NumStreams> streams;
    DeltaState comPcD, fetchD, dispD;
    std::uint32_t spans = 0;
    Cycle cycle = first;
    for (const TraceEvent &ev : events) {
        const CycleRecord &r = ev.rec;
        const auto at = static_cast<unsigned long long>(r.cycle);
        tea_assert(r.cycle == cycle,
                   "cycle %llu follows a record ending at cycle %llu "
                   "(the codec stores dense cycles only)",
                   at, static_cast<unsigned long long>(cycle));
        tea_assert(r.numCommitted <= r.committed.size(),
                   "numCommitted %u overflows the committed array",
                   r.numCommitted);
        const bool span = ev.kind == TraceEventKind::Span;
        if (span) {
            // The decoder rejects what no producer emits.
            tea_assert(ev.spanCycles >= 2 &&
                           r.state != CommitState::Compute &&
                           r.numCommitted == 0,
                       "illegal span (cycle %llu, %u cycles, state %u, "
                       "%u commits)",
                       at, ev.spanCycles, static_cast<unsigned>(r.state),
                       r.numCommitted);
            putVarint(streams[SpanLen], ev.spanCycles);
            ++spans;
        }
        cycle += cyclesCovered(ev);
        streams[CycFlags].push_back(static_cast<std::uint8_t>(
            (static_cast<unsigned>(r.state) << flagStateShift) |
            (static_cast<unsigned>(r.numCommitted) << flagCountShift) |
            (span ? flagSpan : 0u)));
        for (unsigned i = 0; i < r.numCommitted; ++i) {
            const CommittedUop &c = r.committed[i];
            tea_assert(c.seq == seq,
                       "commit seq %llu at cycle %llu, want %llu (the "
                       "codec stores consecutive commits only)",
                       static_cast<unsigned long long>(c.seq), at,
                       static_cast<unsigned long long>(seq));
            ++seq;
            putVarint(streams[ComPc], comPcD.encode(c.pc));
            putVarint(streams[ComPsv], c.psv.bits());
        }
        putVarint(streams[NextFetch], fetchD.encode(r.nextFetchSeq));
        putVarint(streams[NextDisp], dispD.encode(r.nextDispatchSeq));
    }
    tea_assert(cycle >= first,
               "records from cycle %llu run past the last cycle",
               static_cast<unsigned long long>(first));
    tea_assert(cycle - first == chunk.cycleRecords,
               "chunk claims %llu cycles, its events cover %llu",
               static_cast<unsigned long long>(chunk.cycleRecords),
               static_cast<unsigned long long>(cycle - first));
    tea_assert(!chunk.endCycle || *chunk.endCycle == cycle,
               "end marker at cycle %llu, want %llu (one past the last "
               "record)",
               static_cast<unsigned long long>(chunk.endCycle.value_or(0)),
               static_cast<unsigned long long>(cycle));

    // The length-prefixed streams follow the entry state.
    std::size_t bytes = payload.size();
    for (const auto &st : streams)
        bytes += st.size() + 4;
    payload.reserve(bytes);
    for (const auto &st : streams) {
        putVarint(payload, st.size());
        payload.insert(payload.end(), st.begin(), st.end());
    }

    ChunkFrameHeader hdr;
    hdr.frameBytes = static_cast<std::uint32_t>(sizeof(ChunkFrameHeader) +
                                                payload.size());
    hdr.eventCount = static_cast<std::uint32_t>(events.size());
    hdr.spanEvents = spans;
    hdr.cycleRecords = chunk.cycleRecords;
    hdr.payloadCrc = crc32(0, payload.data(), payload.size());
    tea_assert(hdr.frameBytes <= maxChunkFrameBytes,
               "trace chunk frame exceeds %u bytes", maxChunkFrameBytes);

    std::size_t at = out.size();
    out.resize(at + sizeof(hdr) + payload.size());
    std::memcpy(out.data() + at, &hdr, sizeof(hdr));
    std::memcpy(out.data() + at + sizeof(hdr), payload.data(),
                payload.size());
}

bool
peekFrame(const std::uint8_t *data, std::size_t avail,
          ChunkFrameHeader *header, std::string *why)
{
    if (avail < sizeof(ChunkFrameHeader))
        return fail(why, "truncated chunk frame header");
    ChunkFrameHeader hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (hdr.frameBytes < sizeof(ChunkFrameHeader) ||
        hdr.frameBytes > maxChunkFrameBytes)
        return fail(why, "implausible chunk frame size");
    if (hdr.frameBytes > avail)
        return fail(why, "chunk frame extends past end of file");
    // A Cycle event covers one cycle and a span 2..maxSpanCycles.
    if (hdr.eventCount > hdr.frameBytes ||
        hdr.spanEvents > hdr.eventCount ||
        hdr.cycleRecords < 2ull * hdr.spanEvents ||
        hdr.cycleRecords - 2ull * hdr.spanEvents >
            (hdr.eventCount - hdr.spanEvents) +
                std::uint64_t{hdr.spanEvents} * (maxSpanCycles - 2))
        return fail(why, "implausible chunk event counts");
    *header = hdr;
    return true;
}

bool
verifyFrame(const std::uint8_t *data, std::size_t avail, std::string *why)
{
    ChunkFrameHeader hdr;
    if (!peekFrame(data, avail, &hdr, why))
        return false;
    std::uint32_t crc = crc32(0, data + sizeof(hdr),
                              hdr.frameBytes - sizeof(hdr));
    if (crc != hdr.payloadCrc)
        return fail(why, "chunk payload CRC mismatch");
    return true;
}

namespace {

/** The state entering a frame, read from the start of its payload. */
struct FrameEntry
{
    Cycle cycle = 0; ///< the first record's cycle
    SeqNum seq = 0;  ///< the next seq to commit
    bool endsTrace = false;
};

bool
readEntry(Cursor &cur, FrameEntry *e, std::string *why)
{
    std::uint8_t flags = 0;
    if (!cur.readVarint(&e->cycle) || !cur.readVarint(&e->seq) ||
        !cur.readByte(&flags))
        return fail(why, "truncated frame entry state");
    if (flags & ~entryEndsTrace)
        return fail(why, "unknown frame header flags");
    e->endsTrace = flags & entryEndsTrace;
    return true;
}

} // namespace

/**
 * Per-stream decoded-value lanes, reused across frames. CycFlags is the
 * one raw-byte stream; its lane stays empty and stage 2 reads the
 * mapped bytes directly.
 */
struct ChunkDecoder::Impl
{
    std::array<std::unique_ptr<std::uint64_t[]>, NumStreams> lanes;
    std::array<std::size_t, NumStreams> cap{};
    std::array<std::size_t, NumStreams> count{};

    void
    ensure(unsigned s, std::size_t need)
    {
        if (cap[s] >= need)
            return;
        const std::size_t grown = std::bit_ceil(need);
        lanes[s] = std::make_unique_for_overwrite<std::uint64_t[]>(grown);
        cap[s] = grown;
    }

    bool assemble(const ChunkFrameHeader &hdr, const FrameEntry &entry,
                  const std::uint8_t *cflags, TraceChunk &out,
                  std::string *why);
};

// Stage 2 validates every stream's length once, then one tight loop
// assembles the records in order straight from the lanes, rebuilding
// the cycle stamps and commit seqs from the entry state as it goes —
// no per-field bounds checks in the hot loop.
// tea_lint: hot
bool
ChunkDecoder::Impl::assemble(const ChunkFrameHeader &hdr,
                             const FrameEntry &entry,
                             const std::uint8_t *cflags, TraceChunk &out,
                             std::string *why)
{
    const std::uint32_t n = hdr.eventCount;
    if (count[CycFlags] != n)
        return fail(why, count[CycFlags] < n ? "truncated cycle stream"
                                             : "unconsumed stream bytes");

    // Tally the gated-field populations from the flag bytes, eight
    // flag bytes per step (SWAR): the span bits are a popcount over a
    // bit column, the commit counts are a nibble column summed with the
    // multiply-shift byte-sum trick (8 nibbles <= 120, no carry), and
    // an implausible count (> 8) is detected by the carry into bit 4 of
    // nc + 7. It and the unused bit are OR-accumulated and checked once.
    std::size_t nSpan = 0, nCom = 0;
    {
        constexpr std::uint64_t lsb = 0x0101010101010101ull;
        std::uint64_t bad = 0, unused = 0;
        std::uint32_t j = 0;
        for (; j + 8 <= n; j += 8) {
            std::uint64_t x;
            std::memcpy(&x, cflags + j, 8);
            nSpan += static_cast<unsigned>(
                __builtin_popcountll(x & (lsb * flagSpan)));
            unused |= x & (lsb * flagUnused);
            const std::uint64_t t =
                (x >> flagCountShift) & (lsb * 0x0F);
            bad |= (t + lsb * 0x07) & (lsb * 0x10);
            nCom += (t * lsb) >> 56;
        }
        for (; j < n; ++j) {
            const std::uint8_t f = cflags[j];
            const unsigned nc = (f >> flagCountShift) & 0xFu;
            if (nc > 8)
                bad = 1;
            nCom += nc;
            nSpan += f & flagSpan;
            unused |= f & flagUnused;
        }
        static_assert(
            std::tuple_size_v<decltype(CycleRecord{}.committed)> == 8,
            "commit-count plausibility bound is hardwired to 8");
        if (bad)
            return fail(why, "implausible commit count");
        if (unused)
            return fail(why, "unknown record flag bit");
    }
    if (nSpan != hdr.spanEvents)
        return fail(why, "span count mismatch");

    // One exact-length check per stream replaces per-record bounds
    // checks: a short stream is truncation, a long one trailing
    // unconsumed values — either rejects the frame before the
    // unchecked write loop below runs.
    const struct
    {
        unsigned s;
        std::size_t expect;
        const char *short_msg;
    } lengths[] = {
        {ComPc, nCom, "truncated committed stream"},
        {ComPsv, nCom, "truncated committed stream"},
        {NextFetch, n, "truncated front-end stream"},
        {NextDisp, n, "truncated front-end stream"},
        {SpanLen, nSpan, "truncated span stream"},
    };
    for (const auto &l : lengths) {
        if (count[l.s] != l.expect)
            return fail(why, count[l.s] < l.expect
                                 ? l.short_msg
                                 : "unconsumed stream bytes");
    }

    // Resize only when the count actually changes: every always-valid
    // field is overwritten below and gated leftovers are unspecified by
    // contract, so re-running element constructors on a reused chunk of
    // the same size (the steady replay state) would be pure churn — and
    // measurably dominated decode time when it was done per frame.
    if (out.events.size() != n)
        out.events.resize(n);
    TraceEvent *const events = out.events.data();

    // The loop rebuilds absolute values from the zigzag deltas inline:
    // each lane is consumed in exactly the order the encoder produced
    // it (record order, commit order within a record), so one running
    // accumulator per delta stream replaces a separate prefix-sum pass
    // over every lane. The derived fields run the same way: the cycle
    // advances by each record's length and the next commit seq by its
    // commits.
    const std::uint64_t *cpc = lanes[ComPc].get();
    const std::uint64_t *cpsv = lanes[ComPsv].get();
    const std::uint64_t *slen = lanes[SpanLen].get();
    const std::uint64_t *nfetch = lanes[NextFetch].get();
    const std::uint64_t *ndisp = lanes[NextDisp].get();
    Cycle cycle = entry.cycle;
    SeqNum seq = entry.seq;
    std::uint64_t cpcPrev = 0, fetchPrev = 0, dispPrev = 0;
    std::uint64_t covered = 0;
    std::size_t cs = 0, ss = 0;
    // The span rules and the commit slots' field widths, each
    // OR-accumulated without a branch and checked once after the loop:
    // a pc past InstIndex or a PSV bit past the nine events would
    // otherwise be truncated into another instruction or event set.
    bool shortSpan = false, longSpan = false, busySpan = false;
    std::uint64_t widePc = 0, widePsv = 0;
    for (std::uint32_t j = 0; j < n; ++j) {
        TraceEvent &ev = events[j];
        CycleRecord &r = ev.rec;
        const std::uint8_t f = cflags[j];
        const bool span = f & flagSpan;
        ev.kind = span ? TraceEventKind::Span : TraceEventKind::Cycle;
        // Branchless: the span lane is read at the cursor every time
        // (stage 1 sizes it one slot past its count, so the read at the
        // final cursor stays in bounds) and the cursor advances only on
        // a span.
        const std::uint64_t len = span ? slen[ss] : 1;
        ss += span;
        ev.spanCycles = static_cast<std::uint32_t>(span ? len : 0);
        r.cycle = cycle;
        cycle += len;
        covered += len;
        r.state = static_cast<CommitState>(f >> flagStateShift);
        const unsigned nc = (f >> flagCountShift) & 0xFu;
        shortSpan |= span & (len < 2);
        longSpan |= len > maxSpanCycles;
        busySpan |= span & ((nc != 0) | (r.state == CommitState::Compute));
        r.numCommitted = static_cast<std::uint8_t>(nc);
        fetchPrev += static_cast<std::uint64_t>(unzigzag(nfetch[j]));
        dispPrev += static_cast<std::uint64_t>(unzigzag(ndisp[j]));
        r.nextFetchSeq = fetchPrev;
        r.nextDispatchSeq = dispPrev;
        for (unsigned c = 0; c < nc; ++c) {
            cpcPrev += static_cast<std::uint64_t>(unzigzag(cpc[cs + c]));
            const std::uint64_t psv = cpsv[cs + c];
            widePc |= cpcPrev >> std::numeric_limits<InstIndex>::digits;
            widePsv |= psv >> numEvents;
            r.committed[c] =
                CommittedUop{seq + c, static_cast<InstIndex>(cpcPrev),
                             Psv(static_cast<std::uint16_t>(psv))};
        }
        cs += nc;
        seq += nc;
    }
    if (widePc)
        return fail(why, "commit pc past the instruction index");
    if (widePsv)
        return fail(why, "commit PSV bits past the nine events");
    if (shortSpan)
        return fail(why, "span shorter than 2 cycles");
    if (longSpan)
        return fail(why, "span longer than maxSpanCycles");
    if (busySpan)
        return fail(why, "span of a Compute record or with commits");
    if (covered != hdr.cycleRecords)
        return fail(why, "cycle-record count mismatch");

    out.cycleRecords = covered;
    out.endCycle.reset();
    if (entry.endsTrace)
        out.endCycle = cycle;
    return true;
}

ChunkDecoder::ChunkDecoder() : impl_(std::make_unique<Impl>()) {}
ChunkDecoder::~ChunkDecoder() = default;
ChunkDecoder::ChunkDecoder(ChunkDecoder &&) noexcept = default;
ChunkDecoder &ChunkDecoder::operator=(ChunkDecoder &&) noexcept = default;

bool
ChunkDecoder::decode(const std::uint8_t *data, std::size_t avail,
                     TraceChunk &out, std::size_t *consumed,
                     std::string *why)
{
    ChunkFrameHeader hdr;
    if (!peekFrame(data, avail, &hdr, why))
        return false;

    Cursor cur{data + sizeof(hdr), data + hdr.frameBytes};
    FrameEntry entry;
    if (!readEntry(cur, &entry, why))
        return false;
    // The cycle after the frame's last record (the end marker's, when
    // the frame closes the trace) must be representable.
    if (entry.cycle + hdr.cycleRecords < entry.cycle)
        return fail(why, "frame runs past the last cycle");

    // Slice out the length-prefixed streams.
    std::array<const std::uint8_t *, NumStreams> sdata{};
    std::array<std::size_t, NumStreams> slen{};
    for (unsigned s = 0; s < NumStreams; ++s) {
        std::uint64_t len = 0;
        if (!cur.readVarint(&len))
            return fail(why, "truncated stream directory");
        if (len > static_cast<std::uint64_t>(cur.end - cur.p))
            return fail(why, "stream extends past frame");
        sdata[s] = cur.p;
        slen[s] = static_cast<std::size_t>(len);
        cur.p += len;
    }
    if (!cur.exhausted())
        return fail(why, "trailing bytes after last stream");

    // Stage 1: bulk-decode every varint stream into its lane
    // (decodeVarints). Lanes hold the raw zigzag deltas;
    // assemble rebuilds absolute values inline while it consumes each
    // lane in encode order, so the deltas are read exactly once instead
    // of taking a separate serial prefix-sum pass over every lane. A
    // malformed varint anywhere rejects the frame, exactly as the
    // per-value reader would have once it reached it.
    Impl &im = *impl_;
    for (unsigned s = 0; s < NumStreams; ++s) {
        if (s == CycFlags) {
            im.count[s] = slen[s];
            continue;
        }
        // One slot past the value count (<= slen bytes) so assemble's
        // branchless span-length read may touch lane[count] safely.
        im.ensure(s, slen[s] + 1);
        if (!decodeVarints(sdata[s], slen[s], im.lanes[s].get(),
                           &im.count[s]))
            return fail(why, "malformed varint stream");
    }

    if (!im.assemble(hdr, entry, sdata[CycFlags], out, why))
        return false;
    *consumed = hdr.frameBytes;
    return true;
}

bool
decodeChunk(const std::uint8_t *data, std::size_t avail, TraceChunk &out,
            std::size_t *consumed, std::string *why)
{
    ChunkDecoder decoder;
    return decoder.decode(data, avail, out, consumed, why);
}

} // namespace tea
