#include "core/trace_codec.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <memory>
#include <tuple>

#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "core/varint.hh"

namespace tea {

namespace {

/**
 * The field streams of one frame, in on-disk order. Each stream holds
 * one field of one event kind across the whole chunk (SoA), so runs of
 * similar values sit together and delta-varint coding stays tight.
 */
enum Stream : unsigned
{
    CycDelta = 0, ///< CycleRecord.cycle of Cycle and Span (zigzag delta)
    CycFlags,     ///< packed state/numCommitted/headValid/lastValid
    HeadSeq,      ///< headSeq, present iff headValid (zigzag delta)
    HeadPc,       ///< headPc, present iff headValid (zigzag delta)
    LastPc,       ///< lastPc, present iff lastValid (zigzag delta)
    LastPsv,      ///< lastPsv bits, present iff lastValid (varint)
    ComSeq,       ///< committed[i].seq (zigzag delta)
    ComPc,        ///< committed[i].pc (zigzag delta)
    ComPsv,       ///< committed[i].psv bits (varint)
    NextFetch,    ///< nextFetchSeq (zigzag delta)
    NextDisp,     ///< nextDispatchSeq (zigzag delta)
    EndCycle, ///< final cycle of End events (varint)
    SpanLen,  ///< cycles each Span covers (varint)
    NumStreams,
};

// CycFlags packing: 2 bits state, 4 bits numCommitted (<= 8), then the
// two validity flags.
constexpr unsigned flagStateShift = 6;
constexpr unsigned flagCountShift = 2;
constexpr unsigned flagHeadValid = 0x2;
constexpr unsigned flagLastValid = 0x1;

// Frame-layout lock (enforced by tea_lint's codec-version-lock rule):
// the stream directory, the flag packing and the frame header are the
// on-disk contract. Changing any of them invalidates every cached
// trace, so the change must come with a traceCodecVersion bump — update
// the pinned values here in the same commit that bumps the version.
static_assert(traceCodecVersion == 4,
              "codec version changed: re-pin the layout asserts below");
static_assert(sizeof(ChunkFrameHeader) == 24,
              "ChunkFrameHeader layout changed: bump traceCodecVersion");
static_assert(NumStreams == 13,
              "stream directory changed: bump traceCodecVersion");
static_assert(static_cast<unsigned>(TraceEventKind::Cycle) == 0 &&
                  static_cast<unsigned>(TraceEventKind::End) == 1 &&
                  static_cast<unsigned>(TraceEventKind::Span) == 2,
              "trace event kinds changed: bump traceCodecVersion");
static_assert(maxSpanCycles == 0xFFFFFFFFu,
              "span length bound changed: bump traceCodecVersion");
static_assert(flagStateShift == 6 && flagCountShift == 2 &&
                  flagHeadValid == 0x2 && flagLastValid == 0x1,
              "CycFlags packing changed: bump traceCodecVersion");
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

    std::uint64_t
    decode(std::uint64_t z)
    {
        prev += static_cast<std::uint64_t>(unzigzag(z));
        return prev;
    }
};

/** Bounds-checked reader over one stream of a mapped frame. */
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
    std::array<std::vector<std::uint8_t>, NumStreams> streams;
    DeltaState cycD, headSeqD, headPcD, lastPcD, comSeqD, comPcD;
    DeltaState fetchD, dispD;
    std::uint32_t spans = 0;
    std::uint64_t covered = 0;

    std::vector<std::uint8_t> kinds;
    kinds.reserve(chunk.events.size());

    for (const TraceEvent &ev : chunk.events) {
        kinds.push_back(static_cast<std::uint8_t>(ev.kind));
        covered += cyclesCovered(ev);
        switch (ev.kind) {
          case TraceEventKind::Span: {
            // The decoder rejects what no producer emits; writing it
            // would store a CRC-clean frame that cannot be replayed.
            const CycleRecord &r = ev.p.cycle;
            tea_assert(ev.spanCycles >= 2 &&
                           r.state != CommitState::Compute &&
                           r.numCommitted == 0 &&
                           r.cycle + ev.spanCycles > r.cycle,
                       "illegal span (cycle %llu, %u cycles, state %u, "
                       "%u commits)",
                       static_cast<unsigned long long>(r.cycle),
                       ev.spanCycles, static_cast<unsigned>(r.state),
                       r.numCommitted);
            putVarint(streams[SpanLen], ev.spanCycles);
            ++spans;
            [[fallthrough]]; // its first record goes to the cycle streams
          }
          case TraceEventKind::Cycle: {
            const CycleRecord &r = ev.p.cycle;
            tea_assert(r.numCommitted <= r.committed.size(),
                       "numCommitted %u overflows the committed array",
                       r.numCommitted);
            putVarint(streams[CycDelta], cycD.encode(r.cycle));
            std::uint8_t flags = static_cast<std::uint8_t>(
                (static_cast<unsigned>(r.state) << flagStateShift) |
                (static_cast<unsigned>(r.numCommitted)
                 << flagCountShift) |
                (r.headValid ? flagHeadValid : 0u) |
                (r.lastValid ? flagLastValid : 0u));
            streams[CycFlags].push_back(flags);
            if (r.headValid) {
                putVarint(streams[HeadSeq], headSeqD.encode(r.headSeq));
                putVarint(streams[HeadPc], headPcD.encode(r.headPc));
            }
            if (r.lastValid) {
                putVarint(streams[LastPc], lastPcD.encode(r.lastPc));
                putVarint(streams[LastPsv], r.lastPsv.bits());
            }
            for (unsigned i = 0; i < r.numCommitted; ++i) {
                const CommittedUop &c = r.committed[i];
                putVarint(streams[ComSeq], comSeqD.encode(c.seq));
                putVarint(streams[ComPc], comPcD.encode(c.pc));
                putVarint(streams[ComPsv], c.psv.bits());
            }
            putVarint(streams[NextFetch], fetchD.encode(r.nextFetchSeq));
            putVarint(streams[NextDisp], dispD.encode(r.nextDispatchSeq));
            break;
          }
          case TraceEventKind::End:
            putVarint(streams[EndCycle], ev.p.end);
            break;
        }
    }

    // Assemble the payload: kinds, then length-prefixed streams.
    std::vector<std::uint8_t> payload;
    std::size_t payload_guess = kinds.size();
    for (const auto &s : streams)
        payload_guess += s.size() + 4;
    payload.reserve(payload_guess);
    payload.insert(payload.end(), kinds.begin(), kinds.end());
    for (const auto &s : streams) {
        putVarint(payload, s.size());
        payload.insert(payload.end(), s.begin(), s.end());
    }

    tea_assert(covered == chunk.cycleRecords,
               "chunk claims %llu cycles, its events cover %llu",
               static_cast<unsigned long long>(chunk.cycleRecords),
               static_cast<unsigned long long>(covered));

    ChunkFrameHeader hdr;
    hdr.frameBytes = static_cast<std::uint32_t>(sizeof(ChunkFrameHeader) +
                                                payload.size());
    hdr.eventCount = static_cast<std::uint32_t>(chunk.events.size());
    hdr.spanEvents = spans;
    hdr.cycleRecords = covered;
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

    static constexpr unsigned numKinds =
        static_cast<unsigned>(TraceEventKind::Span) + 1;

    /**
     * Event index lists, filled by assemble's position pass: one per
     * kind, except that Cycle and Span events share the Cycle list in
     * event order, because they share the cycle streams.
     */
    std::array<std::unique_ptr<std::uint32_t[]>, numKinds - 1> pos;
    std::size_t posCap = 0;

    void
    ensure(unsigned s, std::size_t need)
    {
        if (cap[s] >= need)
            return;
        const std::size_t grown = std::bit_ceil(need);
        lanes[s] = std::make_unique_for_overwrite<std::uint64_t[]>(grown);
        cap[s] = grown;
    }

    void
    ensurePos(std::size_t need)
    {
        if (posCap >= need)
            return;
        const std::size_t grown =
            std::bit_ceil(std::max<std::size_t>(need, 1));
        for (auto &list : pos)
            list = std::make_unique_for_overwrite<std::uint32_t[]>(grown);
        posCap = grown;
    }

    bool assemble(const ChunkFrameHeader &hdr, const std::uint8_t *kinds,
                  const std::uint8_t *cflags, TraceChunk &out,
                  std::string *why);
};

// Stage 2 runs kind-grouped instead of event-at-a-time: a position
// pass splits the kind array into per-kind event index lists and
// validates every stream's length once, then one tight homogeneous
// write loop per kind assembles events straight from the lanes — no
// per-event switch to mispredict and no per-field bounds checks in
// the hot loops.
// tea_lint: hot
bool
ChunkDecoder::Impl::assemble(const ChunkFrameHeader &hdr,
                             const std::uint8_t *kinds,
                             const std::uint8_t *cflags, TraceChunk &out,
                             std::string *why)
{
    // Resize only when the count actually changes: every always-valid
    // field is overwritten below and gated leftovers are unspecified by
    // contract, so re-running element constructors on a reused chunk of
    // the same size (the steady replay state) would be pure churn — and
    // measurably dominated decode time when it was done per frame.
    if (out.events.size() != hdr.eventCount)
        out.events.resize(hdr.eventCount);

    ensurePos(hdr.eventCount);
    // Pointer cursors rather than per-kind counters: an index store
    // through std::uint32_t* may alias integer counters, forcing the
    // compiler to spill and reload them every iteration; pointers are a
    // distinct type the stores provably cannot touch.
    constexpr unsigned spanKind =
        static_cast<unsigned>(TraceEventKind::Span);
    constexpr unsigned cycleKind =
        static_cast<unsigned>(TraceEventKind::Cycle);
    std::uint32_t *cur[numKinds - 1];
    for (unsigned k = 0; k < numKinds - 1; ++k)
        cur[k] = pos[k].get();
    std::uint32_t nSpan = 0;
    for (std::uint32_t i = 0; i < hdr.eventCount; ++i) {
        const std::uint8_t k = kinds[i];
        if (k >= numKinds)
            return fail(why, "unknown trace event kind");
        const bool span = k == spanKind;
        nSpan += span;
        *cur[span ? cycleKind : k]++ = i;
    }
    const auto kindCount = [&](TraceEventKind k) {
        const auto u = static_cast<unsigned>(k);
        return static_cast<std::uint32_t>(cur[u] - pos[u].get());
    };
    // Cycle-stream records: the Cycle events and the spans' first ones.
    const std::uint32_t nCyc = kindCount(TraceEventKind::Cycle);
    const std::uint32_t nEnd = kindCount(TraceEventKind::End);
    if (nSpan != hdr.spanEvents)
        return fail(why, "span count mismatch");
    if (count[CycFlags] != nCyc)
        return fail(why, count[CycFlags] < nCyc
                             ? "truncated cycle stream"
                             : "unconsumed stream bytes");

    // Tally the gated-field populations from the flag bytes, eight
    // flag bytes per step (SWAR): the valid bits are popcounts over a
    // bit column, the commit counts are a nibble column summed with
    // the multiply-shift byte-sum trick (8 nibbles <= 120, no carry),
    // and an implausible count (> 8) is detected by the carry into
    // bit 4 of nc + 7, OR-accumulated and checked once.
    std::size_t nHead = 0, nLast = 0, nCom = 0;
    {
        constexpr std::uint64_t lsb = 0x0101010101010101ull;
        std::uint64_t bad = 0;
        std::uint32_t j = 0;
        for (; j + 8 <= nCyc; j += 8) {
            std::uint64_t x;
            std::memcpy(&x, cflags + j, 8);
            nLast += static_cast<unsigned>(
                __builtin_popcountll(x & lsb)); // flagLastValid
            nHead += static_cast<unsigned>(
                __builtin_popcountll(x & (lsb << 1))); // flagHeadValid
            const std::uint64_t t =
                (x >> flagCountShift) & (lsb * 0x0F);
            bad |= (t + lsb * 0x07) & (lsb * 0x10);
            nCom += (t * lsb) >> 56;
        }
        for (; j < nCyc; ++j) {
            const std::uint8_t f = cflags[j];
            const unsigned nc = (f >> flagCountShift) & 0xFu;
            if (nc > 8)
                bad = 1;
            nCom += nc;
            nHead += (f >> 1) & 1u; // flagHeadValid
            nLast += f & 1u;        // flagLastValid
        }
        static_assert(
            std::tuple_size_v<decltype(CycleRecord{}.committed)> == 8,
            "commit-count plausibility bound is hardwired to 8");
        if (bad)
            return fail(why, "implausible commit count");
    }

    // One exact-length check per stream replaces the old per-event
    // bounds checks: a short stream is truncation, a long one trailing
    // unconsumed values — either rejects the frame before any of the
    // unchecked write loops below runs.
    const struct
    {
        unsigned s;
        std::size_t expect;
        const char *short_msg;
    } lengths[] = {
        {CycDelta, nCyc, "truncated cycle stream"},
        {HeadSeq, nHead, "truncated head stream"},
        {HeadPc, nHead, "truncated head stream"},
        {LastPc, nLast, "truncated last-commit stream"},
        {LastPsv, nLast, "truncated last-commit stream"},
        {ComSeq, nCom, "truncated committed stream"},
        {ComPc, nCom, "truncated committed stream"},
        {ComPsv, nCom, "truncated committed stream"},
        {NextFetch, nCyc, "truncated front-end stream"},
        {NextDisp, nCyc, "truncated front-end stream"},
        {EndCycle, nEnd, "truncated end stream"},
        {SpanLen, nSpan, "truncated span stream"},
    };
    for (const auto &l : lengths) {
        if (count[l.s] != l.expect)
            return fail(why, count[l.s] < l.expect
                                 ? l.short_msg
                                 : "unconsumed stream bytes");
    }

    TraceEvent *const events = out.events.data();

    // The write loops below rebuild absolute values from the zigzag
    // deltas inline: each lane is consumed in exactly the order the
    // encoder produced it (event order within a kind, commit order
    // within a cycle), so one running accumulator per delta stream
    // replaces a separate prefix-sum pass over every lane.
    std::uint64_t covered = 0;
    {
        const std::uint32_t *P = pos[cycleKind].get();
        const std::uint64_t *cyc = lanes[CycDelta].get();
        const std::uint64_t *hseq = lanes[HeadSeq].get();
        const std::uint64_t *hpc = lanes[HeadPc].get();
        const std::uint64_t *lpc = lanes[LastPc].get();
        const std::uint64_t *lpsv = lanes[LastPsv].get();
        const std::uint64_t *cseq = lanes[ComSeq].get();
        const std::uint64_t *cpc = lanes[ComPc].get();
        const std::uint64_t *cpsv = lanes[ComPsv].get();
        const std::uint64_t *slen = lanes[SpanLen].get();
        const std::uint64_t *nfetch = lanes[NextFetch].get();
        const std::uint64_t *ndisp = lanes[NextDisp].get();
        std::uint64_t cycPrev = 0, hseqPrev = 0, hpcPrev = 0;
        std::uint64_t lpcPrev = 0, cseqPrev = 0, cpcPrev = 0;
        std::uint64_t fetchPrev = 0, dispPrev = 0;
        std::size_t hs = 0, ls = 0, cs = 0, ss = 0;
        // The span rules, each OR-accumulated without a branch and
        // checked once after the loop.
        bool shortSpan = false, longSpan = false, busySpan = false,
             wrapSpan = false;
        for (std::uint32_t j = 0; j < nCyc; ++j) {
            TraceEvent &ev = events[P[j]];
            const bool span = kinds[P[j]] == spanKind;
            ev.kind = span ? TraceEventKind::Span : TraceEventKind::Cycle;
            CycleRecord &r = ev.p.cycle;
            const std::uint8_t f = cflags[j];
            cycPrev += static_cast<std::uint64_t>(unzigzag(cyc[j]));
            r.cycle = cycPrev;
            r.state = static_cast<CommitState>(f >> flagStateShift);
            const unsigned nc = (f >> flagCountShift) & 0xFu;
            // Like the gated fields below: the span lane is read at the
            // cursor every time (it is sized one slot past its count)
            // and the cursor advances only on a span.
            const std::uint64_t len = span ? slen[ss] : 1;
            ss += span;
            ev.spanCycles = static_cast<std::uint32_t>(span ? len : 0);
            covered += len;
            shortSpan |= span & (len < 2);
            longSpan |= len > maxSpanCycles;
            busySpan |=
                span & ((nc != 0) | (r.state == CommitState::Compute));
            wrapSpan |= span & (cycPrev + len < cycPrev);
            r.numCommitted = static_cast<std::uint8_t>(nc);
            const bool hv = f & flagHeadValid;
            const bool lv = f & flagLastValid;
            r.headValid = hv;
            r.lastValid = lv;
            // Branchless gated fields: the delta is masked to zero and
            // the cursor does not advance when the flag is clear, so
            // the unconditional store writes unspecified-but-harmless
            // contents (allowed by the decode contract) instead of
            // costing a hard-to-predict branch per record. Stage 1
            // sizes each lane one slot past its value count so the
            // read at the final cursor position stays in bounds.
            const std::uint64_t hm = -static_cast<std::uint64_t>(hv);
            hseqPrev +=
                static_cast<std::uint64_t>(unzigzag(hseq[hs])) & hm;
            hpcPrev +=
                static_cast<std::uint64_t>(unzigzag(hpc[hs])) & hm;
            r.headSeq = hseqPrev;
            r.headPc = static_cast<InstIndex>(hpcPrev);
            hs += hv;
            const std::uint64_t lm = -static_cast<std::uint64_t>(lv);
            lpcPrev +=
                static_cast<std::uint64_t>(unzigzag(lpc[ls])) & lm;
            r.lastPc = static_cast<InstIndex>(lpcPrev);
            r.lastPsv = Psv(static_cast<std::uint16_t>(lpsv[ls]));
            ls += lv;
            fetchPrev += static_cast<std::uint64_t>(unzigzag(nfetch[j]));
            dispPrev += static_cast<std::uint64_t>(unzigzag(ndisp[j]));
            r.nextFetchSeq = fetchPrev;
            r.nextDispatchSeq = dispPrev;
            for (unsigned c = 0; c < nc; ++c) {
                cseqPrev +=
                    static_cast<std::uint64_t>(unzigzag(cseq[cs + c]));
                cpcPrev +=
                    static_cast<std::uint64_t>(unzigzag(cpc[cs + c]));
                r.committed[c] = CommittedUop{
                    cseqPrev, static_cast<InstIndex>(cpcPrev),
                    Psv(static_cast<std::uint16_t>(cpsv[cs + c]))};
            }
            cs += nc;
        }
        if (shortSpan)
            return fail(why, "span shorter than 2 cycles");
        if (longSpan)
            return fail(why, "span longer than maxSpanCycles");
        if (busySpan)
            return fail(why, "span of a Compute record or with commits");
        if (wrapSpan)
            return fail(why, "span runs past the last cycle");
    }
    if (covered != hdr.cycleRecords)
        return fail(why, "cycle-record count mismatch");

    {
        const std::uint32_t *P =
            pos[static_cast<unsigned>(TraceEventKind::End)].get();
        const std::uint64_t *ec = lanes[EndCycle].get();
        for (std::uint32_t j = 0; j < nEnd; ++j) {
            TraceEvent &ev = events[P[j]];
            ev.kind = TraceEventKind::End;
            ev.p.end = ec[j];
        }
    }

    out.cycleRecords = covered;
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

    const std::uint8_t *p = data + sizeof(hdr);
    const std::uint8_t *frame_end = data + hdr.frameBytes;
    if (frame_end - p <
        static_cast<std::ptrdiff_t>(hdr.eventCount))
        return fail(why, "kind array extends past frame");
    const std::uint8_t *kinds = p;
    p += hdr.eventCount;

    // Slice out the length-prefixed streams.
    std::array<const std::uint8_t *, NumStreams> sdata{};
    std::array<std::size_t, NumStreams> slen{};
    {
        Cursor directory{p, frame_end};
        for (unsigned s = 0; s < NumStreams; ++s) {
            std::uint64_t len = 0;
            if (!directory.readVarint(&len))
                return fail(why, "truncated stream directory");
            if (len > static_cast<std::uint64_t>(directory.end -
                                                 directory.p))
                return fail(why, "stream extends past frame");
            sdata[s] = directory.p;
            slen[s] = static_cast<std::size_t>(len);
            directory.p += len;
        }
        if (!directory.exhausted())
            return fail(why, "trailing bytes after last stream");
    }

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
        // branchless gated-field reads may touch lane[count] safely.
        im.ensure(s, slen[s] + 1);
        if (!decodeVarints(sdata[s], slen[s], im.lanes[s].get(),
                           &im.count[s]))
            return fail(why, "malformed varint stream");
    }

    if (!im.assemble(hdr, kinds, sdata[CycFlags], out, why))
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
