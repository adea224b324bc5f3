/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef TEA_TESTS_TEST_UTIL_HH
#define TEA_TESTS_TEST_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fingerprint.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "core/trace_codec.hh"
#include "isa/executor.hh"
#include "profilers/pics.hh"
#include "workloads/workload.hh"

namespace tea::test {

/**
 * A completed (or ready-to-run) simulation bundling the objects the core
 * references so they share a lifetime.
 */
struct CoreRun
{
    std::unique_ptr<CoreConfig> cfg;
    std::unique_ptr<Workload> workload;
    std::unique_ptr<Core> core;

    Core &operator*() { return *core; }
    Core *operator->() { return core.get(); }
};

/** Build a core for @p w without running it. */
inline CoreRun
makeCore(Workload w, CoreConfig cfg = CoreConfig{})
{
    CoreRun r;
    r.cfg = std::make_unique<CoreConfig>(cfg);
    r.workload = std::make_unique<Workload>(std::move(w));
    r.core = std::make_unique<Core>(*r.cfg, r.workload->program,
                                    std::move(r.workload->initial));
    return r;
}

/** Run @p w to completion and return the simulation. */
inline CoreRun
runCore(Workload w, CoreConfig cfg = CoreConfig{},
        Cycle max_cycles = 500'000'000)
{
    CoreRun r = makeCore(std::move(w), cfg);
    r.core->run(max_cycles);
    return r;
}

/**
 * How @p a and @p b differ, or "" when they are the same Pics to the
 * last bit: the same total and the same cells in the same order. A Pics
 * iterates in first-touch order, so two runs of one trace (serial or
 * parallel, cached or not) must agree on the order too. Needs no gtest
 * state, so forked children can call it.
 */
inline std::string
picsDifference(const Pics &a, const Pics &b)
{
    if (a.total() != b.total())
        return strprintf("total %.17g vs %.17g", a.total(), b.total());
    const std::vector<PicsComponent> ca = a.components();
    const std::vector<PicsComponent> cb = b.components();
    if (ca.size() != cb.size())
        return strprintf("%zu cells vs %zu", ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        if (ca[i].unit != cb[i].unit ||
            ca[i].signature != cb[i].signature ||
            ca[i].cycles != cb[i].cycles) {
            return strprintf("cell %zu: (%u, 0x%x, %.17g) vs (%u, 0x%x, "
                             "%.17g)", i, ca[i].unit, ca[i].signature,
                             ca[i].cycles, cb[i].unit, cb[i].signature,
                             cb[i].cycles);
        }
    }
    return "";
}

/** Expect @p a and @p b to be bit-identical Pics (picsDifference). */
inline void
expectPicsIdentical(const Pics &a, const Pics &b)
{
    EXPECT_EQ(picsDifference(a, b), "");
}

/**
 * Pure functional execution of @p prog from @p st until Halt; returns
 * the final architectural state (the oracle the timing model's state
 * must match).
 */
inline ArchState
runFunctional(const Program &prog, ArchState st,
              std::uint64_t max_insts = 1'000'000'000)
{
    InstIndex pc = prog.entry();
    for (std::uint64_t n = 0; n < max_insts; ++n) {
        ExecResult r = execute(prog, pc, st);
        if (r.halted)
            return st;
        pc = r.nextPc;
    }
    return st;
}

/**
 * A pseudo-random event stream that obeys the codec's rules
 * (trace_codec.hh): dense cycles from a random first cycle, and
 * consecutive commit seqs from a random first seq. Everything else is
 * drawn independently: a Cycle record commits 0-8 uops in any state,
 * an idle span (any state but Compute, no commits) covers 2 cycles up
 * to maxSpanCycles, pcs and PSVs take any legal value, and the
 * front-end seqs take small steps with rare jumps past 2^32, so the
 * delta streams carry wide varints too. Commit slots past numCommitted
 * stay default. @p end is set to the cycle after the last event.
 */
inline std::vector<TraceEvent>
randomEvents(Rng &rng, std::size_t count, Cycle *end = nullptr)
{
    std::vector<TraceEvent> events;
    events.reserve(count);
    Cycle cycle = rng.below(1 << 20);
    SeqNum seq = rng.next();
    SeqNum fetch = rng.below(1000);
    SeqNum dispatch = fetch;
    for (std::size_t i = 0; i < count; ++i) {
        TraceEvent ev;
        CycleRecord &rec = ev.rec;
        rec.cycle = cycle;
        if (rng.below(4) != 3) {
            ev.kind = TraceEventKind::Cycle;
            rec.state = static_cast<CommitState>(rng.below(4));
            rec.numCommitted = static_cast<std::uint8_t>(rng.below(9));
            ++cycle;
        } else {
            ev.kind = TraceEventKind::Span;
            ev.spanCycles = static_cast<std::uint32_t>(
                rng.chance(0.05) ? maxSpanCycles - rng.below(4)
                                 : rng.range(2, 1000));
            rec.state = static_cast<CommitState>(rng.range(1, 3));
            cycle += ev.spanCycles;
        }
        for (unsigned u = 0; u < rec.numCommitted; ++u) {
            rec.committed[u] = CommittedUop{
                seq++,
                static_cast<InstIndex>(rng.chance(0.5) ? rng.below(4096)
                                                       : rng.next()),
                Psv(static_cast<std::uint16_t>(
                    rng.below(std::uint64_t{1} << numEvents)))};
        }
        fetch += rng.chance(0.03) ? (SeqNum{1} << 32) + rng.below(999)
                                  : rng.below(5);
        dispatch = std::min(fetch, dispatch + rng.below(5));
        rec.nextFetchSeq = fetch;
        rec.nextDispatchSeq = dispatch;
        events.push_back(ev);
    }
    if (end)
        *end = cycle;
    return events;
}

/**
 * Make the last frame of the trace-cache entry at @p path CRC-clean but
 * undecodable: set an unknown bit in its entry-state flags (the byte
 * after the first cycle and next seq, trace_codec.cc) and reseal the
 * frame's payload CRC. The file header's CRC covers no frame, so the
 * entry still opens; only decoding that frame fails.
 * @return false when the file cannot be read or rewritten
 */
inline bool
spliceUndecodableFrame(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        int c;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<std::uint8_t>(c));
        std::fclose(f);
    }
    // The file header is 64 bytes and the CoreStats snapshot follows.
    std::size_t at = 64 + sizeof(CoreStats), last = at;
    ChunkFrameHeader hdr;
    while (at + sizeof(hdr) <= bytes.size()) {
        std::memcpy(&hdr, bytes.data() + at, sizeof(hdr));
        last = at;
        at += hdr.frameBytes;
    }
    if (at != bytes.size() || last + sizeof(hdr) >= bytes.size())
        return false;
    std::memcpy(&hdr, bytes.data() + last, sizeof(hdr));
    std::size_t p = last + sizeof(hdr);
    for (int varint = 0; varint < 2; ++varint) {
        while (bytes[p] & 0x80u)
            ++p;
        ++p;
    }
    bytes[p] |= 0x80u;
    hdr.payloadCrc = crc32(0, bytes.data() + last + sizeof(hdr),
                           hdr.frameBytes - sizeof(hdr));
    std::memcpy(bytes.data() + last, &hdr, sizeof(hdr));
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const bool ok =
        std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace tea::test

#endif // TEA_TESTS_TEST_UTIL_HH
