/**
 * @file
 * google-benchmark microbenchmarks of the simulation infrastructure
 * itself: core simulation throughput, trace-observer overhead, cache
 * and PICS primitives, and the trace-cache codec. These are engineering
 * benchmarks (not paper results) used to keep the harness fast enough
 * for the sweeps.
 *
 * After the microbenchmarks, main() runs two end-to-end measurements:
 * the simulate phase itself (reference cycle-stepped loop vs the
 * event-driven fast path, into BENCH_simulator.json) and the persistent trace cache (one cold
 * simulate+store run vs warm mmap+decode+replay runs, into
 * BENCH_trace_cache.json), both for CI tracking. Each measurement is
 * best-of-N with N from TEA_PERF_TRIALS (default 4).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "analysis/runner.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "core/cache.hh"
#include "core/core.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"
#include "core/varint.hh"
#include "profilers/pics.hh"
#include "workloads/workload.hh"

using namespace tea;

namespace {

void
BM_CoreAluLoop(benchmark::State &state)
{
    for (auto _ : state) {
        Workload w = workloads::aluLoop(20000);
        CoreConfig cfg;
        Core core(cfg, w.program, std::move(w.initial));
        Cycle c = core.run();
        state.counters["cycles"] = static_cast<double>(c);
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CoreAluLoop)->Unit(benchmark::kMillisecond);

void
BM_CoreMemoryBound(benchmark::State &state)
{
    for (auto _ : state) {
        Workload w = workloads::streamSum(4096, 2);
        CoreConfig cfg;
        Core core(cfg, w.program, std::move(w.initial));
        Cycle c = core.run();
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_CoreMemoryBound)->Unit(benchmark::kMillisecond);

void
BM_CoreWithFullObservers(benchmark::State &state)
{
    for (auto _ : state) {
        Workload w = workloads::aluLoop(20000);
        ExperimentResult res =
            runWorkload(std::move(w), standardTechniques());
        benchmark::DoNotOptimize(res.stats.cycles);
    }
}
BENCHMARK(BM_CoreWithFullObservers)->Unit(benchmark::kMillisecond);

void
BM_CacheArrayAccess(benchmark::State &state)
{
    CacheConfig cfg{32 * 1024, 8, 16, 3};
    CacheArray cache(cfg, "bench");
    Addr a = 0;
    for (auto _ : state) {
        if (!cache.access(a))
            cache.insert(a, false);
        a = (a + 64) & 0xfffff;
    }
}
BENCHMARK(BM_CacheArrayAccess);

void
BM_PicsAddAndMask(benchmark::State &state)
{
    Pics pics;
    std::uint32_t pc = 0;
    for (auto _ : state) {
        Psv psv(static_cast<std::uint16_t>(pc & 0x1ff));
        pics.add(pc & 1023, psv, 1.0);
        ++pc;
        if ((pc & 0xffff) == 0) {
            Pics m = pics.masked(0x3f);
            benchmark::DoNotOptimize(m.total());
        }
    }
}
BENCHMARK(BM_PicsAddAndMask);

void
BM_VarintBulkDecode(benchmark::State &state)
{
    // A realistic mix: mostly one-byte varints with occasional wider
    // ones, like a delta-coded stream.
    std::vector<std::uint8_t> bytes;
    std::uint64_t n_values = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < 1 << 20; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t v = (x & 0xff) < 240 ? (x & 0x7f) : (x & 0xffffff);
        while (v >= 0x80) {
            bytes.push_back(static_cast<std::uint8_t>(v) | 0x80u);
            v >>= 7;
        }
        bytes.push_back(static_cast<std::uint8_t>(v));
        ++n_values;
    }
    std::vector<std::uint64_t> out(n_values);
    std::uint64_t decoded = 0;
    for (auto _ : state) {
        std::size_t count = 0;
        if (!decodeVarints(bytes.data(), bytes.size(), out.data(),
                           &count))
            state.SkipWithError("decode failed");
        decoded += count;
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["values/s"] = benchmark::Counter(
        static_cast<double>(decoded), benchmark::Counter::kIsRate);
    state.counters["bytes/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * bytes.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VarintBulkDecode)->Unit(benchmark::kMillisecond);

void
BM_TraceChunkDecode(benchmark::State &state)
{
    // Capture a real trace once, encode it once; each iteration decodes
    // every frame through one reused decoder — the warm-replay decode
    // loop in isolation.
    Workload w = workloads::aluLoop(2000);
    TraceBuffer buf(4096);
    CoreConfig cfg;
    Core core(cfg, w.program, std::move(w.initial));
    core.addSink(&buf);
    core.run();
    buf.finish();

    std::vector<std::uint8_t> frames;
    std::vector<std::size_t> offsets;
    for (const TraceChunkPtr &chunk : buf.chunks()) {
        offsets.push_back(frames.size());
        encodeChunk(*chunk, frames);
    }

    ChunkDecoder decoder;
    TraceChunk back;
    std::uint64_t events = 0;
    for (auto _ : state) {
        for (std::size_t at : offsets) {
            std::size_t consumed = 0;
            if (!decoder.decode(frames.data() + at, frames.size() - at,
                                back, &consumed, nullptr))
                state.SkipWithError("decode failed");
            events += back.events.size();
            benchmark::DoNotOptimize(back.cycleRecords);
        }
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceChunkDecode)->Unit(benchmark::kMillisecond);

void
BM_TraceCodecRoundTrip(benchmark::State &state)
{
    // Capture a real trace once; each iteration encodes and decodes it.
    Workload w = workloads::aluLoop(2000);
    TraceBuffer buf(4096);
    CoreConfig cfg;
    Core core(cfg, w.program, std::move(w.initial));
    core.addSink(&buf);
    core.run();
    buf.finish();

    std::uint64_t events = 0;
    std::vector<std::uint8_t> frame;
    for (auto _ : state) {
        for (const TraceChunkPtr &chunk : buf.chunks()) {
            frame.clear();
            encodeChunk(*chunk, frame);
            TraceChunk back;
            std::size_t consumed = 0;
            if (!decodeChunk(frame.data(), frame.size(), back, &consumed,
                             nullptr))
                state.SkipWithError("decode failed");
            events += back.events.size();
            benchmark::DoNotOptimize(back.cycleRecords);
        }
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceCodecRoundTrip)->Unit(benchmark::kMillisecond);

/**
 * Best-of-N trial count for the end-to-end measurements, from
 * TEA_PERF_TRIALS (default 4). The value must lie in [1, 64]; anything
 * else, trailing junk included, is fatal (common/env.hh). Raising it
 * tightens the minimum on a noisy box at a linear cost in wall clock;
 * CI keeps the default.
 */
int
perfTrials()
{
    return static_cast<int>(envUnsigned("TEA_PERF_TRIALS", 4, 1, 64));
}

/** Remove every regular file in @p dir, then the directory itself. */
void
removeTree(const std::string &dir)
{
    if (DIR *d = ::opendir(dir.c_str())) {
        while (struct dirent *e = ::readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                std::remove((dir + "/" + name).c_str());
        }
        ::closedir(d);
    }
    ::rmdir(dir.c_str());
}

/**
 * Simulate-phase measurement: the reference cycle-stepped loop vs the
 * event-driven fast path (Core::setFastPath) on the same workload, each
 * driving a chunk-discarding ChunkingSink so only the core model plus
 * trace emission is on the clock. Both runs must agree on final cycle
 * count and event count (the bit-identical contract); the result goes to
 * BENCH_simulator.json for CI tracking.
 *
 * Two speedups are reported. The flat-scheduling work (issue-queue scan
 * bounds, bounded rings, batched emission) lives in the stage code both
 * modes share, so the in-binary reference loop is itself much faster
 * than the simulator this change replaced; the cold-path win is judged
 * against the recorded pre-fast-path baseline below, the mode-vs-mode
 * ratio only isolates what cycle skipping adds on top.
 */

/// Cold simulate-phase seconds for fotonik3d before the fast path
/// (BENCH_trace_cache.json "cold_seconds" at commit 4d039cc, the
/// baseline the fast-path work was scoped against).
constexpr double kSeedColdSeconds = 1.29;

int
measureSimulator()
{
    const char *workload = "fotonik3d";

    struct Run
    {
        Cycle cycles = 0;
        std::uint64_t events = 0;
        double seconds = 0.0;
        double skipRatio = 0.0;
    };
    auto run_once = [&](bool fast) {
        Workload w = workloads::byName(workload);
        CoreConfig cfg;
        Core core(cfg, w.program, std::move(w.initial));
        core.setFastPath(fast);
        ChunkingSink sink(4096, [](TraceChunkPtr) {});
        core.addSink(&sink);
        const auto start = std::chrono::steady_clock::now();
        Run r;
        r.cycles = core.run();
        sink.finish();
        r.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        r.events = sink.eventsCaptured();
        r.skipRatio = core.perf().skipRatio();
        return r;
    };

    // Best-of-N with the modes interleaved: the runs sit around half a
    // second, where load drift on a shared CI box easily costs 20%, and
    // interleaving keeps a slow stretch from landing on one mode only.
    const int trials = perfTrials();
    Run ref, fastp;
    for (int rep = 0; rep < trials; ++rep) {
        Run r = run_once(false);
        if (rep == 0 || r.seconds < ref.seconds)
            ref = r;
        Run f = run_once(true);
        if (rep == 0 || f.seconds < fastp.seconds)
            fastp = f;
    }

    if (ref.cycles != fastp.cycles || ref.events != fastp.events) {
        std::fprintf(stderr,
                     "simulator bench: fast path diverged "
                     "(ref %llu cycles / %llu events, "
                     "fast %llu cycles / %llu events)\n",
                     static_cast<unsigned long long>(ref.cycles),
                     static_cast<unsigned long long>(ref.events),
                     static_cast<unsigned long long>(fastp.cycles),
                     static_cast<unsigned long long>(fastp.events));
        return 1;
    }

    double vs_ref =
        fastp.seconds > 0.0 ? ref.seconds / fastp.seconds : 0.0;
    double vs_seed =
        fastp.seconds > 0.0 ? kSeedColdSeconds / fastp.seconds : 0.0;
    double cycles_per_s =
        fastp.seconds > 0.0
            ? static_cast<double>(fastp.cycles) / fastp.seconds
            : 0.0;
    const unsigned cores = std::thread::hardware_concurrency();

    std::printf("simulator: fast path %.3f s (%.1fx vs %.2f s seed cold, "
                "%.1fx vs %.3f s reference loop), %llu cycles, "
                "%llu events, %.1f Mcycles/s, %.1f%% cycles skipped\n",
                fastp.seconds, vs_seed, kSeedColdSeconds, vs_ref,
                ref.seconds,
                static_cast<unsigned long long>(fastp.cycles),
                static_cast<unsigned long long>(fastp.events),
                cycles_per_s / 1e6, fastp.skipRatio * 100.0);

    std::FILE *f = std::fopen("BENCH_simulator.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "simulator bench: cannot write "
                     "BENCH_simulator.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"cycles\": %llu,\n"
                 "  \"events\": %llu,\n"
                 "  \"seed_cold_seconds\": %.6f,\n"
                 "  \"reference_seconds\": %.6f,\n"
                 "  \"fastpath_seconds\": %.6f,\n"
                 "  \"speedup_vs_seed\": %.3f,\n"
                 "  \"speedup_vs_reference\": %.3f,\n"
                 "  \"fastpath_cycles_per_second\": %.0f,\n"
                 "  \"skip_ratio\": %.4f,\n"
                 "  \"machine_cores\": %u\n"
                 "}\n",
                 workload, static_cast<unsigned long long>(fastp.cycles),
                 static_cast<unsigned long long>(fastp.events),
                 kSeedColdSeconds, ref.seconds, fastp.seconds, vs_seed,
                 vs_ref, cycles_per_s, fastp.skipRatio, cores);
    std::fclose(f);
    return 0;
}

/**
 * End-to-end trace-cache measurement: cold run (simulate, all observers
 * attached, entry stored) vs warm run (mmap, decode, replay) of the
 * identical experiment, into BENCH_trace_cache.json.
 *
 * The JSON carries two CI-gated throughputs: decode_cycles_per_second
 * (simulated cycles over the time spent strictly inside chunk decode,
 * the codec in isolation) and warm_replay_cycles_per_second (cycles
 * over the observer-side batched replay time), plus the core count
 * those numbers depend on. They are per cycle, not per event, so a
 * trace format that carries fewer events per cycle does not read as a
 * slowdown.
 */
int
measureTraceCache()
{
    char tmpl[] = "/tmp/tea-cache-bench-XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    if (!dir) {
        std::fprintf(stderr, "trace-cache bench: mkdtemp failed\n");
        return 1;
    }

    // Same options for both runs (a fair comparison), so the measured
    // gap is simulate-vs-decode, which is what the cache eliminates.
    // fotonik3d is memory-bound: lots of core-model work per cycle, so
    // the cached warm run shows the win clearly.
    RunnerOptions opts;
    opts.cache.enabled = true;
    opts.cache.dir = dir;

    const char *workload = "fotonik3d";
    auto run = [&]() {
        return runBenchmark(workload, standardTechniques(), opts);
    };

    ExperimentResult cold = run();
    if (cold.replay.cacheHit || !cold.replay.cacheStored) {
        removeTree(dir);
        std::fprintf(stderr,
                     "trace-cache bench: unexpected cache behaviour "
                     "(cold hit=%d stored=%d)\n",
                     cold.replay.cacheHit, cold.replay.cacheStored);
        return 1;
    }

    // Best-of-N on the warm side, per phase: like measureSimulator
    // above, these runs are short enough that load drift on a shared CI
    // box easily costs 20%, and decode and replay are disturbed
    // independently, so each phase keeps its own minimum.
    ExperimentResult warm = run();
    double decode_s = warm.replay.decodeSeconds;
    double replay_s = warm.replay.replaySeconds;
    for (int rep = 1; rep < perfTrials(); ++rep) {
        ExperimentResult w = run();
        if (!w.replay.cacheHit || w.stats.cycles != cold.stats.cycles) {
            removeTree(dir);
            std::fprintf(stderr,
                         "trace-cache bench: warm repeat %d diverged "
                         "(hit=%d)\n",
                         rep, w.replay.cacheHit);
            return 1;
        }
        if (w.replay.decodeSeconds < decode_s)
            decode_s = w.replay.decodeSeconds;
        if (w.replay.replaySeconds < replay_s)
            replay_s = w.replay.replaySeconds;
        if (w.replay.totalSeconds < warm.replay.totalSeconds)
            warm = std::move(w);
    }
    removeTree(dir);

    if (!warm.replay.cacheHit) {
        std::fprintf(stderr,
                     "trace-cache bench: warm run missed the cache\n");
        return 1;
    }
    if (warm.stats.cycles != cold.stats.cycles) {
        std::fprintf(stderr, "trace-cache bench: warm run diverged\n");
        return 1;
    }

    double speedup = cold.replay.totalSeconds / warm.replay.totalSeconds;
    const auto cycles = static_cast<double>(warm.stats.cycles);
    double decode_rate = decode_s > 0.0 ? cycles / decode_s : 0.0;
    double replay_rate = replay_s > 0.0 ? cycles / replay_s : 0.0;
    const unsigned cores = std::thread::hardware_concurrency();

    std::printf("trace cache: cold %.3f s, warm %.3f s (%.1fx), "
                "%llu cycles, %llu events, %.1f Mcycles/s decode, "
                "%.1f Mcycles/s replay, %llu bytes on disk "
                "(%u cores)\n",
                cold.replay.totalSeconds, warm.replay.totalSeconds,
                speedup,
                static_cast<unsigned long long>(warm.stats.cycles),
                static_cast<unsigned long long>(
                    warm.replay.eventsCaptured),
                decode_rate / 1e6, replay_rate / 1e6,
                static_cast<unsigned long long>(warm.replay.cacheBytes),
                cores);

    std::FILE *f = std::fopen("BENCH_trace_cache.json", "w");
    if (!f) {
        std::fprintf(stderr,
                     "trace-cache bench: cannot write "
                     "BENCH_trace_cache.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"cycles\": %llu,\n"
                 "  \"events\": %llu,\n"
                 "  \"cache_bytes\": %llu,\n"
                 "  \"cold_seconds\": %.6f,\n"
                 "  \"warm_seconds\": %.6f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"decode_cycles_per_second\": %.0f,\n"
                 "  \"warm_replay_cycles_per_second\": %.0f,\n"
                 "  \"machine_cores\": %u\n"
                 "}\n",
                 workload,
                 static_cast<unsigned long long>(warm.stats.cycles),
                 static_cast<unsigned long long>(
                     warm.replay.eventsCaptured),
                 static_cast<unsigned long long>(warm.replay.cacheBytes),
                 cold.replay.totalSeconds, warm.replay.totalSeconds,
                 speedup, decode_rate, replay_rate, cores);
    std::fclose(f);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (int rc = measureSimulator())
        return rc;
    return measureTraceCache();
}
