#include "harness.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <malloc.h>
#include <sys/resource.h>

#include "analysis/cache_janitor.hh"
#include "analysis/sweep.hh"
#include "analysis/trace_cache.hh"
#include "common/file_lock.hh"
#include "common/fingerprint.hh"
#include "core/trace_codec.hh"
#include "core/trace_io.hh"
#include "core/varint.hh"
#include "workloads/kernel_gen.hh"

namespace perfbench {

namespace fs = std::filesystem;
using namespace tea;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** User + system CPU seconds of the whole process. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

constexpr double bytesPerMiB = 1024.0 * 1024.0;

/**
 * Hand the heap memory earlier work freed back to the kernel, so what
 * is timed next starts from the memory state of a fresh process, which
 * is what a user's one-pass run starts from.
 */
void
trimHeap()
{
    malloc_trim(0);
}

/**
 * Trim the heap, then restart the kernel's peak-RSS count (VmHWM) so
 * the next peakRssMiB() covers the coming pass alone.
 */
void
startPass()
{
    trimHeap();
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** Peak resident set (VmHWM, file-backed pages included) in MiB. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) * 1024.0 / bytesPerMiB;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / bytesPerMiB;
}

std::string
fmtSeries(const char *what, const std::vector<double> &xs)
{
    std::string out = std::string("  ") + what + ":";
    for (double x : xs) {
        char buf[32];
        std::snprintf(buf, sizeof buf, " %.3f", x);
        out += buf;
    }
    return out + "\n";
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Runner options the benchmark measures: the defaults users get. */
RunnerOptions
benchOptions(const std::string &cache_dir)
{
    RunnerOptions opts = RunnerOptions::fromEnv();
    opts.cache = TraceCacheOptions{};
    if (!cache_dir.empty()) {
        opts.cache.enabled = true;
        opts.cache.dir = cache_dir;
    }
    return opts;
}

/** Span name of an observer, by technique name. */
const char *
observerSpan(const std::string &technique)
{
    if (technique == "IBS")
        return "profilers.ibs";
    if (technique == "SPE")
        return "profilers.spe";
    if (technique == "RIS")
        return "profilers.ris";
    if (technique == "NCI-TEA")
        return "profilers.nci_tea";
    if (technique == "TEA")
        return "profilers.tea";
    return "profilers.other";
}

/**
 * Forwards the producer's calls to @p inner inside one span each. The
 * core and replayChunk deliver through onBatch and onEnd only, so the
 * span count is one per 4096-event batch, not one per event.
 */
class TimedSink final : public TraceSink
{
  public:
    TimedSink(Tracer &tracer, const char *span, std::uint32_t experiment,
              TraceSink &inner)
        : tracer_(tracer), span_(span), experiment_(experiment),
          inner_(inner)
    {
    }

    void onBatch(const TraceEvent *events, std::size_t n) override
    {
        ScopedSpan s(&tracer_, span_, experiment_);
        inner_.onBatch(events, n);
        s.count("events", n);
    }
    void onEnd(Cycle final_cycle) override
    {
        ScopedSpan s(&tracer_, span_, experiment_);
        inner_.onEnd(final_cycle);
    }
    void onCycle(const CycleRecord &rec) override { inner_.onCycle(rec); }
    void onDispatch(const UopRecord &rec) override
    {
        inner_.onDispatch(rec);
    }
    void onFetch(const UopRecord &rec) override { inner_.onFetch(rec); }
    void onRetire(const RetireRecord &rec) override
    {
        inner_.onRetire(rec);
    }

  private:
    Tracer &tracer_;
    const char *span_;
    std::uint32_t experiment_;
    TraceSink &inner_;
};

/**
 * Call @p fn(i) for every i in [0, n) on min(@p threads, n) threads
 * that claim indices in order, the way runExperimentSuite schedules
 * experiments. @p fn must not throw.
 */
void
parallelFor(std::size_t n, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            fn(i);
    };
    const unsigned workers = static_cast<unsigned>(
        std::max<std::size_t>(1, std::min<std::size_t>(threads, n)));
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

/**
 * One experiment composed from the public calls runWorkload makes on
 * the suite's default path (one thread per experiment, serial decode on
 * the caller, no audit, no cache byte budget, no time-parallel
 * simulation), with a span around each call. It is a hand copy of that
 * path and must track it. Three checks hold it there: the digest check
 * holds its results to runWorkload's, checkTracedPath holds its path
 * record (res.replay, filled here the way runWorkload fills it) to a
 * reference pass's, and options the copy does not model are refused.
 */
ExperimentResult
tracedExperiment(const SuiteExperiment &exp, std::uint32_t id,
                 const std::vector<SamplerConfig> &techniques,
                 const RunnerOptions &opts, Tracer &tr)
{
    if (opts.decodeThreads > 1 || opts.audit > 0 ||
        opts.janitor.maxBytes > 0 || opts.sim.wantsParallel()) {
        throw std::logic_error(
            "the traced pass models runWorkload's default path only: no "
            "decode threads, audit, cache byte budget or time-parallel "
            "simulation");
    }
    Workload workload;
    {
        ScopedSpan s(&tr, "workloads.build", id);
        workload = exp.make();
    }
    const CoreConfig &cfg = exp.cfg;
    const std::string programName = workload.program.name();

    ExperimentResult res;
    std::vector<std::unique_ptr<TechniqueSampler>> samplers;
    std::vector<std::unique_ptr<TimedSink>> observers;
    {
        ScopedSpan s(&tr, "profilers.setup", id);
        res.golden = std::make_unique<GoldenReference>();
        res.golden->reserveCells(workload.program.size());
        observers.push_back(std::make_unique<TimedSink>(
            tr, "profilers.golden", id, *res.golden));
        for (const SamplerConfig &tc : techniques) {
            samplers.push_back(std::make_unique<TechniqueSampler>(tc));
            samplers.back()->reserveCells(workload.program.size());
            observers.push_back(std::make_unique<TimedSink>(
                tr, observerSpan(tc.name), id, *samplers.back()));
        }
    }
    std::vector<TraceSink *> sinks;
    for (auto &o : observers)
        sinks.push_back(o.get());

    auto simulate = [&](TraceSink *capture) {
        ScopedSpan s(&tr, "core.simulate", id);
        Core core(cfg, workload.program, std::move(workload.initial));
        for (TraceSink *sink : sinks)
            core.addSink(sink);
        if (capture)
            core.addSink(capture);
        core.run();
        res.stats = core.stats();
        res.replay.simCycles = core.stats().cycles;
        res.replay.simEvents = core.perf().traceEvents;
        s.count("cycles", core.stats().cycles);
        s.count("events", core.perf().traceEvents);
        s.count("skipped", core.perf().skippedCycles);
    };

    TraceCache cache(opts.cache);
    if (!cache.enabled()) {
        simulate(nullptr);
    } else {
        {
            ScopedSpan s(&tr, "cache_janitor.recover", id);
            CacheJanitor::recoverOnce(cache.options().dir, opts.janitor);
        }
        std::uint64_t fp = 0;
        {
            ScopedSpan s(&tr, "trace_cache.fingerprint", id);
            fp = TraceCache::fingerprintOf(workload, cfg);
        }
        const std::string entry = cache.entryPath(programName, fp);
        CacheOpStats ops;
        std::unique_ptr<MappedTraceFile> mapped;
        {
            ScopedSpan s(&tr, "trace_cache.open", id);
            mapped = cache.openEntry(entry, fp, &ops);
            s.count("lookup", 1);
            s.count("hit", mapped ? 1 : 0);
            s.count("retries", ops.retry.retries);
        }
        FileLock lock;
        if (!mapped) {
            bool locked = false;
            {
                ScopedSpan s(&tr, "trace_cache.lock", id);
                locked = lock.acquire(TraceCache::lockPathFor(entry),
                                      opts.cacheLockTimeoutMs);
            }
            if (locked) {
                ScopedSpan s(&tr, "trace_cache.open", id);
                const std::uint64_t before = ops.retry.retries;
                mapped = cache.openEntry(entry, fp, &ops);
                s.count("retries", ops.retry.retries - before);
            } else {
                ++res.replay.lockDegrades;
            }
        }
        res.replay.quarantined = ops.quarantined;
        if (mapped)
            lock.release();

        if (mapped) {
            for (;;) {
                TraceChunkPtr chunk;
                {
                    ScopedSpan s(&tr, "core.decode", id);
                    chunk = mapped->nextChunk();
                    s.count("events", chunk ? chunk->events.size() : 0);
                }
                if (!chunk)
                    break;
                replayChunk(*chunk, sinks);
                ++res.replay.chunksProduced;
                res.replay.eventsCaptured += chunk->events.size();
            }
            res.stats = mapped->coreStats();
            res.replay.cacheHit = true;
            res.replay.cacheBytes = mapped->fileBytes();
        } else {
            std::unique_ptr<CompactTraceWriter> writer;
            if (lock.held()) {
                ScopedSpan s(&tr, "trace_io.store", id);
                writer = std::make_unique<CompactTraceWriter>(entry, fp);
                writer->setByteLimit(opts.janitor.maxBytes);
            }
            // writeChunk encodes internally. The explicit encodeChunk of
            // the same chunk just before it measures that encode; the
            // summary charges writeChunk minus it to trace_io.store.
            std::vector<std::uint8_t> frame;
            ChunkingSink tee(opts.chunkEvents, [&](TraceChunkPtr c) {
                {
                    ScopedSpan s(&tr, "core.encode", id);
                    frame.clear();
                    encodeChunk(*c, frame);
                    s.count("events", c->events.size());
                    s.count("bytes", frame.size());
                }
                ScopedSpan s(&tr, "trace_io.store", id);
                writer->writeChunk(*c);
            });
            TimedSink capture(tr, "core.capture", id, tee);
            simulate(writer ? &capture : nullptr);
            if (writer) {
                {
                    ScopedSpan s(&tr, "core.capture", id);
                    tee.finish();
                }
                res.replay.chunksProduced = tee.chunksEmitted();
                res.replay.eventsCaptured = tee.eventsCaptured();
                ScopedSpan s(&tr, "trace_io.store", id);
                res.replay.cacheStored = writer->commit(res.stats);
                res.replay.cacheBytes = writer->bytesWritten();
                res.replay.cacheAdmissionDenied = writer->admissionDenied();
                s.count("retries", writer->retryStats().retries);
            }
            lock.release();
        }
    }

    for (auto &smp : samplers) {
        res.techniques.push_back(TechniqueResult{
            smp->config(), smp->pics(), smp->samplesTaken(),
            smp->samplesDropped()});
    }
    res.program = std::move(workload.program);
    return res;
}

/** Per-experiment timing of an untraced suite pass. */
struct SuiteTiming
{
    double start = 0.0;         ///< pass start (tracer clock)
    double end = 0.0;           ///< runExperimentSuite returned
    std::vector<double> begin;  ///< experiment start (make called)
    std::vector<double> finish; ///< make end + ReplayStats::totalSeconds
    std::vector<std::thread::id> worker;
};

/** What one pass produced. */
struct PassStats
{
    double wall = 0.0;
    double cpu = 0.0;
    double teaErrorPct = 0.0;
    std::uint64_t cycles = 0;
    std::vector<ExperimentResult> results;
    SuiteTiming suite;
};

/**
 * The aggregate step every Fig-5 style report runs: each technique's
 * error against the projected golden reference. @return mean TEA
 * error over the successful experiments, in percent
 */
double
aggregate(const std::vector<ExperimentResult> &results, Tracer *tr)
{
    double sum = 0.0;
    unsigned n = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &r = results[i];
        if (r.failed())
            continue;
        ScopedSpan s(tr, "runner.aggregate", static_cast<std::uint32_t>(i));
        for (const TechniqueResult &t : r.techniques) {
            const double err = r.errorOf(t);
            if (t.config.name == "TEA") {
                sum += err;
                ++n;
            }
        }
    }
    return n ? 100.0 * sum / n : 0.0;
}

std::uint64_t
simulatedCycles(const std::vector<ExperimentResult> &results)
{
    std::uint64_t c = 0;
    for (const ExperimentResult &r : results)
        c += r.stats.cycles;
    return c;
}

/**
 * One pass through runExperimentSuite, the path users run. Each
 * SuiteExperiment::make is wrapped to stamp the experiment's start
 * and worker; its duration is the make time plus
 * ReplayStats::totalSeconds.
 */
PassStats
runPass(const Suite &suite, const std::vector<SamplerConfig> &techniques,
        const RunnerOptions &opts, const Tracer &clock)
{
    const std::size_t n = suite.experiments.size();
    PassStats p;
    p.suite.begin.assign(n, 0.0);
    p.suite.finish.assign(n, 0.0);
    p.suite.worker.assign(n, std::thread::id());
    std::vector<double> madeAt(n, 0.0);
    std::vector<SuiteExperiment> wrapped = suite.experiments;
    for (std::size_t i = 0; i < n; ++i) {
        wrapped[i].make = [&, i, make = suite.experiments[i].make] {
            p.suite.begin[i] = clock.now();
            p.suite.worker[i] = std::this_thread::get_id();
            Workload w = make();
            madeAt[i] = clock.now();
            return w;
        };
    }
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    p.suite.start = clock.now();
    p.results = runExperimentSuite(wrapped, techniques, opts);
    p.suite.end = clock.now();
    p.teaErrorPct = aggregate(p.results, nullptr);
    p.wall = secondsSince(t0);
    p.cpu = cpuSeconds() - cpu0;
    p.cycles = simulatedCycles(p.results);
    for (std::size_t i = 0; i < n; ++i)
        p.suite.finish[i] = madeAt[i] + p.results[i].replay.totalSeconds;
    return p;
}

/** Traced pass: every experiment decomposed, same experiments in flight. */
PassStats
runTracedPass(const Suite &suite,
              const std::vector<SamplerConfig> &techniques,
              const RunnerOptions &opts, Tracer &tr)
{
    const std::size_t n = suite.experiments.size();
    PassStats p;
    p.results.resize(n);
    const auto t0 = Clock::now();
    parallelFor(n, opts.threads, [&](std::size_t i) {
        const SuiteExperiment &exp = suite.experiments[i];
        const auto id = static_cast<std::uint32_t>(i);
        ScopedSpan root(&tr, "suite.experiment", id);
        try {
            p.results[i] = tracedExperiment(exp, id, techniques, opts, tr);
        } catch (const std::exception &e) {
            p.results[i].error = e.what();
        }
        p.results[i].name = exp.name;
    });
    p.teaErrorPct = aggregate(p.results, &tr);
    p.wall = secondsSince(t0);
    p.cycles = simulatedCycles(p.results);
    return p;
}

/** Suite-layer metrics of one untraced pass. */
std::map<std::string, double>
suiteMetrics(const PassStats &p, unsigned threads)
{
    const SuiteTiming &s = p.suite;
    std::vector<double> dur;
    std::map<std::thread::id, double> lastEnd;
    for (std::size_t i = 0; i < s.begin.size(); ++i) {
        dur.push_back(s.finish[i] - s.begin[i]);
        double &e = lastEnd[s.worker[i]];
        e = std::max(e, s.finish[i]);
    }
    double firstIdle = s.end;
    for (const auto &[tid, end] : lastEnd)
        firstIdle = std::min(firstIdle, end);
    double busy = 0.0;
    for (double d : dur)
        busy += d;
    return {
        {"suite.busy_s", busy},
        {"suite.efficiency", ratio(busy, threads * (s.end - s.start))},
        {"suite.tail_s", std::max(0.0, s.end - firstIdle)},
        {"suite.experiment_s_p50", median(dur)},
        {"suite.experiment_s_max",
         dur.empty() ? 0.0 : *std::max_element(dur.begin(), dur.end())},
    };
}

enum class Kind
{
    Fig5Warm,
    SweepUncached,
};

Kind
kindOf(const std::string &workload)
{
    if (workload == "fig5_warm")
        return Kind::Fig5Warm;
    if (workload == "sweep_uncached")
        return Kind::SweepUncached;
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

/** The workload's experiment list; inputs are built when run. */
Suite
buildSuite(Kind kind, std::uint64_t seed, Tracer *tr)
{
    ScopedSpan s(tr, "workloads.build", 0);
    return kind == Kind::SweepUncached ? sweepSuite(sweepKernelSeed(seed))
                                       : fig5Suite();
}

/** Failure accounting across the run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string errors;

    void add(std::vector<ExperimentResult> &results,
             const DigestTable &table, const std::string &key)
    {
        auto it = table.find(key);
        static const std::vector<std::uint64_t> none;
        failed += checkDigests(results, it == table.end() ? none
                                                          : it->second);
        attempted += results.size();
        for (const ExperimentResult &r : results) {
            if (r.failed() && errors.size() < 4096)
                errors += "  " + r.name + ": " + r.error + "\n";
        }
    }
};

/** Where the traced run's time went, for one set-up plus one pass. */
struct LayerShares
{
    std::map<std::string, double> self; ///< self seconds by layer
    double unattributed = 0.0; ///< experiment time inside no layer span
    double total = 0.0;        ///< duration of all top-level spans
};

LayerShares
layerShares(const std::vector<Span> &spans, unsigned passes)
{
    const std::vector<double> own = selfSeconds(spans);
    LayerShares out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double w = passWeight(spans[i], passes);
        if (spans[i].parent == 0)
            out.total += spans[i].seconds() * w;
        if (std::string(spans[i].name) == "suite.experiment")
            out.unattributed += own[i] * w;
        else
            out.self[layerOf(spans[i].name)] += own[i] * w;
    }
    return out;
}

std::string
fmtShares(const LayerShares &shares)
{
    std::string out = "layer self time for one set-up + one pass, and "
                      "share of the traced time:\n";
    auto line = [&](const std::string &layer, double sec) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "  %-14s %9.3f s  %5.1f%%\n",
                      layer.c_str(), sec, 100.0 * ratio(sec, shares.total));
        out += buf;
    };
    for (const auto &[layer, sec] : shares.self)
        line(layer, sec);
    line("unattributed", shares.unattributed);
    return out;
}

/** Sum of count @p key over spans named @p name, weighted per pass. */
double
weightedCount(const std::vector<Span> &spans, const char *name,
              const char *key, unsigned passes)
{
    double sum = 0.0;
    for (const Span &s : spans) {
        if (std::string(s.name) == name)
            sum += static_cast<double>(s.count(key)) * passWeight(s, passes);
    }
    return sum;
}

/** Per-layer metrics of a traced run. */
std::vector<Metric>
layerMetrics(const std::vector<Span> &spans, unsigned passes,
             const LayerShares &shares, const PassStats &lastTraced,
             const std::vector<std::map<std::string, double>> &suites,
             double overheadPct, double cacheBytes, std::uint64_t failed)
{
    std::map<std::string, double> self = selfSecondsByName(spans, passes);
    auto sec = [&](const char *name) { return self[name]; };
    auto cnt = [&](const char *name, const char *key) {
        return weightedCount(spans, name, key, passes);
    };

    double taken = 0.0, dropped = 0.0, cells = 0.0;
    for (const ExperimentResult &r : lastTraced.results) {
        if (r.failed())
            continue;
        cells += static_cast<double>(r.golden->pics().size());
        for (const TechniqueResult &t : r.techniques) {
            taken += static_cast<double>(t.samplesTaken);
            dropped += static_cast<double>(t.samplesDropped);
            cells += static_cast<double>(t.pics.size());
        }
    }

    auto suiteMedian = [&](const char *key) {
        std::vector<double> xs;
        for (const auto &m : suites)
            xs.push_back(m.at(key));
        return median(xs);
    };

    const double simCycles = cnt("core.simulate", "cycles");
    const double encodeEvents = cnt("core.encode", "events");
    return {
        {"workloads.build_s", "s", sec("workloads.build")},
        {"core.simulate_s", "s", sec("core.simulate")},
        {"core.simulate_mcycles_per_s", "Mcycle/s",
         ratio(simCycles, sec("core.simulate")) / 1e6},
        {"core.skip_ratio", "ratio",
         ratio(cnt("core.simulate", "skipped"), simCycles)},
        {"core.events_per_cycle", "event/cycle",
         ratio(cnt("core.simulate", "events"), simCycles)},
        {"core.capture_s", "s", sec("core.capture")},
        {"core.encode_s", "s", sec("core.encode")},
        {"core.encode_bytes_per_event", "B/event",
         ratio(cnt("core.encode", "bytes"), encodeEvents)},
        {"core.decode_s", "s", sec("core.decode")},
        {"core.decode_mevents_per_s", "Mevent/s",
         ratio(cnt("core.decode", "events"), sec("core.decode")) / 1e6},
        {"trace_io.store_s", "s",
         std::max(0.0, sec("trace_io.store") - sec("core.encode"))},
        {"trace_cache.fingerprint_s", "s", sec("trace_cache.fingerprint")},
        {"trace_cache.open_s", "s", sec("trace_cache.open")},
        {"trace_cache.hit_ratio", "ratio",
         ratio(cnt("trace_cache.open", "hit"),
               cnt("trace_cache.open", "lookup"))},
        {"trace_cache.io_retries", "count",
         cnt("trace_cache.open", "retries") +
             cnt("trace_io.store", "retries")},
        {"trace_cache.cache_mb", "MiB", cacheBytes / bytesPerMiB},
        {"cache_janitor.recover_s", "s", sec("cache_janitor.recover")},
        {"profilers.golden_s", "s", sec("profilers.golden")},
        {"profilers.ibs_s", "s", sec("profilers.ibs")},
        {"profilers.spe_s", "s", sec("profilers.spe")},
        {"profilers.ris_s", "s", sec("profilers.ris")},
        {"profilers.nci_tea_s", "s", sec("profilers.nci_tea")},
        {"profilers.tea_s", "s", sec("profilers.tea")},
        {"profilers.sample_drop_ratio", "ratio",
         ratio(dropped, taken + dropped)},
        {"profilers.pics_cells", "count", cells},
        {"runner.aggregate_s", "s", sec("runner.aggregate")},
        {"suite.busy_s", "s", suiteMedian("suite.busy_s")},
        {"suite.efficiency", "ratio", suiteMedian("suite.efficiency")},
        {"suite.tail_s", "s", suiteMedian("suite.tail_s")},
        {"suite.experiment_s_p50", "s",
         suiteMedian("suite.experiment_s_p50")},
        {"suite.experiment_s_max", "s",
         suiteMedian("suite.experiment_s_max")},
        {"suite.experiments_failed", "count", static_cast<double>(failed)},
        {"trace.overhead_pct", "%", overheadPct},
        {"trace.unattributed_pct", "%",
         100.0 * ratio(shares.unattributed, shares.total)},
    };
}

/** Fewest timed passes per run, whatever --seconds says. */
constexpr unsigned minPasses = 3;

/** Set-ups per run, back to back before the passes; setup_s is their
 *  median. */
constexpr unsigned setupRuns = 3;

RunResult
runTimed(const RunConfig &cfg, Kind kind, const DigestTable &table)
{
    const std::vector<SamplerConfig> techniques = standardTechniques();
    const Tracer clock;
    Tally tally;
    std::vector<double> setupTimes;
    Suite suite;
    std::unique_ptr<ScratchDir> warm;
    // A set-up makes the experiment list and runs one untimed pass over
    // it, which builds every input and passes the digest gate before
    // any pass is timed. On fig5_warm that pass fills an empty cache
    // the timed passes then read; on sweep_uncached it pays what the
    // process's first pass pays (thread start, heap growth, first
    // touch of code and tables).
    for (unsigned k = 0; k < setupRuns; ++k) {
        warm.reset();
        trimHeap();
        const auto t0 = Clock::now();
        suite = buildSuite(kind, cfg.seed, nullptr);
        if (kind == Kind::Fig5Warm) {
            warm = std::make_unique<ScratchDir>(cfg.workDir + "/warm-" +
                                                std::to_string(k));
        }
        PassStats first = runPass(
            suite, techniques, benchOptions(warm ? warm->path() : ""),
            clock);
        setupTimes.push_back(secondsSince(t0));
        tally.add(first.results, table, suite.digestKey);
    }

    std::vector<double> wall, cpu, rate, rss;
    double teaError = 0.0;
    double cacheBytes = 0.0;
    double measured = 0.0;
    const std::string dir = warm ? warm->path() : std::string();
    for (unsigned k = 0; measured < cfg.seconds || k < minPasses; ++k) {
        startPass();
        PassStats p = runPass(suite, techniques, benchOptions(dir), clock);
        rss.push_back(peakRssMiB());
        measured += p.wall;
        wall.push_back(p.wall);
        cpu.push_back(p.cpu);
        rate.push_back(static_cast<double>(p.cycles) / p.wall / 1e6);
        teaError = p.teaErrorPct;
        cacheBytes = static_cast<double>(directoryBytes(dir));
        tally.add(p.results, table, suite.digestKey);
    }

    RunResult out;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.metrics = {
        {"wall_s", "s", median(wall)},
        {"analyzed_mcycles_per_s", "Mcycle/s", median(rate)},
        {"cpu_s", "s", median(cpu)},
        {"peak_rss_mb", "MiB", *std::max_element(rss.begin(), rss.end())},
        {"setup_s", "s", median(setupTimes)},
        {"tea_error_pct", "%", teaError},
    };
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s seed %llu (kernel seed %llu): %zu passes, cache "
                  "%.1f MiB\n",
                  cfg.workload.c_str(),
                  static_cast<unsigned long long>(cfg.seed),
                  static_cast<unsigned long long>(
                      kind == Kind::SweepUncached ? sweepKernelSeed(cfg.seed)
                                                  : 0),
                  wall.size(), cacheBytes / bytesPerMiB);
    out.report = machineContext(cfg.commit) + buf +
                 fmtSeries("set-up s", setupTimes) +
                 fmtSeries("wall s", wall) + fmtSeries("cpu s", cpu) +
                 fmtSeries("peak rss MiB", rss) + tally.errors;
    return out;
}

RunResult
runTraced(const RunConfig &cfg, Kind kind, const DigestTable &table)
{
    const std::vector<SamplerConfig> techniques = standardTechniques();
    Tracer tr;
    Tally tally;

    tr.setPass(0);
    Suite suite = buildSuite(kind, cfg.seed, &tr);
    std::unique_ptr<ScratchDir> warm;
    if (kind == Kind::Fig5Warm) {
        // The traced cold fill is checked against a reference cold fill
        // into a directory of its own, which goes before the traced one.
        PassStats ref;
        {
            const ScratchDir refDir(cfg.workDir + "/warm-ref");
            ref = runPass(suite, techniques, benchOptions(refDir.path()), tr);
        }
        warm = std::make_unique<ScratchDir>(cfg.workDir + "/warm");
        PassStats fill =
            runTracedPass(suite, techniques, benchOptions(warm->path()), tr);
        checkTracedPath(fill.results, ref.results);
        tally.add(ref.results, table, suite.digestKey);
        tally.add(fill.results, table, suite.digestKey);
    }

    std::vector<double> refWall, tracedWall;
    std::vector<std::map<std::string, double>> suites;
    PassStats last;
    double measured = 0.0;
    unsigned passes = 0;
    const unsigned threads = benchOptions("").threads;
    const std::string dir = warm ? warm->path() : std::string();
    for (; passes == 0 || measured < cfg.seconds;) {
        startPass();
        PassStats ref = runPass(suite, techniques, benchOptions(dir), tr);
        refWall.push_back(ref.wall);
        suites.push_back(suiteMetrics(ref, threads));
        tally.add(ref.results, table, suite.digestKey);
        measured += ref.wall;

        ++passes;
        tr.setPass(passes);
        startPass();
        last = runTracedPass(suite, techniques, benchOptions(dir), tr);
        tracedWall.push_back(last.wall);
        checkTracedPath(last.results, ref.results);
        tally.add(last.results, table, suite.digestKey);
        measured += last.wall;
    }
    const double cacheBytes = static_cast<double>(directoryBytes(dir));

    const std::vector<Span> spans = tr.spans();
    if (!cfg.spansOut.empty() && !tr.writeJsonLines(cfg.spansOut))
        throw std::runtime_error("cannot write spans to " + cfg.spansOut);

    const double overhead =
        100.0 * (ratio(median(tracedWall), median(refWall)) - 1.0);
    RunResult out;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    const LayerShares shares = layerShares(spans, passes);
    out.metrics = layerMetrics(spans, passes, shares, last, suites, overhead,
                               cacheBytes, tally.failed);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s seed %llu traced: %u pass pair(s), reference %.3f s, "
                  "traced %.3f s, %zu spans\n",
                  cfg.workload.c_str(),
                  static_cast<unsigned long long>(cfg.seed), passes,
                  median(refWall), median(tracedWall), spans.size());
    out.report = machineContext(cfg.commit) + buf + fmtShares(shares) +
                 tally.errors;
    return out;
}

} // namespace

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    for (char c : name) {
        const auto u = static_cast<unsigned char>(c);
        if (!std::isalnum(u) && c != '_' && c != '.' && c != '-')
            return false;
    }
    return true;
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string m;
    std::vector<std::string> seen;
    for (const Metric &x : metrics) {
        if (!validMetricName(x.name))
            throw std::invalid_argument("bad metric name '" + x.name + "'");
        if (std::find(seen.begin(), seen.end(), x.name) != seen.end())
            throw std::invalid_argument("repeated metric '" + x.name + "'");
        seen.push_back(x.name);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      m.empty() ? "" : ", ", x.name.c_str(),
                      std::isfinite(x.value) ? x.value : 0.0,
                      x.unit.c_str());
        m += buf;
    }
    char head[128];
    std::snprintf(head, sizeof head,
                  "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                  correct ? "true" : "false",
                  static_cast<unsigned long long>(attempted),
                  static_cast<unsigned long long>(failed));
    return std::string(head) + "\"metrics\": {" + m + "}}";
}

std::uint64_t
experimentDigest(const ExperimentResult &res)
{
    Fnv1a h;
    auto addPics = [&](const Pics &pics) {
        std::vector<PicsComponent> cells = pics.components();
        std::sort(cells.begin(), cells.end(),
                  [](const PicsComponent &a, const PicsComponent &b) {
                      return a.unit != b.unit ? a.unit < b.unit
                                              : a.signature < b.signature;
                  });
        h.add(static_cast<std::uint64_t>(cells.size()));
        for (const PicsComponent &c : cells) {
            std::uint64_t bits = 0;
            static_assert(sizeof bits == sizeof c.cycles);
            std::memcpy(&bits, &c.cycles, sizeof bits);
            h.add(c.unit);
            h.add(c.signature);
            h.add(bits);
        }
    };
    h.add(res.name);
    h.add(res.stats.cycles);
    if (res.golden)
        addPics(res.golden->pics());
    for (const TechniqueResult &t : res.techniques) {
        h.add(t.config.name);
        addPics(t.pics);
    }
    return h.value();
}

DigestTable
loadDigests(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read digest table " + path);
    DigestTable table;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string key;
        if (!(fields >> key) || key[0] == '#')
            continue;
        std::vector<std::uint64_t> &digests = table[key];
        std::string hex;
        while (fields >> hex)
            digests.push_back(std::stoull(hex, nullptr, 16));
    }
    return table;
}

unsigned
checkDigests(std::vector<ExperimentResult> &results,
             const std::vector<std::uint64_t> &expected)
{
    unsigned failed = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        ExperimentResult &r = results[i];
        if (!r.failed()) {
            const std::uint64_t got = experimentDigest(r);
            if (i >= expected.size()) {
                r.error = "no recorded digest";
            } else if (got != expected[i]) {
                char buf[96];
                std::snprintf(buf, sizeof buf,
                              "digest %016llx, recorded %016llx",
                              static_cast<unsigned long long>(got),
                              static_cast<unsigned long long>(expected[i]));
                r.error = buf;
            }
        }
        failed += r.failed() ? 1 : 0;
    }
    return failed;
}

unsigned
checkTracedPath(std::vector<ExperimentResult> &traced,
                const std::vector<ExperimentResult> &reference)
{
    unsigned failed = 0;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        ExperimentResult &t = traced[i];
        if (!t.failed() && (i >= reference.size() || reference[i].failed()))
            t.error = "no reference result to check the traced path against";
        if (!t.failed()) {
            const ReplayStats &a = reference[i].replay;
            const ReplayStats &b = t.replay;
            const std::pair<const char *,
                            std::pair<std::uint64_t, std::uint64_t>>
                fields[] = {
                    {"threads", {a.threads, b.threads}},
                    {"cacheHit", {a.cacheHit, b.cacheHit}},
                    {"cacheStored", {a.cacheStored, b.cacheStored}},
                    {"cacheBytes", {a.cacheBytes, b.cacheBytes}},
                    {"cacheAdmissionDenied",
                     {a.cacheAdmissionDenied, b.cacheAdmissionDenied}},
                    {"cacheEvictions", {a.cacheEvictions, b.cacheEvictions}},
                    {"lockDegrades", {a.lockDegrades, b.lockDegrades}},
                    {"quarantined", {a.quarantined, b.quarantined}},
                    {"chunksProduced", {a.chunksProduced, b.chunksProduced}},
                    {"eventsCaptured", {a.eventsCaptured, b.eventsCaptured}},
                    {"simParallel", {a.simParallel, b.simParallel}},
                    {"simCycles", {a.simCycles, b.simCycles}},
                    {"simEvents", {a.simEvents, b.simEvents}},
                };
            for (const auto &[name, v] : fields) {
                if (v.first == v.second)
                    continue;
                char buf[160];
                std::snprintf(buf, sizeof buf,
                              "traced path differs from runWorkload's: %s "
                              "%llu, reference %llu",
                              name, static_cast<unsigned long long>(v.second),
                              static_cast<unsigned long long>(v.first));
                t.error = buf;
                break;
            }
        }
        failed += t.failed() ? 1 : 0;
    }
    return failed;
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path))
{
    std::error_code ec;
    fs::remove_all(path_, ec);
    fs::create_directories(path_, ec);
    if (ec)
        throw std::runtime_error("cannot create " + path_ + ": " +
                                 ec.message());
}

ScratchDir::~ScratchDir()
{
    std::error_code ec;
    fs::remove_all(path_, ec);
}

std::uint64_t
directoryBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    std::error_code ec;
    if (dir.empty() || !fs::is_directory(dir, ec))
        return 0;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec)) {
        if (e.is_regular_file(ec))
            bytes += e.file_size(ec);
    }
    return bytes;
}

Suite
fig5Suite()
{
    Suite s;
    s.digestKey = "fig5";
    for (const std::string &name : workloads::suiteNames()) {
        s.experiments.push_back(SuiteExperiment{
            name, [name] { return workloads::byName(name); }, CoreConfig{}});
    }
    return s;
}

std::vector<std::uint64_t>
sweepKernelSeeds()
{
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t k = 1; k <= 16; ++k)
        seeds.push_back(k);
    return seeds;
}

std::uint64_t
sweepKernelSeed(std::uint64_t seed)
{
    if (seed == heldOutSeed)
        return heldOutKernelSeed;
    const std::vector<std::uint64_t> seeds = sweepKernelSeeds();
    return seeds[seed % seeds.size()];
}

Suite
sweepSuite(std::uint64_t kernel_seed)
{
    SweepSpec spec = exampleSweep();
    spec.base.seed = kernel_seed;
    Suite s;
    s.digestKey = "sweep/" + std::to_string(kernel_seed);
    for (const SweepExperiment &e : expandSweep(spec)) {
        const workloads::KernelSpec k = e.spec;
        s.experiments.push_back(SuiteExperiment{
            e.name, [k] { return workloads::generateKernel(k); }, e.cfg});
    }
    return s;
}

std::string
machineContext(const std::string &commit)
{
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                model = line.substr(colon + 2);
            break;
        }
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "machine: nproc %u, cpu \"%s\", build %s, varint %s, "
                  "threads %u, commit %s\n",
                  std::thread::hardware_concurrency(), model.c_str(),
                  PERFBENCH_BUILD_TYPE,
                  varintKernelName(activeVarintKernel()),
                  benchOptions("").threads, commit.c_str());
    return buf;
}

RunResult
runBenchmark(const RunConfig &cfg)
{
    const Kind kind = kindOf(cfg.workload);
    if (!(cfg.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    if (cfg.workDir.empty())
        throw std::invalid_argument("a work directory is required");
    const DigestTable table = loadDigests(cfg.digests);
    return cfg.trace ? runTraced(cfg, kind, table)
                     : runTimed(cfg, kind, table);
}

std::string
recordDigests()
{
    const std::vector<SamplerConfig> techniques = standardTechniques();
    const RunnerOptions opts = benchOptions("");
    std::vector<Suite> suites{fig5Suite()};
    for (std::uint64_t k : sweepKernelSeeds())
        suites.push_back(sweepSuite(k));
    suites.push_back(sweepSuite(heldOutKernelSeed));
    std::string out =
        "# Experiment digests (perfbench/README.md, \"Correctness gate\").\n"
        "# Written by `perfbench --record`; one line per input set, one\n"
        "# digest per experiment in suite order.\n";
    for (const Suite &s : suites) {
        std::vector<ExperimentResult> results =
            runExperimentSuite(s.experiments, techniques, opts);
        out += s.digestKey;
        for (const ExperimentResult &r : results) {
            if (r.failed())
                throw std::runtime_error(r.name + ": " + r.error);
            char buf[24];
            std::snprintf(buf, sizeof buf, " %016llx",
                          static_cast<unsigned long long>(
                              experimentDigest(r)));
            out += buf;
        }
        out += "\n";
    }
    return out;
}

} // namespace perfbench
