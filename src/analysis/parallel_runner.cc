#include "analysis/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "analysis/audit.hh"
#include "analysis/cache_janitor.hh"
#include "analysis/trace_cache.hh"
#include "common/env.hh"
#include "common/failpoint.hh"
#include "common/file_lock.hh"
#include "common/logging.hh"
#include "core/trace_io.hh"

namespace tea {

namespace {

using Clock = std::chrono::steady_clock;

// Fault-injection seam (common/failpoint). It raises FailpointError —
// an ordinary exception — which runExperimentSuite catches per
// experiment, so it exercises the suite's containment path.
Failpoint fpExperiment("runner.experiment", EIO);

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

unsigned
RunnerOptions::parseThreads(const char *what, std::string_view text)
{
    const auto n = static_cast<unsigned>(parseUnsigned(
        what, text, 0, std::numeric_limits<unsigned>::max()));
    return n > 0 ? n : std::max(1u, std::thread::hardware_concurrency());
}

RunnerOptions
RunnerOptions::fromEnv()
{
    RunnerOptions opts;
    constexpr unsigned maxU = std::numeric_limits<unsigned>::max();
    // Default: one experiment in flight per hardware thread (results
    // are identical at any thread count, so this is purely a speed knob).
    const char *threads = std::getenv("TEA_THREADS");
    opts.threads = parseThreads("TEA_THREADS",
                                threads && *threads ? threads : "0");
    opts.audit = static_cast<unsigned>(envUnsigned("TEA_AUDIT", 0, 0, 1));
    opts.cache = TraceCacheOptions::fromEnv();
    opts.janitor = JanitorConfig::fromEnv();
    opts.cacheLockTimeoutMs = static_cast<unsigned>(
        envUnsigned("TEA_CACHE_LOCK_TIMEOUT_MS", opts.cacheLockTimeoutMs,
                    0, maxU));
    return opts;
}

ExperimentResult
runWorkload(Workload workload, std::vector<SamplerConfig> techniques,
            const RunnerOptions &opts, const CoreConfig &cfg)
{
    // Static init is long over: a TEA_FAILPOINTS entry still parked
    // names no seam in this binary and must not silently test nothing.
    failpoints::checkEnvConsumed();
    TraceCache cache(opts.cache);

    const auto start = Clock::now();
    ExperimentResult res;
    res.name = workload.program.name();
    res.golden = std::make_unique<GoldenReference>();
    res.golden->reserveCells(workload.program.size());

    std::vector<std::unique_ptr<TechniqueSampler>> samplers;
    samplers.reserve(techniques.size());
    for (SamplerConfig &tc : techniques) {
        samplers.push_back(std::make_unique<TechniqueSampler>(tc));
        samplers.back()->reserveCells(workload.program.size());
    }

    // Every observer, in replay order: the golden reference, one
    // sampler per technique and, when enabled, the auditor — it sees
    // the identical event stream the profilers see.
    std::unique_ptr<InvariantAuditor> auditor;
    if (opts.audit > 0)
        auditor = std::make_unique<InvariantAuditor>(
            InvariantAuditor::Mode::FailFast);

    std::vector<TraceSink *> sinks;
    sinks.reserve(samplers.size() + 2);
    sinks.push_back(res.golden.get());
    for (auto &s : samplers)
        sinks.push_back(s.get());
    if (auditor)
        sinks.push_back(auditor.get());

    // Cache lookup: the fingerprint keys on workload content, the full
    // config and the codec version, so a hit is guaranteed to replay
    // the exact trace a fresh simulation would produce.
    std::uint64_t fp = 0;
    std::string entry;
    std::unique_ptr<MappedTraceFile> mapped;
    CacheOpStats cacheOps;
    FileLock storeLock;
    if (cache.enabled()) {
        // First access in this process: reclaim crash debris (orphaned
        // tmp files, stale locks, aged quarantine) left by previous
        // runs before stacking new work on top of it.
        const JanitorStats recovered = CacheJanitor::recoverOnce(
            cache.options().dir, opts.janitor);
        res.replay.janitorRemovals += recovered.removals();
        res.replay.cacheEvictions += recovered.evictedEntries;
        res.replay.cacheEvictedBytes += recovered.evictedBytes;

        fp = TraceCache::fingerprintOf(workload, cfg);
        entry = cache.entryPath(res.name, fp);
        mapped = cache.openEntry(entry, fp, &cacheOps);
        if (!mapped) {
            // Miss (or a damaged entry just quarantined): the rewrite
            // must be serialized against concurrent processes aiming at
            // the same entry — tmp+rename makes the publish atomic, but
            // without the lock two processes would both simulate and
            // race their renames.
            if (storeLock.acquire(TraceCache::lockPathFor(entry),
                                  opts.cacheLockTimeoutMs)) {
                // Revalidate under the lock: whoever held it before us
                // may have published a healthy entry while we waited.
                mapped = cache.openEntry(entry, fp, &cacheOps);
            } else {
                ++res.replay.lockDegrades;
                tea_warn("trace cache: cannot lock %s within %u ms; "
                         "simulating without storing",
                         TraceCache::lockPathFor(entry).c_str(),
                         opts.cacheLockTimeoutMs);
            }
        }
        // A hit needs no lock: the mapping pins the published file even
        // if another process later replaces or quarantines the path.
        if (mapped)
            storeLock.release();
    }

    if (mapped) {
        // Hit: no core is built at all; the trace streams out of the
        // mapping and the recorded CoreStats stand in for core.stats().
        // Decode one frame, replay it, reuse the same chunk storage for
        // the next frame. Keeping exactly one chunk in flight is
        // deliberate — it lets nextChunk() recycle one warm output
        // buffer, and the assemble stores hitting warm cache lines
        // outweigh any decode-locality gain from grouping frames
        // (measured: batching decodes cost ~20%).
        for (;;) {
            const auto t0 = Clock::now();
            TraceChunkPtr chunk = mapped->nextChunk();
            res.replay.decodeSeconds += secondsSince(t0);
            if (!chunk)
                break;
            const auto t1 = Clock::now();
            replayChunk(*chunk, sinks);
            res.replay.replaySeconds += secondsSince(t1);
            ++res.replay.chunksProduced;
            res.replay.eventsCaptured += chunk->events.size();
        }
        res.stats = mapped->coreStats();
        res.replay.cacheHit = true;
        res.replay.cacheBytes = mapped->fileBytes();
    } else {
        // Miss (or caching off): simulate, teeing the chunk stream into
        // the cache writer so the next run with this fingerprint hits.
        // Only the lock holder stores; a runner that lost the lock race
        // still computes its results, it just leaves no entry behind.
        std::unique_ptr<CompactTraceWriter> writer;
        if (cache.enabled() && storeLock.held()) {
            writer = std::make_unique<CompactTraceWriter>(entry, fp);
            // Admission control: an entry that alone exceeds the cache
            // budget would be evicted by the very next janitor pass —
            // abandon it mid-write instead of finishing it.
            writer->setByteLimit(opts.janitor.maxBytes);
        }

        // Observers attach directly to the live core, so the simulate
        // span includes their (inseparable) replay work; a cache store
        // adds one more sink that tees the chunk stream to the writer.
        Core core(cfg, workload.program, std::move(workload.initial));
        std::unique_ptr<ChunkingSink> tee;
        if (writer) {
            tee = std::make_unique<ChunkingSink>(
                opts.chunkEvents,
                [&](TraceChunkPtr c) { writer->writeChunk(*c); });
            sinks.push_back(tee.get());
        }
        for (TraceSink *sink : sinks)
            core.addSink(sink);
        const auto t0 = Clock::now();
        core.run();
        res.replay.simulateSeconds = secondsSince(t0);
        if (tee) {
            tee->finish();
            res.replay.chunksProduced = tee->chunksEmitted();
            res.replay.eventsCaptured = tee->eventsCaptured();
        }
        res.stats = core.stats();
        res.replay.simCycles = core.stats().cycles;
        res.replay.simEvents = core.perf().traceEvents;
        if (writer) {
            res.replay.cacheStored = writer->commit(core.stats());
            res.replay.cacheBytes = writer->bytesWritten();
            res.replay.cacheAdmissionDenied = writer->admissionDenied();
            res.replay.ioRetries += writer->retryStats().retries;
            res.replay.ioRecoveries += writer->retryStats().recoveries;
        }
        storeLock.release();

        // The store may have pushed the cache past its byte budget:
        // run a janitor pass (serialized on janitor.lock; skipped when
        // another process is already at it) to evict the coldest
        // entries back under it.
        if (cache.enabled() && opts.janitor.maxBytes > 0 &&
            res.replay.cacheStored) {
            const JanitorStats js =
                CacheJanitor(cache.options().dir, opts.janitor).gc();
            res.replay.cacheEvictions += js.evictedEntries;
            res.replay.cacheEvictedBytes += js.evictedBytes;
            res.replay.janitorRemovals += js.removals();
        }
    }
    res.replay.ioRetries += cacheOps.retry.retries;
    res.replay.ioRecoveries += cacheOps.retry.recoveries;
    res.replay.quarantined += cacheOps.quarantined;

    if (auditor) {
        auditor->finish();
        // A cached trace must describe exactly as many cycles as the
        // recorded CoreStats claim — this is the check that catches a
        // stale or truncated cache entry slipping past validation.
        if (auditor->cyclesAudited() != res.stats.cycles) {
            tea_fatal("TEA audit: replay delivered %llu cycle records "
                      "but core stats claim %llu cycles (%s)",
                      static_cast<unsigned long long>(
                          auditor->cyclesAudited()),
                      static_cast<unsigned long long>(res.stats.cycles),
                      res.replay.cacheHit ? "stale trace-cache entry?"
                                          : "trace capture dropped "
                                            "events");
        }
        const std::string conservation =
            auditCycleConservation(*res.golden, res.stats.cycles);
        if (!conservation.empty())
            tea_fatal("TEA audit: %s", conservation.c_str());
    }

    for (auto &s : samplers) {
        res.techniques.push_back(TechniqueResult{
            s->config(), s->pics(), s->samplesTaken(),
            s->samplesDropped()});
    }
    res.program = std::move(workload.program);
    res.replay.totalSeconds = secondsSince(start);
    return res;
}

ExperimentResult
runBenchmark(const std::string &name, std::vector<SamplerConfig> techniques,
             const RunnerOptions &opts, const CoreConfig &cfg)
{
    return runWorkload(workloads::byName(name), std::move(techniques),
                       opts, cfg);
}

std::vector<ExperimentResult>
runExperimentSuite(const std::vector<SuiteExperiment> &experiments,
                   const std::vector<SamplerConfig> &techniques,
                   const RunnerOptions &opts)
{
    std::vector<ExperimentResult> results(experiments.size());
    const unsigned workers = static_cast<unsigned>(std::max<std::size_t>(
        1,
        std::min<std::size_t>(opts.threads, experiments.size())));
    // Each experiment runs on one worker (fully independent,
    // bit-identical result) under the caller's trace-cache settings: a
    // warm cache turns the whole suite into parallel decode-and-replay
    // with no simulation at all.
    //
    // Containment: one experiment failing — an observer exception, an
    // injected fault — must not take the rest of the suite with it.
    // The failure is recorded on that experiment's result; everything
    // else completes normally.
    auto runOne = [&](std::size_t i) {
        const SuiteExperiment &exp = experiments[i];
        try {
            if (TEA_FAILPOINT(fpExperiment))
                fpExperiment.raise();
            results[i] =
                runWorkload(exp.make(), techniques, opts, exp.cfg);
            // The experiment name (not the program name): a sweep runs
            // the same kernel under several configurations and the
            // results must stay distinguishable.
            results[i].name = exp.name;
        } catch (const std::exception &e) {
            results[i].name = exp.name;
            results[i].error = e.what();
            tea_warn("suite: experiment '%s' failed (contained): %s",
                     exp.name.c_str(), e.what());
        } catch (...) {
            results[i].name = exp.name;
            results[i].error = "unknown exception";
            tea_warn("suite: experiment '%s' failed (contained): "
                     "unknown exception",
                     exp.name.c_str());
        }
    };

    if (workers <= 1) {
        for (std::size_t i = 0; i < experiments.size(); ++i)
            runOne(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            // Cannot throw: runOne catches everything internally and
            // fetch_add/size are noexcept.
            // tea_lint: allow(unguarded-worker)
            pool.emplace_back([&] {
                // The cursor only partitions experiment indices: each
                // results[i] is touched by exactly one worker, and the
                // thread join orders it before the suite reads it. So
                // both claims below are relaxed.
                for (std::size_t i =
                         next.fetch_add(1, std::memory_order_relaxed);
                     i < experiments.size();
                     i = next.fetch_add(1, std::memory_order_relaxed)) {
                    runOne(i);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    // Stamp the suite-wide degradation count on every result so any
    // single result's ReplayStats reveals that the suite it came from
    // was not fully healthy.
    unsigned degraded = 0;
    for (const ExperimentResult &r : results)
        degraded += r.failed() ? 1 : 0;
    if (degraded > 0) {
        for (ExperimentResult &r : results)
            r.replay.degradedExperiments = degraded;
    }
    return results;
}

std::vector<ExperimentResult>
runBenchmarkSuite(const std::vector<std::string> &names,
                  const std::vector<SamplerConfig> &techniques,
                  const RunnerOptions &opts, const CoreConfig &cfg)
{
    std::vector<SuiteExperiment> experiments;
    experiments.reserve(names.size());
    for (const std::string &name : names) {
        experiments.push_back(SuiteExperiment{
            name, [name] { return workloads::byName(name); }, cfg});
    }
    return runExperimentSuite(experiments, techniques, opts);
}

std::string
renderSuiteErrors(const std::vector<ExperimentResult> &results)
{
    std::string out;
    for (const ExperimentResult &r : results) {
        if (r.failed())
            out += strprintf("experiment '%s' FAILED: %s\n",
                             r.name.c_str(), r.error.c_str());
    }
    return out;
}

int
suiteExitCode(const std::vector<ExperimentResult> &results)
{
    const std::string errors = renderSuiteErrors(results);
    if (errors.empty())
        return 0;
    // Terminal output, not file I/O: no seams apply.
    // tea_lint: allow(raw-io)
    std::fputs(errors.c_str(), stderr);
    return 1;
}

} // namespace tea
