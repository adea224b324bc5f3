#include "analysis/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "analysis/audit.hh"
#include "analysis/cache_janitor.hh"
#include "analysis/trace_cache.hh"
#include "common/chunk_queue.hh"
#include "common/env.hh"
#include "common/failpoint.hh"
#include "common/file_lock.hh"
#include "common/logging.hh"
#include "core/trace_io.hh"

namespace tea {

namespace {

using Clock = std::chrono::steady_clock;

// Fault-injection seams (common/failpoint). These raise FailpointError
// — an ordinary exception — so they exercise the containment paths:
// a worker-side fault is recorded in ReplayWorkerStats::error and fails
// only that experiment; an experiment-side fault is caught per
// experiment by runBenchmarkSuite.
Failpoint fpQueuePush("runner.queue_push", EIO);
Failpoint fpQueuePop("runner.queue_pop", EIO);
Failpoint fpWorkerBody("runner.worker_body", EIO);
Failpoint fpExperiment("runner.experiment", EIO);

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * A group of TraceSinks that must observe the trace in order on one
 * thread (e.g. one technique's sampler, or the golden reference).
 * Groups are the unit of parallelism: two groups may replay on
 * different workers, sinks within a group never do.
 */
struct SinkGroup
{
    std::vector<TraceSink *> sinks;
};

/** Every sink of @p groups, in group order: the serial replay order. */
std::vector<TraceSink *>
allSinks(const std::vector<SinkGroup> &groups)
{
    std::vector<TraceSink *> sinks;
    for (const SinkGroup &g : groups)
        sinks.insert(sinks.end(), g.sinks.begin(), g.sinks.end());
    return sinks;
}

/** Callback that hands one finished chunk to the replay pool. */
using ChunkPush = std::function<void(TraceChunkPtr)>;

/**
 * Core of the replay engine: broadcasts every chunk handed to the push
 * callback to min(threads, groups) workers, each driving a round-robin
 * share of @p groups. Blocks until @p pump returns and all workers
 * drain. The chunk source is abstract so two producers share one
 * engine: a live simulation (teeing into a trace-cache writer on a
 * miss), and a memory-mapped cached trace being decoded (no
 * simulation at all).
 *
 * @param groups observer groups (each replayed in-order on one worker)
 * @param opts thread count / chunking / backpressure knobs
 * @param pump called once with the push callback; must deliver every
 *        chunk of the trace through it, in capture order
 * @return counters describing the run; simulateSeconds holds the time
 *         spent inside @p pump, replaySeconds the slowest worker
 */
ReplayStats
replayChunksThroughPool(const std::vector<SinkGroup> &groups,
                        const RunnerOptions &opts,
                        const std::function<void(const ChunkPush &)> &pump)
{
    ReplayStats stats;
    const unsigned workers = static_cast<unsigned>(std::max<std::size_t>(
        1, std::min<std::size_t>(opts.threads, groups.size())));
    stats.threads = workers;
    stats.workers.resize(workers);

    BroadcastQueue<TraceChunkPtr> queue(std::max<std::size_t>(
                                            1, opts.queueChunks),
                                        workers);

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            // Round-robin share of the observer groups; sinks of one
            // group stay together so each observer sees the trace
            // in order on a single thread.
            std::vector<TraceSink *> sinks;
            unsigned my_groups = 0;
            for (std::size_t g = w; g < groups.size();
                 g += workers) {
                sinks.insert(sinks.end(), groups[g].sinks.begin(),
                             groups[g].sinks.end());
                ++my_groups;
            }
            ReplayWorkerStats &ws = stats.workers[w];
            ws.workerId = w;
            ws.sinkGroups = my_groups;
            const auto t0 = Clock::now();
            TraceChunkPtr chunk;
            // Containment contract: an exception out of an observer (or
            // an injected fault) is recorded in ws.error, and the
            // worker *keeps draining the queue* — each consumer has its
            // own cursor in the broadcast queue, so a worker that
            // simply stopped popping would stall the producer forever
            // once backpressure engages. The experiment as a whole is
            // failed after the join (ExperimentFailure).
            while (queue.pop(w, chunk)) {
                if (ws.error.empty()) {
                    try {
                        if (TEA_FAILPOINT(fpQueuePop))
                            fpQueuePop.raise();
                        if (TEA_FAILPOINT(fpWorkerBody))
                            fpWorkerBody.raise();
                        ++ws.chunksConsumed;
                        ws.eventsReplayed += chunk->events.size();
                        ws.cyclesReplayed += replayChunk(*chunk, sinks);
                    } catch (const std::exception &e) {
                        ws.error = e.what();
                    } catch (...) {
                        ws.error = "unknown exception in replay worker";
                    }
                }
                chunk.reset();
            }
            ws.replaySeconds = secondsSince(t0);
            ws.queueEmptyWaits = queue.emptyWaits(w);
        });
    }

    const auto start = Clock::now();
    try {
        pump([&](TraceChunkPtr c) {
            if (TEA_FAILPOINT(fpQueuePush))
                fpQueuePush.raise();
            ++stats.chunksProduced;
            stats.eventsCaptured += c->events.size();
            queue.push(std::move(c));
        });
    } catch (...) {
        // The producer died mid-trace. Close the queue and join the
        // workers before the exception unwinds this frame: destroying
        // a joinable std::thread is std::terminate, which would turn a
        // containable experiment failure into process death (and leak
        // any half-written cache temporary on the way out).
        queue.close();
        for (std::thread &t : pool)
            t.join();
        throw;
    }
    stats.simulateSeconds = secondsSince(start);
    queue.close();
    for (std::thread &t : pool)
        t.join();
    stats.totalSeconds = secondsSince(start);
    stats.queueFullStalls = queue.fullWaits();
    for (const ReplayWorkerStats &ws : stats.workers) {
        stats.replaySeconds = std::max(stats.replaySeconds,
                                       ws.replaySeconds);
        if (!ws.error.empty())
            ++stats.workerFailures;
    }
    return stats;
}

} // namespace

RunnerOptions
RunnerOptions::fromEnv()
{
    RunnerOptions opts;
    constexpr unsigned maxU = std::numeric_limits<unsigned>::max();
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    // Default: one replay worker per hardware thread (results are
    // identical at any thread count, so this is purely a speed knob).
    auto threads =
        static_cast<unsigned>(envUnsigned("TEA_THREADS", hw, 0, maxU));
    opts.threads = threads == 0 ? hw : threads;
    opts.audit = static_cast<unsigned>(envUnsigned("TEA_AUDIT", 0, 0, 2));
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

    // TEA_AUDIT >= 2 re-runs multi-threaded experiments serially and
    // demands bit-identical Pics; keep a pristine copy of the workload
    // before the primary run consumes it.
    const bool crossCheck = opts.audit >= 2 && opts.threads > 1;
    std::unique_ptr<Workload> pristine;
    if (crossCheck)
        pristine = std::make_unique<Workload>(workload);

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

    // One observer group per technique plus the golden reference: the
    // unit of replay parallelism. The auditor, when enabled, rides
    // along as one more group — it sees the identical event stream the
    // profilers see, on whichever worker it lands on.
    std::unique_ptr<InvariantAuditor> auditor;
    if (opts.audit > 0)
        auditor = std::make_unique<InvariantAuditor>(
            InvariantAuditor::Mode::FailFast);

    std::vector<SinkGroup> groups;
    groups.reserve(samplers.size() + 2);
    groups.push_back(SinkGroup{{res.golden.get()}});
    for (auto &s : samplers)
        groups.push_back(SinkGroup{{s.get()}});
    if (auditor)
        groups.push_back(SinkGroup{{auditor.get()}});

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
        if (opts.threads <= 1) {
            // Decode one frame, replay it, reuse the same chunk storage
            // for the next frame. Keeping exactly one chunk in flight
            // is deliberate — it lets nextChunk() recycle one warm
            // output buffer, and the assemble stores hitting warm cache
            // lines outweigh any decode-locality gain from grouping
            // frames (measured: batching serial decodes cost ~20%).
            const std::vector<TraceSink *> sinks = allSinks(groups);
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
        } else {
            // Pure decode time is metered inside the pump — around
            // each nextChunk call only — so backpressure stalls against
            // the replay pool do not masquerade as decode work, and
            // simulateSeconds stays 0: nothing was simulated on a warm
            // hit.
            double decode_seconds = 0.0;
            res.replay = replayChunksThroughPool(
                groups, opts, [&](const ChunkPush &push) {
                    for (;;) {
                        const auto t0 = Clock::now();
                        TraceChunkPtr c = mapped->nextChunk();
                        decode_seconds += secondsSince(t0);
                        if (!c)
                            break;
                        push(std::move(c));
                    }
                });
            res.replay.decodeSeconds = decode_seconds;
            res.replay.simulateSeconds = 0.0;
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

        Core core(cfg, workload.program, std::move(workload.initial));
        if (opts.threads <= 1) {
            // Observers attach directly to the live core, so the
            // simulate span includes their (inseparable) replay work; a
            // cache store adds one more sink that tees the chunk stream
            // to the writer.
            std::vector<TraceSink *> sinks = allSinks(groups);
            std::unique_ptr<ChunkingSink> tee;
            if (writer) {
                tee = std::make_unique<ChunkingSink>(
                    opts.chunkEvents, [&](TraceChunkPtr c) {
                        writer->writeChunk(*c);
                    });
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
        } else {
            res.replay = replayChunksThroughPool(
                groups, opts, [&](const ChunkPush &push) {
                    ChunkingSink sink(opts.chunkEvents,
                                      [&](TraceChunkPtr c) {
                                          if (writer)
                                              writer->writeChunk(*c);
                                          push(std::move(c));
                                      });
                    core.addSink(&sink);
                    core.run();
                    sink.finish();
                });
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

    if (res.replay.workerFailures > 0) {
        std::string first;
        for (const ReplayWorkerStats &ws : res.replay.workers) {
            if (!ws.error.empty()) {
                first = strprintf("worker %u: %s", ws.workerId,
                                  ws.error.c_str());
                break;
            }
        }
        throw ExperimentFailure(strprintf(
            "experiment '%s': %u replay worker(s) failed (%s)",
            res.name.c_str(), res.replay.workerFailures, first.c_str()));
    }

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

    if (crossCheck) {
        // Determinism contract (DESIGN.md, "Out-of-band replay at
        // scale"): the same workload replayed serially must yield
        // bit-identical Pics for the golden reference and every
        // technique. The serial re-run keeps the audit level at 1 (so
        // its own trace is still invariant-checked) and bypasses the
        // cache so it exercises a fresh simulation.
        RunnerOptions serial = opts;
        serial.threads = 1;
        serial.audit = 1;
        serial.cache.enabled = false;
        ExperimentResult ref = runWorkload(std::move(*pristine),
                                           techniques, serial, cfg);
        std::string diff = auditPicsIdentical(res.golden->pics(),
                                              ref.golden->pics());
        if (!diff.empty())
            tea_fatal("TEA audit: golden PICS diverges between %u "
                      "threads and serial replay: %s",
                      opts.threads, diff.c_str());
        tea_assert(res.techniques.size() == ref.techniques.size(),
                   "audit re-run produced %zu techniques, expected %zu",
                   ref.techniques.size(), res.techniques.size());
        for (std::size_t i = 0; i < res.techniques.size(); ++i) {
            diff = auditPicsIdentical(res.techniques[i].pics,
                                      ref.techniques[i].pics);
            if (!diff.empty())
                tea_fatal("TEA audit: technique '%s' PICS diverges "
                          "between %u threads and serial replay: %s",
                          res.techniques[i].config.name.c_str(),
                          opts.threads, diff.c_str());
        }
    }
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
    // Each experiment runs the serial in-process path (fully
    // independent, bit-identical result) but keeps the caller's
    // trace-cache settings: a warm cache turns the whole suite into
    // parallel decode-and-replay with no simulation at all.
    RunnerOptions inner = opts;
    inner.threads = 1;

    // Containment: one experiment failing — an observer exception, a
    // contained replay-worker death (ExperimentFailure), an injected
    // fault — must not take the rest of the suite with it. The failure
    // is recorded on that experiment's result; everything else
    // completes normally.
    auto runOne = [&](std::size_t i) {
        const SuiteExperiment &exp = experiments[i];
        try {
            if (TEA_FAILPOINT(fpExperiment))
                fpExperiment.raise();
            results[i] =
                runWorkload(exp.make(), techniques, inner, exp.cfg);
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
            // relaxed: the cursor only partitions experiment indices;
            // results[i] is touched by exactly one worker and the
            // thread join orders it before the suite reads it.
            // tea_lint: allow(unguarded-worker)
            pool.emplace_back([&] {
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
    // tea_check: allow(raw-io)
    std::fputs(errors.c_str(), stderr);
    return 1;
}

} // namespace tea
