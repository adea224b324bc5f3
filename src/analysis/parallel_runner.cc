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
#include "common/sync.hh"
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
 * Decode the frames of a mapped trace-cache entry in parallel and hand
 * the chunks to @p deliver in file order.
 *
 * Workers claim frame indices through an atomic cursor and decode them
 * with private ChunkDecoders (frames are self-contained; the mapping is
 * immutable), parking finished chunks in a bounded reorder ring. The
 * calling thread drains the ring strictly in order, so observers see
 * the exact chunk sequence a serial nextChunk() loop would produce —
 * bit-identical results at any thread count. The ring holds at most
 * batch_frames chunks per worker; a worker that runs that far ahead of
 * the in-order handoff blocks until the gap closes.
 *
 * A worker-side failure (decodeFrame panics on anything the open-time
 * validation scan could miss, so this is belt-and-braces for e.g.
 * bad_alloc) is contained: the slot is published empty, every thread is
 * woken, and the first error is rethrown on the calling thread after
 * the join. If @p deliver throws (observer death, an injected queue
 * fault), the workers are unparked and joined before the exception
 * propagates — destroying a joinable thread would terminate the
 * process.
 *
 * @return wall time spent inside decodeFrame, summed across workers
 */
double
pumpFramesParallel(const MappedTraceFile &mapped, unsigned decode_threads,
                   std::size_t batch_frames,
                   const std::function<void(TraceChunkPtr)> &deliver)
{
    const std::size_t frames = mapped.frameCount();
    const unsigned workers = static_cast<unsigned>(std::max<std::size_t>(
        1, std::min<std::size_t>(decode_threads, frames)));
    const std::size_t window =
        std::max<std::size_t>(1, batch_frames) * workers;

    struct Slot
    {
        TraceChunkPtr chunk;
        bool ready = false;
    };
    // Shared pump state lives in a struct (not loose locals) so every
    // guarded field can carry its TEA_GUARDED_BY annotation and the
    // thread-safety analysis proves the reorder-ring protocol.
    struct Shared
    {
        explicit Shared(std::size_t slots) : ring(slots) {}

        Mutex mu;
        CondVar ringFreed;  // consumer advanced `base`
        CondVar slotFilled; // a worker published a slot
        std::vector<Slot> ring TEA_GUARDED_BY(mu);
        /** next frame index to hand to deliver() */
        std::size_t base TEA_GUARDED_BY(mu) = 0;
        /** deliver() threw; unpark everything */
        bool aborted TEA_GUARDED_BY(mu) = false;
        std::string firstError TEA_GUARDED_BY(mu);
    };
    Shared st(std::min(window, std::max<std::size_t>(frames, 1)));
    std::atomic<std::size_t> next{0};
    std::vector<double> decodeSeconds(workers, 0.0);

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            ChunkDecoder decoder;
            for (;;) {
                // relaxed: the cursor only partitions frame indices
                // among workers; each claimed frame is immutable mapped
                // memory, so no payload rides on this counter.
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= frames)
                    return;
                TraceChunkPtr chunk;
                try {
                    const auto t0 = Clock::now();
                    chunk = mapped.decodeFrame(i, decoder);
                    decodeSeconds[w] += secondsSince(t0);
                } catch (const std::exception &e) {
                    MutexLock g(st.mu);
                    if (st.firstError.empty())
                        st.firstError = e.what();
                } catch (...) {
                    MutexLock g(st.mu);
                    if (st.firstError.empty())
                        st.firstError =
                            "unknown exception in decode worker";
                }
                MutexLock lock(st.mu);
                while (!st.aborted && i - st.base >= st.ring.size())
                    st.ringFreed.wait(st.mu);
                if (st.aborted)
                    return;
                Slot &s = st.ring[i % st.ring.size()];
                s.chunk = std::move(chunk); // null on worker failure
                s.ready = true;
                st.slotFilled.notify_all();
            }
        });
    }

    auto joinAll = [&] {
        {
            MutexLock g(st.mu);
            st.aborted = true;
            st.ringFreed.notify_all();
        }
        for (std::thread &t : pool)
            t.join();
    };

    try {
        for (std::size_t i = 0; i < frames; ++i) {
            TraceChunkPtr chunk;
            {
                MutexLock lock(st.mu);
                Slot &s = st.ring[i % st.ring.size()];
                while (!s.ready)
                    st.slotFilled.wait(st.mu);
                chunk = std::move(s.chunk);
                s.ready = false;
                ++st.base;
                st.ringFreed.notify_all();
                if (!chunk && !st.firstError.empty())
                    break; // a decode worker died; join and rethrow
            }
            if (chunk)
                deliver(std::move(chunk));
        }
    } catch (...) {
        joinAll();
        throw;
    }
    joinAll();
    {
        // Workers are joined; the lock satisfies the static analysis,
        // which cannot see the join's happens-before edge.
        MutexLock g(st.mu);
        if (!st.firstError.empty())
            throw ExperimentFailure(strprintf(
                "parallel frame decode: %s", st.firstError.c_str()));
    }

    double total = 0.0;
    for (double s : decodeSeconds)
        total += s;
    return total;
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
    auto dthreads = static_cast<unsigned>(
        envUnsigned("TEA_DECODE_THREADS", opts.decodeThreads, 0, maxU));
    opts.decodeThreads = dthreads == 0 ? hw : dthreads;
    opts.batchFrames = static_cast<std::size_t>(
        envUnsigned("TEA_BATCH_FRAMES", opts.batchFrames, 1,
                    std::numeric_limits<std::size_t>::max()));
    return opts;
}

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

ReplayStats
replayThroughPool(const std::vector<SinkGroup> &groups,
                  const RunnerOptions &opts,
                  const std::function<void(TraceSink &)> &produce)
{
    return replayChunksThroughPool(
        groups, opts, [&](const ChunkPush &push) {
            ChunkingSink sink(opts.chunkEvents, [&](TraceChunkPtr c) {
                push(std::move(c));
            });
            produce(sink);
            sink.finish();
        });
}

ExperimentResult
runWorkload(Workload workload, std::vector<SamplerConfig> techniques,
            const RunnerOptions &opts, const CoreConfig &cfg)
{
    failpoints::checkEnvConsumed();
    TraceCache cache(opts.cache);
    if (!cache.enabled() && opts.threads <= 1 && opts.audit == 0) {
        // Serial path without caching or auditing: observers attached
        // directly to the live core, bit-for-bit the historical
        // behaviour.
        return runWorkload(std::move(workload), std::move(techniques),
                           cfg);
    }

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
            std::vector<TraceSink *> sinks;
            for (const SinkGroup &g : groups)
                sinks.insert(sinks.end(), g.sinks.begin(),
                             g.sinks.end());
            auto replayOne = [&](TraceChunkPtr chunk) {
                const auto t1 = Clock::now();
                replayChunk(*chunk, sinks);
                res.replay.replaySeconds += secondsSince(t1);
                ++res.replay.chunksProduced;
                res.replay.eventsCaptured += chunk->events.size();
            };
            if (opts.decodeThreads > 1) {
                res.replay.decodeSeconds = pumpFramesParallel(
                    *mapped, opts.decodeThreads, opts.batchFrames,
                    replayOne);
            } else {
                // Single decoder: decode one frame, replay it, reuse
                // the same chunk storage for the next frame. Keeping
                // exactly one chunk in flight is deliberate — it lets
                // nextChunk() recycle one warm output buffer, and the
                // assemble stores hitting warm cache lines outweigh
                // any decode-locality gain from grouping frames
                // (measured: batching serial decodes cost ~20%).
                for (;;) {
                    const auto t0 = Clock::now();
                    TraceChunkPtr chunk = mapped->nextChunk();
                    res.replay.decodeSeconds += secondsSince(t0);
                    if (!chunk)
                        break;
                    replayOne(std::move(chunk));
                }
            }
        } else {
            // Pure decode time is metered inside the pump — around
            // each decodeFrame/nextChunk call only — so backpressure
            // stalls against the replay pool no longer masquerade as
            // decode work, and simulateSeconds stays 0: nothing was
            // simulated on a warm hit.
            double decode_seconds = 0.0;
            res.replay = replayChunksThroughPool(
                groups, opts, [&](const ChunkPush &push) {
                    if (opts.decodeThreads > 1) {
                        decode_seconds = pumpFramesParallel(
                            *mapped, opts.decodeThreads,
                            opts.batchFrames, push);
                        return;
                    }
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
            std::vector<TraceSink *> sinks;
            for (const SinkGroup &g : groups)
                sinks.insert(sinks.end(), g.sinks.begin(), g.sinks.end());
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
