/**
 * @file
 * Cycle-driven out-of-order core timing model (BOOM-class, Table 2).
 *
 * Organization: instructions are executed functionally at fetch along the
 * correct path (oracle execution) and their outcomes (branch directions,
 * effective addresses) are replayed through the timing pipeline:
 *
 *   fetch -> fetch buffer -> dispatch/rename -> issue queues -> execute
 *         -> commit (4-wide, in-order) -> post-commit store drain
 *
 * The model implements everything TEA needs to observe: the four commit
 * states, PSV tracking for all in-flight micro-ops (2-bit front-end PSV,
 * 9-bit ROB PSV, ST-TLB in the LSU), mispredict/flush barriers,
 * memory-ordering violation squashes, DR-SQ store-queue backpressure,
 * and the full cache/TLB hierarchy. TEA's last-committed PSV register
 * is not modelled here: it only repeats the latest commit, so the
 * observers that read it (profilers/golden, profilers/sampler) keep it
 * from their retire callbacks.
 *
 * Wrong-path fetch is modelled as fetch bubbles rather than dead
 * micro-ops (see DESIGN.md): on a mispredicted branch or an
 * always-flushing CSR op, fetch stalls until resolve/commit plus the
 * redirect penalty, which produces the same Flushed-state phenomenology
 * at commit without simulating wrong-path register state.
 *
 * Two execution modes share the stage implementations (DESIGN.md,
 * "Simulator fast path"):
 *  - the reference loop (step(), or setFastPath(false)) ticks every cycle;
 *  - the fast path (run() by default) executes stages only on cycles a
 *    conservative wake calendar proves can have activity, and covers
 *    the skipped cycles, whose commit records are all the same idle
 *    record, by extending one idle span in O(1).
 * Both loops fold every maximal run of two or more identical idle
 * cycle records into one span event (TraceSink::onSpan), so the
 * observable trace stays bit-identical between them. The trace is one
 * record per cycle (or span), then the end marker (onEnd, one cycle
 * past the last record): fetch and dispatch emit nothing, and each
 * record carries the next seqs they will pass
 * (CycleRecord::nextFetchSeq, nextDispatchSeq). Commits retire in seq
 * order with no gap, so the trace codec (core/trace_codec.hh) derives
 * the commit seqs instead of storing them, and the ROB holds exactly
 * the seqs from the next to commit up to nextDispatchSeq.
 */

#ifndef TEA_CORE_CORE_HH
#define TEA_CORE_CORE_HH

#include <array>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/bounded_ring.hh"
#include "common/types.hh"
#include "core/branch_predictor.hh"
#include "core/config.hh"
#include "core/memory_system.hh"
#include "core/trace.hh"
#include "core/trace_buffer.hh"
#include "events/event.hh"
#include "isa/executor.hh"
#include "isa/program.hh"

namespace tea {

/** Aggregate statistics of one simulation. */
struct CoreStats
{
    Cycle cycles = 0;
    std::uint64_t committedUops = 0;
    std::array<std::uint64_t, 4> stateCycles{}; ///< per CommitState
    std::array<std::uint64_t, numEvents> eventCounts{}; ///< at retire
    std::uint64_t uopsWithEvents = 0;    ///< retired with >= 1 event
    std::uint64_t uopsWithCombined = 0;  ///< retired with >= 2 events
    std::uint64_t branchMispredicts = 0;
    std::uint64_t pipelineFlushes = 0;   ///< mispredicts + CSR flushes
    std::uint64_t moViolations = 0;
    std::uint64_t drSqStallCycles = 0;
    std::uint64_t samplingInterrupts = 0;

    /** Committed instructions per cycle. */
    double ipc() const
    {
        return cycles ? static_cast<double>(committedUops) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Render all counters as a gem5-style stats listing. */
    std::string render() const;
};

/**
 * Host-side performance counters of one simulation. Deliberately not
 * part of CoreStats: CoreStats is serialized into trace-cache entries
 * and must describe the simulated machine only, while these describe
 * how the simulator got there (and legitimately differ between the
 * fast path and the reference loop).
 */
struct SimPerf
{
    std::uint64_t activeCycles = 0;  ///< cycles the stages executed
    std::uint64_t skippedCycles = 0; ///< idle cycles skipped over
    std::uint64_t traceEvents = 0;   ///< cycle and span events delivered

    /** Fraction of simulated cycles skipped by the next-event clock. */
    double skipRatio() const
    {
        std::uint64_t total = activeCycles + skippedCycles;
        return total ? static_cast<double>(skippedCycles) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/** The out-of-order core. */
class Core
{
  public:
    /**
     * @param cfg core configuration (must outlive the core)
     * @param prog program to execute (must outlive the core)
     * @param initial initial architectural state (registers and memory)
     */
    Core(const CoreConfig &cfg, const Program &prog, ArchState initial);

    /**
     * Multi-core variant: the memory system below the L1s is the shared
     * @p uncore (must outlive the core).
     */
    Core(const CoreConfig &cfg, const Program &prog, ArchState initial,
         Uncore &uncore);

    /** Register a trace observer (not owned). */
    void addSink(TraceSink *sink);

    /**
     * Simulate one cycle and flush its trace events to the sinks.
     * An idle cycle record that may still grow into a span is held
     * back: it reaches the sinks when the run of identical idle
     * records ends, that is when the next different record is emitted,
     * or at the end marker. So after a step() the sinks may lag the
     * core by the open run's cycles.
     * @return false once the program has halted
     */
    bool step();

    /**
     * Run until the program halts or @p max_cycles elapse.
     * @return total simulated cycles
     */
    Cycle run(Cycle max_cycles = 2'000'000'000ULL);

    /**
     * Select the execution mode used by run(): the event-driven fast
     * path (default) or the per-cycle reference loop, the oracle of
     * the differential tests. Not part of CoreConfig on purpose — the
     * mode must not perturb trace-cache fingerprints, because both
     * modes produce bit-identical traces.
     */
    void setFastPath(bool on) { fastPath_ = on; }
    bool fastPath() const { return fastPath_; }

    const CoreStats &stats() const { return stats_; }
    const SimPerf &perf() const { return perf_; }
    const MemorySystem &memory() const { return mem_; }
    const BranchPredictor &predictor() const { return *bp_; }
    const ArchState &archState() const { return arch_; }
    Cycle cycle() const { return cycle_; }
    bool halted() const { return halted_; }

  private:
    /** A dynamic micro-op (fetch buffer and ROB representation). */
    struct DynUop
    {
        SeqNum seq = invalidSeqNum;
        InstIndex pc = invalidInstIndex;
        const StaticInst *si = nullptr;
        Psv psv;

        // Oracle outcomes recorded at fetch.
        Addr memAddr = 0;
        bool taken = false;
        bool mispredicted = false;

        // Timing state.
        Cycle fbReady = 0;    ///< earliest dispatch (decode latency)
        Cycle readyCycle = 0; ///< operands available
        unsigned pendingDeps = 0;
        bool issued = false;
        Cycle completeCycle = invalidCycle;
        std::array<SeqNum, 2> depSeqs{invalidSeqNum, invalidSeqNum};
        std::vector<SeqNum> waiters;
        bool inRob = false;

        bool complete(Cycle now) const
        {
            return issued && completeCycle <= now;
        }
    };

    /** Store-queue entry; lives from dispatch until drained to the L1D. */
    struct SqEntry
    {
        SeqNum seq = invalidSeqNum;
        InstIndex pc = invalidInstIndex;
        Addr addr = 0;
        bool executed = false;
        Cycle execCycle = invalidCycle;
        bool committed = false;
        bool draining = false;
        Cycle drainDone = invalidCycle;
    };

    /** Load-queue entry; lives from dispatch until commit. */
    struct LqEntry
    {
        SeqNum seq = invalidSeqNum;
        InstIndex pc = invalidInstIndex;
        Addr addr = 0;
        bool issued = false;
        Cycle issueCycle = invalidCycle;
        bool forwarded = false;
    };

    /** Issue-queue identifiers. */
    enum IqKind { IqInt = 0, IqMem = 1, IqFp = 2, NumIqs = 3 };

    // Pipeline stages (called in this order each cycle).
    void commitStage();
    void drainStores();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    /**
     * Store-set aging: clear the tables whenever the committed-uop
     * count crosses a multiple of cfg.storeSetClearInterval.
     */
    void ageStoreSets();

    // Cycle drivers shared by step() and the fast path.
    void init();
    void runStages();
    void endOfCycle();
    Cycle runFast(Cycle max_cycles);
    void skipIdleCycles(Cycle until);
    bool drSqBlockedNow() const;

    // Wake calendar (see DESIGN.md, "Simulator fast path").
    void scheduleWake(Cycle at);
    Cycle nextWakeAtLeast(Cycle at);

    // Batched trace emission.
    TraceEvent &bufferEvent(TraceEventKind kind);
    void flushTrace();
    void emitEnd();
    CycleRecord cycleRecord() const;
    void extendRun(const CycleRecord &rec, Cycle until);
    void closeRun();

    // Helpers.
    DynUop *uopFor(SeqNum seq);
    IqKind iqOf(InstClass cls) const;
    unsigned execLatency(InstClass cls) const;
    bool tryIssueMem(DynUop &u);
    void scheduleCompletion(DynUop &u, Cycle complete_at);
    void onBarrierResolved(const DynUop &u, Cycle event_cycle);
    void moSquash(SeqNum load_seq);
    void rebuildIqs();
    void retireUop(DynUop &u);
    void emitCycleRecord();

    const CoreConfig &cfg_;
    const Program &prog_;
    ArchState arch_;
    MemorySystem mem_;
    std::unique_ptr<BranchPredictor> bp_;
    std::vector<TraceSink *> sinks_;
    CoreStats stats_;
    SimPerf perf_;
    bool fastPath_ = true;

    Cycle cycle_ = 0;
    SeqNum nextSeq_ = 0;
    bool halted_ = false;
    bool fetchDone_ = false; ///< halt fetched; no more fetching

    // Front end.
    InstIndex fetchPc_;
    Cycle fetchResume_ = 0;      ///< earliest next fetch
    bool pendingDrL1_ = false;   ///< DR bits for the next packet head
    bool pendingDrTlb_ = false;
    SeqNum barrierSeq_ = invalidSeqNum; ///< fetch-blocking micro-op
    bool barrierUntilCommit_ = false;   ///< CSR/halt barriers
    BoundedRing<DynUop> fetchBuffer_;

    // Rename: last in-flight writer of each architectural register.
    std::array<SeqNum, numArchRegs> lastWriter_;

    // ROB as a ring of bit_ceil(robEntries) slots keyed by seq & robMask_.
    // Dispatch admits at most robEntries micro-ops, so the in-flight
    // seqs are at most robEntries consecutive numbers and never share a
    // slot; the mask replaces a 64-bit division per lookup.
    std::vector<DynUop> rob_;
    SeqNum robMask_;
    SeqNum robHead_ = 0;  ///< seq of the oldest in-flight micro-op
    unsigned robCount_ = 0;

    // Flat issue queues: program-ordered seq vectors, pre-reserved for
    // the worst case (every ROB entry of one class re-enqueued by a
    // squash), scanned and erased in order like the reference deques.
    std::array<std::vector<SeqNum>, NumIqs> iqs_;
    BoundedRing<SqEntry> sq_;
    BoundedRing<LqEntry> lq_;

    // Unpipelined functional units.
    Cycle divFree_ = 0;
    Cycle fpDivFree_ = 0;
    Cycle fpSqrtFree_ = 0;

    // Memory-dependence (store-set-style) predictor: load pcs that have
    // violated before are issued conservatively.
    std::unordered_set<InstIndex> storeSets_;
    std::uint64_t nextSsClear_ = 0; ///< next committed-uop clear boundary

    // Oldest load to squash this cycle (deferred so squash never mutates
    // an issue queue mid-scan).
    SeqNum pendingSquash_ = invalidSeqNum;

    // Commit-state bookkeeping.
    bool flushShadow_ = false; ///< ROB empty because of a flush

    // Per-cycle commit info for trace emission.
    std::uint8_t numCommitted_ = 0;
    std::array<CommittedUop, 8> committedThisCycle_{};

    // Wake calendar: min-heap of cycles at which pipeline activity may
    // occur. Conservative by construction — spurious wakes only cost an
    // idle stage pass; every real state change is scheduled (the
    // invariant the fastpath property tests enforce).
    std::vector<Cycle> wake_;

    // Sticky "wake at cycle_+1" flag: the dominant re-schedule, kept
    // out of the heap so busy-cycle chains cost no heap traffic.
    bool wakeNext_ = false;

    // Per-queue conservative lower bound on the earliest cycle any of
    // its entries could issue; lets issueStage() skip whole queues of
    // waiting entries. 0 means "must scan" (always safe).
    std::array<Cycle, NumIqs> iqMinReady_{};

    /** Lower a queue's scan bound when an entry becomes eligible. */
    void iqWake(IqKind k, Cycle at)
    {
        if (at < iqMinReady_[k])
            iqMinReady_[k] = at;
    }

    // Chunk-local trace staging buffer, flushed to sinks via onBatch.
    std::vector<TraceEvent> traceBuf_;

    // The open run of identical idle cycle records: its first record
    // and length (0 = none open). Kept out of traceBuf_ so it can grow
    // across flushTrace() calls; closeRun() appends it as one Cycle
    // event (length 1) or one Span.
    CycleRecord run_;
    std::uint32_t runCycles_ = 0;
};

} // namespace tea

#endif // TEA_CORE_CORE_HH
