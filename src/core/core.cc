#include "core/core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "isa/memory.hh"

namespace tea {

namespace {

/** Core-side trace staging capacity (events buffered between flushes). */
constexpr std::size_t traceBatchEvents = 4096;

} // namespace

std::string
CoreStats::render() const
{
    std::string out;
    auto line = [&](const char *name, double value, const char *desc) {
        out += strprintf("%-28s %16.2f  # %s\n", name, value, desc);
    };
    line("sim.cycles", static_cast<double>(cycles), "simulated cycles");
    line("sim.committedUops", static_cast<double>(committedUops),
         "committed micro-ops");
    line("sim.ipc", ipc(), "committed uops per cycle");
    static const char *state_names[4] = {
        "commit.computeCycles", "commit.stalledCycles",
        "commit.drainedCycles", "commit.flushedCycles"};
    static const char *state_descs[4] = {
        "cycles committing", "cycles stalled on the ROB head",
        "cycles with the ROB drained", "cycles in a flush shadow"};
    for (unsigned i = 0; i < 4; ++i)
        line(state_names[i], static_cast<double>(stateCycles[i]),
             state_descs[i]);
    for (unsigned e = 0; e < numEvents; ++e) {
        out += strprintf("%-28s %16.2f  # dynamic %s occurrences\n",
                         (std::string("events.") +
                          eventName(static_cast<Event>(e)))
                             .c_str(),
                         static_cast<double>(eventCounts[e]),
                         eventDescription(static_cast<Event>(e)));
    }
    line("events.uopsWithEvents", static_cast<double>(uopsWithEvents),
         "uops retiring with >= 1 event");
    line("events.uopsWithCombined",
         static_cast<double>(uopsWithCombined),
         "uops retiring with >= 2 events");
    line("frontend.branchMispredicts",
         static_cast<double>(branchMispredicts), "mispredicted branches");
    line("frontend.pipelineFlushes",
         static_cast<double>(pipelineFlushes),
         "mispredict + CSR flushes");
    line("lsu.moViolations", static_cast<double>(moViolations),
         "memory-ordering violations");
    line("lsu.drSqStallCycles", static_cast<double>(drSqStallCycles),
         "dispatch cycles blocked on a full SQ");
    line("pmu.samplingInterrupts",
         static_cast<double>(samplingInterrupts),
         "injected sampling interrupts");
    return out;
}

Core::Core(const CoreConfig &cfg, const Program &prog, ArchState initial)
    : cfg_(cfg),
      prog_(prog),
      arch_(std::move(initial)),
      mem_(cfg),
      bp_(makePredictor(cfg)),
      fetchPc_(prog.entry()),
      rob_(std::bit_ceil(cfg.robEntries)),
      robMask_(rob_.size() - 1)
{
    init();
}

Core::Core(const CoreConfig &cfg, const Program &prog, ArchState initial,
           Uncore &uncore)
    : cfg_(cfg),
      prog_(prog),
      arch_(std::move(initial)),
      mem_(cfg, uncore),
      bp_(makePredictor(cfg)),
      fetchPc_(prog.entry()),
      rob_(std::bit_ceil(cfg.robEntries)),
      robMask_(rob_.size() - 1)
{
    init();
}

void
Core::init()
{
    tea_assert(cfg_.commitWidth <= committedThisCycle_.size(),
               "commit width %u too large", cfg_.commitWidth);
    lastWriter_.fill(invalidSeqNum);
    nextSsClear_ = cfg_.storeSetClearInterval == 0
                       ? ~std::uint64_t(0)
                       : cfg_.storeSetClearInterval;

    // Every container touched per cycle is sized once, here: the hot
    // stages (annotated `tea_lint: hot`) must never allocate.
    fetchBuffer_.reserve(cfg_.fetchBufferEntries);
    sq_.reserve(cfg_.sqEntries);
    lq_.reserve(cfg_.lqEntries);
    // Worst case per class: a squash re-enqueues every unissued ROB
    // entry, which can exceed the dispatch-time IQ capacity.
    for (unsigned k = 0; k < NumIqs; ++k)
        iqs_[k].reserve(cfg_.robEntries);
    for (DynUop &u : rob_)
        u.waiters.reserve(8);
    iqMinReady_.fill(0);
    wake_.reserve(256);
    traceBuf_.reserve(traceBatchEvents);
}

void
Core::addSink(TraceSink *sink)
{
    sinks_.push_back(sink);
}

// tea_lint: hot
void
Core::scheduleWake(Cycle at)
{
    if (at == invalidCycle || at <= cycle_)
        return;
    // Next-cycle wakes dominate (every active stage re-arms cycle+1,
    // and single-cycle completions land there too); a sticky flag keeps
    // them out of the heap entirely, so chains of busy cycles cost no
    // heap traffic at all.
    if (at == cycle_ + 1) {
        wakeNext_ = true;
        return;
    }
    if (!wake_.empty() && wake_.front() == at)
        return;
    wake_.push_back(at);
    std::push_heap(wake_.begin(), wake_.end(), std::greater<Cycle>());
}

// tea_lint: hot
Cycle
Core::nextWakeAtLeast(Cycle at)
{
    while (!wake_.empty() && wake_.front() < at) {
        std::pop_heap(wake_.begin(), wake_.end(), std::greater<Cycle>());
        wake_.pop_back();
    }
    return wake_.empty() ? invalidCycle : wake_.front();
}

// tea_lint: hot
TraceEvent &
Core::bufferEvent(TraceEventKind kind)
{
    if (traceBuf_.size() == traceBatchEvents)
        flushTrace();
    traceBuf_.emplace_back();
    TraceEvent &ev = traceBuf_.back();
    ev.kind = kind;
    return ev;
}

// tea_lint: hot
void
Core::closeRun()
{
    if (runCycles_ == 1) {
        bufferEvent(TraceEventKind::Cycle).rec = run_;
    } else {
        TraceEvent &ev = bufferEvent(TraceEventKind::Span);
        ev.spanCycles = runCycles_;
        ev.rec = run_;
    }
    runCycles_ = 0;
}

/**
 * Add the idle cycles [rec.cycle, @p until), whose records all equal
 * @p rec but for the stamp, to the open run. A record that differs in
 * anything an idle record carries (state, the front-end seqs) closes
 * the run and opens a new one; so does reaching maxSpanCycles. Both
 * loops emit idle cycles through here, one at a time or a skipped
 * stretch at once, and the split points depend only on the records, so
 * both produce the same spans.
 */
// tea_lint: hot
void
Core::extendRun(const CycleRecord &rec, Cycle until)
{
    if (runCycles_ != 0 &&
        (run_.state != rec.state || run_.nextFetchSeq != rec.nextFetchSeq ||
         run_.nextDispatchSeq != rec.nextDispatchSeq))
        closeRun();
    for (Cycle at = rec.cycle; at < until;) {
        if (runCycles_ == maxSpanCycles)
            closeRun();
        if (runCycles_ == 0) {
            run_ = rec;
            run_.cycle = at;
        }
        const Cycle take =
            std::min<Cycle>(until - at, maxSpanCycles - runCycles_);
        runCycles_ += static_cast<std::uint32_t>(take);
        at += take;
    }
}

// tea_lint: hot
void
Core::flushTrace()
{
    if (traceBuf_.empty())
        return;
    perf_.traceEvents += traceBuf_.size();
    for (TraceSink *s : sinks_)
        s->onBatch(traceBuf_.data(), traceBuf_.size());
    traceBuf_.clear();
}

void
Core::emitEnd()
{
    if (runCycles_ != 0)
        closeRun();
    flushTrace();
    for (TraceSink *s : sinks_)
        s->onEnd(cycle_);
}

Core::DynUop *
Core::uopFor(SeqNum seq)
{
    if (seq == invalidSeqNum)
        return nullptr;
    DynUop &u = rob_[seq & robMask_];
    return (u.inRob && u.seq == seq) ? &u : nullptr;
}

Core::IqKind
Core::iqOf(InstClass cls) const
{
    switch (cls) {
      case InstClass::IntAlu:
      case InstClass::IntMul:
      case InstClass::IntDiv:
      case InstClass::Branch:
      case InstClass::Csr:
        return IqInt;
      case InstClass::Load:
      case InstClass::Store:
      case InstClass::Prefetch:
        return IqMem;
      case InstClass::FpAlu:
      case InstClass::FpDiv:
      case InstClass::FpSqrt:
        return IqFp;
      case InstClass::Nop:
        break;
    }
    tea_panic("no issue queue for class %d", static_cast<int>(cls));
}

unsigned
Core::execLatency(InstClass cls) const
{
    switch (cls) {
      case InstClass::IntAlu:
      case InstClass::Branch:
      case InstClass::Csr:
        return 1;
      case InstClass::IntMul:
        return cfg_.intMulLatency;
      case InstClass::IntDiv:
        return cfg_.intDivLatency;
      case InstClass::FpAlu:
        return cfg_.fpAluLatency;
      case InstClass::FpDiv:
        return cfg_.fpDivLatency;
      case InstClass::FpSqrt:
        return cfg_.fpSqrtLatency;
      case InstClass::Load:
      case InstClass::Store:
      case InstClass::Prefetch:
      case InstClass::Nop:
        break;
    }
    tea_panic("no fixed latency for class %d", static_cast<int>(cls));
}

// tea_lint: hot
void
Core::scheduleCompletion(DynUop &u, Cycle complete_at)
{
    u.issued = true;
    u.completeCycle = complete_at;
    scheduleWake(complete_at);
    for (SeqNum w : u.waiters) {
        if (DynUop *c = uopFor(w)) {
            tea_assert(c->pendingDeps > 0, "wakeup underflow at seq %lu",
                       static_cast<unsigned long>(w));
            --c->pendingDeps;
            c->readyCycle = std::max(c->readyCycle, complete_at);
            // Last dependency satisfied: this entry's queue must be
            // scanned again no later than its ready cycle.
            if (c->pendingDeps == 0 && c->si->cls() != InstClass::Nop)
                iqWake(iqOf(c->si->cls()), c->readyCycle);
        }
    }
    u.waiters.clear();
    onBarrierResolved(u, complete_at);
}

void
Core::onBarrierResolved(const DynUop &u, Cycle event_cycle)
{
    // Mispredicted branches release the fetch barrier at resolution;
    // CSR flushes release it at commit (handled in commitStage).
    if (u.seq == barrierSeq_ && !barrierUntilCommit_) {
        fetchResume_ =
            std::max(fetchResume_, event_cycle + cfg_.redirectPenalty);
        scheduleWake(fetchResume_);
        barrierSeq_ = invalidSeqNum;
    }
}

// tea_lint: hot
void
Core::retireUop(DynUop &u)
{
    ++stats_.committedUops;
    unsigned events = u.psv.popcount();
    if (events >= 1)
        ++stats_.uopsWithEvents;
    if (events >= 2)
        ++stats_.uopsWithCombined;
    for (unsigned i = 0; i < numEvents; ++i) {
        if (u.psv.test(static_cast<Event>(i)))
            ++stats_.eventCounts[i];
    }

    if (u.si->isLoad()) {
        tea_assert(!lq_.empty() && lq_.front().seq == u.seq,
                   "load queue out of order at seq %lu",
                   static_cast<unsigned long>(u.seq));
        lq_.pop_front();
    }
}

// tea_lint: hot
void
Core::commitStage()
{
    numCommitted_ = 0;
    while (numCommitted_ < cfg_.commitWidth && robCount_ > 0) {
        DynUop &h = rob_[robHead_ & robMask_];
        tea_assert(h.inRob && h.seq == robHead_, "ROB head corrupt");
        if (!h.complete(cycle_))
            break;

        if (h.si->isStore()) {
            for (std::size_t i = 0; i < sq_.size(); ++i) {
                SqEntry &e = sq_[i];
                if (e.seq == h.seq) {
                    tea_assert(e.executed, "committing unexecuted store");
                    e.committed = true;
                    break;
                }
            }
        }

        bool flusher = h.si->isAlwaysFlush() || h.mispredicted;
        if (h.si->isAlwaysFlush()) {
            fetchResume_ =
                std::max(fetchResume_, cycle_ + cfg_.redirectPenalty);
            scheduleWake(fetchResume_);
            if (barrierSeq_ == h.seq)
                barrierSeq_ = invalidSeqNum;
        }
        if (h.si->op == Op::Halt)
            halted_ = true;

        committedThisCycle_[numCommitted_] = CommittedUop{h.seq, h.pc,
                                                          h.psv};
        ++numCommitted_;

        retireUop(h);
        h.inRob = false;
        --robCount_;
        robHead_ = h.seq + 1;

        if (flusher) {
            if (robCount_ == 0)
                flushShadow_ = true;
            // Commit stops at a flushing instruction.
            break;
        }
    }
    if (numCommitted_ > 0)
        scheduleWake(cycle_ + 1); // more heads / freed slots next cycle
    emitCycleRecord();
}

/** The commit record of the current cycle (its state classified). */
// tea_lint: hot
CycleRecord
Core::cycleRecord() const
{
    CycleRecord rec;
    rec.cycle = cycle_;
    rec.numCommitted = numCommitted_;
    rec.committed = committedThisCycle_;
    rec.nextFetchSeq = nextSeq_;
    rec.nextDispatchSeq =
        fetchBuffer_.empty() ? nextSeq_ : fetchBuffer_.front().seq;

    if (numCommitted_ > 0) {
        rec.state = CommitState::Compute;
    } else if (robCount_ > 0) {
        rec.state = CommitState::Stalled;
    } else {
        rec.state =
            flushShadow_ ? CommitState::Flushed : CommitState::Drained;
    }
    return rec;
}

// tea_lint: hot
void
Core::emitCycleRecord()
{
    const CycleRecord rec = cycleRecord();
    ++stats_.stateCycles[static_cast<unsigned>(rec.state)];
    if (sinks_.empty())
        return;
    if (rec.state == CommitState::Compute) {
        if (runCycles_ != 0)
            closeRun(); // a record with commits ends the idle run
        bufferEvent(TraceEventKind::Cycle).rec = rec;
    } else {
        extendRun(rec, cycle_ + 1);
    }
}

// tea_lint: hot
void
Core::drainStores()
{
    while (!sq_.empty() && sq_.front().draining &&
           sq_.front().drainDone <= cycle_) {
        sq_.pop_front();
    }
    // Start at most one new drain per cycle, in program order; fills
    // overlap through the MSHRs.
    for (std::size_t i = 0; i < sq_.size(); ++i) {
        SqEntry &e = sq_[i];
        if (!e.committed)
            break;
        if (!e.draining) {
            MemAccessResult r = mem_.storeDrain(e.addr, cycle_);
            e.draining = true;
            e.drainDone = std::max(r.done, cycle_ + 1);
            scheduleWake(e.drainDone); // SQ slot frees; dispatch unblocks
            scheduleWake(cycle_ + 1);  // next committed store may start
            break;
        }
    }
}

// tea_lint: hot
bool
Core::tryIssueMem(DynUop &u)
{
    const Addr word = u.memAddr & ~Addr(7);

    if (u.si->isLoad()) {
        bool conservative = storeSets_.count(u.pc) > 0;
        const SqEntry *fwd = nullptr;
        for (std::size_t i = 0; i < sq_.size(); ++i) {
            const SqEntry &e = sq_[i];
            if (e.seq >= u.seq)
                break;
            if (!e.executed && conservative)
                return false; // wait for older store addresses
            if (e.executed && (e.addr & ~Addr(7)) == word)
                fwd = &e; // youngest older matching store wins
        }

        LqEntry *lqe = nullptr;
        for (std::size_t i = 0; i < lq_.size(); ++i) {
            if (lq_[i].seq == u.seq) {
                lqe = &lq_[i];
                break;
            }
        }
        tea_assert(lqe, "load seq %lu missing from LQ",
                   static_cast<unsigned long>(u.seq));

        Cycle done;
        if (fwd) {
            done = cycle_ + cfg_.forwardLatency;
            lqe->forwarded = true;
        } else {
            TlbResult t = mem_.dataTranslate(u.memAddr);
            if (t.l1Miss)
                u.psv.set(Event::StTlb);
            MemAccessResult r = mem_.load(u.memAddr,
                                          cycle_ + t.extraLatency);
            if (r.l1Miss)
                u.psv.set(Event::StL1);
            if (r.llcMiss)
                u.psv.set(Event::StLlc);
            done = r.done;
        }
        lqe->issued = true;
        lqe->issueCycle = cycle_;
        scheduleCompletion(u, done);
        return true;
    }

    if (u.si->isStore()) {
        TlbResult t = mem_.dataTranslate(u.memAddr);
        if (t.l1Miss)
            u.psv.set(Event::StTlb);
        for (std::size_t i = 0; i < sq_.size(); ++i) {
            SqEntry &e = sq_[i];
            if (e.seq == u.seq) {
                e.executed = true;
                e.execCycle = cycle_;
                break;
            }
        }
        scheduleCompletion(u, cycle_ + 1 + t.extraLatency);

        // Memory-ordering violation: an already-issued younger load to
        // the same word that did not get this store's data.
        for (std::size_t i = 0; i < lq_.size(); ++i) {
            const LqEntry &e = lq_[i];
            if (e.seq <= u.seq || !e.issued || e.issueCycle > cycle_)
                continue;
            if ((e.addr & ~Addr(7)) != word)
                continue;
            if (pendingSquash_ == invalidSeqNum || e.seq < pendingSquash_)
                pendingSquash_ = e.seq;
            break; // oldest such load (LQ is in program order)
        }
        return true;
    }

    // Software prefetch: fire-and-forget.
    TlbResult t = mem_.dataTranslate(u.memAddr);
    mem_.prefetch(u.memAddr, cycle_ + t.extraLatency);
    scheduleCompletion(u, cycle_ + 1);
    return true;
}

// tea_lint: hot
void
Core::issueStage()
{
    pendingSquash_ = invalidSeqNum;
    bool issued_any = false;

    static constexpr IqKind kinds[] = {IqInt, IqMem, IqFp};
    for (IqKind kind : kinds) {
        auto &q = iqs_[kind];
        // Flat scheduling: each queue carries a conservative lower
        // bound on the earliest cycle anything in it could issue
        // (maintained at dispatch, dependency wakeup and squash), so a
        // queue full of waiting entries costs nothing to pass over.
        if (q.empty() || iqMinReady_[kind] > cycle_)
            continue;
        unsigned width = kind == IqInt   ? cfg_.intIssueWidth
                         : kind == IqMem ? cfg_.memIssueWidth
                                         : cfg_.fpIssueWidth;
        unsigned issued = 0;
        Cycle min_ready = invalidCycle; ///< bound rebuilt by a full scan
        bool full_scan = true;
        for (auto it = q.begin(); it != q.end();) {
            if (issued >= width) {
                full_scan = false;
                break;
            }
            DynUop *u = uopFor(*it);
            if (!u || u->issued) {
                it = q.erase(it); // stale entry (retired or re-scheduled)
                continue;
            }
            if (u->pendingDeps > 0) {
                // Woken through its producer's completion (iqWake).
                ++it;
                continue;
            }
            if (u->readyCycle > cycle_) {
                min_ready = std::min(min_ready, u->readyCycle);
                ++it;
                continue;
            }
            InstClass cls = u->si->cls();
            // Unpipelined units.
            Cycle *fu_free = nullptr;
            if (cls == InstClass::IntDiv)
                fu_free = &divFree_;
            else if (cls == InstClass::FpDiv)
                fu_free = &fpDivFree_;
            else if (cls == InstClass::FpSqrt)
                fu_free = &fpSqrtFree_;
            if (fu_free && *fu_free > cycle_) {
                scheduleWake(*fu_free); // ready; retry when the unit frees
                min_ready = std::min(min_ready, cycle_ + 1);
                ++it;
                continue;
            }

            if (kind == IqMem) {
                if (!tryIssueMem(*u)) {
                    // Blocked on LSQ state, which only changes on
                    // active cycles: retry on the next one.
                    min_ready = std::min(min_ready, cycle_ + 1);
                    ++it;
                    continue;
                }
            } else {
                scheduleCompletion(*u, cycle_ + execLatency(cls));
            }
            if (fu_free)
                *fu_free = cycle_ + execLatency(cls);
            it = q.erase(it);
            ++issued;
            issued_any = true;
        }
        // A width-limited pass may have left issuable entries behind;
        // a completed pass has seen (and bounded) every survivor.
        iqMinReady_[kind] = full_scan ? min_ready : cycle_ + 1;
    }

    if (issued_any)
        scheduleWake(cycle_ + 1); // width-blocked entries retry

    if (pendingSquash_ != invalidSeqNum)
        moSquash(pendingSquash_);
}

void
Core::moSquash(SeqNum load_seq)
{
    ++stats_.moViolations;
    Cycle restart = cycle_ + cfg_.moReplayPenalty;
    scheduleWake(restart);

    DynUop *load = uopFor(load_seq);
    tea_assert(load, "MO violation on retired load seq %lu",
               static_cast<unsigned long>(load_seq));
    load->psv.set(Event::FlMo);
    storeSets_.insert(load->pc);

    // Reset the load and everything younger (squash + re-execute).
    for (SeqNum s = load_seq; s < robHead_ + robCount_; ++s) {
        DynUop *u = uopFor(s);
        if (!u)
            continue;
        u->issued = false;
        u->completeCycle = invalidCycle;
        u->waiters.clear();
        u->pendingDeps = 0;
        u->readyCycle = restart;
    }
    // Recompute dependencies in ascending seq order.
    for (SeqNum s = load_seq; s < robHead_ + robCount_; ++s) {
        DynUop *u = uopFor(s);
        if (!u)
            continue;
        if (u->si->cls() == InstClass::Nop) {
            u->issued = true;
            u->completeCycle = restart;
            continue;
        }
        for (SeqNum dep : u->depSeqs) {
            DynUop *p = uopFor(dep);
            if (!p)
                continue; // producer retired; data long available
            if (p->issued) {
                u->readyCycle = std::max(u->readyCycle, p->completeCycle);
            } else {
                ++u->pendingDeps;
                if (std::find(p->waiters.begin(), p->waiters.end(),
                              u->seq) == p->waiters.end()) {
                    p->waiters.push_back(u->seq);
                }
            }
        }
        // Reset LSQ execution state.
        if (u->si->isLoad()) {
            for (std::size_t i = 0; i < lq_.size(); ++i) {
                LqEntry &e = lq_[i];
                if (e.seq == s) {
                    e.issued = false;
                    e.forwarded = false;
                    break;
                }
            }
        } else if (u->si->isStore()) {
            for (std::size_t i = 0; i < sq_.size(); ++i) {
                SqEntry &e = sq_[i];
                if (e.seq == s) {
                    tea_assert(!e.committed, "squashing committed store");
                    e.executed = false;
                    break;
                }
            }
        }
    }
    rebuildIqs();
}

void
Core::rebuildIqs()
{
    for (auto &q : iqs_)
        q.clear();
    iqMinReady_.fill(0); // squash recovery: force full rescans
    for (SeqNum s = robHead_; s < robHead_ + robCount_; ++s) {
        DynUop *u = uopFor(s);
        if (!u || u->issued)
            continue;
        InstClass cls = u->si->cls();
        if (cls == InstClass::Nop)
            continue;
        iqs_[iqOf(cls)].push_back(s);
    }
}

// tea_lint: hot
void
Core::dispatchStage()
{
    bool dispatched = false;
    for (unsigned n = 0; n < cfg_.dispatchWidth; ++n) {
        if (fetchBuffer_.empty())
            break;
        DynUop &fb = fetchBuffer_.front();
        if (fb.fbReady > cycle_) {
            scheduleWake(fb.fbReady); // decode completes; retry then
            break;
        }
        if (robCount_ >= cfg_.robEntries)
            break;

        InstClass cls = fb.si->cls();
        if (cls != InstClass::Nop) {
            IqKind k = iqOf(cls);
            unsigned cap = k == IqInt   ? cfg_.intIqEntries
                           : k == IqMem ? cfg_.memIqEntries
                                        : cfg_.fpIqEntries;
            if (iqs_[k].size() >= cap)
                break;
        }
        if (fb.si->isLoad() && lq_.size() >= cfg_.lqEntries)
            break;
        if (fb.si->isStore() && sq_.size() >= cfg_.sqEntries) {
            // DR-SQ: the store is the oldest in-flight micro-op and
            // cannot dispatch because the store queue is full of
            // completed-but-not-retired stores.
            if (robCount_ == 0) {
                fb.psv.set(Event::DrSq);
                ++stats_.drSqStallCycles;
            }
            break;
        }

        // Allocate the ROB entry. Field-wise assignment (not a struct
        // move) so the slot's waiters vector keeps its heap capacity
        // across reuse.
        DynUop &d = rob_[fb.seq & robMask_];
        d.seq = fb.seq;
        d.pc = fb.pc;
        d.si = fb.si;
        d.psv = fb.psv;
        d.memAddr = fb.memAddr;
        d.taken = fb.taken;
        d.mispredicted = fb.mispredicted;
        d.fbReady = fb.fbReady;
        d.readyCycle = fb.readyCycle;
        d.pendingDeps = 0;
        d.issued = false;
        d.completeCycle = invalidCycle;
        d.depSeqs = {invalidSeqNum, invalidSeqNum};
        d.waiters.clear();
        d.inRob = true;
        fetchBuffer_.pop_front();
        if (robCount_ == 0)
            robHead_ = d.seq;
        ++robCount_;
        flushShadow_ = false;
        dispatched = true;

        // Rename: record producer constraints.
        d.readyCycle = std::max(d.readyCycle, cycle_ + 1);
        d.pendingDeps = 0;
        RegId srcs[2] = {d.si->rs1, d.si->rs2};
        for (unsigned i = 0; i < 2; ++i) {
            RegId r = srcs[i];
            if (r == noReg || r == zeroReg)
                continue;
            SeqNum w = lastWriter_[r];
            if (w == invalidSeqNum)
                continue;
            DynUop *p = uopFor(w);
            if (!p)
                continue; // producer already retired
            d.depSeqs[i] = w;
            if (p->issued) {
                d.readyCycle = std::max(d.readyCycle, p->completeCycle);
            } else {
                ++d.pendingDeps;
                p->waiters.push_back(d.seq);
            }
        }
        if (d.si->hasDest())
            lastWriter_[d.si->rd] = d.seq;
        scheduleWake(d.readyCycle); // operands ready; issue may proceed

        if (d.si->isLoad()) {
            lq_.push_back(LqEntry{d.seq, d.pc, d.memAddr & ~Addr(7),
                                  false, invalidCycle, false});
        } else if (d.si->isStore()) {
            sq_.push_back(SqEntry{d.seq, d.pc, d.memAddr & ~Addr(7),
                                  false, invalidCycle, false, false,
                                  invalidCycle});
        }

        if (cls == InstClass::Nop) {
            d.issued = true;
            d.completeCycle = cycle_ + 1;
            scheduleWake(d.completeCycle); // head may commit then
        } else {
            iqs_[iqOf(cls)].push_back(d.seq);
            // Operands already in flight resolve through iqWake at the
            // producer's completion; a dep-free entry must lower the
            // scan bound itself.
            if (d.pendingDeps == 0)
                iqWake(iqOf(cls), d.readyCycle);
        }
    }
    if (dispatched)
        scheduleWake(cycle_ + 1); // width-limited; more may dispatch
}

// tea_lint: hot
void
Core::fetchStage()
{
    if (fetchDone_ || barrierSeq_ != invalidSeqNum ||
        cycle_ < fetchResume_) {
        return;
    }
    if (fetchBuffer_.size() >= cfg_.fetchBufferEntries)
        return;

    Addr packet_addr = prog_.pcOf(fetchPc_);
    IFetchResult fr = mem_.ifetch(packet_addr, cycle_);
    if (fr.l1Miss || fr.itlbMiss) {
        pendingDrL1_ = pendingDrL1_ || fr.l1Miss;
        pendingDrTlb_ = pendingDrTlb_ || fr.itlbMiss;
        fetchResume_ = std::max(fetchResume_, fr.done);
        scheduleWake(fetchResume_); // miss return restarts fetch
        return;
    }

    bool fetched_any = false;
    bool first = true;
    for (unsigned n = 0; n < cfg_.fetchWidth &&
                         fetchBuffer_.size() < cfg_.fetchBufferEntries;
         ++n) {
        if (lineOf(prog_.pcOf(fetchPc_)) != lineOf(packet_addr))
            break; // fetch packets do not cross cache lines

        InstIndex this_pc = fetchPc_;
        const StaticInst &si = prog_.inst(this_pc);
        ExecResult er = execute(prog_, this_pc, arch_);
        fetchPc_ = er.nextPc;

        DynUop u;
        u.seq = nextSeq_++;
        u.pc = this_pc;
        u.si = &si;
        u.memAddr = er.memAddr;
        u.taken = er.taken;
        u.fbReady = cycle_ + cfg_.decodeLatency;

        if (first) {
            if (pendingDrL1_)
                u.psv.set(Event::DrL1);
            if (pendingDrTlb_)
                u.psv.set(Event::DrTlb);
            pendingDrL1_ = false;
            pendingDrTlb_ = false;
            first = false;
        }

        bool stop = false;
        if (si.isCondBranch()) {
            bool pred = bp_->predict(this_pc);
            bp_->update(this_pc, er.taken);
            u.mispredicted = pred != er.taken;
            if (u.mispredicted) {
                ++stats_.branchMispredicts;
                ++stats_.pipelineFlushes;
                u.psv.set(Event::FlMb);
                barrierSeq_ = u.seq;
                barrierUntilCommit_ = false;
                stop = true;
            } else if (er.taken) {
                stop = true; // packet ends at a taken branch
            }
        } else if (si.isControl()) {
            stop = true; // jumps/calls/returns: predicted, taken
        }
        if (si.isAlwaysFlush()) {
            u.psv.set(Event::FlEx);
            ++stats_.pipelineFlushes;
            barrierSeq_ = u.seq;
            barrierUntilCommit_ = true;
            stop = true;
        }
        if (si.op == Op::Halt) {
            fetchDone_ = true;
            stop = true;
        }

        fetchBuffer_.push_back(std::move(u));
        fetched_any = true;

        if (stop)
            break;
    }
    if (fetched_any)
        scheduleWake(cycle_ + 1); // fetch continues / decode proceeds
}

// tea_lint: hot
void
Core::ageStoreSets()
{
    const std::uint64_t committed = stats_.committedUops;
    if (committed < nextSsClear_)
        return;
    storeSets_.clear();
    nextSsClear_ = (committed / cfg_.storeSetClearInterval + 1) *
                   cfg_.storeSetClearInterval;
}

void
Core::runStages()
{
    commitStage();
    drainStores();
    if (!halted_) {
        issueStage();
        dispatchStage();
        fetchStage();
    }
    ++perf_.activeCycles;
}

// tea_lint: hot
void
Core::endOfCycle()
{
    if (cfg_.samplingInterruptPeriod != 0 && !halted_ &&
        cycle_ % cfg_.samplingInterruptPeriod == 0) {
        // The sampling interrupt handler occupies the front end while it
        // drains TEA's sample CSRs into the memory buffer.
        fetchResume_ = std::max(fetchResume_,
                                cycle_ + cfg_.samplingHandlerCycles);
        scheduleWake(fetchResume_);
        ++stats_.samplingInterrupts;
    }
    ++cycle_;
    stats_.cycles = cycle_;
}

bool
Core::step()
{
    runStages();
    ageStoreSets();
    endOfCycle();
    // The stages schedule wakes unconditionally (so a step()-driven
    // prefix can hand off to the fast path); drain the stale ones to
    // keep the calendar bounded when nobody consumes it. Consuming the
    // next-cycle flag here is harmless either way — the reference loop
    // runs every cycle regardless.
    wakeNext_ = false;
    nextWakeAtLeast(cycle_);
    flushTrace();
    if (halted_) {
        emitEnd();
        return false;
    }
    return true;
}

/**
 * Cover the provably idle cycles [cycle_, until) and jump the clock to
 * @p until. Everything a cycle record exposes is constant while no
 * stage runs (no commits, same state, same front-end seqs), so the
 * whole stretch extends the open idle run at once:
 * the same spans the reference loop builds one record at a time.
 */
// tea_lint: hot
void
Core::skipIdleCycles(Cycle until)
{
    const Cycle skipped = until - cycle_;
    numCommitted_ = 0; // nothing commits in a skipped cycle
    const CycleRecord rec = cycleRecord();
    stats_.stateCycles[static_cast<unsigned>(rec.state)] += skipped;
    // DR-SQ stalls accrue every blocked cycle; the blocking condition
    // (front-of-buffer store, empty ROB, full SQ) cannot change during
    // an idle stretch, so the whole stretch counts iff it holds now.
    if (drSqBlockedNow())
        stats_.drSqStallCycles += skipped;
    if (!sinks_.empty())
        extendRun(rec, until);
    perf_.skippedCycles += skipped;
    cycle_ = until;
    stats_.cycles = cycle_;
}

bool
Core::drSqBlockedNow() const
{
    // Mirrors the guards dispatchStage passes before charging DR-SQ.
    if (cfg_.dispatchWidth == 0 || robCount_ != 0 || fetchBuffer_.empty())
        return false;
    const DynUop &fb = fetchBuffer_.front();
    return fb.fbReady <= cycle_ && fb.si->isStore() &&
           iqs_[IqMem].size() < cfg_.memIqEntries &&
           sq_.size() >= cfg_.sqEntries;
}

Cycle
Core::runFast(Cycle max_cycles)
{
    while (!halted_ && cycle_ < max_cycles) {
        runStages();
        ageStoreSets();
        endOfCycle();
        if (halted_ || cycle_ >= max_cycles)
            break;

        if (wakeNext_) {
            // The cycle just executed armed its successor: stay on the
            // per-cycle path without touching the heap at all.
            wakeNext_ = false;
            continue;
        }
        Cycle next = nextWakeAtLeast(cycle_);
        if (cfg_.samplingInterruptPeriod != 0) {
            // Sampling interrupts fire on period boundaries even when
            // the pipeline is otherwise idle; never skip past one.
            const Cycle p = cfg_.samplingInterruptPeriod;
            next = std::min(next, ((cycle_ + p - 1) / p) * p);
        }
        next = std::min(next, max_cycles);
        if (next > cycle_)
            skipIdleCycles(next);
    }

    flushTrace();
    if (halted_)
        emitEnd();
    return cycle_;
}

Cycle
Core::run(Cycle max_cycles)
{
    if (fastPath_) {
        runFast(max_cycles);
    } else {
        while (!halted_ && cycle_ < max_cycles) {
            step();
        }
    }
    tea_assert(halted_, "%s did not halt within %lu cycles",
               prog_.name().c_str(),
               static_cast<unsigned long>(max_cycles));
    return cycle_;
}

} // namespace tea
