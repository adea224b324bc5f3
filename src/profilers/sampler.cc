#include "profilers/sampler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "core/trace_buffer.hh"

namespace tea {

const char *
samplePolicyName(SamplePolicy p)
{
    switch (p) {
      case SamplePolicy::TimeProportional: return "time-proportional";
      case SamplePolicy::NextCommitting: return "next-committing";
      case SamplePolicy::DispatchTag: return "dispatch-tag";
      case SamplePolicy::FetchTag: return "fetch-tag";
    }
    tea_panic("unknown sample policy");
}

SamplerConfig
teaConfig(Cycle period)
{
    return SamplerConfig{"TEA", SamplePolicy::TimeProportional,
                         teaEventSet().mask, period, 0};
}

SamplerConfig
nciTeaConfig(Cycle period)
{
    return SamplerConfig{"NCI-TEA", SamplePolicy::NextCommitting,
                         teaEventSet().mask, period, 0};
}

SamplerConfig
ibsConfig(Cycle period)
{
    return SamplerConfig{"IBS", SamplePolicy::DispatchTag,
                         ibsEventSet().mask, period, 0};
}

SamplerConfig
speConfig(Cycle period)
{
    return SamplerConfig{"SPE", SamplePolicy::DispatchTag,
                         speEventSet().mask, period, 0};
}

SamplerConfig
risConfig(Cycle period)
{
    return SamplerConfig{"RIS", SamplePolicy::FetchTag,
                         risEventSet().mask, period, 0};
}

SamplerConfig
tipConfig(Cycle period)
{
    // TIP is the time-proportional profiler without PSVs: every sample
    // lands in the Base component of its instruction.
    return SamplerConfig{"TIP", SamplePolicy::TimeProportional, 0,
                         period, 0};
}

SamplerConfig
dtagTeaConfig(Cycle period)
{
    return SamplerConfig{"DTAG-TEA", SamplePolicy::DispatchTag,
                         teaEventSet().mask, period, 0};
}

TechniqueSampler::TechniqueSampler(SamplerConfig cfg)
    : cfg_(std::move(cfg)), nextFire_(cfg_.phase)
{
    tea_assert(cfg_.period > 0, "sampling period must be positive");
}

void
TechniqueSampler::setRecorder(SampleWriter *writer, std::uint16_t core_id,
                              std::uint32_t pid, std::uint32_t tid)
{
    recorder_ = writer;
    coreId_ = core_id;
    pid_ = pid;
    tid_ = tid;
}

void
TechniqueSampler::emitRecord(Cycle timestamp, CommitState state,
                             unsigned count, const std::uint64_t *addrs,
                             const std::uint16_t *psvs)
{
    if (!recorder_)
        return;
    SampleRecord rec;
    rec.timestamp = timestamp;
    rec.coreId = coreId_;
    rec.pid = pid_;
    rec.tid = tid_;
    rec.flags = SampleRecord::makeFlags(state, count);
    for (unsigned i = 0; i < count && i < rec.addrs.size(); ++i) {
        rec.addrs[i] = addrs[i];
        rec.psvs[i] = psvs[i];
    }
    recorder_->onSample(rec);
}

/** The first fire cycle at or after @p c (invalidCycle if none fits). */
Cycle
TechniqueSampler::fireAtOrAfter(Cycle c) const
{
    if (c <= cfg_.phase)
        return cfg_.phase;
    const Cycle past = (c - cfg_.phase) % cfg_.period;
    if (past == 0)
        return c;
    const Cycle fire = c + (cfg_.period - past);
    return fire < c ? invalidCycle : fire;
}

void
TechniqueSampler::advanceFire()
{
    nextFire_ = nextFire_ > invalidCycle - cfg_.period
                    ? invalidCycle
                    : nextFire_ + cfg_.period;
}

void
TechniqueSampler::onCycle(const CycleRecord &rec)
{
    if (rec.cycle < nextFire_)
        return;
    if (rec.cycle != nextFire_) {
        // The stream jumped past the running fire cycle: re-align.
        nextFire_ = fireAtOrAfter(rec.cycle);
        if (rec.cycle != nextFire_)
            return;
    }
    takeSample(rec);
    advanceFire();
}

/**
 * Visit only the cycles of [first.cycle, first.cycle + n) where onCycle
 * would sample, and sample each exactly as onCycle would.
 */
void
TechniqueSampler::onSpan(const CycleRecord &first, std::uint32_t n)
{
    const Cycle end = first.cycle + n;
    if (nextFire_ < first.cycle)
        nextFire_ = fireAtOrAfter(first.cycle);
    CycleRecord rec = first;
    while (nextFire_ < end) {
        rec.cycle = nextFire_;
        takeSample(rec);
        advanceFire();
    }
}

void
TechniqueSampler::takeSample(const CycleRecord &rec)
{
    double weight = static_cast<double>(cfg_.period);

    switch (cfg_.policy) {
      case SamplePolicy::TimeProportional:
      case SamplePolicy::NextCommitting:
        switch (rec.state) {
          case CommitState::Compute: {
            double share = weight / rec.numCommitted;
            std::uint64_t addrs[4] = {};
            std::uint16_t psvs[4] = {};
            unsigned count = 0;
            for (unsigned i = 0; i < rec.numCommitted; ++i) {
                const CommittedUop &u = rec.committed[i];
                pics_.add(u.pc, u.psv.masked(cfg_.eventMask), share);
                if (count < 4) {
                    addrs[count] = u.pc;
                    psvs[count] = u.psv.masked(cfg_.eventMask).bits();
                    ++count;
                }
            }
            emitRecord(rec.cycle, CommitState::Compute, count, addrs,
                       psvs);
            ++samplesTaken_;
            break;
          }
          case CommitState::Stalled:
          case CommitState::Drained:
            pendingWeight_ += weight;
            ++pendingCount_;
            break;
          case CommitState::Flushed:
            if (cfg_.policy == SamplePolicy::TimeProportional &&
                lastValid_) {
                pics_.add(lastPc_, lastPsv_.masked(cfg_.eventMask),
                          weight);
                std::uint64_t addr = lastPc_;
                std::uint16_t psv = lastPsv_.masked(cfg_.eventMask).bits();
                emitRecord(rec.cycle, CommitState::Flushed, 1, &addr,
                           &psv);
                ++samplesTaken_;
            } else {
                // NCI misattributes flush cycles to the instruction that
                // commits next (also the start-up corner for TEA).
                pendingWeight_ += weight;
                ++pendingCount_;
            }
            break;
        }
        break;

      case SamplePolicy::DispatchTag:
      case SamplePolicy::FetchTag:
        if (taggedSeq_ != invalidSeqNum) {
            // The previous tagged micro-op is still in flight; hardware
            // drops the new sample.
            ++samplesDropped_;
        } else {
            // The first micro-op to pass the tagging stage after the
            // fire (file comment).
            taggedSeq_ = cfg_.policy == SamplePolicy::DispatchTag
                             ? rec.nextDispatchSeq
                             : rec.nextFetchSeq;
        }
        break;
    }
}

void
TechniqueSampler::onRetire(const RetireRecord &rec)
{
    if (pendingWeight_ > 0.0) {
        pics_.add(rec.pc, rec.psv.masked(cfg_.eventMask), pendingWeight_);
        pendingWeight_ = 0.0;
        std::uint64_t addr = rec.pc;
        std::uint16_t psv = rec.psv.masked(cfg_.eventMask).bits();
        // One interrupt fired per folded sample; emit one record each.
        for (std::uint64_t i = 0; i < pendingCount_; ++i)
            emitRecord(rec.cycle, CommitState::Stalled, 1, &addr, &psv);
        samplesTaken_ += pendingCount_;
        pendingCount_ = 0;
    }
    if (taggedSeq_ != invalidSeqNum && taggedSeq_ == rec.seq) {
        pics_.add(rec.pc, rec.psv.masked(cfg_.eventMask),
                  static_cast<double>(cfg_.period));
        std::uint64_t addr = rec.pc;
        std::uint16_t psv = rec.psv.masked(cfg_.eventMask).bits();
        emitRecord(rec.cycle, CommitState::Compute, 1, &addr, &psv);
        taggedSeq_ = invalidSeqNum;
        ++samplesTaken_;
    }
    lastValid_ = true;
    lastPc_ = rec.pc;
    lastPsv_ = rec.psv;
}

namespace {

/** Commit slots deliverEvent retires from @p ev (a span has none). */
inline unsigned
retiredSlots(const TraceEvent &ev)
{
    return ev.kind == TraceEventKind::Cycle ? commitSlots(ev.rec) : 0;
}

/**
 * True when @p fire is one of the cycles @p ev covers, or @p ev starts
 * past it (a jump, which onCycle and onSpan re-align on). Written so
 * that it cannot overflow; @p fire == invalidCycle is no fire.
 */
inline bool
reachesFire(const TraceEvent &ev, Cycle fire)
{
    return !(ev.rec.cycle < fire &&
             cyclesCovered(ev) <= fire - ev.rec.cycle);
}

} // namespace

// tea_lint: hot
void
TechniqueSampler::onBatch(const TraceEvent *events, std::size_t n)
{
    // Delivers only the events that can change the sampler: one that
    // reaches the next fire, one whose commits complete the pending
    // sample (TP/NCI), and one that retires the tagged micro-op
    // (IBS/SPE/RIS). The callbacks would do nothing else with any
    // other event but set the last-committed register from its last
    // commit slot, so the skip loops only remember that slot and write
    // the register before the next delivery and at the end of the
    // batch. Nothing the skip tests changes while it skips, so each
    // state gets its own loop with the fire cycle and the tag hoisted.
    // The class is final, so deliverEvent's calls resolve statically.
    const TraceEvent *ev = events;
    const TraceEvent *const end = events + n;
    const CommittedUop *last = nullptr; // the latest skipped commit
    for (;;) {
        const Cycle fire = nextFire_;
        if (pendingWeight_ > 0.0) {
            // The next commit completes the sample: skipped events
            // have none, so `last` stays as it is.
            while (ev != end && !reachesFire(*ev, fire) &&
                   retiredSlots(*ev) == 0)
                ++ev;
        } else if (taggedSeq_ != invalidSeqNum) {
            // Every commit seq is compared: nothing here assumes that
            // they are contiguous.
            const SeqNum tag = taggedSeq_;
            for (; ev != end && !reachesFire(*ev, fire); ++ev) {
                const unsigned slots = retiredSlots(*ev);
                const CommittedUop *uops = ev->rec.committed.data();
                if (std::any_of(uops, uops + slots,
                                [tag](const CommittedUop &u) {
                                    return u.seq == tag;
                                }))
                    break;
                if (slots > 0)
                    last = &uops[slots - 1];
            }
        } else {
            // Only a fire matters: with no tag in flight, onRetire
            // takes no sample.
            for (; ev != end && !reachesFire(*ev, fire); ++ev) {
                if (const unsigned slots = retiredSlots(*ev))
                    last = &ev->rec.committed[slots - 1];
            }
        }
        if (last) {
            lastValid_ = true;
            lastPc_ = last->pc;
            lastPsv_ = last->psv;
            last = nullptr;
        }
        if (ev == end)
            return;
        deliverEvent(*ev++, *this);
    }
}

void
TechniqueSampler::onEnd(Cycle final_cycle)
{
    (void)final_cycle;
    if (taggedSeq_ != invalidSeqNum)
        ++samplesDropped_;
    samplesDropped_ += pendingCount_;
    pendingWeight_ = 0.0;
    pendingCount_ = 0;
    taggedSeq_ = invalidSeqNum;
    lastValid_ = false;
    nextFire_ = cfg_.phase; // a further trace starts its fires afresh
}

} // namespace tea
