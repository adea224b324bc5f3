#include "profilers/sampler.hh"

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

TechniqueSampler::TechniqueSampler(SamplerConfig cfg) : cfg_(std::move(cfg))
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

void
TechniqueSampler::onCycle(const CycleRecord &rec)
{
    if (rec.cycle < cfg_.phase)
        return;
    if ((rec.cycle - cfg_.phase) % cfg_.period != 0)
        return;
    takeSample(rec);
}

/**
 * Visit only the cycles of [first.cycle, first.cycle + n) where onCycle
 * would sample, and sample each exactly as onCycle would.
 */
void
TechniqueSampler::onSpan(const CycleRecord &first, std::uint32_t n)
{
    const Cycle end = first.cycle + n;
    Cycle c = cfg_.phase;
    if (first.cycle > cfg_.phase) {
        const Cycle past = (first.cycle - cfg_.phase) % cfg_.period;
        c = first.cycle + (past == 0 ? 0 : cfg_.period - past);
    }
    if (c >= end || c < first.cycle)
        return; // no fire in the span (or the next one wraps)
    CycleRecord rec = first;
    for (;;) {
        rec.cycle = c;
        takeSample(rec);
        if (end - c <= cfg_.period)
            break;
        c += cfg_.period;
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
                rec.lastValid) {
                pics_.add(rec.lastPc, rec.lastPsv.masked(cfg_.eventMask),
                          weight);
                std::uint64_t addr = rec.lastPc;
                std::uint16_t psv =
                    rec.lastPsv.masked(cfg_.eventMask).bits();
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
        if (armed_ || taggedSeq_ != invalidSeqNum) {
            // The previous tagged micro-op is still in flight; hardware
            // drops the new sample.
            ++samplesDropped_;
        } else {
            armed_ = true;
        }
        break;
    }
}

void
TechniqueSampler::tag(const UopRecord &rec, SamplePolicy stage)
{
    if (cfg_.policy != stage || !armed_)
        return;
    armed_ = false;
    taggedSeq_ = rec.seq;
}

void
TechniqueSampler::onDispatch(const UopRecord &rec)
{
    tag(rec, SamplePolicy::DispatchTag);
}

void
TechniqueSampler::onFetch(const UopRecord &rec)
{
    tag(rec, SamplePolicy::FetchTag);
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
    if (taggedSeq_ == rec.seq) {
        pics_.add(rec.pc, rec.psv.masked(cfg_.eventMask),
                  static_cast<double>(cfg_.period));
        std::uint64_t addr = rec.pc;
        std::uint16_t psv = rec.psv.masked(cfg_.eventMask).bits();
        emitRecord(rec.cycle, CommitState::Compute, 1, &addr, &psv);
        taggedSeq_ = invalidSeqNum;
        ++samplesTaken_;
    }
}

// tea_lint: hot
void
TechniqueSampler::onBatch(const TraceEvent *events, std::size_t n)
{
    // Batched replay inner loop (the class is final, so the calls
    // below resolve statically). A sampler touches one cycle in
    // cfg_.period, so what matters here is making the skip cheap: one
    // switch per event, with the tag stages behind a hoisted policy
    // test instead of a virtual call each.
    const bool tags = cfg_.policy == SamplePolicy::DispatchTag ||
                      cfg_.policy == SamplePolicy::FetchTag;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceEvent &ev = events[i];
        switch (ev.kind) {
          case TraceEventKind::Cycle:
            deliverCycle(*this, ev.p.cycle);
            break;
          case TraceEventKind::Span:
            onSpan(ev.p.cycle, ev.spanCycles);
            break;
          case TraceEventKind::Dispatch:
            if (tags)
                tag(ev.p.uop, SamplePolicy::DispatchTag);
            break;
          case TraceEventKind::Fetch:
            if (tags)
                tag(ev.p.uop, SamplePolicy::FetchTag);
            break;
          case TraceEventKind::End:
            // Producers keep End out of batches (core/trace.hh), but
            // honor one in a hand-built chunk anyway.
            onEnd(ev.p.end);
            break;
        }
    }
}

void
TechniqueSampler::onEnd(Cycle final_cycle)
{
    (void)final_cycle;
    if (armed_ || taggedSeq_ != invalidSeqNum)
        ++samplesDropped_;
    samplesDropped_ += pendingCount_;
    pendingWeight_ = 0.0;
    pendingCount_ = 0;
    armed_ = false;
    taggedSeq_ = invalidSeqNum;
}

} // namespace tea
