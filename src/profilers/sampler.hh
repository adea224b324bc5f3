/**
 * @file
 * Statistical PICS samplers: TEA, NCI-TEA, AMD IBS, Arm SPE and IBM RIS
 * (plus TIP, the event-less time-proportional profiler), all modelled
 * out-of-band on the same cycle trace so every technique samples in the
 * exact same cycle (Section 4's methodology).
 *
 * Policies (Section 5):
 *  - TimeProportional (TEA, TIP): TIP attribution. Compute cycles split
 *    across committing micro-ops; Stalled/Drained samples delayed until
 *    the next commit so the PSV is final; Flushed samples attributed to
 *    the last-committed instruction, which the sampler keeps as its
 *    own register from the retires it sees (the cycle record does not
 *    carry it).
 *  - NextCommitting (NCI-TEA, Intel PEBS style): as above, but Flushed
 *    samples go to the next-committing instruction, which misattributes
 *    flush cycles.
 *  - DispatchTag (IBS, SPE): the next micro-op to dispatch after the
 *    sample fires is tagged; the sample completes when it retires.
 *  - FetchTag (RIS): as DispatchTag, but tags at fetch.
 *
 * The tag comes from the cycle record: the record is built after the
 * cycle's commits and before its dispatch and fetch, and both stages
 * pass micro-ops once each in seq order, so the first micro-op to
 * dispatch (fetch) after a fire is the firing record's nextDispatchSeq
 * (nextFetchSeq). A fire while a tag is in flight is dropped, as the
 * hardware drops it.
 */

#ifndef TEA_PROFILERS_SAMPLER_HH
#define TEA_PROFILERS_SAMPLER_HH

#include <cstdint>
#include <string>

#include "core/trace.hh"
#include "events/event.hh"
#include "profilers/pics.hh"
#include "profilers/sample_record.hh"

namespace tea {

/** Sample-attribution policy. */
enum class SamplePolicy
{
    TimeProportional,
    NextCommitting,
    DispatchTag,
    FetchTag,
};

/** Short name of a policy. */
const char *samplePolicyName(SamplePolicy p);

/** Configuration of one sampling technique. */
struct SamplerConfig
{
    std::string name;     ///< e.g. "TEA", "IBS"
    SamplePolicy policy = SamplePolicy::TimeProportional;
    std::uint16_t eventMask = 0x1ff; ///< supported events (Table 1)
    Cycle period = 127;   ///< cycles between samples
    Cycle phase = 0;      ///< first sample cycle offset
};

/** Pre-built configurations for the techniques evaluated in the paper. */
SamplerConfig teaConfig(Cycle period = 127);
SamplerConfig nciTeaConfig(Cycle period = 127);
SamplerConfig ibsConfig(Cycle period = 127);
SamplerConfig speConfig(Cycle period = 127);
SamplerConfig risConfig(Cycle period = 127);
SamplerConfig tipConfig(Cycle period = 127);
/**
 * The dispatch-tagged TEA variant the paper evaluated but cut for space
 * (Section 5): TEA's full event set with IBS-style dispatch tagging.
 * Expected to land at IBS/SPE/RIS-level error, demonstrating that
 * time-proportional sampling -- not the event set -- is what matters.
 */
SamplerConfig dtagTeaConfig(Cycle period = 127);

/**
 * A sampling PICS collector attached to the cycle trace.
 *
 * `final` lets the batched replay path (replayChunk delivering whole
 * chunks through onBatch) devirtualize the per-kind calls inside the
 * batch loop into direct, inlinable ones.
 */
class TechniqueSampler final : public TraceSink
{
  public:
    explicit TechniqueSampler(SamplerConfig cfg);

    void onCycle(const CycleRecord &rec) override;
    void onSpan(const CycleRecord &first, std::uint32_t n) override;
    void onRetire(const RetireRecord &rec) override;
    void onEnd(Cycle final_cycle) override;
    void onBatch(const TraceEvent *events, std::size_t n) override;

    const SamplerConfig &config() const { return cfg_; }

    /**
     * Additionally emit every completed sample as an 88-byte record to
     * @p writer (the interrupt-handler path), stamped with the given
     * logical core / process / thread identifiers.
     */
    void setRecorder(SampleWriter *writer, std::uint16_t core_id = 0,
                     std::uint32_t pid = 1, std::uint32_t tid = 1);

    /** Sampled PICS (each sample weighted by the sampling period). */
    const Pics &pics() const { return pics_; }

    /**
     * Pre-size the PICS table for a program with @p static_insts static
     * instructions (samplers see a sparser signature mix than the golden
     * reference).
     */
    void reserveCells(std::size_t static_insts)
    {
        pics_.reserve(2 * static_insts);
    }

    /** Samples taken (attributed to an instruction). */
    std::uint64_t samplesTaken() const { return samplesTaken_; }

    /** Samples dropped (tag still in flight, or pending at end). */
    std::uint64_t samplesDropped() const { return samplesDropped_; }

  private:
    void takeSample(const CycleRecord &rec);
    Cycle fireAtOrAfter(Cycle c) const;
    void advanceFire();
    void emitRecord(Cycle timestamp, CommitState state, unsigned count,
                    const std::uint64_t *addrs,
                    const std::uint16_t *psvs);

    SamplerConfig cfg_;
    Pics pics_;
    SampleWriter *recorder_ = nullptr;
    std::uint16_t coreId_ = 0;
    std::uint32_t pid_ = 1;
    std::uint32_t tid_ = 1;
    std::uint64_t samplesTaken_ = 0;
    std::uint64_t samplesDropped_ = 0;

    /**
     * Next cycle the sampling interrupt fires (phase + k * period),
     * invalidCycle once no later fire is representable. The trace's
     * cycles are dense and monotone, so onCycle and onSpan advance it
     * by one period per fire and divide only to re-align after a jump.
     */
    Cycle nextFire_;

    double pendingWeight_ = 0.0;       ///< TP/NCI delayed sample weight
    std::uint64_t pendingCount_ = 0;   ///< fires folded into the weight
    SeqNum taggedSeq_ = invalidSeqNum; ///< tagged micro-op in flight

    /**
     * The last-committed register: the latest retire of this trace,
     * where a TimeProportional Flushed sample goes. Set in onRetire
     * and cleared in onEnd, so a further trace starts without one.
     */
    bool lastValid_ = false;
    InstIndex lastPc_ = 0;
    Psv lastPsv_;
};

} // namespace tea

#endif // TEA_PROFILERS_SAMPLER_HH
