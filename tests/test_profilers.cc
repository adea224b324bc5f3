/**
 * @file
 * Tests for the golden reference and the sampling techniques: coverage,
 * convergence, policy behaviour and overhead accounting.
 */

#include <gtest/gtest.h>
#include <map>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "profilers/correlation.hh"
#include "profilers/golden.hh"
#include "profilers/overhead.hh"
#include "profilers/sampler.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

struct Observed
{
    CoreRun run;
    std::unique_ptr<GoldenReference> goldenPtr;
    std::vector<std::unique_ptr<TechniqueSampler>> samplers;

    const GoldenReference &golden() const { return *goldenPtr; }
};

Observed
observe(Workload w, std::vector<SamplerConfig> cfgs,
        CoreConfig core_cfg = CoreConfig{})
{
    Observed o{makeCore(std::move(w), core_cfg),
               std::make_unique<GoldenReference>(), {}};
    o.run->addSink(o.goldenPtr.get());
    for (SamplerConfig &c : cfgs) {
        o.samplers.push_back(std::make_unique<TechniqueSampler>(c));
        o.run->addSink(o.samplers.back().get());
    }
    o.run->run();
    return o;
}

} // namespace

TEST(GoldenReference, AttributesEveryCycle)
{
    Observed o = observe(workloads::branchNoise(3000), {});
    double covered = o.golden().pics().total() + o.golden().droppedCycles();
    // 1/n compute splits accumulate tiny FP rounding.
    EXPECT_NEAR(covered, static_cast<double>(o.run->stats().cycles), 0.1);
    // The unattributable tail is at most a few cycles at program end.
    EXPECT_LT(o.golden().droppedCycles(), 16.0);
}

TEST(GoldenReference, EventCountsMatchCoreStats)
{
    Observed o = observe(workloads::flushySqrt(300, true), {});
    std::uint64_t flex = 0;
    for (const auto &counts : o.golden().eventCounts())
        flex += counts[static_cast<unsigned>(Event::FlEx)];
    EXPECT_EQ(flex, o.run->stats()
                        .eventCounts[static_cast<unsigned>(Event::FlEx)]);
}

TEST(GoldenReference, StallHistogramCountsRetires)
{
    Observed o = observe(workloads::aluLoop(1000), {});
    std::uint64_t n = 0;
    for (const auto &hist : o.golden().stallHistograms())
        n += hist ? hist->count() : 0;
    EXPECT_EQ(n, o.run->stats().committedUops);
}

namespace {

/**
 * The golden reference as it was before its flat tables: a hashed Pics
 * filled by add(), an unordered_map of event counts and a std::map of
 * stall histograms. It replays the same trace as the real one, so
 * every table of GoldenReference can be checked against it bit for
 * bit, iteration order of the Pics included.
 */
class OracleGolden final : public TraceSink
{
  public:
    void reserveCells(std::size_t static_insts)
    {
        pics_.reserve(4 * static_insts);
        eventCounts_.reserve(static_insts);
    }

    void onCycle(const CycleRecord &rec) override
    {
        switch (rec.state) {
          case CommitState::Compute: {
            double share = 1.0 / rec.numCommitted;
            for (unsigned i = 0; i < rec.numCommitted; ++i)
                pics_.add(rec.committed[i].pc, rec.committed[i].psv, share);
            break;
          }
          case CommitState::Stalled:
          case CommitState::Drained:
            pending_ += 1.0;
            break;
          case CommitState::Flushed:
            if (last_)
                pics_.add(last_->pc, last_->psv, 1.0);
            else
                pending_ += 1.0;
            break;
        }
    }

    void onRetire(const RetireRecord &rec) override
    {
        last_ = rec;
        auto [it, inserted] = stallHist_.try_emplace(rec.psv.bits(), 512);
        if (pending_ > 0.0) {
            pics_.add(rec.pc, rec.psv, pending_);
            it->second.add(static_cast<std::uint64_t>(pending_));
            pending_ = 0.0;
        } else {
            it->second.add(0);
        }
        auto &counts = eventCounts_[rec.pc];
        for (unsigned i = 0; i < numEvents; ++i) {
            if (rec.psv.test(static_cast<Event>(i)))
                ++counts[i];
        }
    }

    void onEnd(Cycle) override
    {
        dropped_ = pending_;
        pending_ = 0.0;
        last_.reset();
    }

    Pics pics_;
    std::optional<RetireRecord> last_; ///< the last-committed register
    double pending_ = 0.0;
    double dropped_ = 0.0;
    std::unordered_map<InstIndex, GoldenReference::EventCounts>
        eventCounts_;
    std::map<std::uint16_t, Histogram> stallHist_;
};

/**
 * Run @p w with a GoldenReference and an OracleGolden on one core, both
 * reserved for @p reserve static instructions (none when 0), and check
 * that every table of the golden matches the oracle's.
 */
void
expectGoldenMatchesOracle(Workload w, std::size_t reserve)
{
    GoldenReference golden;
    OracleGolden oracle;
    if (reserve > 0) {
        golden.reserveCells(reserve);
        oracle.reserveCells(reserve);
    }
    TechniqueSampler ibs(ibsConfig(97));
    CoreRun run = makeCore(std::move(w));
    run->addSink(&golden);
    run->addSink(&oracle);
    run->addSink(&ibs);
    run->run();

    // Pics: the same cells in the same iteration order, and the same
    // running total, to the last bit.
    EXPECT_EQ(golden.pics().total(), oracle.pics_.total());
    const std::vector<PicsComponent> got = golden.pics().components();
    const std::vector<PicsComponent> want = oracle.pics_.components();
    ASSERT_EQ(got.size(), want.size());
    ASSERT_GT(got.size(), 0u);
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].unit, want[i].unit) << "cell " << i;
        ASSERT_EQ(got[i].signature, want[i].signature) << "cell " << i;
        ASSERT_EQ(got[i].cycles, want[i].cycles) << "cell " << i;
    }
    // So do the floating-point sums iterated over them: a technique's
    // error against the projected golden reference.
    const std::uint16_t mask = ibs.config().eventMask;
    EXPECT_EQ(ibs.pics().errorAgainst(golden.pics().masked(mask)),
              ibs.pics().errorAgainst(oracle.pics_.masked(mask)));
    EXPECT_EQ(golden.droppedCycles(), oracle.dropped_);

    // Event counts: the oracle's rows, and zeros everywhere else.
    const auto &counts = golden.eventCounts();
    std::size_t matched = 0;
    for (InstIndex pc = 0; pc < counts.size(); ++pc) {
        auto it = oracle.eventCounts_.find(pc);
        if (it == oracle.eventCounts_.end()) {
            EXPECT_EQ(counts[pc], GoldenReference::EventCounts{})
                << "pc " << pc;
        } else {
            EXPECT_EQ(counts[pc], it->second) << "pc " << pc;
            ++matched;
        }
    }
    EXPECT_EQ(matched, oracle.eventCounts_.size());

    // Stall histograms: present exactly where the oracle has one.
    const auto &hists = golden.stallHistograms();
    for (std::size_t sig = 0; sig < hists.size(); ++sig) {
        auto it = oracle.stallHist_.find(static_cast<std::uint16_t>(sig));
        ASSERT_EQ(hists[sig] != nullptr, it != oracle.stallHist_.end())
            << "signature " << sig;
        if (hists[sig]) {
            EXPECT_EQ(hists[sig]->count(), it->second.count());
            EXPECT_EQ(hists[sig]->bins(), it->second.bins());
        }
    }
}

} // namespace

TEST(GoldenReference, TablesMatchHashedOracleWhenReserved)
{
    Workload w = workloads::byName("nab");
    const std::size_t insts = w.program.size();
    expectGoldenMatchesOracle(std::move(w), insts);
    Workload flushy = workloads::flushySqrt(300, true);
    const std::size_t flushyInsts = flushy.program.size();
    expectGoldenMatchesOracle(std::move(flushy), flushyInsts);
}

TEST(GoldenReference, TablesMatchHashedOracleWithoutReserve)
{
    expectGoldenMatchesOracle(workloads::branchNoise(3000), 0);
    expectGoldenMatchesOracle(workloads::pointerChase(64, 50, 4096), 0);
}

TEST(GoldenReference, TablesMatchHashedOracleForPcsPastTheReserve)
{
    // Reserved for 3 instructions: nearly every pc grows the tables.
    Workload w = workloads::byName("mcf");
    ASSERT_GT(w.program.size(), 3u);
    expectGoldenMatchesOracle(std::move(w), 3);
}

TEST(GoldenReference, PicsAreEmptyUntilEnd)
{
    GoldenReference golden;
    golden.onRetire(RetireRecord{1, 7, Psv{}, 0});
    CycleRecord rec{};
    rec.cycle = 1;
    rec.state = CommitState::Flushed;
    golden.onCycle(rec); // charged to the last retire
    EXPECT_EQ(golden.pics().size(), 0u);
    golden.onEnd(2);
    EXPECT_EQ(golden.pics().size(), 1u);
    EXPECT_EQ(golden.pics().cycles(7, 0), 1.0);
    // A pc past the reserve grew the event-count rows to cover it.
    golden.onRetire(RetireRecord{2, 9, Psv{}, 0});
    EXPECT_GE(golden.eventCounts().size(), 10u);
}

TEST(GoldenReference, RejectsSignatureBitsPastTheEvents)
{
    GoldenReference golden;
    EXPECT_THROW(golden.onRetire(RetireRecord{1, 0,
                                              Psv(std::uint16_t{1u << 12}),
                                              0}),
                 std::out_of_range);
}

TEST(Sampler, TeaAtPeriodOneMatchesGolden)
{
    SamplerConfig cfg = teaConfig(1);
    Observed o = observe(workloads::branchNoise(2000), {cfg});
    double err = o.samplers[0]->pics().errorAgainst(o.golden().pics());
    // Period-1 TEA is the golden reference up to the final-cycle tail.
    EXPECT_LT(err, 0.01);
}

TEST(Sampler, TeaErrorShrinksWithFrequency)
{
    Observed o = observe(workloads::byName("exchange2"),
                         {teaConfig(1024), teaConfig(64)});
    double coarse = o.samplers[0]->pics().errorAgainst(
        o.golden().pics());
    double fine = o.samplers[1]->pics().errorAgainst(o.golden().pics());
    EXPECT_LT(fine, coarse);
}

TEST(Sampler, MaskingDropsUnsupportedEvents)
{
    SamplerConfig cfg = teaConfig(7);
    cfg.eventMask = ibsEventSet().mask; // no DR-SQ, FL-EX, FL-MO
    Observed o = observe(workloads::flushySqrt(400, true), {cfg});
    for (const PicsComponent &c : o.samplers[0]->pics().components()) {
        EXPECT_FALSE(Psv(c.signature).test(Event::FlEx));
        EXPECT_FALSE(Psv(c.signature).test(Event::DrSq));
    }
}

TEST(Sampler, TipReportsOnlyBaseComponents)
{
    Observed o = observe(workloads::byName("bwaves"), {tipConfig(101)});
    for (const PicsComponent &c : o.samplers[0]->pics().components())
        EXPECT_EQ(c.signature, 0u);
    EXPECT_GT(o.samplers[0]->pics().total(), 0.0);
}

TEST(Sampler, SampleWeightEqualsPeriod)
{
    SamplerConfig cfg = teaConfig(113);
    Observed o = observe(workloads::aluLoop(4000), {cfg});
    const TechniqueSampler &s = *o.samplers[0];
    // Total attributed cycles == samples x period (compute samples split
    // across committing uops still sum to one period each).
    EXPECT_NEAR(s.pics().total(),
                static_cast<double>(s.samplesTaken()) * 113.0, 1e-6);
}

TEST(Sampler, DispatchTagTagsNextDispatch)
{
    // A flush-free ALU loop: dispatch tagging should produce samples on
    // loop-body instructions with Base signatures.
    Observed o = observe(workloads::aluLoop(4000), {ibsConfig(97)});
    const TechniqueSampler &s = *o.samplers[0];
    EXPECT_GT(s.samplesTaken(), 20u);
    for (const PicsComponent &c : s.pics().components())
        EXPECT_EQ(c.signature & ~ibsEventSet().mask, 0u);
}

TEST(Sampler, TaggingDropsOverlappingSamples)
{
    // Long stalls make tagged micro-ops live many cycles; samples firing
    // while one is in flight are dropped (period << stall length).
    Observed o = observe(workloads::pointerChase(2048, 2, 4096 + 64),
                         {ibsConfig(31)});
    EXPECT_GT(o.samplers[0]->samplesDropped(), 0u);
}

TEST(Sampler, FetchTagDiffersFromDispatchTag)
{
    Observed o = observe(workloads::byName("xalancbmk"),
                         {ibsConfig(127), risConfig(127)});
    // Different tagging stages must not produce identical profiles on a
    // front-end-bound workload.
    Pics ibs = o.samplers[0]->pics().masked(
        ibsEventSet().mask & risEventSet().mask);
    Pics ris = o.samplers[1]->pics().masked(
        ibsEventSet().mask & risEventSet().mask);
    EXPECT_GT(ibs.errorAgainst(ris), 0.01);
}

TEST(Sampler, TagComesFromTheFiringRecord)
{
    // A hand-built trace. The fire at cycle 0 sees seq 42 as the next
    // uop to dispatch and seq 45 as the next to fetch, so IBS charges
    // seq 42's retire and RIS seq 45's, one period each; seq 41 retires
    // first and gets nothing. The fire at cycle 10 comes while both
    // tags are in flight and is dropped. The fire at cycle 20 tags uops
    // that never retire, so the end marker drops one more.
    constexpr Cycle period = 10;
    TechniqueSampler ibs(ibsConfig(period));
    TechniqueSampler ris(risConfig(period));
    const auto pcOf = [](SeqNum seq) {
        return static_cast<InstIndex>(100 + seq);
    };
    for (Cycle c = 0; c <= 20; ++c) {
        CycleRecord rec;
        rec.cycle = c;
        rec.state = CommitState::Drained;
        rec.nextFetchSeq = c == 0 ? 45 : 48;
        rec.nextDispatchSeq = c == 0 ? 42 : c < 10 ? 44 : 46;
        const auto commit = [&](SeqNum first, SeqNum last) {
            rec.state = CommitState::Compute;
            for (SeqNum seq = first; seq <= last; ++seq)
                rec.committed[rec.numCommitted++] =
                    CommittedUop{seq, pcOf(seq), Psv{}};
        };
        if (c == 5)
            commit(41, 41);
        if (c == 15)
            commit(42, 45);
        deliverCycle(ibs, rec);
        deliverCycle(ris, rec);
    }

    for (const TechniqueSampler *s : {&ibs, &ris}) {
        SCOPED_TRACE(s->config().name);
        EXPECT_EQ(s->samplesTaken(), 1u);
        EXPECT_EQ(s->samplesDropped(), 1u);
        EXPECT_EQ(s->pics().total(), static_cast<double>(period));
        EXPECT_EQ(s->pics().cycles(pcOf(41), 0), 0.0);
    }
    EXPECT_EQ(ibs.pics().cycles(pcOf(42), 0), static_cast<double>(period));
    EXPECT_EQ(ris.pics().cycles(pcOf(45), 0), static_cast<double>(period));

    ibs.onEnd(21);
    ris.onEnd(21);
    EXPECT_EQ(ibs.samplesDropped(), 2u);
    EXPECT_EQ(ris.samplesDropped(), 2u);
}

TEST(Sampler, FiresRealignAfterACycleJump)
{
    // Fires sit at multiples of the period however the record cycles
    // advance: one at a time, past a fire point, onto one, or in spans
    // that start after a jump.
    TechniqueSampler tea(teaConfig(10));
    CycleRecord rec;
    rec.state = CommitState::Compute;
    rec.numCommitted = 1;
    rec.committed[0] = CommittedUop{1, 7, Psv{}};
    for (Cycle c : {0, 1, 25, 26, 30, 40, 57, 61, 100}) {
        rec.cycle = c;
        deliverCycle(tea, rec); // fires at 0, 30, 40 and 100
    }
    CycleRecord idle; // charged to the last retire, pc 7
    idle.state = CommitState::Flushed;
    idle.cycle = 135;
    tea.onSpan(idle, 16); // [135, 151): fires at 140 and 150
    idle.cycle = 151;
    tea.onSpan(idle, 9); // [151, 160): none
    idle.cycle = 1000;
    tea.onSpan(idle, 2); // [1000, 1002): fires at 1000
    EXPECT_EQ(tea.samplesTaken(), 7u);
    EXPECT_EQ(tea.pics().cycles(7, 0), 70.0);
}

TEST(Sampler, NoTagInFlightTakesNoPhantomSample)
{
    // The empty tag is invalidSeqNum. A commit slot that carries that
    // seq must not complete a sample when no tag is in flight, whether
    // the sampler is fed per event or through the skip-ahead onBatch.
    TraceEvent events[2];
    events[0].rec.cycle = 0; // the fire
    events[0].rec.state = CommitState::Compute;
    events[0].rec.numCommitted = 1;
    events[0].rec.committed[0] = CommittedUop{0, 5, Psv{}};
    events[1].rec.cycle = 1;
    events[1].rec.state = CommitState::Compute;
    events[1].rec.numCommitted = 1;
    events[1].rec.committed[0] = CommittedUop{invalidSeqNum, 6, Psv{}};

    TechniqueSampler per_event(teaConfig(127));
    for (const TraceEvent &ev : events)
        deliverEvent(ev, per_event);
    TechniqueSampler batched(teaConfig(127));
    batched.onBatch(events, 2);

    for (const TechniqueSampler *s : {&per_event, &batched}) {
        EXPECT_EQ(s->samplesTaken(), 1u);
        EXPECT_EQ(s->pics().total(), 127.0);
        EXPECT_EQ(s->pics().cycles(6, 0), 0.0);
    }
}

TEST(Sampler, NciMisattributesFlushCycles)
{
    // On a flush-heavy workload NCI attributes flush cycles to the
    // next-committing instruction; TEA to the flushing instruction.
    Observed o = observe(workloads::byName("nab"),
                         {teaConfig(127), nciTeaConfig(127)});
    double tea_err = o.samplers[0]->pics().errorAgainst(o.golden().pics());
    double nci_err = o.samplers[1]->pics().errorAgainst(o.golden().pics());
    EXPECT_LT(tea_err, 0.05);
    EXPECT_GT(nci_err, 5.0 * tea_err);
}

TEST(Sampler, PhaseOffsetsSampleDifferentCycles)
{
    SamplerConfig a = teaConfig(100);
    SamplerConfig b = teaConfig(100);
    b.phase = 50;
    Observed o = observe(workloads::branchNoise(3000), {a, b});
    EXPECT_GT(o.samplers[0]->samplesTaken(), 0u);
    EXPECT_GT(o.samplers[1]->samplesTaken(), 0u);
}

TEST(Correlation, FlushEventsCorrelatePerfectlyWhenUniform)
{
    Observed o = observe(workloads::byName("nab"), {});
    auto corr = eventImpactCorrelation(o.golden());
    auto flex = corr[static_cast<unsigned>(Event::FlEx)];
    ASSERT_TRUE(flex.valid);
    EXPECT_GT(flex.r, 0.9);
}

TEST(Correlation, RequiresThreeSitesAndVariance)
{
    Observed o = observe(workloads::aluLoop(500), {});
    auto corr = eventImpactCorrelation(o.golden());
    for (const auto &c : corr)
        EXPECT_FALSE(c.valid); // no events at all
}

TEST(Overhead, StorageMatchesPaper)
{
    CoreConfig cfg;
    StorageBreakdown b = teaStorage(cfg);
    EXPECT_NEAR(b.totalBytes(), 249.0, 1.0);
    EXPECT_NEAR(robFetchBufferStorageFraction(cfg), 0.917, 0.01);
    EXPECT_DOUBLE_EQ(tipStorageBytes(), 57.0);
    EXPECT_EQ(sampleBytes(), 88u);
}

TEST(Overhead, StorageScalesWithRob)
{
    CoreConfig small;
    small.robEntries = 96;
    CoreConfig big;
    big.robEntries = 192;
    EXPECT_LT(teaStorage(small).totalBytes(),
              teaStorage(big).totalBytes());
}

TEST(Overhead, PerfOverheadModel)
{
    EXPECT_NEAR(samplingPerfOverhead(800'000), 0.011, 0.001);
    EXPECT_GT(samplingPerfOverhead(200'000),
              samplingPerfOverhead(800'000));
}

TEST(Overhead, PowerModelFractionTiny)
{
    PowerModel pm;
    EXPECT_LT(pm.coreFraction(), 0.002); // ~0.1% of core power
}
