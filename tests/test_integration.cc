/**
 * @file
 * End-to-end integration tests asserting the paper's headline results
 * hold in this reproduction (Fig 5, 9, 10, 11, 12 shapes).
 */

#include <gtest/gtest.h>

#include "analysis/runner.hh"
#include "profilers/correlation.hh"

using namespace tea;

namespace {

struct SuiteErrors
{
    double ibs = 0.0;
    double spe = 0.0;
    double ris = 0.0;
    double nci = 0.0;
    double tea = 0.0;
    double teaMax = 0.0;
};

/** Average Fig 5 errors over a subset of the suite (kept small so the
 * test stays fast; the full sweep lives in bench/fig5_accuracy). */
SuiteErrors
runSubset(const std::vector<std::string> &names)
{
    SuiteErrors e;
    for (const auto &name : names) {
        ExperimentResult res = runBenchmark(name, standardTechniques());
        e.ibs += res.errorOf(res.technique("IBS"));
        e.spe += res.errorOf(res.technique("SPE"));
        e.ris += res.errorOf(res.technique("RIS"));
        e.nci += res.errorOf(res.technique("NCI-TEA"));
        double t = res.errorOf(res.technique("TEA"));
        e.tea += t;
        e.teaMax = std::max(e.teaMax, t);
    }
    auto n = static_cast<double>(names.size());
    e.ibs /= n;
    e.spe /= n;
    e.ris /= n;
    e.nci /= n;
    e.tea /= n;
    return e;
}

} // namespace

TEST(Integration, Fig5AccuracyHierarchy)
{
    SuiteErrors e = runSubset({"nab", "omnetpp", "exchange2", "mcf"});
    // The paper's ordering: TEA << NCI-TEA << IBS/SPE/RIS.
    EXPECT_LT(e.tea, 0.05);
    EXPECT_LT(e.tea, e.nci);
    EXPECT_LT(e.nci, 0.5 * e.ibs);
    EXPECT_GT(e.ibs, 0.35);
    EXPECT_GT(e.spe, 0.35);
    EXPECT_GT(e.ris, 0.35);
}

TEST(Integration, Fig9FunctionGranularityKeepsOrdering)
{
    ExperimentResult res = runBenchmark("omnetpp", standardTechniques());
    double tea = res.errorOf(res.technique("TEA"),
                             Granularity::Function);
    double ibs = res.errorOf(res.technique("IBS"),
                             Granularity::Function);
    // IBS improves at coarse granularity but stays inaccurate because
    // cycles are misattributed to the wrong events.
    EXPECT_LT(tea, ibs);
    EXPECT_GT(ibs, 0.2);
}

TEST(Integration, Fig10TeaIdentifiesLbmCriticalLoad)
{
    ExperimentResult res = runBenchmark("lbm",
                                        {teaConfig(), ibsConfig()});
    // The top unit of both golden and TEA must be the critical load,
    // with an LLC-miss-dominated stack.
    auto golden_top = res.golden->pics().topUnits(1);
    auto tea_top = res.technique("TEA").pics.topUnits(1);
    ASSERT_FALSE(golden_top.empty());
    ASSERT_FALSE(tea_top.empty());
    EXPECT_EQ(golden_top[0], tea_top[0]);
    EXPECT_TRUE(
        res.program.inst(static_cast<InstIndex>(golden_top[0])).isLoad());

    double llc_cycles = 0.0;
    for (const PicsComponent &c : res.golden->pics().components()) {
        if (c.unit == golden_top[0] &&
            Psv(c.signature).test(Event::StLlc)) {
            llc_cycles += c.cycles;
        }
    }
    EXPECT_GT(llc_cycles,
              0.8 * res.golden->pics().unitCycles(golden_top[0]));

    // IBS must NOT identify the load (front-end tagging bias).
    auto ibs_top = res.technique("IBS").pics.topUnits(1);
    ASSERT_FALSE(ibs_top.empty());
    EXPECT_NE(ibs_top[0], golden_top[0]);
}

TEST(Integration, Fig11PrefetchMovesBottleneckToStores)
{
    workloads::LbmParams base;
    base.cells = 12288;
    base.sweeps = 1;
    workloads::LbmParams opt = base;
    opt.prefetchDistance = 4;

    ExperimentResult before = runWorkload(workloads::lbm(base), {});
    ExperimentResult after = runWorkload(workloads::lbm(opt), {});

    double speedup = static_cast<double>(before.stats.cycles) /
                     static_cast<double>(after.stats.cycles);
    EXPECT_GT(speedup, 1.15); // paper: 1.28x
    EXPECT_LT(speedup, 2.5);

    // DR-SQ-involving cycles grow with prefetching.
    auto drsq_cycles = [](const ExperimentResult &r) {
        double sum = 0.0;
        for (const PicsComponent &c : r.golden->pics().components()) {
            if (Psv(c.signature).test(Event::DrSq))
                sum += c.cycles;
        }
        return sum;
    };
    EXPECT_GT(drsq_cycles(after), drsq_cycles(before));
}

TEST(Integration, Fig12NabFlushAnalysis)
{
    ExperimentResult res = runBenchmark("nab", {teaConfig()});
    const Pics &gold = res.golden->pics();
    // Top instruction is the fsqrt with an event-free (Base) stack.
    auto top = gold.topUnits(1);
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(res.program.inst(static_cast<InstIndex>(top[0])).op,
              Op::FSqrt);
    EXPECT_GT(gold.cycles(top[0], 0),
              0.95 * gold.unitCycles(top[0]));
    // The CSR instructions carry FL-EX-dominated stacks.
    Psv flex;
    flex.set(Event::FlEx);
    double flex_cycles = 0.0;
    for (const PicsComponent &c : gold.components()) {
        if (c.signature == flex.bits())
            flex_cycles += c.cycles;
    }
    EXPECT_GT(flex_cycles, 0.2 * gold.total());
}

TEST(Integration, EventFreeStallsAreShort)
{
    // Section 3's coverage claim, on one stall-heavy benchmark: the
    // vast majority of event-free instructions stall only briefly.
    ExperimentResult res = runBenchmark("fotonik3d", {});
    const auto &eventFree = res.golden->stallHistograms()[0];
    ASSERT_NE(eventFree, nullptr);
    EXPECT_LE(eventFree->quantile(0.99), 8u); // paper: 5.8 cycles
}

TEST(Integration, SamplersAgreeOnTotalTime)
{
    // All techniques observe the same trace; their sample budgets must
    // reconstruct a total close to the simulated cycle count.
    ExperimentResult res = runBenchmark("exchange2",
                                        standardTechniques());
    double cycles = static_cast<double>(res.stats.cycles);
    for (const TechniqueResult &t : res.techniques) {
        EXPECT_NEAR(t.pics.total() / cycles, 1.0, 0.1)
            << t.config.name;
    }
}
