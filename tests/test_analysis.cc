/**
 * @file
 * Tests for the experiment runner and report rendering.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <gtest/gtest.h>

#include "analysis/report.hh"
#include "analysis/runner.hh"
#include "isa/builder.hh"

using namespace tea;

namespace {

/**
 * errorOf as it was before it stopped copying tables, kept as the
 * oracle: aggregate both tables, normalize the technique's to the
 * golden total, then sum min(golden, technique) over the golden table
 * in its iteration order. An absent cell adds min(v, 0.0) = +0.0,
 * which leaves the sum unchanged, as skipping it did.
 */
double
copyingErrorOf(const ExperimentResult &res, const TechniqueResult &t,
               Granularity g)
{
    const Pics gold = res.golden->pics()
                          .masked(t.config.eventMask)
                          .aggregated(res.program, g);
    if (gold.total() <= 0.0)
        return 0.0;
    const Pics mine =
        t.pics.aggregated(res.program, g).normalized(gold.total());
    double correct = 0.0;
    for (const PicsComponent &c : gold.components())
        correct += std::min(c.cycles, mine.cycles(c.unit, c.signature));
    return (gold.total() - correct) / gold.total();
}

constexpr Granularity allGranularities[] = {
    Granularity::Instruction, Granularity::BasicBlock,
    Granularity::Function, Granularity::Application};

} // namespace

TEST(Runner, RunsAllTechniquesOnOneTrace)
{
    ExperimentResult res = runBenchmark("exchange2",
                                        standardTechniques());
    ASSERT_EQ(res.techniques.size(), 5u);
    EXPECT_EQ(res.techniques[0].config.name, "IBS");
    EXPECT_EQ(res.techniques[4].config.name, "TEA");
    for (const TechniqueResult &t : res.techniques)
        EXPECT_GT(t.samplesTaken, 100u) << t.config.name;
    EXPECT_GT(res.golden->pics().total(), 0.0);
}

TEST(Runner, TechniqueLookupByName)
{
    ExperimentResult res = runBenchmark("exchange2", {teaConfig()});
    EXPECT_EQ(res.technique("TEA").config.policy,
              SamplePolicy::TimeProportional);
}

TEST(Runner, ErrorOrderingOnFlushHeavyBenchmark)
{
    ExperimentResult res = runBenchmark("nab", standardTechniques());
    double tea = res.errorOf(res.technique("TEA"));
    double nci = res.errorOf(res.technique("NCI-TEA"));
    double ibs = res.errorOf(res.technique("IBS"));
    EXPECT_LT(tea, nci);
    EXPECT_LT(nci, ibs);
}

TEST(Runner, ErrorUsesMaskedGolden)
{
    // A technique must not be penalized for events outside its set:
    // TIP (no events) on a miss-heavy benchmark still gets a meaningful
    // (instruction-profile) error, strictly below 100%.
    ExperimentResult res = runBenchmark("fotonik3d", {tipConfig()});
    double err = res.errorOf(res.technique("TIP"));
    EXPECT_GT(err, 0.0);
    EXPECT_LT(err, 0.2);
}

TEST(Runner, GranularityReducesError)
{
    ExperimentResult res = runBenchmark("xalancbmk", {teaConfig()});
    const TechniqueResult &tea = res.technique("TEA");
    double inst = res.errorOf(tea, Granularity::Instruction);
    double fn = res.errorOf(tea, Granularity::Function);
    double app = res.errorOf(tea, Granularity::Application);
    EXPECT_LE(fn, inst);
    EXPECT_LE(app, fn + 1e-9);
}

TEST(Runner, CustomConfigRespected)
{
    CoreConfig tiny;
    tiny.robEntries = 32;
    ExperimentResult big = runBenchmark("fotonik3d", {});
    ExperimentResult small = runBenchmark("fotonik3d", {}, tiny);
    EXPECT_GT(small.stats.cycles, big.stats.cycles);
}

TEST(Report, TopInstructionsRendersDisassemblyAndSignatures)
{
    ExperimentResult res = runBenchmark("nab", {});
    std::string out = renderTopInstructions(res.program,
                                            res.golden->pics(), 3,
                                            res.golden->pics().total());
    EXPECT_NE(out.find("fsqrt"), std::string::npos);
    EXPECT_NE(out.find("FL-EX"), std::string::npos);
    EXPECT_NE(out.find("%"), std::string::npos);
}

TEST(Report, InstructionStackForSpecificPc)
{
    ExperimentResult res = runBenchmark("exchange2", {});
    auto top = res.golden->pics().topUnits(1);
    ASSERT_FALSE(top.empty());
    std::string out = renderInstructionStack(
        res.program, res.golden->pics(), top[0],
        res.golden->pics().total());
    EXPECT_FALSE(out.empty());
    EXPECT_NE(out.find("cycles"), std::string::npos);
}

TEST(Report, InstructionStackBreaksCycleTiesBySignature)
{
    // Signatures of one pc with equal cycles print by ascending
    // signature, whichever of them the table touched first.
    ProgramBuilder b("t");
    b.nop();
    b.halt();
    const Program prog = b.build();
    Psv l1;
    l1.set(Event::StL1);
    Psv llc;
    llc.set(Event::StLlc);
    Psv both = l1;
    both.merge(llc);
    Pics forward;
    forward.add(0, both, 5.0);
    forward.add(0, llc, 5.0);
    forward.add(0, l1, 5.0);
    forward.add(0, Psv{}, 2.0);
    Pics backward;
    backward.add(0, Psv{}, 2.0);
    backward.add(0, l1, 5.0);
    backward.add(0, llc, 5.0);
    backward.add(0, both, 5.0);

    const std::string out = renderInstructionStack(prog, forward, 0, 17.0);
    EXPECT_EQ(out, renderInstructionStack(prog, backward, 0, 17.0));
    const std::size_t at_l1 = out.find("ST-L1 ");
    const std::size_t at_llc = out.find("ST-LLC ");
    const std::size_t at_both = out.find("ST-L1+ST-LLC");
    const std::size_t at_base = out.find("Base");
    ASSERT_NE(at_l1, std::string::npos) << out;
    ASSERT_NE(at_llc, std::string::npos) << out;
    ASSERT_NE(at_both, std::string::npos) << out;
    ASSERT_NE(at_base, std::string::npos) << out;
    EXPECT_LT(at_l1, at_llc) << out;
    EXPECT_LT(at_llc, at_both) << out;
    EXPECT_LT(at_both, at_base) << out;
}

TEST(Report, HandlesZeroTotalGracefully)
{
    ExperimentResult res = runBenchmark("exchange2", {});
    Pics empty;
    std::string out =
        renderTopInstructions(res.program, empty, 3, 0.0);
    EXPECT_TRUE(out.empty());
}

TEST(Runner, ErrorOfMatchesCopyingOracleBitForBit)
{
    // errorOf masks the golden reference once and, at instruction
    // granularity, scores against it without aggregating or
    // normalizing copies; the error must keep every bit.
    std::vector<SamplerConfig> techniques = standardTechniques();
    techniques.push_back(tipConfig());
    techniques.push_back(dtagTeaConfig());
    for (const char *name : {"nab", "mcf", "xalancbmk"}) {
        SCOPED_TRACE(name);
        const ExperimentResult res = runBenchmark(name, techniques);
        ASSERT_EQ(res.techniques.size(), techniques.size());
        for (const TechniqueResult &t : res.techniques) {
            for (Granularity g : allGranularities) {
                SCOPED_TRACE(testing::Message()
                             << t.config.name << " at "
                             << granularityName(g));
                const double got = res.errorOf(t, g);
                if (g == Granularity::Instruction) {
                    EXPECT_GT(got, 0.0);
                }
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                          std::bit_cast<std::uint64_t>(
                              copyingErrorOf(res, t, g)));
            }
        }
    }
}

TEST(Runner, ErrorOfAZeroTotalTechniqueIsOne)
{
    // A technique that took no sample normalizes to an empty table, so
    // none of the golden reference's cycles are correct.
    const ExperimentResult res = runBenchmark("nab", {teaConfig()});
    TechniqueResult none;
    none.config = teaConfig();
    ASSERT_EQ(none.pics.total(), 0.0);
    for (Granularity g : allGranularities) {
        SCOPED_TRACE(granularityName(g));
        EXPECT_EQ(res.errorOf(none, g), 1.0);
        EXPECT_EQ(copyingErrorOf(res, none, g), 1.0);
    }
}
