/**
 * @file
 * Unit tests for the Pics container: accumulation, masking,
 * normalization, aggregation, the error metric, and the order contract
 * (first-touch iteration whatever the reserve, copies and growth).
 */

#include <bit>
#include <cstdint>
#include <gtest/gtest.h>
#include <utility>
#include <vector>

#include "isa/builder.hh"
#include "profilers/pics.hh"

using namespace tea;

namespace {

Psv
psvOf(std::initializer_list<Event> events)
{
    Psv p;
    for (Event e : events)
        p.set(e);
    return p;
}

/** Expect @p p to iterate exactly @p want, doubles compared by bits. */
void
expectCells(const Pics &p, const std::vector<PicsComponent> &want)
{
    const std::vector<PicsComponent> got = p.components();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "cell " << i);
        EXPECT_EQ(got[i].unit, want[i].unit);
        EXPECT_EQ(got[i].signature, want[i].signature);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].cycles),
                  std::bit_cast<std::uint64_t>(want[i].cycles));
    }
}

/**
 * Adds whose first touches run against both unit and signature order,
 * with repeats and fractional amounts, and the cells they must give in
 * first-touch order.
 */
void
addOrderProbe(Pics &p)
{
    p.add(900, Psv(0x11), 1.0 / 3);
    p.add(7, Psv(0x100), 2.5);
    p.add(900, Psv(0x0), 4.0);
    p.add(7, Psv(0x100), 0.25);
    p.add(65536, Psv(0x3), 1.0);
    p.add(0, Psv(0x1ff), 8.0);
    p.add(900, Psv(0x11), 1.0 / 7);
    p.add(7, Psv(0x2), 0.0); // not a touch: nothing to attribute
    p.add(3, Psv(0x2), 0.5);
}

const std::vector<PicsComponent> probeCells = {
    {900, 0x11, 1.0 / 3 + 1.0 / 7}, {7, 0x100, 2.75}, {900, 0x0, 4.0},
    {65536, 0x3, 1.0}, {0, 0x1ff, 8.0}, {3, 0x2, 0.5}};

} // namespace

TEST(Pics, AddAccumulates)
{
    Pics p;
    p.add(1, psvOf({Event::StL1}), 10.0);
    p.add(1, psvOf({Event::StL1}), 5.0);
    p.add(2, Psv{}, 1.0);
    EXPECT_DOUBLE_EQ(p.total(), 16.0);
    EXPECT_DOUBLE_EQ(p.cycles(1, psvOf({Event::StL1}).bits()), 15.0);
    EXPECT_DOUBLE_EQ(p.unitCycles(1), 15.0);
    EXPECT_EQ(p.size(), 2u);
}

TEST(Pics, ZeroOrNegativeAddIgnored)
{
    Pics p;
    p.add(1, Psv{}, 0.0);
    p.add(1, Psv{}, -1.0);
    EXPECT_EQ(p.size(), 0u);
    EXPECT_DOUBLE_EQ(p.total(), 0.0);
}

TEST(Pics, TopUnitsRankedByCycles)
{
    Pics p;
    p.add(1, Psv{}, 5.0);
    p.add(2, Psv{}, 50.0);
    p.add(3, Psv{}, 20.0);
    auto top = p.topUnits(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], 2u);
    EXPECT_EQ(top[1], 3u);

    // Equal totals rank by ascending unit, whatever the touch order.
    Pics ties;
    ties.add(9, Psv{}, 2.0);
    ties.add(4, Psv(0x1), 1.0);
    ties.add(4, Psv(0x2), 1.0);
    ties.add(2, Psv{}, 2.0);
    ties.add(1, Psv{}, 0.5);
    EXPECT_EQ(ties.topUnits(3), (std::vector<std::uint32_t>{2, 4, 9}));
    EXPECT_EQ(ties.topUnits(10), (std::vector<std::uint32_t>{2, 4, 9, 1}));
}

TEST(Pics, MaskedMergesComponents)
{
    Pics p;
    p.add(1, psvOf({Event::StL1, Event::DrSq}), 10.0);
    p.add(1, psvOf({Event::StL1}), 10.0);
    // Masking away DR-SQ merges both into (1, ST-L1).
    Pics m = p.masked(eventMask({Event::StL1}));
    EXPECT_DOUBLE_EQ(m.total(), 20.0);
    EXPECT_DOUBLE_EQ(m.cycles(1, psvOf({Event::StL1}).bits()), 20.0);
    EXPECT_EQ(m.size(), 1u);
}

TEST(Pics, NormalizedRescales)
{
    Pics p;
    p.add(1, Psv{}, 30.0);
    p.add(2, Psv{}, 10.0);
    Pics n = p.normalized(100.0);
    EXPECT_DOUBLE_EQ(n.total(), 100.0);
    EXPECT_DOUBLE_EQ(n.unitCycles(1), 75.0);
}

TEST(Pics, NormalizeEmptyStaysEmpty)
{
    Pics p;
    Pics n = p.normalized(100.0);
    EXPECT_DOUBLE_EQ(n.total(), 0.0);
}

TEST(Pics, ErrorAgainstSelfIsZero)
{
    Pics p;
    p.add(1, psvOf({Event::StL1}), 10.0);
    p.add(2, Psv{}, 30.0);
    EXPECT_DOUBLE_EQ(p.errorAgainst(p), 0.0);
}

TEST(Pics, ErrorOfDisjointIsOne)
{
    Pics a;
    a.add(1, Psv{}, 10.0);
    Pics b;
    b.add(2, Psv{}, 10.0);
    EXPECT_DOUBLE_EQ(a.errorAgainst(b), 1.0);
}

TEST(Pics, ErrorHalfOverlap)
{
    Pics golden;
    golden.add(1, Psv{}, 50.0);
    golden.add(2, Psv{}, 50.0);
    Pics mine;
    mine.add(1, Psv{}, 100.0); // everything on unit 1
    // Normalized to 100: min(50,100)=50 correct -> error 0.5.
    EXPECT_DOUBLE_EQ(mine.errorAgainst(golden), 0.5);
}

TEST(Pics, ErrorCountsSignatureMisattribution)
{
    Pics golden;
    golden.add(1, psvOf({Event::StL1}), 100.0);
    Pics mine;
    mine.add(1, psvOf({Event::StLlc}), 100.0); // right pc, wrong event
    EXPECT_DOUBLE_EQ(mine.errorAgainst(golden), 1.0);
}

TEST(Pics, ErrorIsBounded)
{
    Pics golden;
    golden.add(1, Psv{}, 70.0);
    golden.add(2, psvOf({Event::FlMb}), 30.0);
    Pics mine;
    mine.add(1, Psv{}, 40.0);
    mine.add(3, Psv{}, 60.0);
    double e = mine.errorAgainst(golden);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
}

TEST(Pics, AggregationToFunction)
{
    ProgramBuilder b("t");
    b.beginFunction("first");
    b.nop(); // index 0
    b.nop(); // index 1
    b.endFunction();
    b.beginFunction("second");
    b.halt(); // index 2
    b.endFunction();
    Program prog = b.build();

    Pics p;
    p.add(0, Psv{}, 10.0);
    p.add(1, psvOf({Event::StL1}), 5.0);
    p.add(2, Psv{}, 7.0);
    Pics fn = p.aggregated(prog, Granularity::Function);
    // Function ids are functionOf()+1.
    EXPECT_DOUBLE_EQ(fn.unitCycles(1), 15.0);
    EXPECT_DOUBLE_EQ(fn.unitCycles(2), 7.0);
    EXPECT_DOUBLE_EQ(fn.total(), 22.0);
    // Signatures survive aggregation.
    EXPECT_DOUBLE_EQ(fn.cycles(1, psvOf({Event::StL1}).bits()), 5.0);
}

TEST(Pics, AggregationToApplication)
{
    ProgramBuilder b("t");
    b.nop();
    b.halt();
    Program prog = b.build();
    Pics p;
    p.add(0, Psv{}, 10.0);
    p.add(1, psvOf({Event::FlEx}), 2.0);
    Pics app = p.aggregated(prog, Granularity::Application);
    EXPECT_DOUBLE_EQ(app.unitCycles(0), 12.0);
    EXPECT_EQ(app.size(), 2u); // two signatures remain distinct
}

TEST(Pics, FunctionErrorNeverExceedsInstructionError)
{
    // Aggregation can only merge misattributions within a unit.
    ProgramBuilder b("t");
    b.beginFunction("only");
    b.nop();
    b.nop();
    b.halt();
    b.endFunction();
    Program prog = b.build();

    Pics golden;
    golden.add(0, Psv{}, 50.0);
    golden.add(1, Psv{}, 50.0);
    Pics mine;
    mine.add(0, Psv{}, 100.0);

    double inst_err = mine.errorAgainst(golden);
    double fn_err = mine.aggregated(prog, Granularity::Function)
                        .errorAgainst(golden.aggregated(
                            prog, Granularity::Function));
    EXPECT_LE(fn_err, inst_err);
    EXPECT_DOUBLE_EQ(fn_err, 0.0);
}

TEST(Granularity, Names)
{
    EXPECT_STREQ(granularityName(Granularity::Instruction), "instruction");
    EXPECT_STREQ(granularityName(Granularity::Function), "function");
}

TEST(PicsOrder, IterationIsFirstTouchOrder)
{
    Pics p;
    addOrderProbe(p);
    expectCells(p, probeCells);
    EXPECT_EQ(p.total(), 1.0 / 3 + 2.5 + 4.0 + 0.25 + 1.0 + 8.0 + 1.0 / 7 +
                             0.5);
}

TEST(PicsOrder, ReserveDoesNotChangeTheOrder)
{
    for (std::size_t reserve : {1u, 6u, 7u, 1000u, 100000u}) {
        SCOPED_TRACE(testing::Message() << "reserve " << reserve);
        Pics p;
        p.reserve(reserve);
        addOrderProbe(p);
        expectCells(p, probeCells);
        // A reserve on a filled table changes nothing either.
        p.reserve(4 * reserve);
        expectCells(p, probeCells);
        EXPECT_EQ(p.cycles(7, 0x100), 2.75);
    }
}

TEST(PicsOrder, CopiesAndMovesKeepTheOrderAndTheIndex)
{
    Pics p;
    addOrderProbe(p);
    Pics copied(p);
    Pics assigned;
    assigned.add(1, Psv{}, 1.0);
    assigned = p;
    Pics moved(std::move(copied));
    Pics move_assigned;
    move_assigned = std::move(assigned);
    const double total = p.total();
    for (Pics *q : {&p, &moved, &move_assigned}) {
        expectCells(*q, probeCells);
        EXPECT_EQ(q->total(), total);
        // The index came along: lookups hit, and a new key appends.
        EXPECT_EQ(q->cycles(0, 0x1ff), 8.0);
        EXPECT_EQ(q->cycles(0, 0x1fe), 0.0);
        q->add(5, Psv(0x4), 1.0);
        q->add(900, Psv(0x0), 1.0);
        std::vector<PicsComponent> want = probeCells;
        want[2].cycles = 5.0;
        want.push_back({5, 0x4, 1.0});
        expectCells(*q, want);
    }
}

TEST(PicsOrder, MaskingAllNineEventsReturnsTheSourceCellsInOrder)
{
    // ExperimentResult::errorOf scores TEA and NCI-TEA against the
    // golden table itself on this premise.
    Pics p;
    addOrderProbe(p);
    for (std::uint16_t mask : {std::uint16_t{0x1ff}, std::uint16_t{0xffff}}) {
        SCOPED_TRACE(testing::Message() << "mask " << mask);
        const Pics m = p.masked(mask);
        expectCells(m, probeCells);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(m.total()),
                  std::bit_cast<std::uint64_t>(p.total()));
    }
}

TEST(PicsOrder, DerivedTablesIterateInTheSourcesOrder)
{
    Pics p;
    addOrderProbe(p);
    // Merged cells sit where their first source cell's key first
    // appears, and each sum adds in the source's order.
    expectCells(p.masked(0x1),
                {{900, 0x1, 1.0 / 3 + 1.0 / 7}, {7, 0x0, 2.75},
                 {900, 0x0, 4.0}, {65536, 0x1, 1.0}, {0, 0x1, 8.0},
                 {3, 0x0, 0.5}});
    expectCells(p.masked(0x0),
                {{900, 0x0, 1.0 / 3 + 1.0 / 7 + 4.0}, {7, 0x0, 2.75},
                 {65536, 0x0, 1.0}, {0, 0x0, 8.0}, {3, 0x0, 0.5}});

    const Pics n = p.normalized(2 * p.total());
    std::vector<PicsComponent> doubled = probeCells;
    for (PicsComponent &c : doubled)
        c.cycles *= 2 * p.total() / p.total();
    expectCells(n, doubled);
    EXPECT_EQ(n.cycles(65536, 0x3), 2.0);

    ProgramBuilder b("t");
    for (int i = 0; i < 4; ++i)
        b.nop();
    b.halt();
    const Program prog = b.build();
    const Pics app = p.aggregated(prog, Granularity::Application);
    expectCells(app, {{0, 0x11, 1.0 / 3 + 1.0 / 7}, {0, 0x100, 2.75},
                      {0, 0x0, 4.0}, {0, 0x3, 1.0}, {0, 0x1ff, 8.0},
                      {0, 0x2, 0.5}});
    EXPECT_EQ(app.total(),
              1.0 / 3 + 1.0 / 7 + 2.75 + 4.0 + 1.0 + 8.0 + 0.5);
}

TEST(PicsOrder, FromCellsAdoptsTheCellsAndTheTotal)
{
    const Pics p = Pics::fromCells(probeCells, 21.5);
    expectCells(p, probeCells);
    EXPECT_EQ(p.total(), 21.5);
    EXPECT_EQ(p.cycles(3, 0x2), 0.5);
    EXPECT_EQ(p.cycles(3, 0x3), 0.0);

    Pics added;
    addOrderProbe(added);
    const Pics rebuilt = Pics::fromCells(added.components(), added.total());
    expectCells(rebuilt, added.components());
    EXPECT_EQ(rebuilt.total(), added.total());
}

TEST(PicsOrderDeathTest, FromCellsRejectsARepeatedKey)
{
    const std::vector<PicsComponent> cells = {
        {1, 0x2, 1.0}, {3, 0x2, 1.0}, {1, 0x2, 2.0}};
    EXPECT_DEATH(Pics::fromCells(cells, 4.0), "two cells");
}

TEST(PicsOrder, ManyRehashesKeepEveryCellLookupAndTotal)
{
    // 40,000 pcs with three or four signatures each (130,000 keys),
    // first touched signature by signature across a shuffled pc order,
    // so the table grows through many rehashes; every key is added
    // twice.
    constexpr std::uint32_t pcs = 40000;
    auto sigsOf = [](std::uint32_t pc) { return pc % 4 == 0 ? 4u : 3u; };
    Pics p;
    std::vector<PicsComponent> want;
    double total = 0.0;
    for (int round = 0; round < 2; ++round) {
        for (unsigned k = 0; k < 4; ++k) {
            for (std::uint32_t i = 0; i < pcs; ++i) {
                // 7919 is prime to pcs, so this visits every pc once.
                const std::uint32_t pc = (i * 7919) % pcs * 3 + 1;
                if (k >= sigsOf(pc))
                    continue;
                const auto sig =
                    static_cast<std::uint16_t>((pc * 37 + k * 101) & 0x1ff);
                const double c =
                    round == 0 ? 0.125 * (1 + (pc * 7 + k) % 13) : 1.0 / 3;
                p.add(pc, Psv(sig), c);
                total += c;
                if (round == 0)
                    want.push_back({pc, sig, c});
            }
        }
        ASSERT_EQ(p.size(), want.size()) << "round " << round;
    }
    ASSERT_GE(want.size(), 100000u);
    ASSERT_EQ(p.size(), want.size());
    EXPECT_EQ(p.total(), total);
    // Every cell, in first-touch order, with both of its amounts.
    for (PicsComponent &c : want)
        c.cycles += 1.0 / 3;
    expectCells(p, want);
    // Every lookup, and a miss next to each hit.
    std::size_t wrong = 0;
    for (const PicsComponent &c : want) {
        wrong += p.cycles(c.unit, c.signature) != c.cycles;
        wrong += p.cycles(c.unit + 1, c.signature) != 0.0;
    }
    EXPECT_EQ(wrong, 0u);
    // A unit's sum adds its cells in first-touch order.
    for (std::uint32_t pc : {1u, 4u, 3 * (pcs - 1) + 1}) {
        double sum = 0.0;
        for (const PicsComponent &c : want)
            sum += c.unit == pc ? c.cycles : 0.0;
        EXPECT_EQ(p.unitCycles(pc), sum) << "pc " << pc;
    }
}
