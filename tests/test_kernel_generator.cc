/**
 * @file
 * Property tests for the parameterized bottleneck-kernel generator
 * (workloads/kernel_gen): determinism (same spec, bit-identical
 * expansion and cache fingerprint), canonical-name round-trips,
 * byName() resolution of generated names, and — the heart of the
 * generator's contract — that each knob realizes the bottleneck it
 * names: memory-level footprints land in their miss-rate bands,
 * swept branches converge to the requested taken ratio, interleaved
 * dependence chains raise IPC, and target-pool calls blow out the
 * I-cache.
 */

#include <gtest/gtest.h>

#include "analysis/trace_cache.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "events/event.hh"
#include "test_util.hh"
#include "workloads/kernel_gen.hh"

using namespace tea;
using namespace tea::workloads;

namespace {

std::uint64_t
eventCount(const CoreStats &s, Event e)
{
    return s.eventCounts[static_cast<unsigned>(e)];
}

/** Spec of every phase flavour at small scale, for mixing tests. */
KernelSpec
richSpec()
{
    KernelSpec s;
    s.seed = 42;
    s.iterations = 300;
    s.level = MemLevel::Llc;
    s.footprintBytes = 1 << 16;
    s.dependent = true;
    s.loadsPerIteration = 2;
    s.branchesPerIteration = 2;
    s.takenPermille = 700;
    s.chainLength = 4;
    s.chains = 2;
    s.targetPool = 8;
    return s;
}

} // namespace

// --- determinism -------------------------------------------------------

TEST(KernelGen, SameSpecExpandsBitIdentically)
{
    const KernelSpec spec = richSpec();
    Workload a = generateKernel(spec);
    Workload b = generateKernel(spec);

    // The persistent-cache key covers the instruction stream, the
    // initial architectural state and the heap image — equality means
    // the two expansions are interchangeable everywhere (trace cache,
    // replay, audits).
    const CoreConfig cfg;
    EXPECT_EQ(TraceCache::fingerprintOf(a, cfg),
              TraceCache::fingerprintOf(b, cfg));
    EXPECT_EQ(a.program.name(), b.program.name());
    EXPECT_EQ(a.program.size(), b.program.size());
}

TEST(KernelGen, SeedChangesTheExpansion)
{
    KernelSpec a = richSpec();
    KernelSpec b = richSpec();
    b.seed = a.seed + 1;
    const CoreConfig cfg;
    EXPECT_NE(TraceCache::fingerprintOf(generateKernel(a), cfg),
              TraceCache::fingerprintOf(generateKernel(b), cfg));
    EXPECT_NE(kernelSpecFingerprint(a), kernelSpecFingerprint(b));
}

// --- canonical names ---------------------------------------------------

TEST(KernelGen, CanonicalNameRoundTripsEveryField)
{
    const KernelSpec spec = richSpec();
    const std::string name = canonicalKernelName(spec);
    EXPECT_TRUE(isGeneratedKernelName(name));
    EXPECT_EQ(parseKernelName(name), spec);
}

TEST(KernelGen, CanonicalNameRoundTripsRandomizedSpecs)
{
    Rng rng(2026);
    for (int i = 0; i < 200; ++i) {
        KernelSpec s;
        s.seed = rng.next();
        s.iterations = static_cast<unsigned>(rng.range(1, 100000));
        s.level = static_cast<MemLevel>(rng.below(4));
        s.footprintBytes = rng.below(2) ? 0 : (1ULL << rng.range(10, 24));
        s.strideBytes = 8ULL << rng.below(6);
        s.dependent = rng.below(2) != 0;
        s.loadsPerIteration = static_cast<unsigned>(rng.range(1, 8));
        s.branchesPerIteration = static_cast<unsigned>(rng.below(5));
        s.takenPermille = static_cast<unsigned>(rng.below(1001));
        s.chainLength = static_cast<unsigned>(rng.below(9));
        s.chains = static_cast<unsigned>(rng.range(1, 8));
        s.targetPool = static_cast<unsigned>(rng.below(64));
        SCOPED_TRACE(canonicalKernelName(s));
        EXPECT_EQ(parseKernelName(canonicalKernelName(s)), s);
    }
}

TEST(KernelGen, MalformedNamesAreFatal)
{
    // A user-typed name must exit cleanly: no abort on bad syntax, no
    // wrap of a sign to 2^64-1, no truncation to 32 bits.
    const std::string name = canonicalKernelName(richSpec());
    auto with = [&](const std::string &field, const std::string &value) {
        const std::size_t at = name.find(":" + field + "=") + 1;
        const std::size_t end = name.find(':', at);
        return name.substr(0, at) + field + "=" + value +
               name.substr(end);
    };
    EXPECT_EXIT(parseKernelName(with("it", "8x0")),
                ::testing::ExitedWithCode(1),
                "field 'it' must be a non-negative integer");
    EXPECT_EXIT(parseKernelName(with("it", "4294967297")),
                ::testing::ExitedWithCode(1),
                "field 'it' must be a non-negative integer");
    EXPECT_EXIT(parseKernelName(with("s", "-1")),
                ::testing::ExitedWithCode(1),
                "field 's' must be a non-negative integer");
    EXPECT_EXIT(parseKernelName("kgen/v1:s=11:it=800"),
                ::testing::ExitedWithCode(1), "expected field 'lv'");
}

TEST(KernelGen, ByNameResolvesGeneratedNames)
{
    const KernelSpec spec = richSpec();
    const std::string name = canonicalKernelName(spec);
    Workload direct = generateKernel(spec);
    Workload named = workloads::byName(name);
    const CoreConfig cfg;
    EXPECT_EQ(TraceCache::fingerprintOf(direct, cfg),
              TraceCache::fingerprintOf(named, cfg));
}

TEST(KernelGen, SuiteNamesAreNotGeneratedNames)
{
    for (const std::string &n : workloads::suiteNames())
        EXPECT_FALSE(isGeneratedKernelName(n)) << n;
    EXPECT_FALSE(isGeneratedKernelName("kgen"));
    // Any kgen/ prefix claims the name, so a malformed spec fails in
    // parseKernelName with a spec-level diagnostic instead of falling
    // through to "unknown workload".
    EXPECT_TRUE(isGeneratedKernelName("kgen/v999:bogus"));
}

TEST(KernelGen, MemLevelNamesRoundTrip)
{
    for (MemLevel l : {MemLevel::None, MemLevel::L1D, MemLevel::Llc,
                       MemLevel::Mem})
        EXPECT_EQ(memLevelByName(memLevelName(l)), l);
}

// --- memory-level targeting -------------------------------------------

TEST(KernelGen, L1dFootprintStaysInTheL1Band)
{
    KernelSpec s;
    s.level = MemLevel::L1D;
    s.iterations = 4096;
    s.loadsPerIteration = 2;
    s.dependent = true;
    const KernelSpec r = resolvedSpec(s, CoreConfig{});
    test::CoreRun run = test::runCore(generateKernel(r));

    const double loads = static_cast<double>(kernelLoads(r));
    ASSERT_GT(loads, 0.0);
    const double l1MissRate =
        static_cast<double>(eventCount(run->stats(), Event::StL1)) / loads;
    // Half-the-L1 footprint: after the compulsory lap everything hits.
    EXPECT_LT(l1MissRate, 0.05) << "L1D-resident kernel misses L1";
}

TEST(KernelGen, LlcFootprintMissesL1ButHitsLlc)
{
    KernelSpec s;
    s.level = MemLevel::Llc;
    s.footprintBytes = 512 * 1024; // 8192 lines: 16x L1D, 1/4 LLC
    s.iterations = 32768;          // 8 laps of the ring
    s.loadsPerIteration = 2;
    s.dependent = true;
    const KernelSpec r = resolvedSpec(s, CoreConfig{});
    test::CoreRun run = test::runCore(generateKernel(r));

    const double loads = static_cast<double>(kernelLoads(r));
    const double l1MissRate =
        static_cast<double>(eventCount(run->stats(), Event::StL1)) / loads;
    const double llcMissRate =
        static_cast<double>(eventCount(run->stats(), Event::StLlc)) /
        loads;
    // A dependent chase over 16x the L1's line capacity defeats the
    // next-line prefetcher: nearly every load leaves the L1 but stays
    // in the LLC once the compulsory lap is paid.
    EXPECT_GT(l1MissRate, 0.6) << "LLC-level kernel still hits L1";
    EXPECT_LT(llcMissRate, 0.3) << "LLC-level kernel spills to DRAM";
}

TEST(KernelGen, MemFootprintMissesTheLlc)
{
    KernelSpec s;
    s.level = MemLevel::Mem;
    s.iterations = 32768; // one compulsory lap of the default 4 MiB ring
    s.loadsPerIteration = 2;
    s.dependent = true;
    const KernelSpec r = resolvedSpec(s, CoreConfig{});
    ASSERT_GT(r.footprintBytes / r.strideBytes, 32768u)
        << "MEM default footprint must exceed the LLC's line capacity";
    test::CoreRun run = test::runCore(generateKernel(r));

    const double loads = static_cast<double>(kernelLoads(r));
    const double llcMissRate =
        static_cast<double>(eventCount(run->stats(), Event::StLlc)) /
        loads;
    EXPECT_GT(llcMissRate, 0.5) << "MEM-level kernel not DRAM-bound";
}

// --- taken-ratio realization ------------------------------------------

TEST(KernelGen, TakenRatioConvergesToTheRequest)
{
    for (unsigned permille : {100u, 500u, 900u}) {
        KernelSpec s;
        s.seed = 3;
        s.iterations = 2000;
        s.branchesPerIteration = 4;
        s.takenPermille = permille;
        Workload w = generateKernel(s);
        ArchState fin =
            test::runFunctional(w.program, std::move(w.initial));

        const double branches = static_cast<double>(kernelBranches(s));
        const double notTaken =
            static_cast<double>(fin.regs[kernelNotTakenReg]);
        const double realized = 1.0 - notTaken / branches;
        EXPECT_NEAR(realized, permille / 1000.0, 0.03)
            << "requested " << permille << " permille";
    }
}

// --- ILP realization ---------------------------------------------------

TEST(KernelGen, InterleavedChainsRaiseIpc)
{
    KernelSpec serial;
    serial.iterations = 2000;
    serial.chainLength = 6;
    serial.chains = 1;
    KernelSpec wide = serial;
    wide.chains = 6;

    test::CoreRun a = test::runCore(generateKernel(serial));
    test::CoreRun b = test::runCore(generateKernel(wide));
    // Six independent chains give the backend ~6x the ILP of one; even
    // with loop overhead the wide kernel must be well past 1.8x.
    EXPECT_GT(b->stats().ipc(), 1.8 * a->stats().ipc());
}

// --- target-pool front-end stress -------------------------------------

TEST(KernelGen, LargeTargetPoolThrashesTheICache)
{
    KernelSpec small;
    small.iterations = 400;
    small.targetPool = 16; // ~1 KiB of pool code: I-cache resident
    KernelSpec large = small;
    large.targetPool = 600; // ~38 KiB of pool code: exceeds 32 KiB L1I

    test::CoreRun a = test::runCore(generateKernel(small));
    test::CoreRun b = test::runCore(generateKernel(large));
    EXPECT_GT(eventCount(b->stats(), Event::DrL1),
              10 * std::max<std::uint64_t>(
                       1, eventCount(a->stats(), Event::DrL1)));
}

// --- mixed kernels -----------------------------------------------------

TEST(KernelGen, MixedKernelRunsEveryPhase)
{
    KernelSpec memory;
    memory.iterations = 500;
    memory.level = MemLevel::L1D;
    memory = resolvedSpec(memory, CoreConfig{});
    KernelSpec branchy;
    branchy.iterations = 500;
    branchy.branchesPerIteration = 2;
    branchy.takenPermille = 300;

    Workload w = generateMixedKernel("mixed_test", {memory, branchy});
    ArchState fin = test::runFunctional(
        w.program, w.initial); // copy: the core run needs it too
    // Phase 2's branch counter is architecturally visible...
    EXPECT_GT(fin.regs[kernelNotTakenReg], 0u);

    // ...and the timing model executes both phases' work.
    test::CoreRun run = test::runCore(std::move(w));
    EXPECT_GE(run->stats().committedUops,
              kernelLoads(memory) + kernelBranches(branchy));
}
