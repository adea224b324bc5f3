/**
 * @file
 * The sweep engine's contract (analysis/sweep):
 *  - golden expansion regression — the checked-in example sweeps pin
 *    their experiment count, names and expansion fingerprint, so spec
 *    expansion cannot drift without a deliberate sweepSpecVersion bump;
 *  - randomized acceptance — seeded random KernelSpec x preset
 *    experiments run with the invariant auditor at level 1 and produce
 *    bit-identical golden and technique Pics one by one and as a suite
 *    with 8 experiments in flight;
 *  - legacy-name compatibility — the generator-backed registry resolves
 *    every historical suite name to the same workload (same trace-cache
 *    fingerprint) as the direct factory;
 *  - end-to-end acceptance — the 120-experiment example sweep runs to
 *    completion through runExperimentSuite with trace caching on,
 *    auditing on, and zero degraded experiments, and its report matches
 *    `sweep_cli --example`'s stdout pinned in tests/sweep_example.txt
 *    byte for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "analysis/audit.hh"
#include "analysis/sweep.hh"
#include "analysis/trace_cache.hh"
#include "common/fingerprint.hh"
#include "common/rng.hh"

using namespace tea;
using workloads::KernelSpec;
using workloads::MemLevel;

// --- knob application --------------------------------------------------

TEST(SweepParams, ApplyKernelParamSetsEveryKnob)
{
    KernelSpec s;
    applyKernelParam(s, "seed", "99");
    applyKernelParam(s, "iterations", "123");
    applyKernelParam(s, "level", "LLC");
    applyKernelParam(s, "footprint", "65536");
    applyKernelParam(s, "stride", "128");
    applyKernelParam(s, "dependent", "0");
    applyKernelParam(s, "loads", "3");
    applyKernelParam(s, "branches", "2");
    applyKernelParam(s, "taken", "250");
    applyKernelParam(s, "chain", "5");
    applyKernelParam(s, "chains", "4");
    applyKernelParam(s, "targets", "32");

    EXPECT_EQ(s.seed, 99u);
    EXPECT_EQ(s.iterations, 123u);
    EXPECT_EQ(s.level, MemLevel::Llc);
    EXPECT_EQ(s.footprintBytes, 65536u);
    EXPECT_EQ(s.strideBytes, 128u);
    EXPECT_FALSE(s.dependent);
    EXPECT_EQ(s.loadsPerIteration, 3u);
    EXPECT_EQ(s.branchesPerIteration, 2u);
    EXPECT_EQ(s.takenPermille, 250u);
    EXPECT_EQ(s.chainLength, 5u);
    EXPECT_EQ(s.chains, 4u);
    EXPECT_EQ(s.targetPool, 32u);
}

TEST(SweepParams, MalformedValuesAreFatal)
{
    // A sign or a value past the field's width must exit cleanly, not
    // wrap to 2^64-1 or truncate to 1.
    KernelSpec s;
    EXPECT_EXIT(applyKernelParam(s, "seed", "-1"),
                ::testing::ExitedWithCode(1),
                "kernel parameter 'seed' must be a non-negative integer");
    EXPECT_EXIT(applyKernelParam(s, "iterations", "4294967297"),
                ::testing::ExitedWithCode(1),
                "kernel parameter 'iterations' must be a non-negative");
}

// --- expansion ---------------------------------------------------------

TEST(SweepExpand, PresetsOutermostLastAxisFastest)
{
    SweepSpec spec;
    spec.name = "t";
    spec.presets = {"big_ooo", "little_inorder"};
    spec.axes = {{"taken", {"100", "900"}}, {"chains", {"1", "2"}}};

    const std::vector<SweepExperiment> exps = expandSweep(spec);
    ASSERT_EQ(exps.size(), 8u);
    EXPECT_EQ(exps[0].name, "t/big_ooo/taken=100,chains=1");
    EXPECT_EQ(exps[1].name, "t/big_ooo/taken=100,chains=2");
    EXPECT_EQ(exps[2].name, "t/big_ooo/taken=900,chains=1");
    EXPECT_EQ(exps[4].name, "t/little_inorder/taken=100,chains=1");
    EXPECT_EQ(exps[7].name, "t/little_inorder/taken=900,chains=2");
    EXPECT_EQ(exps[0].spec.takenPermille, 100u);
    EXPECT_EQ(exps[7].spec.chains, 2u);
}

TEST(SweepExpand, NoAxesMeansOneBaseExperimentPerPreset)
{
    SweepSpec spec;
    spec.name = "t";
    spec.presets = {"big_ooo", "little_inorder"};
    const std::vector<SweepExperiment> exps = expandSweep(spec);
    ASSERT_EQ(exps.size(), 2u);
    EXPECT_EQ(exps[0].name, "t/big_ooo/base");
    EXPECT_EQ(exps[1].name, "t/little_inorder/base");
}

TEST(SweepExpand, FootprintsResolveAgainstEachPresetsCaches)
{
    SweepSpec spec;
    spec.presets = {"big_ooo", "big_ooo_mini_caches"};
    spec.axes = {{"level", {"L1D"}}};
    const std::vector<SweepExperiment> exps = expandSweep(spec);
    ASSERT_EQ(exps.size(), 2u);
    // Half-the-L1D default: the mini-cache preset's L1D is smaller, so
    // its resolved footprint must be smaller too — a level axis targets
    // the same *level* everywhere, not the same byte count.
    EXPECT_GT(exps[0].spec.footprintBytes, exps[1].spec.footprintBytes);
    EXPECT_GT(exps[1].spec.footprintBytes, 0u);
}

// --- golden expansion regression ---------------------------------------

TEST(SweepGolden, ExampleSweepExpansionIsPinned)
{
    const std::vector<SweepExperiment> exps = expandSweep(exampleSweep());
    ASSERT_EQ(exps.size(), 120u);
    EXPECT_EQ(exps.front().name,
              "example/big_ooo/level=L1D,dependent=1,taken=100,chains=1");
    EXPECT_EQ(
        exps.back().name,
        "example/little_inorder/level=MEM,dependent=0,taken=900,chains=4");
    // The full expansion — every name, resolved spec and config — pins
    // to one fingerprint. A mismatch means expansion drifted: retune
    // deliberately and bump sweepSpecVersion.
    EXPECT_EQ(hashHex(sweepExpansionFingerprint(exps)),
              "654904b994890419");
}

TEST(SweepGolden, SmokeSweepExpansionIsPinned)
{
    const std::vector<SweepExperiment> exps = expandSweep(smokeSweep());
    ASSERT_EQ(exps.size(), 12u);
    EXPECT_EQ(exps.front().name, "smoke/big_ooo/level=L1D,taken=200");
    EXPECT_EQ(exps.back().name,
              "smoke/little_inorder/level=MEM,taken=800");
    EXPECT_EQ(hashHex(sweepExpansionFingerprint(exps)),
              "1883e94a2f9849a4");
}

// --- legacy suite names ------------------------------------------------

TEST(SweepRegistry, SuiteNamesUnchangedByRegistryMigration)
{
    const std::vector<std::string> expected = {
        "lbm",       "nab",       "bwaves",    "omnetpp",
        "fotonik3d", "exchange2", "mcf",       "xalancbmk",
        "cactuBSSN", "xz",        "gcc",       "deepsjeng",
        "roms",      "cam4",      "perlbench",
    };
    EXPECT_EQ(workloads::suiteNames(), expected);
}

TEST(SweepRegistry, LegacyNamesResolveToTheFactoryWorkloads)
{
    const CoreConfig cfg;
    EXPECT_EQ(TraceCache::fingerprintOf(workloads::byName("lbm"), cfg),
              TraceCache::fingerprintOf(workloads::lbm(), cfg));
    EXPECT_EQ(TraceCache::fingerprintOf(workloads::byName("mcf"), cfg),
              TraceCache::fingerprintOf(workloads::mcf(), cfg));
    EXPECT_EQ(
        TraceCache::fingerprintOf(workloads::byName("exchange2"), cfg),
        TraceCache::fingerprintOf(workloads::exchange2(), cfg));
}

// --- randomized acceptance ---------------------------------------------

namespace {

/** Small random spec: every feature possible, bounded runtime. */
KernelSpec
randomSpec(Rng &rng)
{
    KernelSpec s;
    s.seed = rng.next();
    s.iterations = static_cast<unsigned>(rng.range(200, 600));
    s.level = static_cast<MemLevel>(rng.below(4));
    s.footprintBytes = 1ULL << rng.range(12, 17); // 4 KiB .. 128 KiB
    s.strideBytes = 64;
    s.dependent = rng.below(2) != 0;
    s.loadsPerIteration = static_cast<unsigned>(rng.range(1, 3));
    s.branchesPerIteration = static_cast<unsigned>(rng.below(3));
    s.takenPermille = static_cast<unsigned>(rng.below(1001));
    s.chainLength = static_cast<unsigned>(rng.below(5));
    s.chains = static_cast<unsigned>(rng.range(1, 4));
    s.targetPool = rng.below(2) ? 0 : 24;
    return s;
}

} // namespace

TEST(SweepAcceptance, RandomSpecsAuditCleanAndThreadInvariant)
{
    Rng rng(777);
    const std::vector<std::string> presetNames = presets::names();
    std::vector<SuiteExperiment> experiments;
    for (int i = 0; i < 6; ++i) {
        const KernelSpec spec = randomSpec(rng);
        experiments.push_back(SuiteExperiment{
            workloads::canonicalKernelName(spec),
            [spec] { return workloads::generateKernel(spec); },
            presets::byName(presetNames[rng.below(presetNames.size())])});
    }

    // audit=1 threads an InvariantAuditor through the replay (fatal on
    // any trace/PSV-legality violation) and verifies golden cycle
    // conservation.
    RunnerOptions opts;
    opts.audit = 1;
    opts.threads = 8;
    const std::vector<ExperimentResult> suite =
        runExperimentSuite(experiments, standardTechniques(), opts);
    ASSERT_EQ(suite.size(), experiments.size());

    for (std::size_t i = 0; i < experiments.size(); ++i) {
        const SuiteExperiment &e = experiments[i];
        SCOPED_TRACE(e.name);
        ExperimentResult a =
            runWorkload(e.make(), standardTechniques(), opts, e.cfg);
        const ExperimentResult &b = suite[i];

        ASSERT_FALSE(a.failed()) << a.error;
        ASSERT_FALSE(b.failed()) << b.error;
        EXPECT_EQ(a.stats.cycles, b.stats.cycles);
        EXPECT_EQ(auditPicsIdentical(a.golden->pics(), b.golden->pics()),
                  "");
        ASSERT_EQ(a.techniques.size(), b.techniques.size());
        for (std::size_t t = 0; t < a.techniques.size(); ++t) {
            SCOPED_TRACE(a.techniques[t].config.name);
            EXPECT_EQ(auditPicsIdentical(a.techniques[t].pics,
                                         b.techniques[t].pics),
                      "");
        }
    }
}

// --- end-to-end example sweep ------------------------------------------

TEST(SweepAcceptance, ExampleSweepRunsToCompletionAuditedAndCached)
{
    namespace fs = std::filesystem;
    const fs::path cacheDir =
        fs::temp_directory_path() / "tea-test-sweep-cache";
    fs::remove_all(cacheDir);

    RunnerOptions opts;
    opts.threads =
        std::max(1u, std::thread::hardware_concurrency());
    opts.audit = 1;
    opts.cache.enabled = true;
    opts.cache.dir = cacheDir.string();

    SweepRunResult run =
        runSweep(exampleSweep(), standardTechniques(), opts);

    EXPECT_EQ(run.experiments.size(), 120u);
    ASSERT_EQ(run.results.size(), 120u);
    EXPECT_EQ(run.degraded(), 0u);
    for (const ExperimentResult &r : run.results)
        EXPECT_FALSE(r.failed()) << r.name << ": " << r.error;

    const std::string report = renderSweepReport(run);
    EXPECT_NE(report.find("120 experiments"), std::string::npos);
    EXPECT_NE(report.find("0 degraded"), std::string::npos);
    // Every experiment simulated exactly once into the cache.
    EXPECT_FALSE(fs::is_empty(cacheDir));

    fs::remove_all(cacheDir);

    // Every cycle count, IPC and error is pinned: the predictor, the
    // core and the techniques all feed it.
    std::ifstream pinFile(TEA_SWEEP_PIN, std::ios::binary);
    ASSERT_TRUE(pinFile) << "cannot read " << TEA_SWEEP_PIN;
    std::ostringstream pin;
    pin << pinFile.rdbuf();
    EXPECT_EQ(report, pin.str());
}
