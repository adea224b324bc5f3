/**
 * @file
 * Parameterized bottleneck-kernel generator (see kernel_gen.hh).
 *
 * Expansion is pure: every instruction and every initial-state byte is
 * a function of the (resolved) KernelSpec alone, with all randomness
 * drawn from the spec seed through the deterministic Rng. The golden
 * expansion tests pin this — changing emitted code requires a
 * kernelGenVersion bump.
 */

#include "workloads/kernel_gen.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/env.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/config.hh"
#include "isa/builder.hh"

namespace tea {
namespace workloads {

namespace {

/** Heap base of phase 0; later phases step by phaseRegionBytes. */
constexpr Addr kgenHeapBase = 0x2000'0000;
constexpr Addr phaseRegionBytes = 0x0800'0000; ///< 128 MiB per phase

/** LCG constants of the branch-direction generator (MMIX). */
constexpr std::int64_t lcgMul = 6364136223846793005LL;
constexpr std::int64_t lcgAdd = 1442695040888963407LL;

// Register allocation inside a phase loop. Phases run sequentially and
// re-initialize everything they use, so phases may share registers;
// x28 is the only cross-phase accumulator (not-taken branch count).
constexpr unsigned regIter = 6;      ///< loop counter
constexpr unsigned regBound = 7;     ///< loop bound
constexpr unsigned regChase = 5;     ///< chase pointer
constexpr unsigned regTmp = 9;       ///< stream address scratch
constexpr unsigned regSink = 10;     ///< stream load destination
constexpr unsigned regMask = 11;     ///< stream footprint mask
constexpr unsigned regStride = 12;   ///< stream stride
constexpr unsigned regIdx = 13;      ///< stream load index
constexpr unsigned regBase = 14;     ///< stream heap base
constexpr unsigned regChain0 = 15;   ///< ILP chains: x15 .. x22
constexpr unsigned maxChains = 8;
constexpr unsigned regThresh = 24;   ///< branch taken threshold
constexpr unsigned regLcgMul = 25;   ///< LCG multiplier
constexpr unsigned regLcg = 26;      ///< LCG state
constexpr unsigned regBits = 27;     ///< extracted direction bits
// x28 == kernelNotTakenReg (kernel_gen.hh)
constexpr unsigned regPoolA = 23;    ///< pool-function churn registers
constexpr unsigned regPoolB = 29;
constexpr unsigned regPoolC = 30;

/** Instructions in each target-pool function (~4 B each modelled). */
constexpr unsigned poolFnInsts = 16;

std::uint64_t
roundUpPow2(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/**
 * Specs come from users (kgen names, sweep parameters), so a bad one
 * is fatal, not a panic.
 */
void
validate(const KernelSpec &s)
{
    auto require = [&](bool ok, const char *rule) {
        if (!ok)
            tea_fatal("kernel spec %s: %s",
                      canonicalKernelName(s).c_str(), rule);
    };
    require(s.iterations >= 1, "iterations must be >= 1");
    require(s.takenPermille <= 1000, "takenPermille must be <= 1000");
    if (s.level != MemLevel::None) {
        require(s.strideBytes >= 8 && s.strideBytes % 8 == 0,
                "stride must be a multiple of 8");
        require(s.loadsPerIteration >= 1, "loadsPerIteration must be >= 1");
        require(s.footprintBytes <= phaseRegionBytes / 2,
                "footprint must fit half the 128 MiB phase region");
    }
    if (s.chainLength > 0)
        require(s.chains >= 1 && s.chains <= maxChains,
                strprintf("chains must be in [1, %u]", maxChains).c_str());
    require(s.targetPool <= 4096, "targetPool must be <= 4096");
}

/** Build the permuted chase ring; returns the head address. */
Addr
buildChaseRing(ArchState &st, Addr base, std::uint64_t nodes,
               std::uint64_t stride, std::uint64_t seed)
{
    std::vector<std::uint32_t> perm(nodes);
    std::iota(perm.begin(), perm.end(), 0);
    Rng rng(seed);
    for (std::uint64_t i = nodes - 1; i > 0; --i) {
        auto j = static_cast<std::uint64_t>(rng.below(i + 1));
        std::swap(perm[i], perm[j]);
    }
    for (std::uint64_t i = 0; i < nodes; ++i) {
        Addr from = base + perm[i] * stride;
        Addr to = base + perm[(i + 1) % nodes] * stride;
        st.mem.write(from, to);
    }
    return base + perm[0] * stride;
}

/** Emit one phase's setup, loop and body into @p b / @p st. */
void
emitPhase(ProgramBuilder &b, ArchState &st, const KernelSpec &raw,
          unsigned phase_idx, std::vector<Label> &pool_labels)
{
    KernelSpec s = resolvedSpec(raw, CoreConfig{});
    const Addr heap = kgenHeapBase + phase_idx * phaseRegionBytes;
    tea_assert(s.level == MemLevel::None ||
                   s.footprintBytes <= phaseRegionBytes / 2,
               "kernel spec: footprint %llu exceeds the phase region",
               static_cast<unsigned long long>(s.footprintBytes));

    // --- setup -------------------------------------------------------
    if (s.level != MemLevel::None) {
        if (s.dependent) {
            std::uint64_t nodes = s.footprintBytes / s.strideBytes;
            tea_assert(nodes >= 2, "kernel spec: footprint/stride < 2");
            Addr head = buildChaseRing(st, heap, nodes, s.strideBytes,
                                       s.seed + phase_idx);
            b.li(x(regChase), static_cast<std::int64_t>(head));
        } else {
            b.li(x(regIdx), 0);
            b.li(x(regStride),
                 static_cast<std::int64_t>(s.strideBytes));
            b.li(x(regBase), static_cast<std::int64_t>(heap));
        }
    }
    if (s.branchesPerIteration > 0) {
        // Threshold over a 10-bit draw: taken iff bits < thresh.
        std::int64_t thresh =
            static_cast<std::int64_t>((s.takenPermille * 1024 + 500) /
                                      1000);
        b.li(x(regThresh), thresh);
        b.li(x(regLcgMul), lcgMul);
        b.li(x(regLcg), static_cast<std::int64_t>(
                            mix64(s.seed + 0x9e37 * phase_idx) | 1));
    }
    if (s.chainLength > 0) {
        for (unsigned c = 0; c < s.chains; ++c)
            b.li(x(regChain0 + c), 0);
    }
    b.li(x(regIter), 0);
    b.li(x(regBound), s.iterations);

    // --- loop body ---------------------------------------------------
    Label top = b.here();
    if (s.level != MemLevel::None) {
        const std::int64_t mask =
            static_cast<std::int64_t>(s.footprintBytes - 1);
        for (unsigned l = 0; l < s.loadsPerIteration; ++l) {
            if (s.dependent) {
                b.ld(x(regChase), x(regChase), 0);
            } else {
                b.mul(x(regTmp), x(regIdx), x(regStride));
                b.andi(x(regTmp), x(regTmp), mask);
                b.add(x(regTmp), x(regTmp), x(regBase));
                b.ld(x(regSink), x(regTmp), 0);
                b.addi(x(regIdx), x(regIdx), 1);
            }
        }
    }
    if (s.chainLength > 0) {
        // Interleaved so the backend can mine `chains`-way ILP; each
        // chain is serial through its own register.
        for (unsigned k = 0; k < s.chainLength; ++k)
            for (unsigned c = 0; c < s.chains; ++c)
                b.addi(x(regChain0 + c), x(regChain0 + c), 1);
    }
    for (unsigned br = 0; br < s.branchesPerIteration; ++br) {
        b.mul(x(regLcg), x(regLcg), x(regLcgMul));
        b.addi(x(regLcg), x(regLcg), lcgAdd);
        b.shri(x(regBits), x(regLcg), 40);
        b.andi(x(regBits), x(regBits), 1023);
        Label taken = b.label();
        // The swept branch: taken with probability takenPermille/1000.
        b.blt(x(regBits), x(regThresh), taken);
        b.addi(x(kernelNotTakenReg), x(kernelNotTakenReg), 1);
        b.bind(taken);
    }
    if (s.targetPool > 0) {
        for (unsigned t = 0; t < s.targetPool; ++t)
            b.call(pool_labels[t]);
    }
    b.addi(x(regIter), x(regIter), 1);
    b.blt(x(regIter), x(regBound), top);
}

/** Emit the target-pool functions for one phase. */
void
emitPool(ProgramBuilder &b, unsigned phase_idx, unsigned pool,
         const std::vector<Label> &labels)
{
    for (unsigned t = 0; t < pool; ++t) {
        // += instead of leading `"p" + ...`: GCC 12's -O3 -Wrestrict
        // misfires on operator+(const char*, string&&) under -Werror.
        std::string fn = "p";
        fn += std::to_string(phase_idx);
        fn += "_fn";
        fn += std::to_string(t);
        b.beginFunction(fn);
        b.bind(labels[t]);
        for (unsigned k = 0; k + 2 < poolFnInsts; ++k) {
            unsigned r = (k % 3 == 0)   ? regPoolA
                         : (k % 3 == 1) ? regPoolB
                                        : regPoolC;
            b.addi(x(r), x(r), 1);
        }
        b.ret();
        b.endFunction();
    }
}

std::string
describePhase(const KernelSpec &s)
{
    std::string d;
    if (s.level != MemLevel::None) {
        d += strprintf("%s-level %s (fp=%llu stride=%llu)",
                       memLevelName(s.level),
                       s.dependent ? "chase" : "stream",
                       static_cast<unsigned long long>(s.footprintBytes),
                       static_cast<unsigned long long>(s.strideBytes));
    }
    if (s.branchesPerIteration > 0) {
        d += strprintf("%s%u branches@%u", d.empty() ? "" : " + ",
                       s.branchesPerIteration, s.takenPermille);
    }
    if (s.chainLength > 0) {
        d += strprintf("%silp %ux%u", d.empty() ? "" : " + ", s.chains,
                       s.chainLength);
    }
    if (s.targetPool > 0) {
        d += strprintf("%spool %u", d.empty() ? "" : " + ",
                       s.targetPool);
    }
    if (d.empty())
        d = "empty loop";
    return d;
}

} // namespace

const char *
memLevelName(MemLevel level)
{
    switch (level) {
    case MemLevel::None:
        return "none";
    case MemLevel::L1D:
        return "L1D";
    case MemLevel::Llc:
        return "LLC";
    case MemLevel::Mem:
        return "MEM";
    }
    tea_panic("bad MemLevel %u", static_cast<unsigned>(level));
}

MemLevel
memLevelByName(const std::string &name)
{
    for (MemLevel l : {MemLevel::None, MemLevel::L1D, MemLevel::Llc,
                       MemLevel::Mem}) {
        if (name == memLevelName(l))
            return l;
    }
    tea_fatal("unknown memory level '%s'", name.c_str());
}

std::uint64_t
defaultFootprintFor(MemLevel level, std::uint64_t stride,
                    const CoreConfig &cfg)
{
    switch (level) {
    case MemLevel::None:
        return 0;
    case MemLevel::L1D:
        return cfg.l1d.sizeBytes / 2;
    case MemLevel::Llc:
        return cfg.llc.sizeBytes / 4;
    case MemLevel::Mem: {
        // The LLC holds sizeBytes/64 distinct lines; walking 1.5x that
        // many lines guarantees capacity misses at any stride.
        std::uint64_t lines = cfg.llc.sizeBytes / 64;
        return (lines + lines / 2) * std::max<std::uint64_t>(stride, 64);
    }
    }
    tea_panic("bad MemLevel %u", static_cast<unsigned>(level));
}

KernelSpec
resolvedSpec(const KernelSpec &spec, const CoreConfig &cfg)
{
    validate(spec);
    KernelSpec s = spec;
    if (s.level != MemLevel::None) {
        if (s.footprintBytes == 0)
            s.footprintBytes =
                defaultFootprintFor(s.level, s.strideBytes, cfg);
        s.footprintBytes = roundUpPow2(s.footprintBytes);
        if (s.footprintBytes < 2 * s.strideBytes)
            tea_fatal("kernel spec %s: footprint must cover >= 2 strides",
                      canonicalKernelName(s).c_str());
    }
    return s;
}

std::string
canonicalKernelName(const KernelSpec &s)
{
    return strprintf(
        "kgen/v%u:s=%llu:it=%u:lv=%s:fp=%llu:st=%llu:dep=%u:lpi=%u:"
        "br=%u:tk=%u:cl=%u:ch=%u:tp=%u",
        kernelGenVersion, static_cast<unsigned long long>(s.seed),
        s.iterations, memLevelName(s.level),
        static_cast<unsigned long long>(s.footprintBytes),
        static_cast<unsigned long long>(s.strideBytes),
        s.dependent ? 1 : 0, s.loadsPerIteration, s.branchesPerIteration,
        s.takenPermille, s.chainLength, s.chains, s.targetPool);
}

bool
isGeneratedKernelName(const std::string &name)
{
    return name.rfind("kgen/", 0) == 0;
}

KernelSpec
parseKernelName(const std::string &name)
{
    const std::string prefix =
        strprintf("kgen/v%u:", kernelGenVersion);
    if (name.rfind(prefix, 0) != 0)
        tea_fatal("unparseable generated-kernel name '%s' (expected "
                  "prefix '%s')",
                  name.c_str(), prefix.c_str());
    KernelSpec s;
    std::size_t pos = prefix.size();
    // The value of the next ':'-separated field, which must be @p key.
    auto nextField = [&](const char *key) -> std::string {
        const std::size_t eq = name.find('=', pos);
        if (eq == std::string::npos ||
            name.compare(pos, eq - pos, key) != 0)
            tea_fatal("kernel name '%s': expected field '%s'",
                      name.c_str(), key);
        std::size_t end = name.find(':', eq + 1);
        if (end == std::string::npos)
            end = name.size();
        pos = std::min(end + 1, name.size());
        return name.substr(eq + 1, end - (eq + 1));
    };
    auto number = [&](const char *key, std::uint64_t max) {
        const std::string what =
            strprintf("kernel name '%s': field '%s'", name.c_str(), key);
        return parseUnsigned(what.c_str(), nextField(key), 0, max);
    };
    constexpr std::uint64_t maxU = std::numeric_limits<unsigned>::max();
    constexpr std::uint64_t max64 = std::numeric_limits<std::uint64_t>::max();
    s.seed = number("s", max64);
    s.iterations = static_cast<unsigned>(number("it", maxU));
    s.level = memLevelByName(nextField("lv"));
    s.footprintBytes = number("fp", max64);
    s.strideBytes = number("st", max64);
    s.dependent = number("dep", 1) != 0;
    s.loadsPerIteration = static_cast<unsigned>(number("lpi", maxU));
    s.branchesPerIteration = static_cast<unsigned>(number("br", maxU));
    s.takenPermille = static_cast<unsigned>(number("tk", maxU));
    s.chainLength = static_cast<unsigned>(number("cl", maxU));
    s.chains = static_cast<unsigned>(number("ch", maxU));
    s.targetPool = static_cast<unsigned>(number("tp", maxU));
    if (pos < name.size())
        tea_fatal("kernel name '%s': trailing garbage", name.c_str());
    validate(s);
    return s;
}

std::uint64_t
kernelSpecFingerprint(const KernelSpec &s)
{
    Fnv1a h;
    h.add(std::uint64_t{kernelGenVersion});
    h.add(s.seed);
    h.add(std::uint64_t{s.iterations});
    h.add(static_cast<std::uint64_t>(s.level));
    h.add(s.footprintBytes);
    h.add(s.strideBytes);
    h.add(static_cast<std::uint64_t>(s.dependent));
    h.add(std::uint64_t{s.loadsPerIteration});
    h.add(std::uint64_t{s.branchesPerIteration});
    h.add(std::uint64_t{s.takenPermille});
    h.add(std::uint64_t{s.chainLength});
    h.add(std::uint64_t{s.chains});
    h.add(std::uint64_t{s.targetPool});
    return h.value();
}

Workload
generateMixedKernel(const std::string &name,
                    const std::vector<KernelSpec> &phases)
{
    tea_assert(!phases.empty(), "mixed kernel needs >= 1 phase");
    ProgramBuilder b(name);
    ArchState st;

    // Pool labels are created up front: the loop bodies call forward
    // into functions emitted after main.
    std::vector<std::vector<Label>> pools(phases.size());
    for (std::size_t p = 0; p < phases.size(); ++p) {
        pools[p].resize(phases[p].targetPool);
        for (Label &l : pools[p])
            l = b.label();
    }

    b.beginFunction("main");
    std::string desc;
    for (std::size_t p = 0; p < phases.size(); ++p) {
        emitPhase(b, st, phases[p], static_cast<unsigned>(p), pools[p]);
        desc += strprintf("%s[%s]", p ? " " : "",
                          describePhase(
                              resolvedSpec(phases[p], CoreConfig{}))
                              .c_str());
    }
    b.halt();
    b.endFunction();

    for (std::size_t p = 0; p < phases.size(); ++p) {
        if (phases[p].targetPool > 0)
            emitPool(b, static_cast<unsigned>(p), phases[p].targetPool,
                     pools[p]);
    }
    return Workload{b.build(), std::move(st), "generated: " + desc};
}

Workload
generateKernel(const KernelSpec &spec)
{
    KernelSpec s = resolvedSpec(spec, CoreConfig{});
    return generateMixedKernel(canonicalKernelName(s), {s});
}

std::uint64_t
kernelLoads(const KernelSpec &spec)
{
    if (spec.level == MemLevel::None)
        return 0;
    return std::uint64_t{spec.iterations} * spec.loadsPerIteration;
}

std::uint64_t
kernelBranches(const KernelSpec &spec)
{
    return std::uint64_t{spec.iterations} * spec.branchesPerIteration;
}

} // namespace workloads
} // namespace tea
