/**
 * @file
 * Configuration of the BOOM-class out-of-order core model (paper Table 2).
 *
 * Defaults follow the paper's baseline where the parameter exists in our
 * model; timing-model-only parameters (latencies) use conventional values
 * for a 3.2 GHz-class core.
 */

#ifndef TEA_CORE_CONFIG_HH
#define TEA_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace tea {

/** Set-associative cache parameters. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned mshrs = 16;     ///< max outstanding misses
    unsigned hitLatency = 3; ///< cycles from access to data
};

/** Conditional-branch direction predictor choice. */
enum class PredictorKind
{
    Tage,   ///< TAGE-lite (default; Table 2 specifies a TAGE)
    Gshare, ///< simple gshare (ablation)
};

/** TLB hierarchy parameters. */
struct TlbConfig
{
    unsigned l1Entries = 32;    ///< fully associative L1 TLB
    unsigned l2Entries = 1024;  ///< direct-mapped shared L2 TLB
    unsigned l2HitLatency = 8;  ///< added cycles on L1 miss / L2 hit
    unsigned walkLatency = 60;  ///< added cycles on L2 miss (page walk)
};

/** Complete core configuration. */
struct CoreConfig
{
    // Pipeline widths (Table 2: 8-wide fetch, 4-wide decode, 4-way
    // superscalar commit).
    unsigned fetchWidth = 8;
    unsigned decodeWidth = 4;
    unsigned dispatchWidth = 4;
    unsigned commitWidth = 4;

    // Front-end structures.
    unsigned fetchBufferEntries = 48;
    unsigned decodeLatency = 2;    ///< fetch-buffer to dispatch stages
    unsigned redirectPenalty = 10; ///< resolve/flush to refetch cycles

    // Branch predictor: TAGE (default, ~24 KB, matching Table 2's
    // 28 KB TAGE class) or gshare for ablation.
    PredictorKind predictor = PredictorKind::Tage;
    unsigned bpHistoryBits = 12;    ///< gshare history length
    unsigned bpTableEntries = 4096; ///< gshare table entries

    // Backend structures (Table 2).
    unsigned robEntries = 192;
    unsigned intIqEntries = 80;
    unsigned intIssueWidth = 4;
    unsigned memIqEntries = 48;
    unsigned memIssueWidth = 2;
    unsigned fpIqEntries = 48;
    unsigned fpIssueWidth = 2;
    unsigned lqEntries = 40;
    unsigned sqEntries = 24;

    // Execution latencies.
    unsigned intMulLatency = 3;
    unsigned intDivLatency = 16;  ///< unpipelined
    unsigned fpAluLatency = 4;
    unsigned fpDivLatency = 18;   ///< unpipelined
    unsigned fpSqrtLatency = 26;  ///< unpipelined
    unsigned forwardLatency = 2;  ///< store-to-load forwarding

    // Memory-ordering speculation.
    unsigned moReplayPenalty = 12; ///< squash/refetch cost of a violation
    /** Store-set predictor aging: tables are cleared every this many
     * committed uops (0 disables aging), as in BOOM's
     * periodically-flushed SSIT. */
    Cycle storeSetClearInterval = 250'000;

    // Sampling-interrupt cost injection (Section 3, "Overheads"): when
    // enabled, the sampling interrupt handler runs on the core every
    // period, occupying the front end while it reads TEA's CSRs and
    // appends the 88 B record to the memory buffer. Off by default; the
    // overheads bench uses it to *measure* the 1.1%-at-4kHz claim
    // instead of only modelling it.
    Cycle samplingInterruptPeriod = 0; ///< 0 disables injection
    Cycle samplingHandlerCycles = 110; ///< handler occupancy per sample

    // Memory hierarchy (Table 2).
    CacheConfig l1i{32 * 1024, 8, 8, 2};
    CacheConfig l1d{32 * 1024, 8, 16, 3};
    CacheConfig llc{2 * 1024 * 1024, 16, 12, 18};
    bool nextLinePrefetcher = true; ///< L1D next-line prefetch out of LLC
    unsigned dramLatency = 110;     ///< LLC-miss to data cycles
    unsigned dramInterval = 12;     ///< min cycles between line transfers

    TlbConfig tlb;

    /** Render the Table 2-style configuration description. */
    std::string describe() const;
};

/**
 * Named core-configuration presets (à la Scarab's PARAMS.golden_cove /
 * PARAMS.cortex_a76): the sweep layer crosses kernel axes against
 * these. Every preset is a pure function of its name, so sweeps and
 * cache fingerprints are reproducible; byName() is the string entry
 * point the SweepSpec/CLI layer uses.
 */
namespace presets {

/** The paper's Table 2 baseline (identical to CoreConfig{}). */
CoreConfig bigOoo();

/** big_ooo at half width: 4-wide fetch, 2-wide decode/commit. */
CoreConfig bigOooW2();

/** big_ooo with a 64-entry ROB (queues scaled to match). */
CoreConfig bigOooRob64();

/** big_ooo with 8 KB L1s and a 256 KB LLC, no prefetcher. */
CoreConfig bigOooMiniCaches();

/** big_ooo with the gshare ablation predictor. */
CoreConfig bigOooGshare();

/**
 * A little-core approximation: 2-wide, 16-entry ROB, small queues,
 * small gshare, 16 KB L1s, 512 KB LLC, no prefetcher. The model is
 * still out-of-order, but the tiny window makes it behave close to an
 * in-order little core for attribution purposes.
 */
CoreConfig littleInorder();

/** littleInorder narrowed to scalar issue (1-wide decode/commit). */
CoreConfig littleInorderW1();

/** All preset names, in a fixed report order. */
std::vector<std::string> names();

/** Construct a preset by name (fatal on unknown name). */
CoreConfig byName(const std::string &name);

} // namespace presets

class Fnv1a;

/**
 * Feed every timing-relevant field of @p cfg into @p h, field by field
 * (padding-free, so the value is stable across builds). Any new
 * CoreConfig field MUST be added here — the trace cache keys entries on
 * this hash, and a missed field would let a stale trace satisfy a run
 * with a different configuration.
 */
void hashConfig(Fnv1a &h, const CoreConfig &cfg);

} // namespace tea

#endif // TEA_CORE_CONFIG_HH
