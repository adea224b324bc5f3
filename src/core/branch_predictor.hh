/**
 * @file
 * Conditional-branch direction predictors.
 *
 * The paper's baseline (Table 2) uses a 28 KB TAGE predictor; we provide
 * a TAGE implementation (default, sized to ~24 KB) and a simpler gshare
 * for ablation. Jump, call and return targets are treated as always
 * predicted correctly (static targets plus an idealized return-address
 * stack), so mispredictions -- and hence FL-MB events -- arise only from
 * conditional-branch directions, as in the paper's case studies.
 */

#ifndef TEA_CORE_BRANCH_PREDICTOR_HH
#define TEA_CORE_BRANCH_PREDICTOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "core/config.hh"

namespace tea {

/** Direction-predictor interface. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict the direction of the branch at @p pc. */
    virtual bool predict(InstIndex pc) const = 0;

    /** Train with the actual @p taken outcome and update history. */
    virtual void update(InstIndex pc, bool taken) = 0;

    /** Approximate storage budget in bits. */
    virtual std::uint64_t storageBits() const = 0;

    std::uint64_t lookups = 0;
    std::uint64_t mispredicts = 0;

  protected:
    /** Count one trained outcome against the pre-update prediction. */
    void
    account(bool predicted, bool taken)
    {
        ++lookups;
        if (predicted != taken)
            ++mispredicts;
    }
};

/** gshare with 2-bit saturating counters (ablation baseline). */
class GsharePredictor : public BranchPredictor
{
  public:
    explicit GsharePredictor(const CoreConfig &cfg);

    bool predict(InstIndex pc) const override;
    void update(InstIndex pc, bool taken) override;
    std::uint64_t storageBits() const override;

  private:
    std::size_t index(InstIndex pc) const;

    std::vector<std::uint8_t> table_; ///< 2-bit counters
    std::uint64_t history_ = 0;
    std::uint64_t historyMask_;
};

/**
 * TAGE-lite: a bimodal base table plus tagged components indexed with
 * geometrically growing global-history lengths; prediction comes from
 * the longest matching component, with allocate-on-mispredict and
 * usefulness-based replacement (Seznec-style, simplified).
 */
class TagePredictor : public BranchPredictor
{
  public:
    explicit TagePredictor(const CoreConfig &cfg);

    bool predict(InstIndex pc) const override;
    void update(InstIndex pc, bool taken) override;
    std::uint64_t storageBits() const override;

  private:
    static constexpr unsigned numTables = 5;
    static constexpr unsigned tableBits = 11; ///< 2048 entries/table
    static constexpr unsigned tagBits = 10;
    static constexpr std::array<unsigned, numTables> historyLengths{
        4, 10, 24, 56, 128};

    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::uint8_t counter = 3; ///< 3-bit, >=4 predicts taken
        std::uint8_t useful = 0;  ///< 2-bit usefulness
    };

    /** Fold the first @p len history bits into @p bits bits. */
    std::uint64_t foldedHistory(unsigned len, unsigned bits) const;
    std::size_t indexOf(unsigned table, InstIndex pc) const;
    std::uint16_t tagOf(unsigned table, InstIndex pc) const;

    /** Longest matching component (-1 = bimodal). */
    int bestMatch(InstIndex pc) const;
    bool predictWith(int table, InstIndex pc) const;

    std::vector<std::uint8_t> bimodal_; ///< 2-bit counters
    std::array<std::vector<TaggedEntry>, numTables> tables_;
    // Global history as a bit deque (newest in bit 0).
    std::array<std::uint64_t, 4> history_{}; ///< 256 bits
    std::uint64_t allocSeed_ = 0x1234567;    ///< replacement tiebreaks
};

/** Construct the predictor selected by @p cfg. */
std::unique_ptr<BranchPredictor> makePredictor(const CoreConfig &cfg);

} // namespace tea

#endif // TEA_CORE_BRANCH_PREDICTOR_HH
