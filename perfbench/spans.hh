/**
 * @file
 * In-memory span recording for the benchmark's traced run.
 *
 * A span covers one call from the benchmark into a public function of
 * one layer (name "<layer>.<operation>", e.g. "core.decode"). Spans nest
 * per thread: the innermost span still open on the calling thread is the
 * new span's parent. Spans stay in memory until the run ends, so the
 * only cost on the traced path is two clock reads and one append.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded call. Names and count keys have static storage. */
struct Span
{
    const char *name = "";
    double start = 0.0; ///< seconds since the tracer's epoch
    double end = 0.0;
    std::uint32_t id = 0;     ///< 1-based; 0 means "no span"
    std::uint32_t parent = 0; ///< enclosing span on the same thread
    std::uint32_t experiment = 0;
    std::uint32_t pass = 0;   ///< 0 = set-up, k = k-th traced pass
    std::array<const char *, 3> countKeys{};
    std::array<std::uint64_t, 3> counts{};

    double seconds() const { return end - start; }

    /** Value of count @p key, 0 when the span did not record it. */
    std::uint64_t count(const char *key) const;
};

/** Collects spans from any number of threads. */
class Tracer
{
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Seconds since construction. */
    double now() const;

    /** Pass index stamped on spans opened from now on. */
    void setPass(std::uint32_t pass) { pass_ = pass; }

    /** Open a span on the calling thread; returns its id. */
    std::uint32_t open(const char *name, std::uint32_t experiment);

    /** Close span @p id, attaching up to three counts. */
    void close(std::uint32_t id,
               const std::array<const char *, 3> &keys,
               const std::array<std::uint64_t, 3> &counts);

    /** Copy of every span recorded so far, in id order. */
    std::vector<Span> spans() const;

    /** Write all spans as JSON lines (one object per span). */
    bool writeJsonLines(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    std::uint32_t pass_ = 0;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< index = id - 1
};

/** RAII span; a null tracer makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, std::uint32_t experiment)
        : tracer_(tracer),
          id_(tracer ? tracer->open(name, experiment) : 0)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(id_, keys_, counts_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach count @p key = @p value (at most three per span). */
    void count(const char *key, std::uint64_t value);

  private:
    Tracer *tracer_;
    std::uint32_t id_;
    std::array<const char *, 3> keys_{};
    std::array<std::uint64_t, 3> counts_{};
    unsigned used_ = 0;
};

/**
 * Self time of every span: its duration minus the part of it that its
 * child spans cover (overlapping children are counted once).
 * @return self seconds, indexed like @p spans
 */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

/** Layer of a span name: the part before the first '.'. */
std::string layerOf(const char *name);

/**
 * Weight of @p span in "one set-up plus one mean pass" sums over a run
 * of @p passes traced passes: 1 for set-up spans (pass 0), 1 / passes
 * for pass spans.
 */
double passWeight(const Span &span, unsigned passes);

/** Summed self seconds per span name, weighted by passWeight. */
std::map<std::string, double>
selfSecondsByName(const std::vector<Span> &spans, unsigned passes);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
