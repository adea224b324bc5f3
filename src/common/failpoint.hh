/**
 * @file
 * Deterministic fault injection (named failpoints).
 *
 * A failpoint is a named seam in an I/O or concurrency path where a
 * failure can be injected on demand: a short write, a failing fsync, a
 * worker thread dying mid-replay. Each seam defines one static
 * Failpoint and asks it on every pass whether to fire; production
 * builds leave every failpoint off, so the cost per pass is one relaxed
 * atomic load.
 *
 * Triggers are deterministic by construction — `nth:N` fires on exactly
 * the Nth hit, `prob:P:S` draws from a seeded splitmix64 stream — so a
 * failing fault-injection run replays bit-identically from its
 * configuration, the same property the replay engine itself guarantees
 * (DESIGN.md, "Failure model and recovery").
 *
 * Configuration comes from code (failpoints::configure) or from the
 * environment:
 *
 *   TEA_FAILPOINTS=<name>=<trigger>[@<kind>][,<name>=<trigger>...]
 *   trigger := off | always | nth:<N> | prob:<P>:<seed>
 *   kind    := eio | enospc | eagain | crash
 *              (default: the seam's own errno kind)
 *
 * The errno kinds select the errno a fired I/O seam simulates, which in
 * turn decides whether the self-healing layer treats the failure as
 * transient (retried with backoff) or permanent (degrade/contain) —
 * see common/retry.hh.
 *
 * The `crash` kind is different: a fired hit terminates the process on
 * the spot via _exit(failpoints::crashExitCode) — no unwind, no
 * destructors, no atexit — simulating the process being killed at
 * exactly that seam. The crash-consistency harness
 * (tests/test_crash_matrix.cc) forks a child per registered seam,
 * arms `always@crash`, and verifies in the parent that whatever the
 * dead child left on disk is either valid or transparently healed
 * (DESIGN.md, "Cache lifecycle and crash consistency").
 */

#ifndef TEA_COMMON_FAILPOINT_HH
#define TEA_COMMON_FAILPOINT_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/sync.hh"

namespace tea {

/** Exception a fired concurrency-seam failpoint raises (contained by
 *  the runner's per-experiment failure path, never std::terminate). */
class FailpointError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * One named injection seam. Define at namespace scope in the .cc that
 * owns the seam; construction registers it with the global registry.
 * All methods are thread-safe: fire() may be called concurrently from
 * the experiments a suite runs in parallel.
 */
class Failpoint
{
  public:
    /**
     * @param name unique dotted name, e.g. "trace_io.fsync"
     * @param default_errno errno a fired hit simulates unless the
     *        configuration overrides the kind (e.g. EIO, ENOSPC, EAGAIN)
     */
    Failpoint(const char *name, int default_errno);

    Failpoint(const Failpoint &) = delete;
    Failpoint &operator=(const Failpoint &) = delete;

    const std::string &name() const { return name_; }

    /**
     * Count this hit and decide whether the failure fires. Off (the
     * default) is one relaxed atomic load. Call it through the
     * TEA_FAILPOINT() macro.
     * A seam armed with the `crash` kind does not return when it
     * fires: the process _exits at the seam (see the file comment).
     */
    bool fire();

    /** errno a fired hit should simulate (configured kind or default). */
    int failErrno() const;

    /** Throw FailpointError naming this seam (concurrency seams). */
    [[noreturn]] void raise() const;

    /** Times fire() was asked since the last reset. */
    std::uint64_t hits() const;

    /** Times fire() returned true since the last reset. */
    std::uint64_t fired() const;

    /**
     * Arm from a trigger spec (`off`, `always`, `nth:3`,
     * `prob:0.25:42`, each optionally suffixed `@eio|@enospc|@eagain`).
     * @return false (with @p err set) on a malformed spec
     */
    bool configure(const std::string &spec, std::string *err);

    /** Disarm and zero the counters. */
    void reset();

  private:
    enum class Trigger : std::uint8_t { Off, Always, Nth, Prob };

    // Immutable after construction: readable without the lock.
    const std::string name_;
    const int defaultErrno_;

    std::atomic<bool> armed_{false}; ///< fast-path gate, mode below
    mutable Mutex mu_;               ///< guards everything below
    Trigger trigger_ TEA_GUARDED_BY(mu_) = Trigger::Off;
    /** fired hits _exit the process (the `crash` kind) */
    bool crash_ TEA_GUARDED_BY(mu_) = false;
    /** 1-based hit to fire on (Trigger::Nth) */
    std::uint64_t nth_ TEA_GUARDED_BY(mu_) = 0;
    /** per-hit fire probability */
    double prob_ TEA_GUARDED_BY(mu_) = 0.0;
    /** splitmix64 state for Trigger::Prob */
    std::uint64_t rngState_ TEA_GUARDED_BY(mu_) = 0;
    /** configured kind (0 = default) */
    int errno_ TEA_GUARDED_BY(mu_) = 0;
    std::uint64_t hits_ TEA_GUARDED_BY(mu_) = 0;
    std::uint64_t fired_ TEA_GUARDED_BY(mu_) = 0;
};

namespace failpoints {

/**
 * Exit status a fired `crash`-kind seam terminates the process with.
 * Distinctive on purpose: the fork-based crash harness asserts the
 * child died at the armed seam (this code) rather than cleanly (0) or
 * through an ordinary fatal path.
 */
constexpr int crashExitCode = 86;

/** Every registered failpoint, in registration order. */
std::vector<Failpoint *> all();

/** Look up a failpoint by name (nullptr when absent). */
Failpoint *find(const std::string &name);

/**
 * Arm @p name from @p spec (see Failpoint::configure). Fatal on an
 * unknown name or malformed spec: a typo in a fault-injection run must
 * not silently test nothing.
 */
void configure(const std::string &name, const std::string &spec);

/**
 * Parse a comma-separated `name=spec,...` list (the TEA_FAILPOINTS
 * format). Fatal on any malformed entry.
 */
void configureList(const std::string &list);

/** Disarm every failpoint and zero all counters. */
void resetAll();

/**
 * (Re-)apply the TEA_FAILPOINTS environment variable. Registration
 * already applies it once during static initialization; this is for
 * tests and tools that change the environment afterwards. Fatal on a
 * malformed list.
 */
void configureFromEnv();

/**
 * Fatal when a TEA_FAILPOINTS entry named a failpoint that never
 * registered. Registration order is static-init order, so unknown
 * names cannot be rejected while the list is first parsed; the runner
 * calls this before any experiment, by which point every linked seam
 * has registered — a typo'd name must not silently inject nothing.
 */
void checkEnvConsumed();

} // namespace failpoints

} // namespace tea

/** Ask @p fp whether to inject a failure at this seam. */
#define TEA_FAILPOINT(fp) ((fp).fire())

#endif // TEA_COMMON_FAILPOINT_HH
