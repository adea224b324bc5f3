/**
 * @file
 * Capability-annotated synchronization primitives.
 *
 * Every lock in the tree is a `tea::Mutex`, and every member it guards
 * is annotated `TEA_GUARDED_BY(itslock)`. Under Clang the annotations
 * expand to thread-safety-analysis attributes, turning the locking
 * discipline into a compile-time capability system: a guarded member
 * touched without its lock, or a lock released twice, is a
 * -Wthread-safety error (enable with -DTEA_THREAD_SAFETY=ON or the
 * `clang-tsa` preset; see DESIGN.md, "Compile-time concurrency
 * analysis"). Under any other compiler the macros expand to nothing and
 * the classes are thin, zero-overhead wrappers over std::mutex.
 *
 * Unlike TSan — which verifies the interleavings one run happens to
 * execute — the static analysis covers every path in every build, and
 * the annotations double as checked documentation of which lock guards
 * what. The two layers are complementary and both gate CI.
 *
 * Conventions (enforced by tea_lint's raw-sync and guard-missing
 * rules):
 *  - no raw std::mutex / std::condition_variable / std::lock_guard
 *    outside this header; use Mutex / MutexLock;
 *  - every mutable member of a class that owns a Mutex carries
 *    TEA_GUARDED_BY (std::atomic members are the documented exception:
 *    they synchronize themselves and spell their memory orders).
 */

#ifndef TEA_COMMON_SYNC_HH
#define TEA_COMMON_SYNC_HH

#include <mutex>

// ---------------------------------------------------------------------
// Thread-safety-analysis attribute macros (Clang-only; no-ops
// elsewhere). The spellings follow the Clang documentation's mutex.h
// and the convention used by Abseil/Chromium capability systems.
// ---------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define TEA_TSA_ATTR(x) __attribute__((x))
#endif
#endif
#ifndef TEA_TSA_ATTR
#define TEA_TSA_ATTR(x) // not Clang: annotations compile to nothing
#endif

/** Marks a class as a lockable capability (e.g. a mutex type). */
#define TEA_CAPABILITY(name) TEA_TSA_ATTR(capability(name))

/** Marks an RAII class whose lifetime acquires/releases a capability. */
#define TEA_SCOPED_CAPABILITY TEA_TSA_ATTR(scoped_lockable)

/** Member may only be read/written while holding @p x. */
#define TEA_GUARDED_BY(x) TEA_TSA_ATTR(guarded_by(x))

/** Function acquires the listed capabilities (its own when empty). */
#define TEA_ACQUIRE(...) TEA_TSA_ATTR(acquire_capability(__VA_ARGS__))

/** Function releases the listed capabilities (its own when empty). */
#define TEA_RELEASE(...) TEA_TSA_ATTR(release_capability(__VA_ARGS__))

/** Function acquires the capability when it returns @p result. */
#define TEA_TRY_ACQUIRE(...) \
    TEA_TSA_ATTR(try_acquire_capability(__VA_ARGS__))

namespace tea {

/**
 * Mutual-exclusion capability: std::mutex with acquire/release
 * annotations. Prefer MutexLock for scoped holds; lock()/unlock() are
 * for the rare split-scope patterns.
 */
class TEA_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() TEA_ACQUIRE() { m_.lock(); }
    void unlock() TEA_RELEASE() { m_.unlock(); }
    bool try_lock() TEA_TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    std::mutex m_;
};

/**
 * Scoped capability: acquires the Mutex for the lifetime of the
 * object. Drop-in for std::lock_guard / std::unique_lock over the
 * blocks this codebase actually writes (no deferred/timed acquisition).
 */
class TEA_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mu) TEA_ACQUIRE(mu) : mu_(mu)
    {
        mu_.lock();
    }
    ~MutexLock() TEA_RELEASE() { mu_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu_;
};

} // namespace tea

#endif // TEA_COMMON_SYNC_HH
