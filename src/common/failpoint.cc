#include "common/failpoint.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"

namespace tea {

namespace {

/**
 * Registry of every defined failpoint. Failpoint objects are
 * namespace-scope statics in the .cc files that own the seams, so
 * registration happens during static initialization; the Meyers
 * singleton sidesteps initialization-order hazards. The registry also
 * holds the TEA_FAILPOINTS specs parsed once at first registration, so
 * a seam defined in any translation unit picks up its environment
 * configuration no matter the link order.
 */
class Registry
{
  public:
    static Registry &instance()
    {
        static Registry r;
        return r;
    }

    void add(Failpoint *fp)
    {
        MutexLock lk(mu_);
        for (const Failpoint *other : points_) {
            if (other->name() == fp->name())
                tea_panic("duplicate failpoint name '%s'",
                          fp->name().c_str());
        }
        points_.push_back(fp);
        // Apply (and consume) any environment spec parked for this
        // name; whatever is still parked once the process starts doing
        // real work names no registered seam (see failOnUnconsumedEnv).
        for (auto it = envSpecs_.begin(); it != envSpecs_.end();) {
            if (it->first != fp->name()) {
                ++it;
                continue;
            }
            std::string err;
            if (!fp->configure(it->second, &err))
                tea_fatal("TEA_FAILPOINTS: %s: %s", it->first.c_str(),
                          err.c_str());
            it = envSpecs_.erase(it);
        }
    }

    std::vector<Failpoint *> all()
    {
        MutexLock lk(mu_);
        return points_;
    }

    Failpoint *find(const std::string &name)
    {
        MutexLock lk(mu_);
        for (Failpoint *fp : points_) {
            if (fp->name() == name)
                return fp;
        }
        return nullptr;
    }

    /** Parse `name=spec,...`, arming known names and parking the rest
     *  for failpoints registered later in static initialization. */
    void applyList(const std::string &list)
    {
        std::size_t at = 0;
        while (at < list.size()) {
            std::size_t comma = list.find(',', at);
            if (comma == std::string::npos)
                comma = list.size();
            std::string item = list.substr(at, comma - at);
            at = comma + 1;
            if (item.empty())
                continue;
            std::size_t eq = item.find('=');
            if (eq == std::string::npos || eq == 0)
                tea_fatal("TEA_FAILPOINTS: malformed entry '%s' "
                          "(want name=trigger[@kind])",
                          item.c_str());
            std::string name = item.substr(0, eq);
            std::string spec = item.substr(eq + 1);
            Failpoint *fp = find(name);
            if (fp) {
                std::string err;
                if (!fp->configure(spec, &err))
                    tea_fatal("TEA_FAILPOINTS: %s: %s", name.c_str(),
                              err.c_str());
            } else {
                MutexLock lk(mu_);
                envSpecs_.emplace_back(std::move(name), std::move(spec));
            }
        }
    }

    void applyEnv()
    {
        if (const char *env = std::getenv("TEA_FAILPOINTS");
            env != nullptr && *env != '\0')
            applyList(env);
    }

    void failOnUnconsumedEnv()
    {
        MutexLock lk(mu_);
        if (!envSpecs_.empty())
            tea_fatal("TEA_FAILPOINTS: unknown failpoint '%s'",
                      envSpecs_.front().first.c_str());
    }

  private:
    Registry() { applyEnv(); }

    Mutex mu_;
    std::vector<Failpoint *> points_ TEA_GUARDED_BY(mu_);
    std::vector<std::pair<std::string, std::string>>
        envSpecs_ TEA_GUARDED_BY(mu_);
};

/** splitmix64 step: the deterministic per-hit draw for prob triggers. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Failpoint::Failpoint(const char *name, int default_errno)
    : name_(name), defaultErrno_(default_errno)
{
    Registry::instance().add(this);
}

bool
Failpoint::fire()
{
    // relaxed: the gate only decides whether to take the slow path; a
    // stale read costs at most one extra (or one missed) locked check
    // right around (re)configuration, and every value the slow path
    // reads is ordered by the mutex acquire below.
    if (!armed_.load(std::memory_order_relaxed))
        return false;
    MutexLock lk(mu_);
    ++hits_;
    bool fires = false;
    switch (trigger_) {
      case Trigger::Off:
        break;
      case Trigger::Always:
        fires = true;
        break;
      case Trigger::Nth:
        fires = hits_ == nth_;
        break;
      case Trigger::Prob: {
        // 53-bit uniform in [0, 1) from the seeded stream.
        double u = static_cast<double>(splitmix64(rngState_) >> 11) *
                   0x1.0p-53;
        fires = u < prob_;
        break;
      }
    }
    if (fires) {
        ++fired_;
        if (crash_) {
            // The `crash` kind: die at the seam the way a SIGKILL (or a
            // power cut, as far as this process can model one) would —
            // no unwind, no destructors, no atexit handlers, no stdio
            // flush. Whatever state is on disk right now is what the
            // next process finds.
            ::_exit(failpoints::crashExitCode);
        }
    }
    return fires;
}

int
Failpoint::failErrno() const
{
    MutexLock lk(mu_);
    return errno_ != 0 ? errno_ : defaultErrno_;
}

void
Failpoint::raise() const
{
    throw FailpointError(
        strprintf("failpoint '%s' fired", name_.c_str()));
}

std::uint64_t
Failpoint::hits() const
{
    MutexLock lk(mu_);
    return hits_;
}

std::uint64_t
Failpoint::fired() const
{
    MutexLock lk(mu_);
    return fired_;
}

bool
Failpoint::configure(const std::string &spec, std::string *err)
{
    auto fail = [&](const std::string &why) {
        if (err)
            *err = why;
        return false;
    };

    std::string trigger = spec;
    int kind = 0;
    bool crash = false;
    if (std::size_t at = spec.rfind('@'); at != std::string::npos) {
        std::string kind_name = spec.substr(at + 1);
        trigger = spec.substr(0, at);
        if (kind_name == "eio")
            kind = EIO;
        else if (kind_name == "enospc")
            kind = ENOSPC;
        else if (kind_name == "eagain")
            kind = EAGAIN;
        else if (kind_name == "crash")
            crash = true;
        else
            return fail("unknown kind '" + kind_name +
                        "' (want eio|enospc|eagain|crash)");
    }

    Trigger mode = Trigger::Off;
    std::uint64_t nth = 0;
    double prob = 0.0;
    std::uint64_t seed = 0;
    if (trigger == "off") {
        mode = Trigger::Off;
    } else if (trigger == "always") {
        mode = Trigger::Always;
    } else if (trigger.rfind("nth:", 0) == 0) {
        const std::string arg = trigger.substr(4);
        if (!parseDigits(arg, &nth) || nth == 0)
            return fail("nth wants a positive integer, got '" + arg +
                        "'");
        mode = Trigger::Nth;
    } else if (trigger.rfind("prob:", 0) == 0) {
        const std::string rest = trigger.substr(5);
        std::size_t colon = rest.find(':');
        if (colon == std::string::npos)
            return fail("prob wants prob:<P>:<seed>, got '" + trigger +
                        "'");
        char *end = nullptr;
        prob = std::strtod(rest.c_str(), &end);
        if (end != rest.c_str() + colon || prob < 0.0 || prob > 1.0)
            return fail("prob wants P in [0,1], got '" +
                        rest.substr(0, colon) + "'");
        const std::string seed_s = rest.substr(colon + 1);
        if (!parseDigits(seed_s, &seed))
            return fail("prob wants an integer seed, got '" + seed_s +
                        "'");
        mode = Trigger::Prob;
    } else {
        return fail("unknown trigger '" + trigger +
                    "' (want off|always|nth:<N>|prob:<P>:<seed>)");
    }

    MutexLock lk(mu_);
    trigger_ = mode;
    crash_ = crash;
    nth_ = nth;
    prob_ = prob;
    rngState_ = seed;
    errno_ = kind;
    hits_ = 0;
    fired_ = 0;
    // relaxed: publishes only the fast-path hint; the trigger state it
    // hints at is handed over by the mutex (see fire()).
    armed_.store(mode != Trigger::Off, std::memory_order_relaxed);
    return true;
}

void
Failpoint::reset()
{
    MutexLock lk(mu_);
    trigger_ = Trigger::Off;
    crash_ = false;
    nth_ = 0;
    prob_ = 0.0;
    rngState_ = 0;
    errno_ = 0;
    hits_ = 0;
    fired_ = 0;
    // relaxed: same fast-path-hint contract as configure() above.
    armed_.store(false, std::memory_order_relaxed);
}

namespace failpoints {

std::vector<Failpoint *>
all()
{
    return Registry::instance().all();
}

Failpoint *
find(const std::string &name)
{
    return Registry::instance().find(name);
}

void
configure(const std::string &name, const std::string &spec)
{
    Failpoint *fp = Registry::instance().find(name);
    if (!fp)
        tea_fatal("unknown failpoint '%s'", name.c_str());
    std::string err;
    if (!fp->configure(spec, &err))
        tea_fatal("failpoint %s: %s", name.c_str(), err.c_str());
}

void
configureList(const std::string &list)
{
    Registry::instance().applyList(list);
}

void
resetAll()
{
    for (Failpoint *fp : Registry::instance().all())
        fp->reset();
}

void
configureFromEnv()
{
    Registry::instance().applyEnv();
}

void
checkEnvConsumed()
{
    Registry::instance().failOnUnconsumedEnv();
}

} // namespace failpoints

} // namespace tea
