// Clean counterpart for tea_lint's guard-missing rule: every member
// of the lock-owning class is annotated, const, atomic (with spelled
// orders), a sync primitive, or explicitly allow()'d. The linter must
// report nothing here.
#include <atomic>
#include <string>

#include "common/sync.hh"

namespace fixture {

class Annotated
{
  public:
    void bump();

  private:
    tea::Mutex mu_;
    const unsigned capacity_ = 16;
    std::atomic<bool> armed_{false};
    unsigned long count_ TEA_GUARDED_BY(mu_) = 0;
    std::string lastUser_ TEA_GUARDED_BY(mu_);
    // Scratch buffer owned by the single writer thread.
    // tea_lint: allow(guard-missing)
    std::string scratch_;
};

void
Annotated::bump()
{
    tea::MutexLock lk(mu_);
    ++count_;
    // relaxed: advisory gate only; real state is handed over by mu_.
    armed_.store(true, std::memory_order_relaxed);
}

} // namespace fixture
