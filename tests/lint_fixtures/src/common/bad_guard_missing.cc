// Seeded violations for tea_lint's guard-missing rule: a class that
// owns a tea::Mutex with mutable members carrying no TEA_GUARDED_BY.
// Never compiled into the project.
#include <string>

#include "common/sync.hh"

namespace fixture {

class Counter
{
  public:
    void bump(const std::string &user);

  private:
    tea::Mutex mu_;
    unsigned long count_ = 0; // EXPECT(guard-missing)
    std::string lastUser_;    // EXPECT(guard-missing)
};

void
Counter::bump(const std::string &user)
{
    tea::MutexLock lk(mu_);
    ++count_;
    lastUser_ = user;
}

} // namespace fixture
