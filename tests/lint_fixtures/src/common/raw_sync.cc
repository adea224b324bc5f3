// Seeded violations for tea_lint's raw-sync rule: std locks that Clang's
// thread-safety analysis cannot see. Never compiled into the project.
#include <mutex>

namespace fixture {

std::mutex rawMu; // EXPECT(raw-sync)

int
locked(int v)
{
    std::lock_guard<std::mutex> lk(rawMu); // EXPECT(raw-sync)
    return v;
}

// A foreign callback API hands over a std::mutex to lock.
// tea_lint: allow(raw-sync)
void lockForeign(std::mutex &mu) { mu.lock(); }

} // namespace fixture
