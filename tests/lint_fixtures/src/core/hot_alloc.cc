// Seeded violations for tea_lint's hot-alloc rule: a function marked
// `tea_lint: hot` (per-cycle work) must not allocate. The rule scans
// src/core/ and src/profilers/. Never compiled into the project.
#include <memory>
#include <vector>

namespace fixture {

std::vector<int> history; // never pre-sized
std::vector<int> scratch; // pre-sized in init()

void
init()
{
    scratch.reserve(64);
}

// tea_lint: hot
void
tick(int v)
{
    auto box = std::make_unique<int>(v); // EXPECT(hot-alloc)
    history.push_back(*box);             // EXPECT(hot-alloc)
    scratch.push_back(v);
    // Grows once per run, not once per cycle.
    // tea_lint: allow(hot-alloc)
    history.emplace_back(v);
}

} // namespace fixture
