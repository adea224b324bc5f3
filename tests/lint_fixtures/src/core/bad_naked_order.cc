// Seeded violations for tea_lint's naked-order rule. Every line
// tagged EXPECT(<rule>) must be reported by the linter with exactly
// that rule id; test_tea_lint.py asserts the full set. This file is
// never compiled into the project.
#include <atomic>

namespace fixture {

std::atomic<int> counter{0};

int
implicitLoad()
{
    return counter.load(); // EXPECT(naked-order)
}

void
implicitStore(int v)
{
    counter.store(v); // EXPECT(naked-order)
}

int
implicitRmw()
{
    return counter.fetch_add(1); // EXPECT(naked-order)
}

int
operatorRmw()
{
    return ++counter; // EXPECT(naked-order)
}

int
uncommentedDowngrade()
{
    return counter.load(std::memory_order_relaxed); // EXPECT(naked-order)
}

} // namespace fixture
