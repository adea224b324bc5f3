// Clean counterpart for tea_lint's naked-order rule: spelled orders,
// a commented downgrade, and an allow()'d implicit op. The linter
// must report nothing here.
#include <atomic>

namespace fixture {

std::atomic<int> counter{0};

int
spelledLoad()
{
    return counter.load(std::memory_order_seq_cst);
}

void
spelledStore(int v)
{
    // release: pairs with an acquire load in the consumer; publishes
    // v before the flag flips.
    counter.store(v, std::memory_order_release);
}

int
commentedDowngrade()
{
    // relaxed: the counter is a pure statistic; nothing is published
    // through it and torn ordering only skews a report.
    return counter.load(std::memory_order_relaxed);
}

int
allowedImplicit()
{
    // tea_lint: allow(naked-order)
    return counter.load();
}

} // namespace fixture
