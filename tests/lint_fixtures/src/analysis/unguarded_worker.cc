// Seeded violations for tea_lint's unguarded-worker rule: a thread body
// with no catch turns an escaped exception into std::terminate. Never
// compiled into the project.
#include <thread>
#include <vector>

namespace fixture {

void work();

void
bareThread()
{
    std::thread t([] { work(); }); // EXPECT(unguarded-worker)
    t.join();
}

void
bareWorkerPool()
{
    std::vector<std::thread> pool;
    pool.emplace_back([] { work(); }); // EXPECT(unguarded-worker)
    for (std::thread &t : pool)
        t.join();
}

void
guardedThread()
{
    std::thread t([] {
        try {
            work();
        } catch (...) {
        }
    });
    t.join();
}

void
allowedThread()
{
    // The body only calls a function that catches internally.
    // tea_lint: allow(unguarded-worker)
    std::thread t([] { work(); });
    t.join();
}

} // namespace fixture
