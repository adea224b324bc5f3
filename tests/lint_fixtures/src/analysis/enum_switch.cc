// Seeded violation for tea_lint's enum-switch rule, checked against the
// real tree's TraceEventKind (Cycle, Span).
// Never compiled into the project.
#include "core/trace_buffer.hh"

namespace fixture {

using tea::TraceEventKind;

int
partialWithDefault(TraceEventKind k)
{
    switch (k) { // EXPECT(enum-switch)
    case TraceEventKind::Cycle:
        return 1;
    default:
        return 0;
    }
}

int
complete(TraceEventKind k)
{
    switch (k) {
    case TraceEventKind::Cycle:
        return 1;
    case TraceEventKind::Span:
        return 2;
    }
    return 0;
}

bool
isCycle(TraceEventKind k)
{
    // Only one kind matters here; -Wswitch has nothing to protect.
    // tea_lint: allow(partial-switch)
    switch (k) {
    case TraceEventKind::Cycle:
        return true;
    default:
        return false;
    }
}

} // namespace fixture
