// Seeded violations for tea_lint's naked-new rule, with an allow()'d
// counterpart: for this rule the annotation must sit on the allocating
// line itself. Never compiled into the project.
#include <cstdlib>

namespace fixture {

int *
leakyInt()
{
    return new int(7); // EXPECT(naked-new)
}

void *
rawBuffer()
{
    return std::malloc(64); // EXPECT(naked-new)
}

int *
adoptedInt()
{
    return new int(7); // tea_lint: allow(naked-new)
}

} // namespace fixture
