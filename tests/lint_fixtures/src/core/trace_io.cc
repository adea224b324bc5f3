// Seeded violation for tea_lint's unchecked-io rule, which scans only
// files named trace_io.cc (the trace writer): a statement-position
// stdio call drops its result. Never compiled into the project.
#include <cstdio>

namespace fixture {

void
droppedClose(std::FILE *f)
{
    std::fclose(f); // EXPECT(unchecked-io)
}

bool
checkedClose(std::FILE *f)
{
    return std::fclose(f) == 0;
}

void
allowedCleanup(std::FILE *f, const char *tmp)
{
    // The entry is already abandoned: a failure changes nothing.
    // tea_lint: allow(unchecked-io)
    std::fclose(f);
    std::remove(tmp);
}

} // namespace fixture
