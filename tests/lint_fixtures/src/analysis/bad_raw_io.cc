// Seeded violations for tea_lint's raw-io rule: direct syscalls and
// stdio outside the trace_io/file_lock wrappers bypass the failpoint
// and retry seams. Never compiled into the project.
#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

namespace fixture {

int
directOpen(const char *path)
{
    return ::open(path, O_RDONLY); // EXPECT(raw-io)
}

int
directRename(const char *from, const char *to)
{
    return std::rename(from, to); // EXPECT(raw-io)
}

bool
stdioRoundTrip(const char *path)
{
    std::FILE *f = std::fopen(path, "rb"); // EXPECT(raw-io)
    if (f == nullptr)
        return false;
    std::fclose(f); // EXPECT(raw-io)
    return true;
}

} // namespace fixture
