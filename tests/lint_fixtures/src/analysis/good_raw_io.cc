// Clean counterpart for tea_lint's raw-io rule: the allow()
// annotation (same line or up to two lines above) suppresses a
// deliberate direct call. The linter must report nothing here.
#include <cstdio>

namespace fixture {

bool
allowedProbe(const char *path)
{
    // Probing for an optional sidecar file; failure is benign and
    // needs no retry seam.
    // tea_lint: allow(raw-io)
    std::FILE *f = std::fopen(path, "rb");
    if (f == nullptr)
        return false;
    std::fclose(f); // tea_lint: allow(raw-io)
    return true;
}

} // namespace fixture
