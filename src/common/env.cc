#include "common/env.hh"

#include <charconv>
#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace tea {

bool
parseDigits(std::string_view text, std::uint64_t *out)
{
    // from_chars into an unsigned type takes neither a sign nor
    // leading whitespace, and reports overflow instead of saturating.
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

std::uint64_t
parseUnsigned(const char *what, std::string_view text, std::uint64_t min,
              std::uint64_t max)
{
    std::uint64_t n = 0;
    if (!parseDigits(text, &n) || n < min || n > max)
        tea_fatal("%s must be a non-negative integer in [%llu, %llu], "
                  "got '%s'",
                  what, static_cast<unsigned long long>(min),
                  static_cast<unsigned long long>(max),
                  std::string(text).c_str());
    return n;
}

std::uint64_t
envUnsigned(const char *name, std::uint64_t dflt, std::uint64_t min,
            std::uint64_t max)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return dflt;
    return parseUnsigned(name, v, min, max);
}

} // namespace tea
