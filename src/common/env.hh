/**
 * @file
 * Integer knobs read from the environment, with one rule for bad
 * input: a sign, a non-digit, an overflow or a value outside the
 * knob's range is fatal.
 */

#ifndef TEA_COMMON_ENV_HH
#define TEA_COMMON_ENV_HH

#include <cstdint>

namespace tea {

/**
 * Read @p name as a decimal integer in [@p min, @p max]. Unset or empty
 * yields @p dflt; anything else that is not plain digits within the
 * range exits via tea_fatal.
 */
std::uint64_t envUnsigned(const char *name, std::uint64_t dflt,
                          std::uint64_t min, std::uint64_t max);

} // namespace tea

#endif // TEA_COMMON_ENV_HH
