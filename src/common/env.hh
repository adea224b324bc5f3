/**
 * @file
 * Unsigned integers typed by a user — environment knobs, command-line
 * arguments, kernel and sweep parameters, failpoint specs — with one
 * rule for bad input: a sign, a non-digit, an overflow or a value
 * outside the field's range is rejected (fatal, except where the caller
 * reports it through parseDigits).
 */

#ifndef TEA_COMMON_ENV_HH
#define TEA_COMMON_ENV_HH

#include <cstdint>
#include <string_view>

namespace tea {

/**
 * Parse @p text as plain decimal digits into @p out. False on a sign,
 * a non-digit, empty text or an overflow; for callers that report bad
 * input themselves.
 */
bool parseDigits(std::string_view text, std::uint64_t *out);

/**
 * Parse @p text as a decimal integer in [@p min, @p max]. Anything that
 * is not plain digits within the range exits via tea_fatal, naming
 * @p what (the variable, flag or field the text was typed for).
 */
std::uint64_t parseUnsigned(const char *what, std::string_view text,
                            std::uint64_t min, std::uint64_t max);

/**
 * Read @p name as parseUnsigned(@p name, value, @p min, @p max). Unset
 * or empty yields @p dflt.
 */
std::uint64_t envUnsigned(const char *name, std::uint64_t dflt,
                          std::uint64_t min, std::uint64_t max);

} // namespace tea

#endif // TEA_COMMON_ENV_HH
