/**
 * @file
 * Bulk LEB128 varint decode for the trace codec.
 *
 * The on-disk codec (core/trace_codec) stores every field stream as a
 * run of LEB128 varints; with delta+zigzag coding the overwhelming
 * majority of values fit in a single byte, so the decode loop takes
 * one- and two-byte values on a fast path and falls back to a generic
 * per-value reader only for the rare wider varint.
 *
 * The verdicts are those of the original per-value reader: values
 * wider than 64 bits lose their high bits silently, exactly like
 * `v |= (b & 0x7f) << shift` does; a varint still carrying a
 * continuation bit at shift 63, or truncated by the end of the
 * stream, is malformed. tests/test_simd_codec.cc pins them by value.
 */

#ifndef TEA_CORE_VARINT_HH
#define TEA_CORE_VARINT_HH

#include <cstddef>
#include <cstdint>

namespace tea {

/** Exists only because perfbench prints the decode kernel's name. */
enum class VarintKernel
{
    Scalar, ///< the one decode loop
};

/** Exists only because perfbench prints it: "scalar". */
const char *varintKernelName(VarintKernel k);

/** Exists only because perfbench prints it: always Scalar. */
VarintKernel activeVarintKernel();

/**
 * Decode every varint in [@p p, @p p + @p len) into @p out, which must
 * have room for @p len values (one byte per value is the densest
 * possible stream).
 *
 * @param count set to the number of values decoded on success
 * @return false when the stream ends inside a varint or a varint
 *         carries a continuation bit past the 64-bit boundary
 */
bool decodeVarints(const std::uint8_t *p, std::size_t len,
                   std::uint64_t *out, std::size_t *count);

} // namespace tea

#endif // TEA_CORE_VARINT_HH
