#include "varint.hh"

namespace tea {

namespace {

/**
 * Decode one varint the way the original per-value reader did:
 * accumulate 7-bit groups while shift < 64 (bits past 63 are silently
 * discarded at shift 63, matching `v |= (b & 0x7f) << shift` on
 * uint64), then reject a continuation bit that survives past the
 * 64-bit boundary or a stream that ends mid-varint. Returns the new
 * cursor, or nullptr on malformed input.
 */
inline const std::uint8_t *decodeOneVarint(const std::uint8_t *p,
                                           const std::uint8_t *end,
                                           std::uint64_t *out)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (p < end && shift < 64) {
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80)) {
            *out = v;
            return p;
        }
        shift += 7;
    }
    return nullptr; // truncated, or continuation past 64 bits
}

} // namespace

const char *varintKernelName(VarintKernel)
{
    return "scalar";
}

VarintKernel activeVarintKernel()
{
    return VarintKernel::Scalar;
}

// tea_lint: hot
bool decodeVarints(const std::uint8_t *p, std::size_t len,
                   std::uint64_t *out, std::size_t *count)
{
    const std::uint8_t *end = p + len;
    std::size_t n = 0;
    while (p < end) {
        const std::uint8_t b = *p;
        if (!(b & 0x80)) { // one-byte value: the common case by far
            out[n++] = b;
            ++p;
            continue;
        }
        if (end - p >= 2 && !(p[1] & 0x80)) { // two-byte value
            out[n++] =
                (b & 0x7fu) | (static_cast<std::uint64_t>(p[1]) << 7);
            p += 2;
            continue;
        }
        p = decodeOneVarint(p, end, &out[n]);
        if (!p)
            return false;
        ++n;
    }
    *count = n;
    return true;
}

} // namespace tea
