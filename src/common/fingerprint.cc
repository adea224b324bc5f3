#include "common/fingerprint.hh"

#include <array>

#include "common/logging.hh"

namespace tea {

namespace {

/**
 * Slice-by-8 tables for polynomial 0xEDB88320, built once. Row 0 is the
 * classic bytewise table; row k advances a byte's contribution through
 * k more zero bytes, so eight rows fold eight input bytes per step.
 */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][n] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::uint32_t n = 0; n < 256; ++n)
            t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
    }
    return t;
}

/**
 * The four bytes at @p p as a little-endian word, assembled byte by
 * byte so the CRC is the same on any host: compilers fold this into one
 * load on a little-endian host and a load plus byte swap on a
 * big-endian one.
 */
std::uint32_t
loadLe32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace

std::uint32_t
crc32(std::uint32_t crc, const void *data, std::size_t bytes)
{
    static const CrcTables t = makeCrcTables();
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    // Slice-by-8: the same CRC as the bytewise loop below, eight bytes
    // per step (about 5x its throughput), with no intrinsics.
    for (; bytes >= 8; p += 8, bytes -= 8) {
        const std::uint32_t lo = c ^ loadLe32(p);
        const std::uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; bytes > 0; --bytes, ++p)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::string
hashHex(std::uint64_t h)
{
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

} // namespace tea
