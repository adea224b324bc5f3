/**
 * @file
 * Value tests of crc32 (common/fingerprint), the per-frame and header
 * checksum of the trace cache. The slice-by-8 loop must give exactly
 * the CRC of the classic bytewise loop: every cache entry on disk was
 * sealed with those values, and the codec version does not change.
 *
 * The bytewise reference lives here, in the test, so the two loops are
 * independent code. The comparisons run at every length 0-64 from 8
 * start offsets (each tail length and each alignment of the 8-byte
 * steps), on random 1 MiB buffers, and across chained calls split
 * inside an 8-byte block. The word loads are little-endian on any
 * host, so on a big-endian host these same comparisons check the byte
 * swap.
 */

#include <cstdint>
#include <gtest/gtest.h>
#include <string_view>
#include <vector>

#include "common/fingerprint.hh"
#include "common/rng.hh"

using namespace tea;

namespace {

/** CRC-32 (polynomial 0xEDB88320) one byte at a time, bit by bit. */
std::uint32_t
referenceCrc32(std::uint32_t crc, const unsigned char *p, std::size_t n)
{
    std::uint32_t c = crc ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char>
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<unsigned char> out(n);
    for (unsigned char &b : out)
        b = static_cast<unsigned char>(rng.next());
    return out;
}

} // namespace

TEST(Crc32, KnownAnswers)
{
    constexpr std::string_view check = "123456789";
    EXPECT_EQ(crc32(0, check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(0, nullptr, 0), 0u);
    EXPECT_EQ(crc32(0, check.data(), 0), 0u);
    // Thirty-two zero bytes: a standard vector that spans four steps.
    const std::vector<unsigned char> zeros(32, 0);
    EXPECT_EQ(crc32(0, zeros.data(), zeros.size()), 0x190A55ADu);
}

TEST(Crc32, MatchesBytewiseAtEveryShortLengthAndOffset)
{
    const std::vector<unsigned char> buf = randomBytes(64 + 8, 1);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 64; ++len) {
            const unsigned char *p = buf.data() + offset;
            ASSERT_EQ(crc32(0, p, len), referenceCrc32(0, p, len))
                << "offset " << offset << ", length " << len;
            // A nonzero running checksum takes the same path.
            ASSERT_EQ(crc32(0xDEADBEEFu, p, len),
                      referenceCrc32(0xDEADBEEFu, p, len))
                << "offset " << offset << ", length " << len;
        }
    }
}

TEST(Crc32, MatchesBytewiseOnRandomMegabytes)
{
    constexpr std::size_t mib = std::size_t{1} << 20;
    for (std::uint64_t seed = 2; seed < 5; ++seed) {
        const std::vector<unsigned char> buf = randomBytes(mib + 3, seed);
        // Both a whole-block length and a ragged one, at odd alignment.
        EXPECT_EQ(crc32(0, buf.data(), mib),
                  referenceCrc32(0, buf.data(), mib));
        EXPECT_EQ(crc32(0, buf.data() + 3, mib),
                  referenceCrc32(0, buf.data() + 3, mib));
        EXPECT_EQ(crc32(0, buf.data() + 1, mib - 5),
                  referenceCrc32(0, buf.data() + 1, mib - 5));
    }
}

TEST(Crc32, ChainsAcrossSplitsInsideABlock)
{
    const std::vector<unsigned char> buf = randomBytes(200, 5);
    const std::uint32_t whole = crc32(0, buf.data(), buf.size());
    ASSERT_EQ(whole, referenceCrc32(0, buf.data(), buf.size()));
    // Every split in the first few blocks, each 8-byte phase included.
    for (std::size_t split = 0; split <= 40; ++split) {
        const std::uint32_t head = crc32(0, buf.data(), split);
        EXPECT_EQ(crc32(head, buf.data() + split, buf.size() - split),
                  whole)
            << "split at " << split;
    }
    // Three pieces whose joins both fall mid-block.
    const std::uint32_t a = crc32(0, buf.data(), 13);
    const std::uint32_t b = crc32(a, buf.data() + 13, 90);
    EXPECT_EQ(crc32(b, buf.data() + 103, buf.size() - 103), whole);
}
