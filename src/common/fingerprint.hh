/**
 * @file
 * Content hashing building blocks for the persistent trace cache:
 * an incremental 64-bit FNV-1a hasher (cache-entry fingerprints), a
 * CRC-32 checksum (on-disk chunk integrity), and a 64-bit finalizing
 * mixer (hash-table key scrambling).
 */

#ifndef TEA_COMMON_FINGERPRINT_HH
#define TEA_COMMON_FINGERPRINT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tea {

/**
 * Incremental FNV-1a 64-bit hasher.
 *
 * Used to fingerprint (workload, CoreConfig, codec version) tuples for
 * trace-cache keys. Feed values through add()/addBytes(); every value is
 * mixed byte-by-byte, so the result is independent of struct padding and
 * stable across builds as long as the fed values are.
 */
class Fnv1a
{
  public:
    /** Mix in @p bytes raw bytes. */
    void addBytes(const void *data, std::size_t bytes)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < bytes; ++i) {
            hash_ ^= p[i];
            hash_ *= prime;
        }
    }

    /** Mix in an unsigned integer (value-based, width-normalized). */
    void add(std::uint64_t v) { addBytes(&v, sizeof(v)); }

    /** Mix in a signed integer. */
    void addSigned(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }

    /** Mix in a string, including its length (prefix-collision-free). */
    void add(std::string_view s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        addBytes(s.data(), s.size());
    }

    /** Current hash value. */
    std::uint64_t value() const { return hash_; }

  private:
    static constexpr std::uint64_t offsetBasis = 0xcbf29ce484222325ULL;
    static constexpr std::uint64_t prime = 0x100000001b3ULL;

    std::uint64_t hash_ = offsetBasis;
};

/**
 * CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte range, seeded so
 * that crc32(crc32(a), b) == crc32 of the concatenation. Computed
 * slice-by-8 in portable scalar code; the values are those of the
 * classic bytewise loop on any host.
 *
 * @param crc running checksum (0 to start a fresh one)
 */
std::uint32_t crc32(std::uint32_t crc, const void *data, std::size_t bytes);

/**
 * Finalizing 64-bit mixer (splitmix64): turns structured keys whose
 * entropy sits in a few bit fields into uniformly distributed hash-table
 * slots. Bijective, so distinct keys stay distinct.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Render a 64-bit hash as a fixed-width lowercase hex string. */
std::string hashHex(std::uint64_t h);

} // namespace tea

#endif // TEA_COMMON_FINGERPRINT_HH
