#include "isa/memory.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/fingerprint.hh"
#include "common/logging.hh"

namespace tea {

std::uint64_t
SparseMemory::read(Addr addr) const
{
    tea_assert((addr & 7) == 0, "unaligned read at %#lx",
               static_cast<unsigned long>(addr));
    auto it = pages_.find(pageOf(addr));
    if (it == pages_.end())
        return 0;
    return it->second[(addr % pageBytes) / 8];
}

void
SparseMemory::write(Addr addr, std::uint64_t value)
{
    tea_assert((addr & 7) == 0, "unaligned write at %#lx",
               static_cast<unsigned long>(addr));
    auto [it, inserted] = pages_.try_emplace(pageOf(addr));
    if (inserted)
        it->second.fill(0);
    it->second[(addr % pageBytes) / 8] = value;
}

double
SparseMemory::readDouble(Addr addr) const
{
    std::uint64_t bits = read(addr);
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

void
SparseMemory::writeDouble(Addr addr, double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    write(addr, bits);
}

std::uint64_t
SparseMemory::contentHash() const
{
    std::vector<Addr> pages;
    pages.reserve(pages_.size());
    for (const auto &[page, words] : pages_)
        pages.push_back(page);
    std::sort(pages.begin(), pages.end());

    // Each page's words go through four independent multiply-mix lanes
    // (word i into lane i % 4), so four multiplies are in flight at
    // once; the page number and the four finalized lanes then go into
    // the FNV-1a stream.
    constexpr std::size_t lanes = 4;
    static_assert(wordsPerPage % lanes == 0);
    Fnv1a h;
    for (Addr page : pages) {
        const Page &words = pages_.at(page);
        std::uint64_t lane[lanes] = {};
        std::uint64_t any = 0;
        for (std::size_t i = 0; i < wordsPerPage; i += lanes) {
            for (std::size_t l = 0; l < lanes; ++l) {
                lane[l] = (lane[l] ^ words[i + l]) * 0x9e3779b97f4a7c15ULL;
                any |= words[i + l];
            }
        }
        // An all-zero page reads identically to an absent one.
        if (any == 0)
            continue;
        h.add(page);
        for (std::uint64_t v : lane)
            h.add(mix64(v));
    }
    return h.value();
}

} // namespace tea
