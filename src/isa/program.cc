#include "isa/program.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tea {

const std::string Program::anonName_ = "<anon>";

Program::Program(std::string name) : name_(std::move(name)) {}

StaticInst &
Program::instMutable(InstIndex idx)
{
    tea_assert(idx < insts_.size(), "instruction index %u out of range",
               idx);
    return insts_[idx];
}

int
Program::functionOf(InstIndex idx) const
{
    // Symbols are appended in layout order by the builder; binary search
    // on begin index.
    int lo = 0;
    int hi = static_cast<int>(functions_.size()) - 1;
    while (lo <= hi) {
        int mid = (lo + hi) / 2;
        const Symbol &s = functions_[static_cast<std::size_t>(mid)];
        if (idx < s.begin) {
            hi = mid - 1;
        } else if (idx >= s.end) {
            lo = mid + 1;
        } else {
            return mid;
        }
    }
    return -1;
}

const std::string &
Program::functionName(int id) const
{
    if (id < 0 || id >= static_cast<int>(functions_.size()))
        return anonName_;
    return functions_[static_cast<std::size_t>(id)].name;
}

std::vector<std::uint32_t>
Program::basicBlockIds() const
{
    std::vector<bool> leader(insts_.size(), false);
    if (!insts_.empty())
        leader[entry_] = true;
    for (InstIndex i = 0; i < insts_.size(); ++i) {
        const StaticInst &si = insts_[i];
        if (!si.isControl())
            continue;
        if (si.target != invalidInstIndex && si.target < insts_.size())
            leader[si.target] = true;
        if (i + 1 < insts_.size())
            leader[i + 1] = true;
    }
    std::vector<std::uint32_t> ids(insts_.size(), 0);
    std::uint32_t current = 0;
    for (InstIndex i = 0; i < insts_.size(); ++i) {
        if (leader[i] && i != 0)
            ++current;
        ids[i] = current;
    }
    return ids;
}

} // namespace tea
