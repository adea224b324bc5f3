#include "profilers/sample_record.hh"

#include <cstdio>

#include "common/logging.hh"

namespace tea {

void
SampleBuffer::onSample(const SampleRecord &rec)
{
    records_.push_back(rec);
}

void
SampleBuffer::writeFile(const std::string &path) const
{
    // Explicit user-requested dump, fatal on any failure: there is no
    // retry/degrade policy for the raw-io seams to implement here.
    // tea_lint: allow(raw-io)
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        tea_fatal("cannot open sample file '%s' for writing",
                  path.c_str());
    std::uint64_t n = records_.size();
    if (std::fwrite(&n, sizeof(n), 1, f) != 1) // tea_lint: allow(raw-io)
        tea_fatal("short write to '%s'", path.c_str());
    // tea_lint: allow(raw-io)
    if (n && std::fwrite(records_.data(), sizeof(SampleRecord),
                         records_.size(), f) != records_.size()) {
        tea_fatal("short write to '%s'", path.c_str());
    }
    std::fclose(f); // tea_lint: allow(raw-io)
}

std::vector<SampleRecord>
SampleBuffer::readFile(const std::string &path)
{
    // Same contract as writeFile: explicit load, fatal on failure.
    // tea_lint: allow(raw-io)
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        tea_fatal("cannot open sample file '%s'", path.c_str());
    std::uint64_t n = 0;
    if (std::fread(&n, sizeof(n), 1, f) != 1) // tea_lint: allow(raw-io)
        tea_fatal("truncated sample file '%s'", path.c_str());
    std::vector<SampleRecord> records(n);
    // tea_lint: allow(raw-io)
    if (n && std::fread(records.data(), sizeof(SampleRecord), n, f) != n)
        tea_fatal("truncated sample file '%s'", path.c_str());
    std::fclose(f); // tea_lint: allow(raw-io)
    return records;
}

Pics
picsFromRecords(const std::vector<SampleRecord> &records, Cycle period,
                std::uint16_t event_mask, int core_filter)
{
    Pics pics;
    for (const SampleRecord &rec : records) {
        if (core_filter >= 0 &&
            rec.coreId != static_cast<std::uint16_t>(core_filter)) {
            continue;
        }
        unsigned n = rec.count();
        if (n == 0)
            continue;
        double share = static_cast<double>(period) / n;
        for (unsigned i = 0; i < n && i < rec.addrs.size(); ++i) {
            pics.add(static_cast<InstIndex>(rec.addrs[i]),
                     Psv(rec.psvs[i]).masked(event_mask), share);
        }
    }
    return pics;
}

} // namespace tea
