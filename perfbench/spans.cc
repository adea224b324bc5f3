#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

// Open spans of the calling thread, innermost last. Span ids are unique
// per tracer and only one tracer records at a time.
thread_local std::vector<std::uint32_t> openStack;

} // namespace

std::uint64_t
Span::count(const char *key) const
{
    for (std::size_t i = 0; i < countKeys.size(); ++i) {
        if (countKeys[i] && std::strcmp(countKeys[i], key) == 0)
            return counts[i];
    }
    return 0;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double
Tracer::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

std::uint32_t
Tracer::open(const char *name, std::uint32_t experiment)
{
    Span s;
    s.name = name;
    s.experiment = experiment;
    s.parent = openStack.empty() ? 0 : openStack.back();
    s.start = now();
    std::uint32_t id;
    {
        std::lock_guard<std::mutex> g(mu_);
        s.pass = pass_;
        id = static_cast<std::uint32_t>(spans_.size() + 1);
        s.id = id;
        spans_.push_back(s);
    }
    openStack.push_back(id);
    return id;
}

void
Tracer::close(std::uint32_t id, const std::array<const char *, 3> &keys,
              const std::array<std::uint64_t, 3> &counts)
{
    const double end = now();
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
    std::lock_guard<std::mutex> g(mu_);
    Span &s = spans_[id - 1];
    s.end = end;
    s.countKeys = keys;
    s.counts = counts;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> g(mu_);
    return spans_;
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    bool ok = true;
    for (const Span &s : spans()) {
        std::string counts;
        for (std::size_t i = 0; i < s.countKeys.size(); ++i) {
            if (!s.countKeys[i])
                continue;
            char buf[96];
            std::snprintf(buf, sizeof buf, ",\"%s\":%llu", s.countKeys[i],
                          static_cast<unsigned long long>(s.counts[i]));
            counts += buf;
        }
        ok = std::fprintf(f,
                          "{\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                          "\"pass\":%u,\"experiment\":%u,\"start\":%.9f,"
                          "\"end\":%.9f,\"counts\":{%s}}\n",
                          s.id, s.parent, s.name, s.pass, s.experiment,
                          s.start, s.end,
                          counts.empty() ? "" : counts.c_str() + 1) > 0 &&
             ok;
    }
    return std::fclose(f) == 0 && ok;
}

void
ScopedSpan::count(const char *key, std::uint64_t value)
{
    if (used_ < keys_.size()) {
        keys_[used_] = key;
        counts_[used_] = value;
        ++used_;
    }
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto p = index.find(spans[i].parent);
        if (spans[i].parent != 0 && p != index.end())
            children[p->second].push_back(i);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> cover;
        for (std::size_t c : children[i]) {
            const double a = std::max(s.start, spans[c].start);
            const double b = std::min(s.end, spans[c].end);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : cover) {
            const double from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self[i] = std::max(0.0, s.seconds() - covered);
    }
    return self;
}

std::string
layerOf(const char *name)
{
    const char *dot = std::strchr(name, '.');
    return dot ? std::string(name, dot) : std::string(name);
}

double
passWeight(const Span &span, unsigned passes)
{
    return span.pass == 0 ? 1.0 : 1.0 / std::max(1u, passes);
}

std::map<std::string, double>
selfSecondsByName(const std::vector<Span> &spans, unsigned passes)
{
    const std::vector<double> self = selfSeconds(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i] * passWeight(spans[i], passes);
    return out;
}

} // namespace perfbench
