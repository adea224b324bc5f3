#include "profilers/correlation.hh"

#include <unordered_map>
#include <vector>

#include "common/stats.hh"

namespace tea {

std::array<EventCorrelation, numEvents>
eventImpactCorrelation(const GoldenReference &golden)
{
    // Pre-aggregate golden cycles per (pc, event-in-signature).
    std::unordered_map<InstIndex, std::array<double, numEvents>> impact;
    for (const PicsComponent &c : golden.pics().components()) {
        Psv sig(c.signature);
        if (sig.empty())
            continue;
        auto &arr = impact[static_cast<InstIndex>(c.unit)];
        for (unsigned e = 0; e < numEvents; ++e) {
            if (sig.test(static_cast<Event>(e)))
                arr[e] += c.cycles;
        }
    }

    std::array<EventCorrelation, numEvents> out{};
    for (unsigned e = 0; e < numEvents; ++e) {
        std::vector<double> xs;
        std::vector<double> ys;
        const auto &counts = golden.eventCounts();
        for (InstIndex pc = 0; pc < counts.size(); ++pc) {
            if (counts[pc][e] == 0)
                continue;
            xs.push_back(static_cast<double>(counts[pc][e]));
            auto it = impact.find(pc);
            ys.push_back(it == impact.end() ? 0.0 : it->second[e]);
        }
        out[e].n = xs.size();
        if (xs.size() < 3)
            continue;
        // A benchmark where every site incurs the event equally often
        // carries no count signal; exclude it rather than reporting a
        // spurious zero.
        double mx = mean(xs);
        double sxx = 0.0;
        for (double x : xs)
            sxx += (x - mx) * (x - mx);
        if (sxx <= 0.0)
            continue;
        out[e].r = pearson(xs, ys);
        out[e].valid = true;
    }
    return out;
}

} // namespace tea
