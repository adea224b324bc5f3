#include "analysis/runner.hh"

#include <optional>

#include "common/logging.hh"

namespace tea {

const TechniqueResult &
ExperimentResult::technique(const std::string &tech_name) const
{
    for (const TechniqueResult &t : techniques) {
        if (t.config.name == tech_name)
            return t;
    }
    tea_fatal("technique '%s' not present in experiment '%s'",
              tech_name.c_str(), name.c_str());
}

double
ExperimentResult::errorOf(const TechniqueResult &t, Granularity g) const
{
    const Pics &full = golden->pics();
    // The golden reference's signatures carry only the nine events, so
    // a mask that keeps all nine (TEA, NCI-TEA) projects nothing:
    // masked() would return the same cells in the same order.
    constexpr std::uint16_t allEvents = (1u << numEvents) - 1;
    std::optional<Pics> projected;
    if ((t.config.eventMask & allEvents) != allEvents)
        projected = full.masked(t.config.eventMask);
    const Pics &gold = projected ? *projected : full;
    // At instruction granularity aggregated() would only copy.
    if (g == Granularity::Instruction)
        return t.pics.errorAgainst(gold);
    return t.pics.aggregated(program, g)
        .errorAgainst(gold.aggregated(program, g));
}

std::vector<SamplerConfig>
standardTechniques(Cycle period)
{
    return {ibsConfig(period), speConfig(period), risConfig(period),
            nciTeaConfig(period), teaConfig(period)};
}

ExperimentResult
runWorkload(Workload workload, std::vector<SamplerConfig> techniques,
            const CoreConfig &cfg)
{
    return runWorkload(std::move(workload), std::move(techniques),
                       RunnerOptions{}, cfg);
}

ExperimentResult
runBenchmark(const std::string &name, std::vector<SamplerConfig> techniques,
             const CoreConfig &cfg)
{
    return runWorkload(workloads::byName(name), std::move(techniques),
                       RunnerOptions{}, cfg);
}

} // namespace tea
