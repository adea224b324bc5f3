#include "analysis/runner.hh"

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
    Pics gold = golden->pics()
                    .masked(t.config.eventMask)
                    .aggregated(program, g);
    Pics mine = t.pics.aggregated(program, g);
    return mine.errorAgainst(gold);
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
