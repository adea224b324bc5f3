/**
 * @file
 * Declarative sweep engine (see sweep.hh).
 */

#include "analysis/sweep.hh"

#include <algorithm>
#include <limits>
#include <map>

#include "common/env.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace tea {

namespace {

using workloads::KernelSpec;
using workloads::MemLevel;

constexpr std::uint64_t maxU = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t max64 = std::numeric_limits<std::uint64_t>::max();

std::uint64_t
parseParam(const std::string &param, const std::string &value,
           std::uint64_t max)
{
    const std::string what = "sweep: kernel parameter '" + param + "'";
    return parseUnsigned(what.c_str(), value, 0, max);
}

} // namespace

void
applyKernelParam(KernelSpec &spec, const std::string &param,
                 const std::string &value)
{
    if (param == "seed")
        spec.seed = parseParam(param, value, max64);
    else if (param == "iterations")
        spec.iterations =
            static_cast<unsigned>(parseParam(param, value, maxU));
    else if (param == "level")
        spec.level = workloads::memLevelByName(value);
    else if (param == "footprint")
        spec.footprintBytes = parseParam(param, value, max64);
    else if (param == "stride")
        spec.strideBytes = parseParam(param, value, max64);
    else if (param == "dependent")
        spec.dependent = parseParam(param, value, 1) != 0;
    else if (param == "loads")
        spec.loadsPerIteration =
            static_cast<unsigned>(parseParam(param, value, maxU));
    else if (param == "branches")
        spec.branchesPerIteration =
            static_cast<unsigned>(parseParam(param, value, maxU));
    else if (param == "taken")
        spec.takenPermille =
            static_cast<unsigned>(parseParam(param, value, maxU));
    else if (param == "chain")
        spec.chainLength =
            static_cast<unsigned>(parseParam(param, value, maxU));
    else if (param == "chains")
        spec.chains = static_cast<unsigned>(parseParam(param, value, maxU));
    else if (param == "targets")
        spec.targetPool =
            static_cast<unsigned>(parseParam(param, value, maxU));
    else
        tea_fatal("sweep: unknown kernel parameter '%s' (knobs: seed, "
                  "iterations, level, footprint, stride, dependent, "
                  "loads, branches, taken, chain, chains, targets)",
                  param.c_str());
}

std::vector<SweepExperiment>
expandSweep(const SweepSpec &sweep)
{
    std::vector<std::string> presets = sweep.presets;
    if (presets.empty())
        presets.push_back("big_ooo");
    for (const SweepAxis &axis : sweep.axes)
        tea_assert(!axis.values.empty(),
                   "sweep '%s': axis '%s' has no values",
                   sweep.name.c_str(), axis.param.c_str());

    std::vector<SweepExperiment> exps;
    for (const std::string &preset : presets) {
        const CoreConfig cfg = presets::byName(preset);
        // Odometer over the axes, last axis fastest.
        std::vector<std::size_t> idx(sweep.axes.size(), 0);
        bool done = false;
        while (!done) {
            KernelSpec spec = sweep.base;
            std::string point;
            for (std::size_t a = 0; a < sweep.axes.size(); ++a) {
                const SweepAxis &axis = sweep.axes[a];
                const std::string &value = axis.values[idx[a]];
                applyKernelParam(spec, axis.param, value);
                point += (a ? "," : "") + axis.param + "=" + value;
            }
            if (point.empty())
                point = "base";
            SweepExperiment exp;
            exp.name = sweep.name + "/" + preset + "/" + point;
            // Resolve against this preset so a level axis targets the
            // same cache level on every preset.
            exp.spec = workloads::resolvedSpec(spec, cfg);
            exp.preset = preset;
            exp.cfg = cfg;
            exps.push_back(std::move(exp));

            done = true;
            for (std::size_t a = sweep.axes.size(); a-- > 0;) {
                if (++idx[a] < sweep.axes[a].values.size()) {
                    done = false;
                    break;
                }
                idx[a] = 0;
            }
            if (sweep.axes.empty())
                done = true;
        }
    }
    return exps;
}

std::uint64_t
sweepExpansionFingerprint(const std::vector<SweepExperiment> &exps)
{
    Fnv1a h;
    h.add(std::uint64_t{sweepSpecVersion});
    h.add(std::uint64_t{exps.size()});
    for (const SweepExperiment &e : exps) {
        h.add(e.name);
        h.add(e.preset);
        h.add(workloads::kernelSpecFingerprint(e.spec));
        hashConfig(h, e.cfg);
    }
    return h.value();
}

SweepSpec
exampleSweep()
{
    SweepSpec s;
    s.name = "example";
    s.base.seed = 7;
    s.base.iterations = 1500;
    s.base.loadsPerIteration = 2;
    s.base.branchesPerIteration = 1;
    s.base.chainLength = 3;
    s.presets = {"big_ooo", "big_ooo_w2", "big_ooo_rob64",
                 "big_ooo_mini_caches", "little_inorder"};
    s.axes = {
        {"level", {"L1D", "LLC", "MEM"}},
        {"dependent", {"1", "0"}},
        {"taken", {"100", "900"}},
        {"chains", {"1", "4"}},
    };
    return s; // 5 presets x 3 x 2 x 2 x 2 = 120 experiments
}

SweepSpec
smokeSweep()
{
    SweepSpec s;
    s.name = "smoke";
    s.base.seed = 11;
    s.base.iterations = 800;
    s.base.loadsPerIteration = 2;
    s.base.branchesPerIteration = 1;
    s.presets = {"big_ooo", "little_inorder"};
    s.axes = {
        {"level", {"L1D", "LLC", "MEM"}},
        {"taken", {"200", "800"}},
    };
    return s; // 2 presets x 3 x 2 = 12 experiments
}

unsigned
SweepRunResult::degraded() const
{
    unsigned n = 0;
    for (const ExperimentResult &r : results)
        n += r.failed() ? 1 : 0;
    return n;
}

SweepRunResult
runSweep(const SweepSpec &spec,
         const std::vector<SamplerConfig> &techniques,
         const RunnerOptions &opts)
{
    SweepRunResult run;
    run.spec = spec;
    run.experiments = expandSweep(spec);

    std::vector<SuiteExperiment> suite;
    suite.reserve(run.experiments.size());
    for (const SweepExperiment &e : run.experiments) {
        const KernelSpec kspec = e.spec;
        suite.push_back(SuiteExperiment{
            e.name, [kspec] { return workloads::generateKernel(kspec); },
            e.cfg});
    }
    run.results = runExperimentSuite(suite, techniques, opts);
    return run;
}

std::string
renderSweepReport(const SweepRunResult &run)
{
    tea_assert(run.results.size() == run.experiments.size(),
               "sweep report: %zu results for %zu experiments",
               run.results.size(), run.experiments.size());

    std::string out = strprintf(
        "Sweep '%s' (spec v%u): %zu experiments, %u degraded, "
        "expansion fingerprint %s\n",
        run.spec.name.c_str(), sweepSpecVersion, run.experiments.size(),
        run.degraded(),
        hashHex(sweepExpansionFingerprint(run.experiments)).c_str());

    // Technique names from the first healthy result.
    std::vector<std::string> techNames;
    for (const ExperimentResult &r : run.results) {
        if (!r.failed()) {
            for (const TechniqueResult &t : r.techniques)
                techNames.push_back(t.config.name);
            break;
        }
    }

    // --- per-experiment PICS comparison -----------------------------
    Table t;
    {
        std::vector<std::string> hdr{"experiment", "cycles", "IPC"};
        hdr.insert(hdr.end(), techNames.begin(), techNames.end());
        t.header(hdr);
    }
    // error sums/maxima keyed by aggregate row label, per technique.
    std::map<std::string, std::pair<std::vector<double>, unsigned>> agg;
    std::vector<double> maxima(techNames.size(), 0.0);
    auto aggregate = [&](const std::string &key,
                         const std::vector<double> &errs) {
        auto &slot = agg[key];
        if (slot.first.empty())
            slot.first.assign(techNames.size(), 0.0);
        for (std::size_t i = 0; i < errs.size(); ++i)
            slot.first[i] += errs[i];
        slot.second += 1;
    };

    for (std::size_t i = 0; i < run.results.size(); ++i) {
        const ExperimentResult &r = run.results[i];
        const SweepExperiment &e = run.experiments[i];
        if (r.failed()) {
            t.row({e.name, "FAILED", "-"});
            continue;
        }
        std::vector<std::string> row{
            e.name, fmtCount(r.stats.cycles), fmtDouble(r.stats.ipc())};
        std::vector<double> errs;
        errs.reserve(r.techniques.size());
        for (std::size_t k = 0; k < r.techniques.size(); ++k) {
            double err = r.errorOf(r.techniques[k]);
            errs.push_back(err);
            maxima[k] = std::max(maxima[k], err);
            row.push_back(fmtPercent(err));
        }
        t.row(row);
        aggregate("preset " + e.preset, errs);
        // One aggregate bucket per swept axis value of this experiment:
        // the part of the name after the preset ("a=v,b=w") splits into
        // its axis=value atoms.
        std::string point = e.name.substr(e.name.rfind('/') + 1);
        std::size_t pos = 0;
        while (pos < point.size()) {
            std::size_t comma = point.find(',', pos);
            std::string atom =
                point.substr(pos, comma == std::string::npos
                                      ? std::string::npos
                                      : comma - pos);
            if (atom != "base")
                aggregate(atom, errs);
            pos = comma == std::string::npos ? point.size() : comma + 1;
        }
    }
    out += t.render();

    // --- aggregates --------------------------------------------------
    Table a;
    {
        std::vector<std::string> hdr{"aggregate", "n"};
        for (const std::string &n : techNames)
            hdr.push_back(n + " mean");
        a.header(hdr);
    }
    for (const auto &[key, slot] : agg) {
        std::vector<std::string> row{key, std::to_string(slot.second)};
        for (double sum : slot.first)
            row.push_back(fmtPercent(sum / slot.second));
        a.row(row);
    }
    a.separator();
    {
        std::vector<std::string> row{"max (all experiments)", ""};
        for (double m : maxima)
            row.push_back(fmtPercent(m));
        a.row(row);
    }
    out += "\nPer-preset and per-axis-value mean PICS error vs the "
           "projected golden reference:\n";
    out += a.render();

    const std::string errors = renderSuiteErrors(run.results);
    if (!errors.empty())
        out += "\n" + errors;
    return out;
}

} // namespace tea
