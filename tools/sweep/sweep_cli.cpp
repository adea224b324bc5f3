/**
 * @file
 * Command-line front end for the declarative sweep engine
 * (analysis/sweep). Starts from a checked-in sweep (--example, the
 * default, or --smoke) and lets every part of the spec be overridden
 * from the command line: presets, axes, and base-spec parameters. The
 * expansion can be listed without running (--list); a run prints the
 * per-sweep PICS comparison report and exits non-zero if any
 * experiment degraded.
 *
 * Usage:
 *   sweep_cli [--example | --smoke]
 *             [--name NAME]              sweep name (report/experiment prefix)
 *             [--preset NAME]...         replace the preset list
 *             [--axis PARAM=V1,V2,...]...  replace/add an axis
 *             [--base PARAM=VALUE]...    set a base KernelSpec parameter
 *             [--threads N]              override TEA_THREADS (0: one
 *                                        per hardware thread)
 *             [--report FILE]            also write the report to FILE
 *             [--list]                   print the expansion, don't run
 *
 * Kernel parameters (for --axis/--base): seed, iterations, level,
 * footprint, stride, dependent, loads, branches, taken, chain, chains,
 * targets. Presets: see `--help` output (presets::names).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/sweep.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"

using namespace tea;

namespace {

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: sweep_cli [--example|--smoke] [--name NAME]\n"
        "                 [--preset NAME]... [--axis PARAM=V1,V2,...]...\n"
        "                 [--base PARAM=VALUE]... [--threads N]\n"
        "                 [--report FILE] [--list]\n"
        "\n"
        "kernel parameters: seed, iterations, level, footprint, stride,\n"
        "                   dependent, loads, branches, taken, chain,\n"
        "                   chains, targets\n"
        "presets:",
        to);
    for (const std::string &n : presets::names())
        std::fprintf(to, " %s", n.c_str());
    std::fputs("\n", to);
}

/** Split "param=rest" (fatal without '='). */
std::pair<std::string, std::string>
splitEq(const std::string &arg, const char *what)
{
    std::size_t eq = arg.find('=');
    if (eq == std::string::npos || eq == 0)
        tea_fatal("sweep_cli: %s wants PARAM=VALUE, got '%s'", what,
                  arg.c_str());
    return {arg.substr(0, eq), arg.substr(eq + 1)};
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepSpec spec = exampleSweep();
    bool presetsReplaced = false;
    bool axesReplaced = false;
    bool list = false;
    std::string reportPath;
    RunnerOptions opts = RunnerOptions::fromEnv();

    auto next = [&](int &i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            tea_fatal("sweep_cli: %s needs an argument", flag);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--example") {
            spec = exampleSweep();
        } else if (arg == "--smoke") {
            spec = smokeSweep();
        } else if (arg == "--name") {
            spec.name = next(i, "--name");
        } else if (arg == "--preset") {
            if (!presetsReplaced)
                spec.presets.clear();
            presetsReplaced = true;
            spec.presets.push_back(next(i, "--preset"));
        } else if (arg == "--axis") {
            if (!axesReplaced)
                spec.axes.clear();
            axesReplaced = true;
            auto [param, values] = splitEq(next(i, "--axis"), "--axis");
            spec.axes.push_back(SweepAxis{param, splitCommas(values)});
        } else if (arg == "--base") {
            auto [param, value] = splitEq(next(i, "--base"), "--base");
            applyKernelParam(spec.base, param, value);
        } else if (arg == "--threads") {
            opts.threads = RunnerOptions::parseThreads(
                "--threads", next(i, "--threads"));
        } else if (arg == "--report") {
            reportPath = next(i, "--report");
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "sweep_cli: unknown flag '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    if (list) {
        const std::vector<SweepExperiment> exps = expandSweep(spec);
        for (const SweepExperiment &e : exps) {
            std::printf("%s\n    %s\n", e.name.c_str(),
                        workloads::canonicalKernelName(e.spec).c_str());
        }
        std::printf("%zu experiment(s), expansion fingerprint %s\n",
                    exps.size(),
                    hashHex(sweepExpansionFingerprint(exps)).c_str());
        return 0;
    }

    SweepRunResult run = runSweep(spec, standardTechniques(), opts);
    const std::string report = renderSweepReport(run);
    std::fputs(report.c_str(), stdout);

    if (!reportPath.empty()) {
        if (std::FILE *f = std::fopen(reportPath.c_str(), "w")) {
            std::fputs(report.c_str(), f);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "sweep_cli: cannot write %s\n",
                         reportPath.c_str());
            return 1;
        }
    }
    return suiteExitCode(run.results);
}
