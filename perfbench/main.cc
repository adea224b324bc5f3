/**
 * @file
 * Benchmark entry point. perfbench/run.py builds this binary and runs
 *
 *   perfbench --workload <fig5_warm|sweep_uncached>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --digests <table> --work-dir <dir> [--spans-out <file>]
 *             [--commit <revision>]
 *
 * and forwards its output: a human report on stderr and, as the last
 * line of stdout, the JSON result record. `perfbench --record` prints a
 * fresh digest table instead (see README.md before using it).
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hh"

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload W --seed N "
                 "--seconds S --trace 0|1 --digests FILE --work-dir DIR "
                 "[--spans-out FILE] [--commit REV] | perfbench --record\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig cfg;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--record") {
                std::fputs(perfbench::recordDigests().c_str(), stdout);
                return 0;
            }
            if (i + 1 >= argc)
                return usage(("missing value for " + arg).c_str());
            const std::string val = argv[++i];
            if (arg == "--workload")
                cfg.workload = val;
            else if (arg == "--seed")
                cfg.seed = std::stoull(val);
            else if (arg == "--seconds")
                cfg.seconds = std::stod(val);
            else if (arg == "--trace" && (val == "0" || val == "1"))
                cfg.trace = val == "1";
            else if (arg == "--digests")
                cfg.digests = val;
            else if (arg == "--work-dir")
                cfg.workDir = val;
            else if (arg == "--spans-out")
                cfg.spansOut = val;
            else if (arg == "--commit")
                cfg.commit = val;
            else
                return usage(("bad argument " + arg + " " + val).c_str());
        }
        const perfbench::RunResult r = perfbench::runBenchmark(cfg);
        std::fputs(r.report.c_str(), stderr);
        const std::string json = perfbench::resultJson(
            r.failed == 0, r.attempted, r.failed, r.metrics);
        std::printf("%s\n", json.c_str());
        return 0;
    } catch (const std::exception &e) {
        return usage(e.what());
    }
}
