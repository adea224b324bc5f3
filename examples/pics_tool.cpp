/**
 * @file
 * The paper's offline PICS tool (Section 3): TEA's interrupt handler
 * writes 88-byte sample records to a buffer that is flushed to a file;
 * when the application terminates, this tool aggregates the samples of
 * each static instruction into PICS.
 *
 * Usage:
 *   pics_tool record <benchmark> <sample-file> [period]
 *   pics_tool report <benchmark> <sample-file> [period]
 *   pics_tool demo                (record + report via a temp file)
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/report.hh"
#include "common/env.hh"
#include "core/core.hh"
#include "profilers/sample_record.hh"
#include "profilers/sampler.hh"
#include "workloads/workload.hh"

using namespace tea;

namespace {

int
record(const std::string &bench, const std::string &path, Cycle period)
{
    Workload w = workloads::byName(bench);
    CoreConfig cfg;
    TechniqueSampler tea{teaConfig(period)};
    SampleBuffer buffer;
    tea.setRecorder(&buffer, /*core=*/0, /*pid=*/4242, /*tid=*/4242);
    Core core(cfg, w.program, std::move(w.initial));
    core.addSink(&tea);
    core.run();
    buffer.writeFile(path);
    std::printf("recorded %zu samples (%zu KiB of 88 B records) over %llu "
                "cycles to %s\n",
                buffer.size(), buffer.bytes() / 1024,
                static_cast<unsigned long long>(core.stats().cycles),
                path.c_str());
    return 0;
}

int
report(const std::string &bench, const std::string &path, Cycle period)
{
    // Rebuild the program only to map sample addresses to symbols; the
    // cycle stacks themselves come purely from the sample file.
    Workload w = workloads::byName(bench);
    auto records = SampleBuffer::readFile(path);
    Pics pics = picsFromRecords(records, period);
    std::printf("%zu samples -> %.0f attributed cycles\n", records.size(),
                pics.total());
    std::puts("top-8 per-instruction cycle stacks:");
    std::fputs(
        renderTopInstructions(w.program, pics, 8, pics.total()).c_str(),
        stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "demo") == 0) {
        std::string path = "/tmp/tea_samples.bin";
        record("nab", path, 127);
        return report("nab", path, 127);
    }
    if (argc < 4) {
        std::fprintf(stderr,
                     "usage: %s record|report <benchmark> <file> "
                     "[period]\n       %s demo\n",
                     argv[0], argv[0]);
        return argc == 1 ? 0 : 2; // bare invocation prints usage, ok
    }
    Cycle period = argc > 4 ? parseUnsigned("period", argv[4], 1, UINT64_MAX)
                            : 127;
    if (std::strcmp(argv[1], "record") == 0)
        return record(argv[2], argv[3], period);
    if (std::strcmp(argv[1], "report") == 0)
        return report(argv[2], argv[3], period);
    std::fprintf(stderr, "unknown mode '%s'\n", argv[1]);
    return 2;
}
