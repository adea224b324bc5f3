/**
 * @file
 * The paper's out-of-band evaluation workflow (Section 4): simulate a
 * benchmark ONCE while dumping its cycle trace (the TraceDoctor role),
 * then evaluate any number of analysis configurations offline by
 * replaying the file -- "we run up to 15 configurations ... with a
 * single run because it enables fairly comparing analysis approaches as
 * they sample in the exact same cycle".
 *
 * The dump uses the trace-cache format (core/trace_io): CRC-checked
 * chunk frames behind a header keyed by the workload/config
 * fingerprint.
 *
 * Usage: trace_replay [benchmark] [trace-file]
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/trace_cache.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/core.hh"
#include "core/trace_buffer.hh"
#include "core/trace_io.hh"
#include "profilers/golden.hh"
#include "profilers/sampler.hh"
#include "workloads/workload.hh"

using namespace tea;

int
main(int argc, char **argv)
{
    std::string name = argc > 1 ? argv[1] : "mcf";
    std::string path = argc > 2 ? argv[2] : "/tmp/tea_trace.bin";

    // Pass 1: simulate once, dumping the trace.
    Workload w = workloads::byName(name);
    CoreConfig cfg;
    const std::uint64_t fp = TraceCache::fingerprintOf(w, cfg);
    {
        CompactTraceWriter writer(path, fp);
        ChunkingSink tee(4096,
                         [&](TraceChunkPtr c) { writer.writeChunk(*c); });
        Core core(cfg, w.program, std::move(w.initial));
        core.addSink(&tee);
        Cycle sim_cycles = core.run();
        tee.finish();
        if (!writer.commit(core.stats()))
            tea_fatal("cannot write trace file '%s'", path.c_str());
        std::printf("simulated %s once: %llu cycles, %llu trace events "
                    "-> %s\n",
                    name.c_str(),
                    static_cast<unsigned long long>(sim_cycles),
                    static_cast<unsigned long long>(tee.eventsCaptured()),
                    path.c_str());
    }

    // Pass 2: evaluate 15 analysis configurations offline (5 techniques
    // x 3 sampling frequencies), all from the single recorded run.
    GoldenReference golden;
    std::vector<std::unique_ptr<TechniqueSampler>> samplers;
    std::vector<TraceSink *> sinks{&golden};
    for (Cycle period : {509u, 127u, 31u}) {
        for (SamplerConfig c :
             {ibsConfig(period), speConfig(period), risConfig(period),
              nciTeaConfig(period), teaConfig(period)}) {
            samplers.push_back(std::make_unique<TechniqueSampler>(c));
            sinks.push_back(samplers.back().get());
        }
    }
    std::string why;
    std::unique_ptr<MappedTraceFile> mapped =
        MappedTraceFile::open(path, fp, &why);
    if (!mapped)
        tea_fatal("cannot read trace file '%s': %s", path.c_str(),
                  why.c_str());
    Cycle replayed = 0;
    while (TraceChunkPtr chunk = mapped->nextChunk())
        replayed += replayChunk(*chunk, sinks);
    std::printf("replayed %llu cycles through %zu configurations\n\n",
                static_cast<unsigned long long>(replayed),
                samplers.size());

    Table t;
    t.header({"technique", "period", "samples", "error vs golden"});
    for (const auto &s : samplers) {
        t.row({s->config().name, std::to_string(s->config().period),
               fmtCount(s->samplesTaken()),
               fmtPercent(s->pics().errorAgainst(golden.pics()))});
    }
    t.print();
    std::remove(path.c_str());
    return 0;
}
