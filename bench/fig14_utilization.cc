/**
 * @file
 * Figure 14: wordcount I/O and CPU utilization traces reading from
 * the SSD — the CPU version is compute-bound and starves the device
 * (paper: ~30 MB/s), while GENESYS offloads the scan to the GPU,
 * freeing the CPU to service system calls and keeping the device busy
 * (paper: up to 170 MB/s).
 */

#include "bench/common.hh"
#include "workloads/wordcount.hh"

using namespace genesys;
using namespace genesys::bench;
using namespace genesys::workloads;

namespace
{

WordcountResult
runMode(WordcountMode mode)
{
    core::System sys = freshSystem(/*seed=*/9);
    WordcountCorpusConfig cfg;
    cfg.numFiles = 64;
    cfg.fileBytes = 256 * 1024;
    cfg.numWords = 64;
    const WordcountCorpus corpus = buildWordcountCorpus(sys, cfg);
    const WordcountResult r = runWordcount(sys, corpus, mode);
    if (!r.correct)
        fatal("wordcount totals wrong for %s", wordcountModeName(mode));
    return r;
}

void
printTrace(const char *name, const WordcountResult &r)
{
    std::printf("--- %s ---\n", name);
    TextTable table;
    table.setHeader({"t (ms)", "I/O (MB/s)", "CPU util"});
    // Print up to 16 evenly spaced samples.
    const std::size_t n = r.ioTrace.size();
    const std::size_t step = n > 16 ? n / 16 : 1;
    for (std::size_t i = 0; i < n; i += step) {
        table.addRow(
            {logging::format("%.1f", ticks::toMs(r.ioTrace[i].first)),
             logging::format("%.1f", r.ioTrace[i].second),
             logging::format("%.0f%%",
                             100.0 * r.cpuTrace[i].second)});
    }
    std::printf("%s", table.render().c_str());
    std::printf("mean: %.1f MB/s I/O, %.0f%% CPU\n\n",
                r.ssdThroughputMBps, 100.0 * r.cpuUtilization);
}

} // namespace

int
main()
{
    banner("Figure 14",
           "wordcount I/O throughput and CPU utilization traces "
           "(SSD-backed corpus)");

    const WordcountResult cpu = runMode(WordcountMode::CpuOpenMp);
    const WordcountResult genesys = runMode(WordcountMode::Genesys);

    printTrace("CPU (OpenMP) wordcount", cpu);
    printTrace("GENESYS wordcount", genesys);

    std::printf("Expected shape: GENESYS sustains several times the "
                "CPU version's I/O rate (paper: 170 vs 30 MB/s) while "
                "using less CPU, since search runs on the GPU and the "
                "CPU only services system calls.\n");
    return 0;
}
