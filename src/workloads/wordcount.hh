/**
 * @file
 * Wordcount over SSD-backed files (paper Figures 13b and 14).
 *
 * The workload from the original GPUfs evaluation: count occurrences
 * of 64 search strings across a file set, using open/read/close. Three
 * implementations:
 *
 *  - CPU parallel (OpenMP-style): each core streams files serially —
 *    queue depth 1 at the SSD, latency-bound (~30 MB/s in the paper).
 *  - GPU without syscalls: the CPU reads every file, then launches a
 *    GPU kernel per batch to count — kernel relaunch round trips and a
 *    serial I/O path make it slower than the CPU version.
 *  - GENESYS: one work-group per file issuing open/read/close at
 *    work-group granularity (blocking + weak ordering, as the paper
 *    found best); dozens of in-flight reads keep the SSD's internal
 *    channels busy (~170 MB/s, ~6x).
 *
 * Counting is functional: every implementation must produce identical
 * per-string totals.
 */

#ifndef GENESYS_WORKLOADS_WORDCOUNT_HH
#define GENESYS_WORKLOADS_WORDCOUNT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/system.hh"

namespace genesys::workloads
{

struct WordcountCorpus
{
    std::string dir = "/mnt/ssd/corpus";
    std::vector<std::string> files;
    std::vector<std::string> words; ///< 64 search strings
    std::vector<std::uint64_t> expected; ///< per-word totals
    std::uint64_t totalBytes = 0;
};

struct WordcountCorpusConfig
{
    std::uint32_t numFiles = 64;
    std::uint32_t fileBytes = 256 * 1024;
    std::uint32_t numWords = 64;
    std::uint32_t plantsPerFile = 20;
};

WordcountCorpus buildWordcountCorpus(core::System &sys,
                                     const WordcountCorpusConfig &cfg);

enum class WordcountMode
{
    CpuOpenMp,
    GpuNoSyscall,
    Genesys,
};

const char *wordcountModeName(WordcountMode mode);

struct WordcountResult
{
    Tick elapsed = 0;
    std::vector<std::uint64_t> counts;
    bool correct = false;
    double ssdThroughputMBps = 0.0; ///< achieved device read rate
    double cpuUtilization = 0.0;    ///< mean over the run
    /// Time series for Figure 14 (sampled once per window).
    std::vector<std::pair<Tick, double>> ioTrace;  ///< MB/s
    std::vector<std::pair<Tick, double>> cpuTrace; ///< [0,1]
};

WordcountResult runWordcount(core::System &sys,
                             const WordcountCorpus &corpus,
                             WordcountMode mode);

/**
 * Add to counts[w] the number of non-overlapping occurrences of
 * words[w] in @p text, for every w, in one pass over the text.
 *
 * Each count equals countOccurrences(text, words[w]): matches of one
 * word are taken leftmost first and may not overlap each other, while
 * matches of different words may. Every index counts on its own, so a
 * duplicated word is counted once per index; an empty word counts 0.
 *
 * Words are grouped by the length of their first (up to) 4 bytes. At
 * each text position a bitmap indexed by a hash of that 4-byte window,
 * masked to the group's prefix length, rules out almost every word at
 * once; the survivors are confirmed with memcmp.
 */
void countWordsInto(std::string_view text,
                    const std::vector<std::string> &words,
                    std::vector<std::uint64_t> &counts);

/** Count non-overlapping occurrences of @p word in @p text. This is
 *  the single-word reference countWordsInto() must agree with. */
std::uint64_t countOccurrences(std::string_view text,
                               std::string_view word);

} // namespace genesys::workloads

#endif // GENESYS_WORKLOADS_WORDCOUNT_HH
