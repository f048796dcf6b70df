/**
 * @file
 * signal-search map-reduce (paper Section VIII-B, Figure 12).
 *
 * Phase 1 is a massively parallel lookup over a data array — a good
 * fit for the GPU. Phase 2 computes SHA-512 checksums over the blocks
 * phase 1 selects — a good fit for the CPU. Without GPU signal
 * support the phases serialize: the CPU must wait for the whole kernel
 * before hashing anything. With GENESYS, each work-group emits
 * rt_sigqueueinfo carrying its block id (through siginfo.si_value) the
 * moment its share of the search finishes, and the CPU starts hashing
 * that block immediately, overlapping the phases (~14% in the paper).
 */

#ifndef GENESYS_WORKLOADS_SIGNAL_SEARCH_HH
#define GENESYS_WORKLOADS_SIGNAL_SEARCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"
#include "workloads/sha512.hh"

namespace genesys::workloads
{

struct SignalSearchConfig
{
    std::uint32_t numBlocks = 512;
    std::uint32_t blockBytes = 64 * 1024;
    /// Fraction of blocks that contain a needle (get selected).
    double selectFraction = 0.10;
    bool useSignals = true; ///< false = serialized baseline
    /// Phase-1 lookup intensity: each block answers this many probes
    /// into its index (binary-search style), shared across the
    /// work-group's items.
    std::uint64_t lookupQueriesPerBlock = 1'000'000;
    std::uint32_t probesPerQuery = 17;
    std::uint32_t cyclesPerProbe = 7;
    std::uint32_t wgSize = 64;
    /// CPU SHA-512 rate (with SHA extensions), bytes/second.
    double cpuShaBytesPerSec = 1.4e9;
};

struct SignalSearchResult
{
    Tick elapsed = 0;
    std::uint32_t blocksSelected = 0;
    std::uint32_t blocksHashed = 0;
    bool correct = false; ///< digests match the reference
    std::vector<std::string> digests; ///< hex digests, by block order
};

/**
 * One signal-search run, resumable so that a caller can interleave it
 * with the runs of other Systems.
 */
class SignalSearch
{
  public:
    struct Shared;

    /** Build the data and launch phase 1 on @p sys (nothing runs). */
    SignalSearch(core::System &sys, const SignalSearchConfig &config);

    /**
     * Run @p sys up to @p limit, starting phase 2 when phase 1 has
     * quiesced. @return false once the whole search has quiesced.
     */
    bool runUntil(Tick limit);

    SignalSearchResult result() const;

  private:
    core::System &sys_;
    std::shared_ptr<Shared> shared_;
    Tick start_ = 0;
    bool phase2_ = false;
};

/** Run a signal search on @p sys to completion. */
SignalSearchResult runSignalSearch(core::System &sys,
                                   const SignalSearchConfig &config);

} // namespace genesys::workloads

#endif // GENESYS_WORKLOADS_SIGNAL_SEARCH_HH
