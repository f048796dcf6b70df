/**
 * @file
 * Set-associative cache capacity model.
 *
 * The paper's Figure 9 hinges on one architectural fact: GPU polling
 * traffic that fits in the (CPU-coherent) GPU L2 never reaches the
 * memory controllers; once the polled working set exceeds L2 capacity,
 * the spill traffic contends with CPU accesses on the shared DRAM
 * channels. This model tracks hits/misses with true LRU per set, which
 * is all the fidelity the experiment requires. Each set is a fixed run
 * of tags in one flat array, kept most recently used first.
 */

#ifndef GENESYS_MEM_CACHE_MODEL_HH
#define GENESYS_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <vector>


namespace genesys::mem
{

using Addr = std::uint64_t;

struct CacheParams
{
    std::uint64_t sizeBytes = 256 * 1024; ///< 4096 lines of 64 B.
    std::uint32_t lineBytes = 64;
    std::uint32_t associativity = 16;
};

class CacheModel
{
  public:
    explicit CacheModel(const CacheParams &params);

    /**
     * Access the line containing @p addr, updating LRU state.
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Drop every cached line (models an explicit flush/invalidate). */
    void flushAll();

    /** Invalidate the single line containing @p addr if present. */
    void invalidate(Addr addr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t accesses() const { return hits_ + misses_; }
    double
    missRatio() const
    {
        const auto total = accesses();
        return total == 0 ? 0.0
                          : static_cast<double>(misses_) /
                                static_cast<double>(total);
    }

    std::uint64_t lineCapacity() const { return numSets_ * assoc_; }
    std::uint32_t lineBytes() const { return lineBytes_; }

    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

  private:
    std::uint64_t setIndex(Addr line) const { return line % numSets_; }

    std::uint32_t lineBytes_;
    std::uint64_t numSets_;
    std::uint32_t assoc_;
    /// numSets_ x assoc_ line tags. Set s owns tags_[s * assoc_ ...];
    /// its first fill_[s] entries are valid, most recently used first.
    std::vector<Addr> tags_;
    std::vector<std::uint32_t> fill_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace genesys::mem

#endif // GENESYS_MEM_CACHE_MODEL_HH
