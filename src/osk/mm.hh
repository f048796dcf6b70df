/**
 * @file
 * Per-process memory manager.
 *
 * Supports the paper's memory-management case study (Section VIII-A):
 * miniAMR mmaps a large arena, uses getrusage to watch its resident set
 * size, and madvise(MADV_DONTNEED) to return cold pages to the OS. When
 * the RSS exceeds the physical memory available to the GPU, touching
 * pages forces swap traffic; sustained swap stalls trip the GPU driver
 * timeout (the paper's no-madvise baseline "simply does not complete").
 *
 * Anonymous mappings are accounting-only (no host memory is committed),
 * so multi-GiB experiments are cheap. Device-backed mappings (e.g. the
 * framebuffer) expose real backing bytes via resolve().
 */

#ifndef GENESYS_OSK_MM_HH
#define GENESYS_OSK_MM_HH

#include <cstdint>
#include <map>
#include <vector>

#include <memory>

#include "osk/params.hh"
#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/types.hh"

namespace genesys::osk
{

class CharDevice;

using Addr = std::uint64_t;

inline constexpr std::uint64_t kPageSize = 4096;

// madvise advice values (match Linux).
inline constexpr int MADV_WILLNEED_ = 3;
inline constexpr int MADV_DONTNEED_ = 4;

struct MmStats
{
    std::uint64_t minorFaults = 0;
    std::uint64_t majorFaults = 0;
    std::uint64_t swapOuts = 0;
    Tick swapStall = 0; ///< cumulative stall attributable to swapping
};

class CpuCluster;

class MemoryManager
{
  public:
    MemoryManager(sim::EventQueue &eq, const OskParams &params,
                  std::uint64_t phys_limit_bytes);

    /**
     * Route fault-service time through the CPU cores (the IOMMU/ATS
     * fault handler runs on the host CPU). Without a cluster, fault
     * time is charged as a plain delay.
     */
    void setCpuCluster(CpuCluster *cpus) { cpus_ = cpus; }

    /**
     * Map @p length bytes of anonymous memory.
     * @return the mapping's base address (page aligned), or 0 on error.
     */
    Addr mmapAnon(std::uint64_t length);

    /**
     * Map a character device's memory (e.g. /dev/fb0).
     * @return base address, or 0 if the device does not support mmap.
     */
    Addr mmapDevice(CharDevice *dev);

    /** Unmap a whole mapping previously returned by mmap*. */
    bool munmap(Addr base, std::uint64_t length);

    /**
     * madvise over [addr, addr+length). MADV_DONTNEED releases present
     * pages (dropping RSS); MADV_WILLNEED is accepted as a hint.
     * @return 0 or negative errno.
     */
    int madvise(Addr addr, std::uint64_t length, int advice);

    /** Pages released by the last MADV_DONTNEED call (for timing). */
    std::uint64_t lastReleasedPages() const { return lastReleased_; }

    /**
     * Simulate the owning execution context touching every page of
     * [addr, addr+length): absent pages minor-fault, swapped pages
     * major-fault, and exceeding the physical limit swaps victims out.
     * Suspends the caller for the accumulated fault time. Fault
     * service serializes on the address-space lock (mmap_sem), so
     * concurrent faulting contexts queue behind each other as they do
     * on Linux 4.11.
     */
    sim::Task<> touch(Addr addr, std::uint64_t length);

    /** Bookkeeping-only variant (no simulated time); for tests. */
    void touchUntimed(Addr addr, std::uint64_t length);

    /** @return real backing bytes for device mappings, else nullptr. */
    std::uint8_t *resolve(Addr addr, std::uint64_t length) const;

    std::uint64_t rssBytes() const { return rssPages_ * kPageSize; }
    std::uint64_t peakRssBytes() const { return peakRssPages_ * kPageSize; }
    std::uint64_t swappedBytes() const { return swappedPages_ * kPageSize; }
    const MmStats &stats() const { return stats_; }
    std::size_t vmaCount() const { return vmas_.size(); }

  private:
    enum class PageState : std::uint8_t
    {
        Absent,
        Present,
        Swapped,
    };

    struct Vma
    {
        Addr base = 0;
        std::uint64_t pages = 0;
        CharDevice *device = nullptr;
        std::uint8_t *backing = nullptr;
        std::vector<PageState> state;
    };

    /** Find the VMA containing @p addr, or nullptr. */
    Vma *find(Addr addr);
    const Vma *find(Addr addr) const;

    /**
     * Bookkeeping for touching pages; returns the simulated time the
     * faults cost (also accumulates swap stall into stats_).
     */
    Tick touchCost(Addr addr, std::uint64_t length);

    /** Evict present pages until RSS fits the physical limit. */
    Tick evictToFit();

    void
    addRss(std::uint64_t pages)
    {
        rssPages_ += pages;
        peakRssPages_ = std::max(peakRssPages_, rssPages_);
    }

    sim::EventQueue &eq_;
    const OskParams &params_;
    CpuCluster *cpus_ = nullptr;
    std::unique_ptr<sim::Semaphore> faultLock_; ///< mmap_sem analogue
    std::uint64_t physLimit_; ///< pages
    Addr nextBase_ = 0x7f00'0000'0000ull;
    std::map<Addr, Vma> vmas_;
    std::uint64_t rssPages_ = 0;
    std::uint64_t peakRssPages_ = 0;
    std::uint64_t swappedPages_ = 0;
    std::uint64_t lastReleased_ = 0;
    MmStats stats_;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_MM_HH
