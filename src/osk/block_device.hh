/**
 * @file
 * Block device (SSD) timing model.
 *
 * Figures 13b/14 read the wordcount corpus from an SSD. The effect the
 * paper reports — the GPU extracting 170 MB/s from a device the CPU
 * version drives at 30 MB/s — is a queue-depth effect: many concurrent
 * GPU work-group reads keep the device's internal channels busy, while
 * the serial CPU loop leaves them idle between requests ("the GPU's
 * ability to launch more concurrent I/O requests enabled the I/O
 * scheduler to make better scheduling decisions").
 *
 * The model: @c channels independent service slots, each request pays a
 * fixed access latency, then transfers over a shared bandwidth gate.
 * Throughput at queue depth 1 is latency-bound; at high queue depth it
 * approaches the bandwidth limit.
 */

#ifndef GENESYS_OSK_BLOCK_DEVICE_HH
#define GENESYS_OSK_BLOCK_DEVICE_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/types.hh"

namespace genesys::osk
{

class FaultInjector;

struct BlockDeviceParams
{
    /// Internal parallelism (flash channels / NCQ effective depth).
    std::uint32_t channels = 8;
    /// Per-request access latency (lookup + flash read).
    Tick accessLatency = ticks::us(90);
    /// Aggregate sequential bandwidth.
    double bytesPerSec = 520.0e6;
    /// One stream's read is split into device requests of at most this
    /// size (the kernel readahead window): a single sequential reader
    /// is therefore latency-bound while many concurrent readers can
    /// overlap access phases across channels.
    std::uint64_t maxRequestBytes = 32 * 1024;
};

class BlockDevice
{
  public:
    BlockDevice(sim::EventQueue &eq, const BlockDeviceParams &params)
        : eq_(eq), params_(params), channels_(eq, params.channels),
          band_(eq, 1)
    {}

    /** Service a read of @p bytes; suspends for the full device time. */
    sim::Task<> read(std::uint64_t bytes);

    std::uint64_t bytesRead() const { return bytesRead_; }
    std::uint64_t requests() const { return requests_; }

    /** Achieved read throughput over [from, to] in bytes/sec. */
    double
    throughput(Tick from, Tick to) const
    {
        if (to <= from)
            return 0.0;
        return static_cast<double>(bytesRead_) / ticks::toSec(to - from);
    }

    void
    resetStats()
    {
        bytesRead_ = 0;
        requests_ = 0;
        delayedRequests_ = 0;
    }

    /**
     * Attach a fault injector: each device request then rolls for a
     * tail-latency spike (flash GC pause / retry-after-ECC model).
     */
    void setFaultInjector(FaultInjector *faults) { faults_ = faults; }

    std::uint64_t delayedRequests() const { return delayedRequests_; }

  private:
    sim::EventQueue &eq_;
    BlockDeviceParams params_;
    sim::Semaphore channels_; ///< concurrent requests in service
    sim::Semaphore band_;     ///< serializes the shared transfer phase
    FaultInjector *faults_ = nullptr;
    std::uint64_t bytesRead_ = 0;
    std::uint64_t requests_ = 0;
    std::uint64_t delayedRequests_ = 0;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_BLOCK_DEVICE_HH
