/**
 * @file
 * InterruptBackend: the paper's CPU service pipeline (Section VI),
 * sharded.
 *
 * A GPU s_sendmsg doorbell arrives routed by originating CU; the
 * interrupt handler coalesces requests per syscall-area shard (each
 * shard has its own pending batch and window timer) and enqueues the
 * batch on the kernel workqueue, steered to the shard's preferred
 * worker. An OS worker then scans the signalled wavefronts' slots
 * through the shared ServiceCore. With areaShards=1 this is exactly
 * the original single-funnel pipeline.
 */

#ifndef GENESYS_CORE_BACKEND_INTERRUPT_BACKEND_HH
#define GENESYS_CORE_BACKEND_INTERRUPT_BACKEND_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/backend/backend.hh"
#include "core/backend/service_core.hh"
#include "support/stats.hh"

namespace genesys::core
{

class InterruptBackend : public ServiceBackend
{
  public:
    /** @p params is the façade's live parameter block: coalescing
     *  knobs written through sysfs take effect on the next arrival. */
    InterruptBackend(ServiceCore &core, GenesysParams &params);

    void onGpuInterrupt(std::uint32_t cu,
                        std::uint32_t hw_wave_slot) override;
    sim::Task<> drain() override;
    const char *name() const override { return "interrupt"; }

    // --- stats ------------------------------------------------------
    std::uint64_t interrupts() const { return interrupts_; }
    std::uint64_t interruptsOnShard(std::uint32_t shard) const
    {
        return shards_[shard].interrupts;
    }
    std::uint64_t batches() const { return batches_; }
    const stats::Distribution &batchSizes() const { return batchSizes_; }
    std::uint64_t inFlight() const { return inFlight_; }
    /** Ring mode: doorbells elided because the shard already had a
     *  consumer task pending or running (the batching win). */
    std::uint64_t ringDoorbellsSuppressed() const
    {
        return ringSuppressed_;
    }

  private:
    struct ShardState
    {
        std::vector<std::uint32_t> pendingBatch;
        sim::EventId batchTimer = 0;
        bool batchTimerArmed = false;
        std::uint64_t interrupts = 0;
        /// Ring mode: a consumer task is pending or running for this
        /// shard, so further doorbells are suppressed — the task
        /// re-checks the SQ before exiting.
        bool ringConsumerPending = false;
    };

    sim::Task<> interruptArrival(std::uint32_t shard,
                                 std::uint32_t hw_wave_slot);
    void flushPendingBatch(std::uint32_t shard);
    /** @p worker is the index of the OS worker running the batch. */
    sim::Task<> serviceBatch(std::vector<std::uint32_t> waves,
                             std::uint32_t worker);

    /** Ring mode: interrupt pipeline for one (unsuppressed) doorbell. */
    sim::Task<> ringArrival(std::uint32_t shard);
    /** Ring mode: the shard's dedicated consumer — bulk-drains the
     *  SQ, fans the popped entries out across workers, then lingers
     *  in a grace-poll loop (doorbell-free pickup) before retiring.
     *  Runs as its own spawned kthread (the SPDK reactor shape), NOT
     *  a workqueue item: a lingering poller must never occupy one of
     *  the bounded workers the service chunks it dispatches need. */
    sim::Task<> ringConsumeTask(std::uint32_t shard);
    /** Fan @p batch out across the workqueue: may-block entries are
     *  punted one per task, the rest split into per-worker chunks. */
    void dispatchRingBatch(std::uint32_t shard,
                           const std::vector<std::uint32_t> &batch);
    /** Ring mode: service one dispatched chunk of popped entries,
     *  @p first and then @p rest (empty for a punted entry, so a lone
     *  entry builds no vector). */
    sim::Task<> ringServiceChunk(std::uint32_t shard, std::uint32_t first,
                                 std::vector<std::uint32_t> rest,
                                 std::uint32_t worker);
    /** Shard -> preferred workqueue worker: shard s prefers worker
     *  s % activeWorkers, so a shard's batches serialize on "its"
     *  worker (per-shard cache affinity). */
    std::uint32_t steerTarget(std::uint32_t shard) const;

    ServiceCore &core_;
    GenesysParams &params_;
    std::vector<ShardState> shards_;

    std::uint64_t interrupts_ = 0;
    std::uint64_t batches_ = 0;
    std::uint64_t inFlight_ = 0;
    std::uint64_t ringSuppressed_ = 0;
    stats::Distribution batchSizes_;
    std::unique_ptr<sim::WaitQueue> drainWait_;
};

} // namespace genesys::core

#endif // GENESYS_CORE_BACKEND_INTERRUPT_BACKEND_HH
