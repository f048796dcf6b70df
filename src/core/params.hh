/**
 * @file
 * GENESYS-specific parameters: the syscall area geometry and the
 * invocation/communication knobs of the design space (Section V).
 */

#ifndef GENESYS_CORE_PARAMS_HH
#define GENESYS_CORE_PARAMS_HH

#include <cstdint>

#include "support/types.hh"

namespace genesys::core
{

struct GenesysParams
{
    /// Virtual base of the preallocated shared syscall area. Only used
    /// for cache-line modeling; slots are one line each (Section VI).
    std::uint64_t syscallAreaBase = 0x2000'0000ull;
    /// One slot per active hardware work-item, 64 bytes each
    /// ("our system uses 64 bytes per slot, totaling 1.25 MBs").
    std::uint32_t slotBytes = 64;

    /// Syscall-area shards. Each shard owns the slots of a contiguous
    /// block of CUs plus its own doorbell line and stats; the GPU
    /// routes s_sendmsg interrupts by originating CU. Must divide
    /// numCus. 1 (the paper's single area) is timing-identical to the
    /// pre-shard implementation.
    std::uint32_t areaShards = 1;

    /// Ring-based submission (DESIGN.md §13): each shard gets a
    /// submission queue (SQ) of slot indices and a completion queue
    /// (CQ); wavefronts publish a batch and ring one doorbell per
    /// batch, the host consumes in bulk and posts completion events.
    /// Off (the default) preserves the paper's per-slot doorbell path
    /// bit-identically (pinned by tests/test_timing_parity.cc).
    bool useRings = false;
    /// SQ/CQ entries per shard. Need not be a power of two.
    std::uint32_t ringEntries = 64;
    /// Ring mode: after draining its shard's SQ, the consume task
    /// lingers this long polling for more batches before retiring
    /// (the SPDK poll-mode service shape). Entries published while it
    /// lingers are picked up within one poll slice and skip the whole
    /// doorbell/interrupt/wakeup pipeline — their doorbells are
    /// suppressed. 0 retires the consumer as soon as the SQ is dry
    /// (the model checker runs with 0 to keep schedules bounded).
    Tick ringConsumerGrace = ticks::us(30);
    /// Poll cadence of a lingering consume task. The CPU core is
    /// released across each idle slice, so lingering consumers do not
    /// starve the service chunks (or other shards' consumers).
    Tick ringConsumerPoll = ticks::ns(500);

    /// GPU-side polling cadence while waiting for slot completion.
    std::uint64_t pollIntervalCycles = 200;

    /// Per-lane slot-populate cost beyond the atomics (argument stores
    /// pipeline across the wavefront's lanes).
    Tick perLanePopulate = ticks::ns(15);

    /// Software L1 flush before consumer (write-like) system calls so
    /// GPU-produced buffer data is visible to the CPU (Section VI).
    Tick l1FlushCost = ticks::ns(900);

    /// Interrupt coalescing (Section V-B): the handler waits up to
    /// coalesceWindow for more requests, bounded by coalesceMaxBatch.
    /// window == 0 disables coalescing. Configured at runtime through
    /// the sysfs-style interface GenesysHost exposes.
    Tick coalesceWindow = 0;
    std::uint32_t coalesceMaxBatch = 1;

    /// POSIX error-path recovery (GPU client + host service path).
    /// A blocking requester transparently restarts -EINTR results up
    /// to this many times per call before surfacing the error.
    std::uint32_t eintrMaxRestarts = 64;
    /// -EAGAIN is retried at most this many times, each after a stall
    /// of eagainBackoffCycles GPU cycles. A work-group or kernel
    /// leader's stall doubles per consecutive retry; a work-item
    /// round's stall, shared by its congested lanes, stays flat.
    std::uint32_t eagainMaxRetries = 8;
    std::uint64_t eagainBackoffCycles = 1024;

    /**
     * gsan adversarial test hooks: each deliberately re-introduces a
     * synchronization bug the paper's protocol exists to prevent, so
     * the sanitizer's detectors can be regression-tested end to end.
     * All default off; production paths never set them.
     */
    struct GsanTestHooks
    {
        /// Drop the required pre-invocation work-group barrier.
        bool skipPreBarrier = false;
        /// Drop the required post-invocation work-group barrier.
        bool skipPostBarrier = false;
        /// After publishing a blocking request, immediately read the
        /// result payload without waiting for Finished.
        bool racyPeekBeforeFinished = false;
        /// Consume-side bug: peek the result payload of a finished
        /// slot without the consume() acquire.
        bool racyConsume = false;
        /// HaltResume bug: insert this many compute cycles between the
        /// final polling sweep and the halt, opening the window where
        /// the CPU's wake fires into a not-yet-halted wave.
        std::uint64_t haltGapCycles = 0;
        /// gmc mutant: ring the shard doorbell (s_sendmsg) before the
        /// slot publish instead of after. Invisible under FIFO
        /// tie-breaking; an adversarial schedule services the wave
        /// while its slot is still Populating and strands the request.
        bool doorbellBeforePublish = false;
        /// gmc mutant: deliver the HaltResume wake before depositing
        /// the result (complete()). The woken wave's sweep finds the
        /// slot still Processing and halts again — a lost wakeup.
        bool wakeBeforeComplete = false;
        /// gmc ring mutant: skip the batch doorbell when the SQ was
        /// observed non-empty before the claim ("someone else's
        /// doorbell covers us"). The sample is stale by publish time;
        /// an adversarial schedule drains the observed entry first and
        /// strands the batch with no consumer.
        bool ringDropDoorbell = false;
        /// gmc ring mutant: post the CQ completion event (and yield)
        /// before servicing the SQ entry. A polling waiter that
        /// observes the CQ tail advance re-sweeps once, finds its slot
        /// unfinished, and never re-sweeps without a further event.
        bool ringCompleteBeforePublish = false;
        /// gmc ring mutant: cache the SQ head observation across
        /// claim retries instead of re-reading the counter line. Once
        /// the ring looks full the producer spins forever on space the
        /// consumer has long since freed.
        bool ringStaleHead = false;
        /// gsan ring bug: the host reads the oldest SQ entry without
        /// the consume acquire, so the producer's publish is not
        /// ordered before the read (ring payload race).
        bool ringRacySqConsume = false;
    };
    GsanTestHooks gsanTest;
};

} // namespace genesys::core

#endif // GENESYS_CORE_PARAMS_HH
