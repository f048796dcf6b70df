/**
 * @file
 * GpuSyscalls implementation.
 */

#include "client.hh"

#include <algorithm>
#include <cerrno>

#include "support/gsan.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace genesys::core
{

const char *
granularityName(Granularity g)
{
    switch (g) {
      case Granularity::WorkItem:
        return "work-item";
      case Granularity::WorkGroup:
        return "work-group";
      case Granularity::Kernel:
        return "kernel";
    }
    return "?";
}

const char *
orderingName(Ordering o)
{
    return o == Ordering::Strong ? "strong" : "relaxed";
}

const char *
blockingName(Blocking b)
{
    return b == Blocking::Blocking ? "blocking" : "non-blocking";
}

const char *
waitModeName(WaitMode w)
{
    return w == WaitMode::Polling ? "polling" : "halt-resume";
}

bool
GpuSyscalls::sanOn() const
{
    return gsan_ != nullptr && gsan_->enabled();
}

void
GpuSyscalls::sanActor(gpu::WavefrontCtx &ctx)
{
    // Re-established before every instrumented slot op: any co_await
    // in between may have interleaved another wave or CPU worker.
    gsan_->setActor(gsan_->waveThread(ctx.hwWaveSlot()));
}

sim::Task<>
GpuSyscalls::claimSlot(gpu::WavefrontCtx &ctx, std::uint32_t item_slot)
{
    SyscallSlot &slot = area_.slot(item_slot);
    const mem::Addr addr = area_.slotAddr(item_slot);
    for (;;) {
        // Ring mode: the SQ claim inside ringSubmit is the one fabric
        // atomic that serializes this call against other agents; the
        // slot claim is a CAS on the lane's own statically-assigned
        // line (it only ever races the host recycling that same
        // slot), so it is charged at populate cost, not as a second
        // global round-trip.
        co_await gpu_.accessLine(addr, params_.useRings
                                           ? params_.perLanePopulate
                                           : gpu_.config().atomicCmpSwap);
        if (sanOn())
            sanActor(ctx);
        if (slot.claim())
            co_return;
        // Slot still owned by an earlier (non-blocking) call; retry.
        co_await ctx.compute(params_.pollIntervalCycles);
    }
}

sim::Task<>
GpuSyscalls::ringSubmit(gpu::WavefrontCtx &ctx,
                        const std::uint32_t *slots, std::uint32_t n)
{
    const std::uint32_t shard = area_.shardOfWave(ctx.hwWaveSlot());
    SyscallRing &sq = area_.sq(shard);
    const mem::Addr addr = area_.sqAddr(shard);

    std::uint32_t submitted = 0;
    while (submitted < n) {
        const std::uint32_t chunk =
            std::min(n - submitted, sq.capacity());

        // Seeded bug (gmc mutant): sample the SQ occupancy up front
        // and assume a non-empty ring means someone else's doorbell
        // will cover this batch. The sample is stale by publish time;
        // if the consumer drains the observed entries and goes idle
        // during our claim/populate window, the batch is stranded.
        bool skip_doorbell = false;
        if (params_.gsanTest.ringDropDoorbell)
            skip_doorbell = !sq.empty();

        // Claim: a timed read of the SQ counter line, then a CAS-style
        // reservation against the observed head. On failure re-read
        // the line so consumer progress becomes visible.
        co_await gpu_.accessLine(addr, gpu_.config().atomicCmpSwap);
        std::uint64_t head = sq.loadHeadAcquire();
        std::uint64_t base = 0;
        for (;;) {
            if (auto b = sq.tryClaim(chunk, head)) {
                base = *b;
                break;
            }
            ++ringFullRetries_;
            co_await ctx.compute(params_.pollIntervalCycles);
            if (!params_.gsanTest.ringStaleHead) {
                // Seeded bug (gmc mutant) skips this refresh: the
                // cached head never observes the consumer freeing
                // space, so a full-looking SQ spins forever.
                co_await gpu_.accessLine(addr,
                                         gpu_.config().atomicCmpSwap);
                head = sq.loadHeadAcquire();
            }
        }

        // Entry stores are plain writes into the claimed-exclusive
        // window — the tail release below (ordered ahead of the
        // doorbell) is what makes them visible, so they pipeline at
        // populate cost instead of paying per-entry fabric atomics.
        for (std::uint32_t i = 0; i < chunk; ++i) {
            co_await gpu_.accessLine(addr, params_.perLanePopulate);
            sq.writeEntry(base + i, slots[submitted + i]);
        }

        // Publish in claim order; a later claimant waits for earlier
        // ones so tail covers a contiguous prefix.
        for (;;) {
            if (sanOn())
                sanActor(ctx);
            if (sq.tryPublish(base, chunk))
                break;
            co_await ctx.compute(params_.pollIntervalCycles);
        }
        area_.noteRingBatch(shard, chunk);

        if (!skip_doorbell) {
            // ONE doorbell per batch (vs. one per slot pre-ring).
            if (sanOn()) {
                sanActor(ctx);
                gsan_->ringDoorbell(area_.sqRingKey(shard));
            }
            gpu_.sendInterrupt(ctx.hwWaveSlot());
        }
        submitted += chunk;
    }
}

sim::Task<>
GpuSyscalls::waitSlots(
    gpu::WavefrontCtx &ctx, Invocation inv,
    std::uint32_t first_slot, std::uint64_t lane_mask,
    std::function<void(std::uint32_t, std::int64_t)> on_result)
{
    std::uint64_t outstanding = lane_mask;
    auto sweep_finished = [&](bool timed) -> sim::Task<> {
        for (std::uint32_t lane = 0; lane < 64 && outstanding != 0;
             ++lane) {
            if ((outstanding & (1ull << lane)) == 0)
                continue;
            SyscallSlot &slot = area_.slot(first_slot + lane);
            if (timed) {
                co_await gpu_.accessLine(
                    area_.slotAddr(first_slot + lane),
                    gpu_.config().atomicLoad);
            }
            if (slot.finished()) {
                if (sanOn())
                    sanActor(ctx);
                if (params_.gsanTest.racyConsume) {
                    // Seeded bug: touch the result payload before the
                    // consume() acquire pairs with the CPU's release.
                    (void)slot.racyPeekResult();
                }
                const std::int64_t ret = slot.consume();
                outstanding &= ~(1ull << lane);
                if (on_result)
                    on_result(lane, ret);
            }
        }
    };

    if (inv.waitMode == WaitMode::Polling && params_.useRings) {
        // Ring mode (DESIGN.md §13): instead of one atomic load per
        // outstanding lane per round, poll the shard CQ's published
        // tail — one counter-line load per round — and only re-sweep
        // the lanes' slot states when the counter advanced. The slot
        // sweeps themselves are untimed; the CQ line is the only
        // polled traffic. Correctness leans on the host posting the
        // completion event AFTER the slot's Finished release: a tail
        // advance therefore guarantees the finished slot is visible.
        const std::uint32_t shard = area_.shardOfWave(ctx.hwWaveSlot());
        SyscallRing &cq = area_.cq(shard);
        const mem::Addr caddr = area_.cqAddr(shard);
        co_await gpu_.accessLine(caddr, gpu_.config().atomicLoad);
        std::uint64_t seen = cq.loadTailAcquire();
        if (sanOn()) {
            sanActor(ctx);
            gsan_->ringObserve(area_.cqRingKey(shard));
        }
        // Unconditional first sweep: completions that landed before
        // this wait began never bump the counter again.
        co_await sweep_finished(false);
        while (outstanding != 0) {
            co_await ctx.compute(params_.pollIntervalCycles);
            co_await gpu_.accessLine(caddr, gpu_.config().atomicLoad);
            const std::uint64_t tail = cq.loadTailAcquire();
            if (tail == seen)
                continue;
            seen = tail;
            if (sanOn()) {
                sanActor(ctx);
                gsan_->ringObserve(area_.cqRingKey(shard));
            }
            co_await sweep_finished(false);
        }
    } else if (inv.waitMode == WaitMode::Polling) {
        while (outstanding != 0) {
            co_await sweep_finished(true);
            if (outstanding != 0)
                co_await ctx.compute(params_.pollIntervalCycles);
        }
    } else {
        for (;;) {
            // State checks are untimed here: the wave is about to
            // relinquish its SIMD slot rather than generate traffic.
            // The sweep and the halt() below run back-to-back on the
            // simulated clock, which is what makes check-then-sleep
            // safe; gsan's lost-wakeup detector guards exactly this
            // invariant.
            co_await sweep_finished(false);
            if (outstanding == 0)
                break;
            if (params_.gsanTest.haltGapCycles > 0) {
                // Seeded bug: open a window between the sweep and the
                // halt, so a CPU wake can fire into a running wave and
                // evaporate.
                co_await ctx.compute(params_.gsanTest.haltGapCycles);
            }
            co_await ctx.halt();
        }
    }
}

sim::Task<std::int64_t>
GpuSyscalls::issueOnce(gpu::WavefrontCtx &ctx, Invocation inv,
                       int sysno, const osk::SyscallArgs &args,
                       std::uint32_t item_slot)
{
    SyscallSlot &slot = area_.slot(item_slot);
    const mem::Addr addr = area_.slotAddr(item_slot);

    co_await claimSlot(ctx, item_slot);
    co_await sim::Delay(ctx.sim().events(), params_.perLanePopulate);
    if (!params_.useRings && params_.gsanTest.doorbellBeforePublish) {
        // Seeded bug (gmc mutant): ring the doorbell before the slot
        // is published. Under FIFO tie-breaking the publish still wins
        // the race against the interrupt pipeline, but an adversarial
        // schedule services the wave while the slot is Populating,
        // stranding the request.
        gpu_.sendInterrupt(ctx.hwWaveSlot());
    }
    if (params_.useRings) {
        // Ring mode: the slot payload is plain stores into space this
        // lane exclusively claimed — the SQ tail release (+ one
        // doorbell per batch) inside ringSubmit below is the batch's
        // single visibility point, so the slot's own publish needs no
        // fabric round-trip of its own.
        co_await gpu_.accessLine(addr, params_.perLanePopulate);
    } else {
        co_await gpu_.accessLine(addr, gpu_.config().atomicSwap);
    }
    if (sanOn())
        sanActor(ctx);
    slot.publish(sysno, args, inv.blocking == Blocking::Blocking,
                 inv.waitMode, ctx.hwWaveSlot());
    ++issued_;
    area_.noteIssued(area_.shardOfWave(ctx.hwWaveSlot()));
    GENESYS_TRACE(ctx.sim(), "genesys",
                  "wave %u publishes sysno %d (%s, %s, %s)",
                  ctx.hwWaveSlot(), sysno, orderingName(inv.ordering),
                  blockingName(inv.blocking),
                  waitModeName(inv.waitMode));
    if (params_.useRings) {
        // Ring path: enqueue the slot index on the shard SQ; the
        // doorbell rings once per batch inside ringSubmit.
        const std::uint32_t batch[1] = {item_slot};
        co_await ringSubmit(ctx, batch, 1);
    } else if (!params_.gsanTest.doorbellBeforePublish) {
        gpu_.sendInterrupt(ctx.hwWaveSlot());
    }

    if (params_.gsanTest.racyPeekBeforeFinished &&
        inv.blocking == Blocking::Blocking) {
        // Seeded bug: read the result payload right after publishing,
        // without waiting for the Finished state. gsan reports the
        // race when the CPU's result write lands.
        if (sanOn())
            sanActor(ctx);
        (void)slot.racyPeekResult();
    }

    if (inv.blocking == Blocking::NonBlocking)
        co_return 0;

    std::int64_t result = 0;
    const std::uint32_t lane_in_wave =
        item_slot - area_.firstItemSlotOfWave(ctx.hwWaveSlot());
    co_await waitSlots(ctx, inv, area_.firstItemSlotOfWave(
                                     ctx.hwWaveSlot()),
                       1ull << lane_in_wave,
                       [&result](std::uint32_t, std::int64_t r) {
                           result = r;
                       });
    co_return result;
}

sim::Task<std::int64_t>
GpuSyscalls::issueAndWait(gpu::WavefrontCtx &ctx, Invocation inv,
                          int sysno, osk::SyscallArgs args,
                          std::uint32_t item_slot)
{
    // Non-blocking requesters never see the result, so there is
    // nothing to recover here; the host restarts those on our behalf.
    if (inv.blocking == Blocking::NonBlocking)
        co_return co_await issueOnce(ctx, inv, sysno, args, item_slot);

    Recovery rec(osk::syscallRow(sysno), args);
    for (;;) {
        std::int64_t ret =
            co_await issueOnce(ctx, inv, sysno, args, item_slot);
        const Next next = recover(sysno, args, rec, ret);
        if (next == Next::Finish)
            co_return ret;
        if (next == Next::Backoff) {
            co_await ctx.compute(params_.eagainBackoffCycles
                                 << (rec.congested - 1));
        }
    }
}

GpuSyscalls::Next
GpuSyscalls::recover(int sysno, osk::SyscallArgs &args, Recovery &rec,
                     std::int64_t &ret)
{
    if (ret == -EINTR && rec.restarts < params_.eintrMaxRestarts) {
        // SA_RESTART semantics: reissue with identical arguments.
        ++rec.restarts;
        ++retries_;
        return Next::Reissue;
    }
    // MSG_DONTWAIT turns -EAGAIN into the call's normal "drained"
    // return (the edge-triggered consumer's loop terminator), so the
    // libc layer must surface it instead of burning backoff retries.
    const bool dontwait =
        (sysno == osk::sysno::recvmsg ||
         sysno == osk::sysno::sendmsg) &&
        (args.a[3] & osk::MSG_DONTWAIT_) != 0;
    if (ret == -EAGAIN && !dontwait &&
        rec.congested < params_.eagainMaxRetries) {
        ++rec.congested;
        ++retries_;
        return Next::Backoff;
    }
    if (!rec.transfer)
        return Next::Finish;
    if (ret < 0) {
        // A partially-completed transfer reports its progress (the
        // readn/writen convention); an error on the first round
        // surfaces as-is.
        if (rec.done > 0)
            ret = static_cast<std::int64_t>(rec.done);
        return Next::Finish;
    }
    rec.done += static_cast<std::uint64_t>(ret);
    rec.restarts = 0;
    rec.congested = 0;
    if (ret == 0 || rec.done >= rec.want) {
        ret = static_cast<std::int64_t>(rec.done);
        return Next::Finish;
    }
    ++shortTransfers_;
    osk::advanceTransferArgs(sysno, args, static_cast<std::uint64_t>(ret));
    return Next::Reissue;
}

sim::Task<std::int64_t>
GpuSyscalls::invokeWorkGroup(gpu::WavefrontCtx &ctx,
                             Invocation inv, int sysno,
                             osk::SyscallArgs args)
{
    GENESYS_ASSERT(inv.granularity == Granularity::WorkGroup,
                   "invokeWorkGroup with %s granularity",
                   granularityName(inv.granularity));
    const bool bar_before =
        inv.ordering == Ordering::Strong || inv.role == Role::Consumer;
    const bool bar_after =
        inv.ordering == Ordering::Strong || inv.role == Role::Producer;

    // Section V barrier-placement contract; the gsanTest skip flags
    // re-introduce the bug of omitting a required barrier so the
    // sanitizer's ordering checker can be tested end to end.
    if (bar_before && !params_.gsanTest.skipPreBarrier)
        co_await ctx.wgBarrier();
    if (sanOn()) {
        gsan_->invocationBegin(gsan_->waveThread(ctx.hwWaveSlot()),
                               bar_before, sysno,
                               orderingName(inv.ordering));
    }

    std::int64_t ret = 0;
    if (ctx.isGroupLeader()) {
        if (inv.role == Role::Consumer) {
            // Manual software coherence: flush GPU L1 so the CPU sees
            // the buffer this call consumes (Section VI).
            co_await sim::Delay(ctx.sim().events(), params_.l1FlushCost);
        }
        ret = co_await issueAndWait(
            ctx, inv, sysno, args,
            area_.firstItemSlotOfWave(ctx.hwWaveSlot()));
    }

    if (sanOn()) {
        gsan_->invocationEnd(gsan_->waveThread(ctx.hwWaveSlot()),
                             bar_after, sysno,
                             orderingName(inv.ordering));
    }
    if (bar_after && !params_.gsanTest.skipPostBarrier)
        co_await ctx.wgBarrier();
    co_return ret;
}

sim::Task<std::int64_t>
GpuSyscalls::invokeKernel(gpu::WavefrontCtx &ctx, Invocation inv,
                          int sysno, osk::SyscallArgs args)
{
    GENESYS_ASSERT(inv.granularity == Granularity::Kernel,
                   "invokeKernel with %s granularity",
                   granularityName(inv.granularity));
    if (inv.ordering == Ordering::Strong) {
        // Strong ordering at kernel scope would require every
        // work-item of the grid to synchronize, but the grid can
        // exceed device residency: deadlock (Section V-A).
        fatal("strong ordering at kernel granularity risks GPU "
              "deadlock; use relaxed ordering");
    }
    if (!(ctx.workgroupId() == 0 && ctx.isGroupLeader()))
        co_return 0;
    if (inv.role == Role::Consumer)
        co_await sim::Delay(ctx.sim().events(), params_.l1FlushCost);
    co_return co_await issueAndWait(
        ctx, inv, sysno, args,
        area_.firstItemSlotOfWave(ctx.hwWaveSlot()));
}

sim::Task<>
GpuSyscalls::invokeWorkItems(
    gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
    std::function<std::optional<osk::SyscallArgs>(std::uint32_t)>
        lane_args,
    std::function<void(std::uint32_t, std::int64_t)> on_result)
{
    GENESYS_ASSERT(inv.granularity == Granularity::WorkItem,
                   "invokeWorkItems with %s granularity",
                   granularityName(inv.granularity));
    if (inv.ordering == Ordering::Relaxed) {
        fatal("work-item invocations imply strong ordering "
              "(Section V-A)");
    }

    const std::uint32_t first_slot =
        area_.firstItemSlotOfWave(ctx.hwWaveSlot());
    std::uint64_t mask = 0;
    std::vector<osk::SyscallArgs> args(ctx.laneCount());
    for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
        if (auto a = lane_args(lane)) {
            args[lane] = *a;
            mask |= 1ull << lane;
        }
    }
    if (mask == 0)
        co_return; // fully diverged wave: nothing to do

    if (inv.role == Role::Consumer)
        co_await sim::Delay(ctx.sim().events(), params_.l1FlushCost);

    // Per-lane recovery state: each lane runs its own readn/writen
    // continuation + EINTR/EAGAIN retry budget, but rounds stay
    // wavefront-wide (all still-pending lanes reissue together, one
    // interrupt per round) to keep the SIMD issue model.
    const osk::SyscallRow *row = osk::syscallRow(sysno);
    std::vector<Recovery> rec;
    rec.reserve(ctx.laneCount());
    for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane)
        rec.emplace_back(row, args[lane]);

    std::uint64_t pending = mask;
    while (pending != 0) {
        // Claim every pending lane's slot. The SIMD unit issues the
        // cmp-swaps as one wavefront instruction: the first lane pays
        // the full fabric latency, the rest pipeline behind it.
        bool first = true;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            if ((pending & (1ull << lane)) == 0)
                continue;
            SyscallSlot &slot = area_.slot(first_slot + lane);
            const mem::Addr addr = area_.slotAddr(first_slot + lane);
            for (;;) {
                // Ring mode: the round's SQ claim carries the fabric
                // serialization (see claimSlot), so no leading CAS.
                co_await gpu_.accessLine(
                    addr, first && !params_.useRings
                              ? gpu_.config().atomicCmpSwap
                              : params_.perLanePopulate);
                if (sanOn())
                    sanActor(ctx);
                if (slot.claim())
                    break;
                co_await ctx.compute(params_.pollIntervalCycles);
            }
            first = false;
        }

        // Populate and publish each slot; again pipelined across
        // lanes.
        first = true;
        for (std::uint32_t lane = 0; lane < ctx.laneCount(); ++lane) {
            if ((pending & (1ull << lane)) == 0)
                continue;
            SyscallSlot &slot = area_.slot(first_slot + lane);
            const mem::Addr addr = area_.slotAddr(first_slot + lane);
            // Ring mode: the round's SQ publish is the visibility
            // point for every lane's slot, so the per-slot publishes
            // are plain stores (no leading fabric atomic).
            co_await gpu_.accessLine(
                addr, first && !params_.useRings
                          ? gpu_.config().atomicSwap
                          : params_.perLanePopulate);
            if (sanOn())
                sanActor(ctx);
            slot.publish(sysno, args[lane],
                         inv.blocking == Blocking::Blocking,
                         inv.waitMode, ctx.hwWaveSlot());
            ++issued_;
            area_.noteIssued(area_.shardOfWave(ctx.hwWaveSlot()));
            first = false;
        }

        if (params_.useRings) {
            // The whole round is one SQ batch: every pending lane's
            // slot index, one doorbell.
            std::vector<std::uint32_t> batch;
            batch.reserve(ctx.laneCount());
            for (std::uint32_t lane = 0; lane < ctx.laneCount();
                 ++lane) {
                if (pending & (1ull << lane))
                    batch.push_back(first_slot + lane);
            }
            co_await ringSubmit(ctx, batch.data(),
                                static_cast<std::uint32_t>(
                                    batch.size()));
        } else {
            // One scalar s_sendmsg for the whole wavefront.
            gpu_.sendInterrupt(ctx.hwWaveSlot());
        }

        if (inv.blocking == Blocking::NonBlocking)
            co_return; // fire-and-forget: host recovers on our behalf

        std::uint64_t next = 0;
        bool backoff = false;
        co_await waitSlots(
            ctx, inv, first_slot, pending,
            [&](std::uint32_t lane, std::int64_t ret) {
                switch (recover(sysno, args[lane], rec[lane], ret)) {
                  case Next::Backoff:
                    backoff = true;
                    [[fallthrough]];
                  case Next::Reissue:
                    next |= 1ull << lane;
                    return;
                  case Next::Finish:
                    if (on_result)
                        on_result(lane, ret);
                    return;
                }
            });
        if (backoff) {
            // One wavefront-wide stall covers every congested lane
            // (they retry together anyway).
            co_await ctx.compute(params_.eagainBackoffCycles);
        }
        pending = next;
    }
}

sim::Task<std::int64_t>
GpuSyscalls::call(gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
                  osk::SyscallArgs args)
{
    // The wrappers pass sysno:: constants, each an implemented row.
    inv.role = *osk::syscallRow(sysno)->role;
    if (inv.granularity == Granularity::Kernel)
        return invokeKernel(ctx, inv, sysno, args);
    return invokeWorkGroup(ctx, inv, sysno, args);
}

} // namespace genesys::core
