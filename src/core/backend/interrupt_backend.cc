/**
 * @file
 * InterruptBackend implementation.
 */

#include "interrupt_backend.hh"

#include <algorithm>
#include <utility>

#include "sim/sync.hh"
#include "support/gsan.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace genesys::core
{

InterruptBackend::InterruptBackend(ServiceCore &core,
                                   GenesysParams &params)
    : core_(core), params_(params),
      shards_(core.area().shardCount()),
      drainWait_(std::make_unique<sim::WaitQueue>(
          core.kernel().sim().events()))
{}

void
InterruptBackend::onGpuInterrupt(std::uint32_t cu,
                                 std::uint32_t hw_wave_slot)
{
    const std::uint32_t shard = core_.area().shardOfCu(cu);
    ++interrupts_;
    ++shards_[shard].interrupts;
    if (params_.useRings) {
        // Ring mode (DESIGN.md §13): one doorbell per SQ batch, and
        // even those are elided while a consumer task is already
        // pending or running for the shard — the task re-checks the
        // SQ before exiting, so suppressed batches are never lost.
        ShardState &ss = shards_[shard];
        if (ss.ringConsumerPending) {
            ++ringSuppressed_;
            return;
        }
        ss.ringConsumerPending = true;
        ++inFlight_;
        GENESYS_TRACE(core_.kernel().sim(), "genesys",
                      "ring doorbell from hw wave %u (shard %u)",
                      hw_wave_slot, shard);
        core_.kernel().sim().spawn(ringArrival(shard));
        return;
    }
    ++inFlight_;
    GENESYS_TRACE(core_.kernel().sim(), "genesys",
                  "s_sendmsg interrupt from hw wave %u", hw_wave_slot);
    core_.kernel().sim().spawn(interruptArrival(shard, hw_wave_slot));
}

sim::Task<>
InterruptBackend::ringArrival(std::uint32_t shard)
{
    auto &eq = core_.kernel().sim().events();
    const auto &osk_params = core_.kernel().params();
    co_await sim::Delay(eq, osk_params.interruptDeliver);
    co_await sim::Delay(eq, osk_params.interruptHandler);
    // No time-window coalescing here: the SQ itself is the batch, and
    // the bulk-consume task amortizes the pipeline over every entry
    // published while it runs. The consumer is spawned as its own
    // kthread, not queued as a workqueue item — see ringConsumeTask.
    core_.kernel().sim().spawn(ringConsumeTask(shard));
}

sim::Task<>
InterruptBackend::ringConsumeTask(std::uint32_t shard)
{
    auto &kernel = core_.kernel();
    const auto &osk_params = kernel.params();
    gsan::Sanitizer *gsan = core_.sanitizer();
    const std::uint32_t servicer =
        gsan != nullptr && gsan->enabled()
            ? gsan->namedThread(
                  logging::format("ring-poller-%u", shard))
            : gsan::Sanitizer::kNoThread;
    co_await kernel.cpus().acquireCore();
    // Poller kthread wakeup: runqueue insertion + switch, same cost
    // shape as a workqueue dispatch.
    co_await sim::Delay(kernel.sim().events(),
                        osk_params.workqueueEnqueue +
                            osk_params.contextSwitch);
    int total = 0;
    Tick lingered = 0;
    std::vector<std::uint32_t> batch;
    for (;;) {
        // Bulk-consume: pop everything published so far in one
        // sweep, then fan the entries out — servicing inline would
        // serialize the whole shard behind one core, forfeiting the
        // parallelism the per-slot path gets from one workqueue task
        // per interrupt.
        batch.clear();
        while (auto item = core_.tryPopRingEntry(shard, servicer))
            batch.push_back(*item);
        if (!batch.empty()) {
            total += static_cast<int>(batch.size());
            lingered = 0;
            dispatchRingBatch(shard, batch);
            continue;
        }
        // SPDK-style grace polling: linger after the SQ runs dry
        // instead of retiring immediately. Batches published while we
        // linger are picked up within one poll slice and never pay
        // the doorbell/interrupt/wakeup pipeline (their doorbells are
        // suppressed by ringConsumerPending). The core is released
        // across each idle slice so the service chunks — and other
        // shards' consumers — are never starved by a polling idler.
        if (lingered < params_.ringConsumerGrace &&
            params_.ringConsumerPoll > 0) {
            kernel.cpus().releaseCore();
            co_await sim::Delay(kernel.sim().events(),
                                params_.ringConsumerPoll);
            lingered += params_.ringConsumerPoll;
            co_await kernel.cpus().acquireCore();
            continue;
        }
        // Clear the pending flag, then re-check the SQ in the same
        // event: a batch published during the drain had its doorbell
        // suppressed, so it must be picked up here — and no doorbell
        // can slip between the clear and the check.
        shards_[shard].ringConsumerPending = false;
        if (core_.area().sq(shard).empty())
            break;
        shards_[shard].ringConsumerPending = true;
    }
    ++batches_;
    batchSizes_.sample(static_cast<double>(total));
    GENESYS_TRACE(kernel.sim(), "genesys",
                  "ring consume task drained %d entr%s on shard %u",
                  total, total == 1 ? "y" : "ies", shard);
    kernel.cpus().releaseCore();
    GENESYS_ASSERT(inFlight_ > 0, "in-flight underflow");
    --inFlight_;
    drainWait_->notifyAll();
}

void
InterruptBackend::dispatchRingBatch(
    std::uint32_t shard, const std::vector<std::uint32_t> &batch)
{
    // Entries whose call can park its kernel thread indefinitely
    // (epoll_wait, accept, a socket read, ...) each get their own
    // workqueue task — io_uring's punt-to-io-wq. Servicing one inline
    // would stall the shard's whole consume pipeline behind it.
    const std::uint32_t active =
        std::max(1u, core_.kernel().workqueue().maxWorkers());
    const std::uint32_t base_worker = steerTarget(shard);
    std::uint32_t spread = 0;
    std::vector<std::uint32_t> fast;
    for (std::uint32_t item : batch) {
        if (!core_.mayParkIndefinitely(core_.area().slot(item))) {
            fast.push_back(item);
            continue;
        }
        ++inFlight_;
        core_.kernel().workqueue().enqueueOn(
            (base_worker + spread++) % active,
            [this, shard,
             item](std::uint32_t worker) mutable -> sim::Task<> {
                return ringServiceChunk(shard, item, {}, worker);
            });
    }
    if (fast.empty())
        return;
    // The fast entries are split into at most one chunk per worker,
    // fanned out from the shard's preferred worker so concurrent
    // chunks land on distinct queues.
    const std::size_t chunks =
        std::min<std::size_t>(fast.size(), active);
    const std::size_t per = (fast.size() + chunks - 1) / chunks;
    for (std::size_t base = 0; base < fast.size(); base += per) {
        const std::uint32_t first = fast[base];
        std::vector<std::uint32_t> rest(
            fast.begin() + static_cast<std::ptrdiff_t>(base + 1),
            fast.begin() + static_cast<std::ptrdiff_t>(
                               std::min(base + per, fast.size())));
        ++inFlight_;
        core_.kernel().workqueue().enqueueOn(
            (base_worker + spread++) % active,
            [this, shard, first, rest = std::move(rest)](
                std::uint32_t worker) mutable -> sim::Task<> {
                return ringServiceChunk(shard, first, std::move(rest),
                                        worker);
            });
    }
}

sim::Task<>
InterruptBackend::ringServiceChunk(std::uint32_t shard,
                                   std::uint32_t first,
                                   std::vector<std::uint32_t> rest,
                                   std::uint32_t worker)
{
    auto &kernel = core_.kernel();
    const auto &osk_params = kernel.params();
    gsan::Sanitizer *gsan = core_.sanitizer();
    const std::uint32_t servicer =
        gsan != nullptr && gsan->enabled()
            ? gsan->workerThread(worker)
            : gsan::Sanitizer::kNoThread;
    co_await kernel.cpus().acquireCore();
    // Service chunks run in the launching process's context, which
    // the shard's consume task already switched into — they pay
    // queue insertion but no further context switch (the resident
    // poller-thread shape, DESIGN.md §13).
    co_await sim::Delay(kernel.sim().events(),
                        osk_params.workqueueEnqueue);
    co_await core_.serviceRingEntry(shard, first, servicer);
    for (std::uint32_t item : rest)
        co_await core_.serviceRingEntry(shard, item, servicer);
    kernel.cpus().releaseCore();
    GENESYS_ASSERT(inFlight_ > 0, "in-flight underflow");
    --inFlight_;
    drainWait_->notifyAll();
}

sim::Task<>
InterruptBackend::interruptArrival(std::uint32_t shard,
                                   std::uint32_t hw_wave_slot)
{
    auto &eq = core_.kernel().sim().events();
    const auto &osk_params = core_.kernel().params();
    co_await sim::Delay(eq, osk_params.interruptDeliver);
    co_await sim::Delay(eq, osk_params.interruptHandler);

    ShardState &ss = shards_[shard];
    ss.pendingBatch.push_back(hw_wave_slot);
    if (params_.coalesceWindow == 0 ||
        ss.pendingBatch.size() >= params_.coalesceMaxBatch) {
        if (ss.batchTimerArmed) {
            eq.deschedule(ss.batchTimer);
            ss.batchTimerArmed = false;
        }
        flushPendingBatch(shard);
    } else if (!ss.batchTimerArmed) {
        ss.batchTimerArmed = true;
        ss.batchTimer =
            eq.scheduleIn(params_.coalesceWindow, [this, shard] {
                shards_[shard].batchTimerArmed = false;
                flushPendingBatch(shard);
            });
    }
}

void
InterruptBackend::flushPendingBatch(std::uint32_t shard)
{
    ShardState &ss = shards_[shard];
    if (ss.pendingBatch.empty())
        return;
    std::vector<std::uint32_t> batch =
        std::exchange(ss.pendingBatch, {});
    ++batches_;
    GENESYS_TRACE(core_.kernel().sim(), "genesys",
                  "dispatching coalesced batch of %zu wave(s)",
                  batch.size());
    batchSizes_.sample(static_cast<double>(batch.size()));
    core_.kernel().workqueue().enqueueOn(
        steerTarget(shard),
        [this, batch = std::move(batch)](
            std::uint32_t worker) mutable -> sim::Task<> {
            return serviceBatch(std::move(batch), worker);
        });
}

std::uint32_t
InterruptBackend::steerTarget(std::uint32_t shard) const
{
    return shard % core_.kernel().workqueue().maxWorkers();
}

sim::Task<>
InterruptBackend::serviceBatch(std::vector<std::uint32_t> waves,
                               std::uint32_t worker)
{
    auto &kernel = core_.kernel();
    const auto &osk_params = kernel.params();
    gsan::Sanitizer *gsan = core_.sanitizer();
    // gsan models each OS worker as its own logical thread; slot
    // accesses below are attributed to it.
    const std::uint32_t servicer =
        gsan != nullptr && gsan->enabled()
            ? gsan->workerThread(worker)
            : gsan::Sanitizer::kNoThread;
    // The worker runs its task to completion on one core (Linux
    // workqueue semantics), starting with the switch into the context
    // of the process that launched the GPU kernel (Section VI).
    co_await kernel.cpus().acquireCore();
    co_await sim::Delay(kernel.sim().events(),
                        osk_params.workqueueEnqueue +
                            osk_params.contextSwitch);
    for (std::uint32_t wave : waves) {
        co_await core_.serviceWaveSlots(wave, servicer);
        GENESYS_ASSERT(inFlight_ > 0, "in-flight underflow");
        --inFlight_;
    }
    kernel.cpus().releaseCore();
    drainWait_->notifyAll();
}

sim::Task<>
InterruptBackend::drain()
{
    while (inFlight_ > 0)
        co_await drainWait_->wait();
}

} // namespace genesys::core
