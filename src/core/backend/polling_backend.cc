/**
 * @file
 * PollingDaemonBackend implementation.
 */

#include "polling_backend.hh"

#include "sim/sync.hh"
#include "support/gsan.hh"
#include "support/logging.hh"

namespace genesys::core
{

PollingDaemonBackend::PollingDaemonBackend(ServiceCore &core,
                                           Tick scan_interval)
    : core_(core), scanInterval_(scan_interval),
      exitWait_(std::make_unique<sim::WaitQueue>(
          core.kernel().sim().events()))
{}

PollingDaemonBackend::~PollingDaemonBackend()
{
    if (liveLoops_ > 0) {
        warn("polling daemon torn down with %u scan loop(s) live",
             liveLoops_);
    }
}

void
PollingDaemonBackend::start()
{
    GENESYS_ASSERT(!running_ && liveLoops_ == 0,
                   "daemon already running");
    running_ = true;
    liveLoops_ = core_.area().shardCount();
    for (std::uint32_t s = 0; s < core_.area().shardCount(); ++s) {
        core_.kernel().sim().spawn(
            core_.kernel().cpus().run(daemonLoop(s)));
    }
}

void
PollingDaemonBackend::requestStop()
{
    running_ = false;
}

std::uint32_t
PollingDaemonBackend::daemonThread(std::uint32_t shard) const
{
    gsan::Sanitizer *g = core_.sanitizer();
    if (g == nullptr || !g->enabled())
        return gsan::Sanitizer::kNoThread;
    // Single-shard areas keep the historical thread name.
    if (core_.area().shardCount() == 1)
        return g->namedThread("cpu-daemon");
    return g->namedThread(
        logging::format("cpu-daemon-%u", shard));
}

void
PollingDaemonBackend::onGpuInterrupt(std::uint32_t, std::uint32_t)
{
    // Prior-work backend: no interrupt path; the sweep finds the slot.
}

sim::Task<>
PollingDaemonBackend::daemonLoop(std::uint32_t shard)
{
    auto &eq = core_.kernel().sim().events();
    SyscallArea &area = core_.area();
    const std::uint32_t first = area.shardFirstSlot(shard);
    const std::uint32_t end = first + area.shardSlotCount();
    const std::uint32_t lanes = area.wavefrontSize();
    // Daemons pay the user/kernel crossing per call and hold their
    // core across the whole sweep (no release around blocking calls).
    constexpr bool kDaemon = true;
    // The final iteration after requestStop() still sweeps once, so
    // requests published while the stop raced in are not stranded.
    bool last_sweep = false;
    while (!last_sweep) {
        last_sweep = !running_;
        // User-mode scan over the shard's slot range.
        co_await sim::Delay(eq, ticks::us(2));
        const std::uint32_t actor = daemonThread(shard);
        bool any = false;
        if (area.ringsEnabled()) {
            // Polled-completion ring mode (DESIGN.md §13): poll the
            // shard SQ and bulk-service the published entries rather
            // than sweeping every slot; completions ride the CQ, so
            // waiters never need a wakeup from this loop.
            const int n = co_await core_.serviceRing(shard, actor, kDaemon);
            any = n > 0;
        } else {
            // The cursor visits Ready slots in index order, as a scan
            // of every slot would: the ready index is re-read after
            // each serviced slot, so a slot published ahead of the
            // cursor mid-sweep is served in this sweep and one
            // published behind it waits for the next.
            for (std::uint32_t i = area.nextReady(first, end); i < end;
                 i = area.nextReady(i + 1, end)) {
                const bool did = co_await core_.serviceSlot(
                    area.slot(i), actor, i / lanes, i % lanes, kDaemon);
                any = any || did;
            }
        }
        ++sweeps_;
        if (!any && !last_sweep)
            co_await sim::Delay(eq, scanInterval_);
    }
    GENESYS_ASSERT(liveLoops_ > 0, "daemon loop underflow");
    --liveLoops_;
    exitWait_->notifyAll();
}

sim::Task<>
PollingDaemonBackend::stopped()
{
    while (liveLoops_ > 0)
        co_await exitWait_->wait();
}

sim::Task<>
PollingDaemonBackend::drain()
{
    // The daemon has no in-flight counter; poll area quiescence
    // (including, in ring mode, claimed or unconsumed SQ entries).
    while (!core_.area().quiescent() || !core_.area().ringsIdle())
        co_await sim::Delay(core_.kernel().sim().events(),
                            ticks::us(10));
}

} // namespace genesys::core
