/**
 * @file
 * GenesysHost façade implementation.
 */

#include "host.hh"

#include "support/logging.hh"

namespace genesys::core
{

GenesysHost::GenesysHost(osk::Kernel &kernel, gpu::GpuDevice &gpu,
                         SyscallArea &area, osk::Process &proc,
                         const GenesysParams &params)
    : params_(params),
      core_(std::make_unique<ServiceCore>(kernel, gpu, area, proc,
                                          params_)),
      interrupt_(std::make_unique<InterruptBackend>(*core_, params_)),
      active_(interrupt_.get())
{
    gpu.setInterruptSink(
        [this](std::uint32_t cu, std::uint32_t hw_wave_slot) {
            onGpuInterrupt(cu, hw_wave_slot);
        });
}

void
GenesysHost::setCoalescing(Tick window, std::uint32_t max_batch)
{
    GENESYS_ASSERT(max_batch >= 1, "batch bound must be positive");
    params_.coalesceWindow = window;
    params_.coalesceMaxBatch = max_batch;
}

void
GenesysHost::onGpuInterrupt(std::uint32_t cu,
                            std::uint32_t hw_wave_slot)
{
    active_->onGpuInterrupt(cu, hw_wave_slot);
}

sim::Task<>
GenesysHost::drain()
{
    if (daemon_ != nullptr && !daemon_->running()) {
        // Stop was requested: join the final sweeps before looking at
        // the interrupt path, so no scan coroutine outlives drain().
        co_await daemon_->stopped();
    }
    co_await active_->drain();
}

void
GenesysHost::startPollingDaemon(Tick scan_interval)
{
    GENESYS_ASSERT(!daemonMode(), "daemon already running");
    GENESYS_ASSERT(daemon_ == nullptr || daemon_->liveLoops() == 0,
                   "previous daemon still winding down");
    daemon_ =
        std::make_unique<PollingDaemonBackend>(*core_, scan_interval);
    daemon_->start();
    active_ = daemon_.get();
}

void
GenesysHost::stopDaemon()
{
    if (daemon_ == nullptr || !daemon_->running())
        return;
    daemon_->requestStop();
    // Doorbells flow through the interrupt pipeline again; the
    // daemon's final sweeps pick up anything already published.
    active_ = interrupt_.get();
}

} // namespace genesys::core
