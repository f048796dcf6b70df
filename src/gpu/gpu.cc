/**
 * @file
 * GpuDevice implementation.
 */

#include "gpu.hh"

#include <algorithm>

#include "support/gsan.hh"
#include "support/logging.hh"
#include "support/trace.hh"

namespace genesys::gpu
{

namespace
{

mem::CacheParams
l2Params(const GpuConfig &cfg)
{
    mem::CacheParams p;
    p.sizeBytes = cfg.l2Bytes;
    p.lineBytes = cfg.l2LineBytes;
    p.associativity = cfg.l2Assoc;
    return p;
}

} // namespace

/** Book-keeping for one in-flight kernel launch. */
struct LaunchState
{
    explicit LaunchState(sim::EventQueue &eq) : doneWait(eq) {}

    WaveProgram program;
    std::uint32_t totalWgs = 0;
    std::uint32_t retiredWgs = 0;
    bool done = false;
    sim::WaitQueue doneWait;
};

// ------------------------------------------------------------ WavefrontCtx

WavefrontCtx::WavefrontCtx(GpuDevice &dev, WorkGroupState &wg,
                           std::uint32_t wave_in_group,
                           std::uint32_t lane_count,
                           std::uint64_t first_item,
                           std::uint32_t hw_wave_slot)
    : dev_(dev), wg_(wg), wave_(wave_in_group), laneCount_(lane_count),
      firstItem_(first_item), hwSlot_(hw_wave_slot),
      haltWait_(std::make_unique<sim::WaitQueue>(dev.sim().events()))
{}

sim::Sim &
WavefrontCtx::sim()
{
    return dev_.sim();
}

std::uint32_t
WavefrontCtx::hwItemSlot(std::uint32_t lane) const
{
    GENESYS_ASSERT(lane < laneCount_, "lane %u out of range", lane);
    return hwSlot_ * dev_.config().wavefrontSize + lane;
}

sim::Delay
WavefrontCtx::compute(std::uint64_t cycles)
{
    return sim::Delay(dev_.sim().events(),
                      dev_.config().cyclesToTicks(cycles));
}

sim::Task<>
WavefrontCtx::wgBarrier()
{
    gsan::Sanitizer *g = dev_.sanitizer();
    const bool on = g != nullptr && g->enabled();
    // The barrier object is per work-group instance, so its address
    // is a unique, stable sync-object key for this group's lifetime.
    const auto key = reinterpret_cast<std::uint64_t>(wg_.barrier.get());
    if (on)
        g->barrierArrive(key, g->waveThread(hwSlot_));
    co_await wg_.barrier->arriveAndWait();
    if (on)
        g->barrierLeave(key, g->waveThread(hwSlot_));
}

sim::Task<>
WavefrontCtx::halt()
{
    if (gsan::Sanitizer *g = dev_.sanitizer(); g && g->enabled())
        g->waveHalt(hwSlot_);
    halted_ = true;
    co_await haltWait_->wait();
    halted_ = false;
    if (gsan::Sanitizer *g = dev_.sanitizer(); g && g->enabled())
        g->waveWake(hwSlot_);
}

sim::Task<>
WavefrontCtx::launchKernel(KernelLaunch child)
{
    child.kernelLaunchLatencyOverride =
        static_cast<std::int64_t>(dev_.config().dynamicLaunchLatency);
    GENESYS_TRACE(dev_.sim(), "gpu",
                  "dynamic launch from wave %u: %llu items", hwSlot_,
                  static_cast<unsigned long long>(child.workItems));
    co_await dev_.launch(std::move(child));
}

void
WavefrontCtx::resumeFromHost()
{
    gsan::Sanitizer *g = dev_.sanitizer();
    const bool on = g != nullptr && g->enabled();
    if (haltWait_->waiting() > 0) {
        if (on)
            g->resumeDelivered(hwSlot_);
        haltWait_->notifyOne(dev_.config().waveResumeLatency);
    } else if (on) {
        // The wake message found nobody halted and evaporates. If the
        // wave halts *after* this, it sleeps forever on hardware —
        // gsan reports it at the halt site unless the wave observes
        // the finished slot first (poll + consume).
        g->resumeDropped(hwSlot_);
    }
}

// --------------------------------------------------------------- GpuDevice

GpuDevice::GpuDevice(sim::Sim &sim, const GpuConfig &config,
                     mem::MemBus *mem_bus)
    : sim_(sim), config_(config), l2_(l2Params(config)), memBus_(mem_bus)
{
    // Lane masks are 64-bit, and so is per-lane storage in the issue
    // path (core/client.cc).
    GENESYS_ASSERT(config_.wavefrontSize >= 1 && config_.wavefrontSize <= 64,
                   "wavefrontSize %u outside 1..64", config_.wavefrontSize);
    cus_.resize(config_.numCus);
    for (std::uint32_t cu = 0; cu < config_.numCus; ++cu) {
        cus_[cu].freeWgSlots = config_.maxWorkGroupsPerCu;
        cus_[cu].freeWaveSlots = config_.maxWavesPerCu;
        // Allocate hw wave ids in descending order so pops are in
        // ascending id order (determinism + readable traces).
        for (std::uint32_t w = config_.maxWavesPerCu; w > 0; --w) {
            cus_[cu].freeHwWaveIds.push_back(
                cu * config_.maxWavesPerCu + w - 1);
        }
    }
    waveBySlot_.assign(
        std::size_t(config_.numCus) * config_.maxWavesPerCu, nullptr);
}

sim::Task<>
GpuDevice::launch(KernelLaunch launch_desc)
{
    GENESYS_ASSERT(launch_desc.workItems > 0, "empty kernel");
    GENESYS_ASSERT(launch_desc.wgSize >= 1 &&
                       launch_desc.wgSize <=
                           16 * config_.wavefrontSize,
                   "work-group size %u unsupported", launch_desc.wgSize);
    GENESYS_ASSERT(launch_desc.program != nullptr, "kernel needs code");

    const Tick launch_latency =
        launch_desc.kernelLaunchLatencyOverride >= 0
            ? static_cast<Tick>(launch_desc.kernelLaunchLatencyOverride)
            : config_.kernelLaunchLatency;
    co_await sim::Delay(sim_.events(), launch_latency);

    auto state = std::make_shared<LaunchState>(sim_.events());
    state->program = std::move(launch_desc.program);
    const std::uint64_t wgs =
        (launch_desc.workItems + launch_desc.wgSize - 1) /
        launch_desc.wgSize;
    state->totalWgs = static_cast<std::uint32_t>(wgs);
    ++launchedKernels_;
    GENESYS_TRACE(sim_, "gpu",
                  "kernel launch: %llu items in %llu group(s) of %u",
                  static_cast<unsigned long long>(
                      launch_desc.workItems),
                  static_cast<unsigned long long>(wgs),
                  launch_desc.wgSize);

    for (std::uint64_t wg = 0; wg < wgs; ++wg) {
        const std::uint64_t first = wg * launch_desc.wgSize;
        const std::uint32_t size = static_cast<std::uint32_t>(std::min<
            std::uint64_t>(launch_desc.wgSize,
                           launch_desc.workItems - first));
        pendingWgs_.push_back(PendingWg{static_cast<std::uint32_t>(wg),
                                        size, launch_desc.wgSize,
                                        state});
    }
    tryDispatch();

    if (!state->done)
        co_await state->doneWait.wait();
}

void
GpuDevice::tryDispatch()
{
    while (!pendingWgs_.empty()) {
        PendingWg &next = pendingWgs_.front();
        const std::uint32_t waves =
            (next.sizeItems + config_.wavefrontSize - 1) /
            config_.wavefrontSize;
        // First CU with a free WG slot and enough wave slots.
        CuState *target = nullptr;
        std::uint32_t target_cu = 0;
        for (std::uint32_t cu = 0; cu < cus_.size(); ++cu) {
            if (cus_[cu].freeWgSlots > 0 &&
                cus_[cu].freeWaveSlots >= waves) {
                target = &cus_[cu];
                target_cu = cu;
                break;
            }
        }
        if (target == nullptr)
            return; // device full; retry when a work-group retires

        PendingWg pending = std::move(next);
        pendingWgs_.pop_front();

        --target->freeWgSlots;
        target->freeWaveSlots -= waves;
        ++residentWgs_;
        ++launchedWgs_;

        auto wg = std::make_shared<WorkGroupState>();
        wg->wgId = pending.wgId;
        wg->cu = target_cu;
        wg->waves = waves;
        wg->livingWaves = waves;
        wg->sizeItems = pending.sizeItems;
        wg->barrier = std::make_unique<sim::Barrier>(sim_.events(),
                                                     waves);

        for (std::uint32_t w = 0; w < waves; ++w) {
            const std::uint32_t hw_id = target->freeHwWaveIds.back();
            target->freeHwWaveIds.pop_back();
            const std::uint32_t lane_count = std::min(
                config_.wavefrontSize,
                pending.sizeItems - w * config_.wavefrontSize);
            const std::uint64_t first_item =
                std::uint64_t(pending.wgId) * pending.nominalWgSize +
                std::uint64_t(w) * config_.wavefrontSize;
            auto ctx = std::make_unique<WavefrontCtx>(
                *this, *wg, w, lane_count, first_item, hw_id);
            waveBySlot_[hw_id] = ctx.get();
            ++launchedWaves_;
            sim_.spawn(runWave(pending.launch, wg, std::move(ctx)));
        }
    }
}

sim::Task<>
GpuDevice::runWave(std::shared_ptr<LaunchState> launch,
                   std::shared_ptr<WorkGroupState> wg,
                   std::unique_ptr<WavefrontCtx> ctx)
{
    co_await launch->program(*ctx);

    const std::uint32_t hw_id = ctx->hwWaveSlot();
    if (gsan_ != nullptr && gsan_->enabled())
        gsan_->waveRetire(hw_id);
    waveBySlot_[hw_id] = nullptr;
    CuState &cu = cus_[wg->cu];
    cu.freeHwWaveIds.push_back(hw_id);
    ++cu.freeWaveSlots;

    if (--wg->livingWaves == 0) {
        ++cu.freeWgSlots;
        --residentWgs_;
        GENESYS_TRACE(sim_, "gpu", "work-group %u retired (cu %u)",
                      wg->wgId, wg->cu);
        if (++launch->retiredWgs == launch->totalWgs) {
            launch->done = true;
            launch->doneWait.notifyAll();
        }
        tryDispatch();
    }
}

void
GpuDevice::sendInterrupt(std::uint32_t hw_wave_slot)
{
    if (gsan_ != nullptr && gsan_->enabled())
        gsan_->interruptSend(hw_wave_slot);
    // Hardware wave ids are allocated in per-CU blocks, so the
    // message's routing tag is recoverable from the slot id.
    const std::uint32_t cu = hw_wave_slot / config_.maxWavesPerCu;
    if (interruptSink_)
        interruptSink_(cu, hw_wave_slot);
    else
        warn("GPU interrupt with no CPU sink (slot %u)", hw_wave_slot);
}

void
GpuDevice::resumeWave(std::uint32_t hw_wave_slot)
{
    GENESYS_ASSERT(hw_wave_slot < waveBySlot_.size(),
                   "bad hw wave slot %u", hw_wave_slot);
    if (WavefrontCtx *ctx = waveBySlot_[hw_wave_slot])
        ctx->resumeFromHost();
}

void
LineAccess::await_suspend(std::coroutine_handle<> h)
{
    const bool hit = dev_.l2_.access(addr_);
    const Tick latency = latency_ + dev_.config_.l2HitLatency;
    sim::EventQueue &eq = dev_.sim_.events();
    if (hit || dev_.memBus_ == nullptr) {
        eq.scheduleIn(latency, h);
        return;
    }
    cont_ = h;
    eq.scheduleIn(
        latency,
        [](void *access) {
            const auto &a = *static_cast<LineAccess *>(access);
            a.dev_.memBus_->request(mem::Agent::Gpu,
                                    a.dev_.config_.l2LineBytes, a.cont_);
        },
        this);
}

} // namespace genesys::gpu
