/**
 * @file
 * miniAMR implementation.
 */

#include "miniamr.hh"

#include <memory>

#include "osk/mm.hh"
#include "support/logging.hh"

namespace genesys::workloads
{

MiniAmrResult
runMiniAmr(core::System &sys, const MiniAmrConfig &config)
{
    const std::uint64_t num_blocks =
        config.datasetBytes / config.blockBytes;
    GENESYS_ASSERT(num_blocks >= 4, "dataset too small");
    const auto active =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                       num_blocks *
                                       config.activeFraction));

    // The mesh arena; mapped once from the host before the first
    // timestep (the paper's kernels then manage it from the GPU).
    std::int64_t arena = 0;
    sys.sim().spawn([](core::System &s, const MiniAmrConfig &cfg,
                       std::int64_t &out) -> sim::Task<> {
        out = co_await s.kernel().doSyscall(
            s.process(), osk::sysno::mmap,
            osk::makeArgs(0, cfg.datasetBytes, 3, 0x22, -1, 0));
        GENESYS_ASSERT(out > 0, "arena mmap failed");
    }(sys, config, arena));
    sys.run();

    MiniAmrResult result;
    const Tick start = sys.sim().now();
    auto &mm = sys.process().mm();
    std::uint64_t madvise_calls = 0;
    // getrusage() result block of each work-group (one per block of
    // the active window).
    std::vector<osk::RUsage> usage_slots(active);

    for (std::uint32_t t = 0; t < config.timesteps; ++t) {
        const Tick stall_before = mm.stats().swapStall;
        const std::uint64_t window_base =
            (std::uint64_t(t) * active / 2) % num_blocks;

        gpu::KernelLaunch launch;
        launch.workItems = active * 64;
        launch.wgSize = 64; // one wavefront per mesh block
        launch.program = [&sys, &config, arena, num_blocks,
                          window_base, active, &madvise_calls,
                          &usage_slots](
                             gpu::WavefrontCtx &ctx) -> sim::Task<> {
            auto &mm_ref = sys.process().mm();
            const std::uint64_t block =
                (window_base + ctx.workgroupId()) % num_blocks;
            const osk::Addr addr =
                static_cast<osk::Addr>(arena) +
                block * config.blockBytes;
            // Refine: fault the block in (swapped pages major-fault).
            co_await mm_ref.touch(addr, config.blockBytes);
            // Stencil sweep over the block.
            co_await ctx.compute(config.cyclesPerPage *
                                 (config.blockBytes / osk::kPageSize));

            if (config.rssWatermarkBytes == 0)
                co_return; // baseline: no memory management

            // Check the resident set; release a coarsened block (one
            // that just left the active window) if over the watermark.
            core::Invocation weak;
            weak.ordering = core::Ordering::Relaxed;
            osk::RUsage &usage = usage_slots[ctx.workgroupId()];
            co_await sys.gpuSys().getrusage(ctx, weak, &usage);
            if (usage.curRssBytes > config.rssWatermarkBytes) {
                const std::uint64_t cold_block =
                    (window_base + num_blocks - 1 -
                     ctx.workgroupId() % (num_blocks - active)) %
                    num_blocks;
                const osk::Addr cold_addr =
                    static_cast<osk::Addr>(arena) +
                    cold_block * config.blockBytes;
                core::Invocation nb = weak;
                nb.blocking = core::Blocking::NonBlocking;
                co_await sys.gpuSys().madvise(ctx, nb, cold_addr,
                                              config.blockBytes,
                                              osk::MADV_DONTNEED_);
                ++madvise_calls;
            }
        };
        sys.launchGpuAndDrain(std::move(launch));
        sys.run();

        ++result.timestepsRun;
        result.rssTimeline.emplace_back(sys.sim().now() - start,
                                        mm.rssBytes());

        const Tick stall = mm.stats().swapStall - stall_before;
        if (stall > config.gpuTimeout) {
            // The GPU driver watchdog fires: kernel aborted, process
            // terminated (the paper's baseline "does not complete").
            result.gpuTimeout = true;
            break;
        }
    }

    result.completed = !result.gpuTimeout &&
                       result.timestepsRun == config.timesteps;
    result.elapsed = sys.sim().now() - start;
    result.peakRssBytes = mm.peakRssBytes();
    result.majorFaults = mm.stats().majorFaults;
    result.madviseCalls = madvise_calls;
    return result;
}

} // namespace genesys::workloads
