/**
 * @file
 * signal-search implementation.
 */

#include "signal_search.hh"

#include <cstring>
#include <memory>

#include "support/logging.hh"

namespace genesys::workloads
{

struct SignalSearch::Shared
{
    const SignalSearchConfig *config = nullptr;
    std::vector<std::uint8_t> data;
    std::vector<bool> expectedSelected;
    std::vector<std::string> referenceDigests; ///< "" if not selected
    std::vector<std::string> digests;
    /// Each block's rt_sigqueueinfo payload. Sized before the launch:
    /// queued requests point into it until the host services them.
    std::vector<osk::SigInfo> infos;
    std::uint32_t hashed = 0;
    std::vector<std::uint32_t> pendingBaseline; ///< non-signal path
};

namespace
{

using Shared = SignalSearch::Shared;

/// The four-byte pattern phase 1 looks for.
constexpr std::uint8_t kNeedle[4] = {0xDE, 0xAD, 0xBE, 0xEF};

bool
blockHasNeedle(const Shared &shared, std::uint32_t block)
{
    const auto &cfg = *shared.config;
    const std::uint8_t *base =
        shared.data.data() + std::size_t(block) * cfg.blockBytes;
    for (std::uint32_t i = 0; i + 4 <= cfg.blockBytes; ++i) {
        if (std::memcmp(base + i, kNeedle, 4) == 0)
            return true;
    }
    return false;
}

/** Hash one block on a CPU core (timed + functionally real). */
sim::Task<>
hashBlock(core::System &sys, std::shared_ptr<Shared> shared,
          std::uint32_t block)
{
    const auto &cfg = *shared->config;
    const std::uint8_t *base =
        shared->data.data() + std::size_t(block) * cfg.blockBytes;
    co_await sys.kernel().cpus().compute(
        transferTicks(cfg.blockBytes, cfg.cpuShaBytesPerSec));
    shared->digests[block] = toHex(sha512(base, cfg.blockBytes));
    ++shared->hashed;
}

/** Signal-driven consumer: hash blocks as notifications arrive. */
sim::Task<>
signalConsumer(core::System &sys, std::shared_ptr<Shared> shared)
{
    for (;;) {
        osk::SigInfo info =
            co_await sys.process().signals().waitInfo();
        if (info.value < 0)
            co_return; // sentinel: phase 1 complete
        co_await hashBlock(sys, shared,
                           static_cast<std::uint32_t>(info.value));
    }
}

} // namespace

SignalSearch::SignalSearch(core::System &sys,
                           const SignalSearchConfig &config)
    : sys_(sys), shared_(std::make_shared<Shared>())
{
    const auto &shared = shared_;
    shared->config = &config;

    // Build the data array with planted needles.
    Random &rng = sys.sim().random();
    shared->data.resize(std::size_t(config.numBlocks) *
                        config.blockBytes);
    for (auto &b : shared->data) {
        b = static_cast<std::uint8_t>(rng.below(256));
        if (b == kNeedle[0])
            b = 0; // keep accidental needle probability negligible
    }
    shared->expectedSelected.assign(config.numBlocks, false);
    shared->referenceDigests.assign(config.numBlocks, "");
    shared->digests.assign(config.numBlocks, "");
    for (std::uint32_t blk = 0; blk < config.numBlocks; ++blk) {
        if (!rng.chance(config.selectFraction))
            continue;
        const std::size_t off =
            std::size_t(blk) * config.blockBytes +
            rng.below(config.blockBytes - 4);
        std::memcpy(shared->data.data() + off, kNeedle, 4);
        shared->expectedSelected[blk] = true;
        shared->referenceDigests[blk] = toHex(sha512(
            shared->data.data() + std::size_t(blk) * config.blockBytes,
            config.blockBytes));
    }

    shared->infos.resize(config.numBlocks);
    start_ = sys.sim().now();

    if (config.useSignals)
        sys.sim().spawn(signalConsumer(sys, shared));

    // Phase 1: parallel lookup on the GPU.
    gpu::KernelLaunch launch;
    launch.workItems =
        std::uint64_t(config.numBlocks) * config.wgSize;
    launch.wgSize = config.wgSize;
    launch.program = [&sys, shared](gpu::WavefrontCtx &ctx)
        -> sim::Task<> {
        const auto &cfg = *shared->config;
        const std::uint32_t block = ctx.workgroupId();
        // Index probes, spread across the group's work-items.
        co_await ctx.compute(cfg.lookupQueriesPerBlock *
                             cfg.probesPerQuery * cfg.cyclesPerProbe /
                             cfg.wgSize);
        const bool selected = blockHasNeedle(*shared, block);
        if (!selected)
            co_return;
        if (cfg.useSignals) {
            // Notify the CPU right now (Section VIII-B): work-group
            // granularity, non-blocking, weak ordering perform best.
            osk::SigInfo &info = shared->infos[block];
            info.signo = osk::SIGRTMIN_;
            info.value = block;
            core::Invocation nb;
            nb.ordering = core::Ordering::Relaxed;
            nb.blocking = core::Blocking::NonBlocking;
            co_await sys.gpuSys().rtSigqueueinfo(
                ctx, nb, 0, osk::SIGRTMIN_, &info);
        } else {
            shared->pendingBaseline.push_back(block);
        }
    };
    sys.launchGpuAndDrain(std::move(launch));
}

bool
SignalSearch::runUntil(Tick limit)
{
    sys_.run(limit);
    if (!sys_.sim().events().empty())
        return true;
    if (phase2_)
        return false;
    phase2_ = true;
    if (shared_->config->useSignals) {
        // Phase 1 done: send the sentinel through the same signal path
        // and let the consumer drain the queue.
        osk::SigInfo sentinel;
        sentinel.signo = osk::SIGRTMIN_;
        sentinel.value = -1;
        sys_.process().signals().queueInfo(sentinel);
    } else {
        // Baseline: phases strictly serialized.
        sys_.sim().spawn([](core::System &s,
                            std::shared_ptr<Shared> sh) -> sim::Task<> {
            for (std::uint32_t blk : sh->pendingBaseline)
                co_await hashBlock(s, sh, blk);
        }(sys_, shared_));
    }
    return true;
}

SignalSearchResult
SignalSearch::result() const
{
    const auto &shared = shared_;
    const SignalSearchConfig &config = *shared->config;
    SignalSearchResult result;
    result.elapsed = sys_.sim().now() - start_;
    result.blocksHashed = shared->hashed;
    result.digests = shared->digests;
    bool ok = true;
    std::uint32_t selected = 0;
    for (std::uint32_t blk = 0; blk < config.numBlocks; ++blk) {
        if (shared->expectedSelected[blk]) {
            ++selected;
            if (shared->digests[blk] !=
                shared->referenceDigests[blk]) {
                ok = false;
            }
        } else if (!shared->digests[blk].empty()) {
            ok = false; // hashed a block that was never selected
        }
    }
    result.blocksSelected = selected;
    result.correct = ok && result.blocksHashed == selected;
    return result;
}

SignalSearchResult
runSignalSearch(core::System &sys, const SignalSearchConfig &config)
{
    SignalSearch search(sys, config);
    while (search.runUntil(kMaxTick)) {
    }
    return search.result();
}

} // namespace genesys::workloads
