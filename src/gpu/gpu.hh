/**
 * @file
 * GCN3-like GPU execution model.
 *
 * Models the execution hierarchy the paper's design space is built on
 * (Section IV): work-items execute in lockstep as 64-lane wavefronts,
 * wavefronts group into work-groups resident on a compute unit (CU),
 * and hundreds of work-groups form a kernel. The model captures the
 * properties GENESYS depends on:
 *
 *  - Limited residency: each CU holds at most a fixed number of
 *    work-groups/wavefronts; excess work-groups queue. This is why
 *    strong ordering at kernel scope can deadlock and why non-blocking
 *    invocation (which lets a work-group retire early) wins (Fig 8).
 *  - Hardware slot IDs: each resident wavefront occupies a hardware
 *    wave slot; slot ids index the GENESYS syscall area (Section VI).
 *  - Work-group scope barriers: cheap CU-local synchronization.
 *  - Wavefront halt/resume: a wave can relinquish its SIMD resources
 *    and be woken by a CPU message (Section V-C).
 *  - A scalar-message interrupt port towards the CPU (s_sendmsg).
 *
 * Wavefront programs are C++20 coroutines over the simulated clock;
 * per-lane work is expressed as loops over [0, ctx.laneCount()).
 */

#ifndef GENESYS_GPU_GPU_HH
#define GENESYS_GPU_GPU_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mem/cache_model.hh"
#include "mem/mem_bus.hh"
#include "sim/sim.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/types.hh"

namespace genesys::gsan
{
class Sanitizer;
}

namespace genesys::gpu
{

struct GpuConfig
{
    std::uint32_t numCus = 8;            ///< GCN3 iGPU (Table III class)
    std::uint32_t wavefrontSize = 64;
    std::uint32_t maxWavesPerCu = 40;
    std::uint32_t maxWorkGroupsPerCu = 8; ///< residency (LDS/VGPR abstract)
    double clockHz = 758e6;               ///< Table III
    /// Host-side kernel dispatch latency (one CPU->GPU round trip).
    Tick kernelLaunchLatency = ticks::us(15);
    /// Latency to resume a halted wavefront from a CPU message.
    Tick waveResumeLatency = ticks::us(5);
    /// Device-side dynamic kernel enqueue (ref [46]): a doorbell
    /// write, far below the host dispatch path.
    Tick dynamicLaunchLatency = ticks::us(3);

    /// GPU L2 (CPU-coherent) used for syscall-area polling; 256 KiB =
    /// 4096 lines of 64 B, the capacity knee of Figure 9.
    std::uint64_t l2Bytes = 256 * 1024;
    std::uint32_t l2LineBytes = 64;
    std::uint32_t l2Assoc = 16;
    Tick l2HitLatency = ticks::ns(180);

    // Profiled syscall-area access costs (Table IV): CPU-coherent
    // atomics bypass the non-coherent L1 and hit the L2/fabric.
    Tick atomicCmpSwap = ticks::ns(2100);
    Tick atomicSwap = ticks::ns(1800);
    Tick atomicLoad = ticks::ns(1400);
    Tick plainLoad = ticks::ns(80);

    /** Active work-item slots = CUs x waves/CU x wavefront size. */
    std::uint64_t
    activeWorkItemSlots() const
    {
        return std::uint64_t(numCus) * maxWavesPerCu * wavefrontSize;
    }

    Tick
    cyclesToTicks(std::uint64_t cycles) const
    {
        const double ns = static_cast<double>(cycles) / clockHz * 1e9;
        return ns < 1.0 && cycles > 0 ? Tick{1} : static_cast<Tick>(ns);
    }
};

class GpuDevice;
class WavefrontCtx;

/**
 * Awaiter for one timed syscall-area line access (see
 * GpuDevice::accessLine). The L2 lookup happens when the access is
 * awaited; one event later the coroutine resumes, or on an L2 miss is
 * handed to the memory bus, which resumes it once the line has moved.
 */
class [[nodiscard]] LineAccess
{
  public:
    LineAccess(GpuDevice &dev, mem::Addr addr, Tick op_latency)
        : dev_(dev), addr_(addr), latency_(op_latency)
    {}

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

  private:
    GpuDevice &dev_;
    mem::Addr addr_;
    Tick latency_;
    /// The suspended accessor, held for the bus hand-off on a miss.
    std::coroutine_handle<> cont_;
};

/** A wavefront program: executed once per wavefront. */
using WaveProgram = std::function<sim::Task<>(WavefrontCtx &)>;

struct KernelLaunch
{
    std::uint64_t workItems = 0;  ///< grid size
    std::uint32_t wgSize = 256;   ///< work-items per work-group
    WaveProgram program;
    /// Device-side dynamic launches bypass the host dispatch path;
    /// negative = use the device's configured launch latency.
    std::int64_t kernelLaunchLatencyOverride = -1;
};

/** Runtime state shared by the wavefronts of one work-group. */
struct WorkGroupState
{
    std::uint32_t wgId = 0;
    std::uint32_t cu = 0;
    std::uint32_t waves = 0;
    std::uint32_t livingWaves = 0;
    std::uint32_t sizeItems = 0;
    std::unique_ptr<sim::Barrier> barrier;
};

/**
 * Per-wavefront execution context handed to the program. Lives for the
 * duration of the wavefront.
 */
class WavefrontCtx
{
  public:
    WavefrontCtx(GpuDevice &dev, WorkGroupState &wg,
                 std::uint32_t wave_in_group, std::uint32_t lane_count,
                 std::uint64_t first_item, std::uint32_t hw_wave_slot);

    GpuDevice &device() { return dev_; }
    sim::Sim &sim();

    // --- identification -------------------------------------------
    std::uint32_t workgroupId() const { return wg_.wgId; }
    std::uint32_t waveInGroup() const { return wave_; }
    std::uint32_t laneCount() const { return laneCount_; }
    /** Global id of this wave's lane 0 work-item. */
    std::uint64_t firstWorkItem() const { return firstItem_; }
    /** Hardware wave slot (indexes the syscall area). */
    std::uint32_t hwWaveSlot() const { return hwSlot_; }
    /** Hardware slot of a specific lane's work-item. */
    std::uint32_t
    hwItemSlot(std::uint32_t lane) const;

    /** True for the work-group leader (wave 0). */
    bool isGroupLeader() const { return wave_ == 0; }

    /**
     * Device-side dynamic kernel launch (the hardware capability the
     * paper cites as [46]): enqueue a child kernel from GPU code
     * without a CPU round trip; completes when the child retires.
     */
    sim::Task<> launchKernel(KernelLaunch child);

    // --- execution -------------------------------------------------
    /** SIMD compute for @p cycles GPU cycles. */
    sim::Delay compute(std::uint64_t cycles);

    /**
     * Work-group scope barrier across all waves of the group. A lazy
     * Task wrapper around the barrier awaiter (timing-neutral:
     * symmetric transfer runs it synchronously) so gsan can record the
     * happens-before edges every arrival/departure creates.
     */
    sim::Task<> wgBarrier();

    /**
     * Halt this wavefront, releasing its SIMD resources, until a CPU
     * message resumes it (resume latency charged on wake).
     */
    sim::Task<> halt();

    /** Wake a halted wavefront (no-op if it is not halted). */
    void resumeFromHost();

    WorkGroupState &group() { return wg_; }

  private:
    GpuDevice &dev_;
    WorkGroupState &wg_;
    std::uint32_t wave_;
    std::uint32_t laneCount_;
    std::uint64_t firstItem_;
    std::uint32_t hwSlot_;
    bool halted_ = false;
    std::unique_ptr<sim::WaitQueue> haltWait_;
};

/**
 * The GPU device: CU residency management, kernel dispatch, the
 * interrupt port towards the CPU, and the L2/memory path used for
 * syscall-area polling.
 */
class GpuDevice
{
  public:
    GpuDevice(sim::Sim &sim, const GpuConfig &config,
              mem::MemBus *mem_bus = nullptr);

    sim::Sim &sim() { return sim_; }
    const GpuConfig &config() const { return config_; }
    mem::CacheModel &l2() { return l2_; }

    /**
     * Launch a kernel; completes when every work-group has retired.
     * Multiple launches may be in flight (they share CU resources).
     */
    sim::Task<> launch(KernelLaunch launch_desc);

    /**
     * Register the CPU-side interrupt sink. The wavefront's scalar
     * s_sendmsg ends up here, carrying the originating compute unit
     * (the hardware routes the message per CU, which is what lets the
     * host steer it to a per-shard service path) and the hardware
     * wave slot id.
     */
    using InterruptSink =
        std::function<void(std::uint32_t cu, std::uint32_t hw_wave_slot)>;
    void
    setInterruptSink(InterruptSink sink)
    {
        interruptSink_ = std::move(sink);
    }

    /** Raise a GPU->CPU interrupt for @p hw_wave_slot. */
    void sendInterrupt(std::uint32_t hw_wave_slot);

    /** Attach/query the happens-before sanitizer (may be null). */
    void setSanitizer(gsan::Sanitizer *gsan) { gsan_ = gsan; }
    gsan::Sanitizer *sanitizer() const { return gsan_; }

    /** Wake the (halted) wavefront in @p hw_wave_slot. */
    void resumeWave(std::uint32_t hw_wave_slot);

    /**
     * Timed access to a syscall-area cache line from the GPU:
     * atomics bypass L1 and hit the coherent L2; L2 misses travel
     * over the shared memory bus (feeding Figure 9's contention).
     */
    LineAccess
    accessLine(mem::Addr addr, Tick op_latency)
    {
        return LineAccess(*this, addr, op_latency);
    }

    // --- stats ------------------------------------------------------
    std::uint64_t launchedKernels() const { return launchedKernels_; }
    std::uint64_t launchedWorkGroups() const { return launchedWgs_; }
    std::uint64_t launchedWavefronts() const { return launchedWaves_; }
    std::uint32_t residentWorkGroups() const { return residentWgs_; }

  private:
    friend class LineAccess;

    struct CuState
    {
        std::uint32_t freeWgSlots = 0;
        std::uint32_t freeWaveSlots = 0;
        std::vector<std::uint32_t> freeHwWaveIds; // stack
    };

    struct PendingWg
    {
        std::uint32_t wgId;
        std::uint32_t sizeItems;      ///< actual items in this group
        std::uint32_t nominalWgSize;  ///< launch-time work-group size
        std::shared_ptr<struct LaunchState> launch;
    };

    void tryDispatch();
    sim::Task<> runWave(std::shared_ptr<struct LaunchState> launch,
                        std::shared_ptr<WorkGroupState> wg,
                        std::unique_ptr<WavefrontCtx> ctx);

    sim::Sim &sim_;
    GpuConfig config_;
    mem::CacheModel l2_;
    mem::MemBus *memBus_;
    std::vector<CuState> cus_;
    std::deque<PendingWg> pendingWgs_;
    gsan::Sanitizer *gsan_ = nullptr;
    InterruptSink interruptSink_;
    /// hw wave slot -> live wavefront context (for halt/resume).
    std::vector<WavefrontCtx *> waveBySlot_;

    std::uint64_t launchedKernels_ = 0;
    std::uint64_t launchedWgs_ = 0;
    std::uint64_t launchedWaves_ = 0;
    std::uint32_t residentWgs_ = 0;
};

} // namespace genesys::gpu

#endif // GENESYS_GPU_GPU_HH
