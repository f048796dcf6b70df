/**
 * @file
 * Figure 9: impact of polling on memory contention.
 *
 * A GPU agent continuously polls N syscall-area cache lines (atomic
 * loads through the coherent L2) while a CPU agent streams memory.
 * While the polled set fits in the GPU L2 (4096 lines on our
 * platform), polls never reach DRAM; past that, poll misses steal
 * memory-controller bandwidth from the CPU.
 */

#include "bench/common.hh"

using namespace genesys;
using namespace genesys::bench;

namespace
{

constexpr Tick kWindow = ticks::ms(4);

/** CPU streaming throughput (GB/s) while the GPU polls @p lines. */
double
cpuThroughputWhilePolling(std::uint64_t lines)
{
    core::System sys = freshSystem();
    auto &bus = sys.memBus();
    auto &gpu = sys.gpu();

    bool stop = false;
    // One polling wavefront per 64 polled lines (as in per-work-item
    // waiting): each sweeps its own slice of the syscall area.
    const std::uint64_t pollers = std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(lines / 64, 256));
    const std::uint64_t slice = lines / pollers;
    for (std::uint64_t w = 0; w < pollers; ++w) {
        sys.sim().spawn([](gpu::GpuDevice &g, std::uint64_t base,
                           std::uint64_t n, std::uint64_t seed,
                           bool &halt) -> sim::Task<> {
            const Tick atomic_load = g.config().atomicLoad;
            // Waiting work-items wake and re-poll in data-dependent
            // order; model with a per-poller xorshift over its slice.
            std::uint64_t x = seed * 2654435769ull + 1;
            while (!halt) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                co_await g.accessLine(
                    0x2000'0000 + (base + x % n) * 64, atomic_load);
            }
        }(gpu, w * slice, slice, w + 1, stop));
    }

    // CPU streamer: back-to-back 256 B bursts.
    std::uint64_t cpu_bytes = 0;
    sys.sim().spawn([](core::System &s, bool &halt,
                       std::uint64_t &bytes) -> sim::Task<> {
        while (!halt) {
            co_await s.memBus().transfer(mem::Agent::Cpu, 256);
            bytes += 256;
        }
    }(sys, stop, cpu_bytes));

    sys.run(kWindow);
    stop = true;
    sys.run(); // drain the in-flight iterations
    (void)bus;
    return static_cast<double>(cpu_bytes) / ticks::toSec(kWindow) /
           1e9;
}

} // namespace

int
main()
{
    banner("Figure 9",
           "CPU memory throughput vs number of GPU-polled cache "
           "lines; the GPU L2 holds 4096 lines");

    TextTable table("Figure 9");
    table.setHeader({"polled lines", "fits in L2",
                     "CPU throughput (GB/s)"});
    for (std::uint64_t lines :
         {256ull, 1024ull, 2048ull, 4096ull, 6144ull, 8192ull,
          16384ull, 32768ull}) {
        table.addRow({logging::format("%llu",
                                      static_cast<unsigned long long>(
                                          lines)),
                      lines <= 4096 ? "yes" : "no",
                      logging::format(
                          "%.2f", cpuThroughputWhilePolling(lines))});
    }
    std::printf("%s\n", table.render().c_str());

    std::printf("Expected shape: flat while the polled set fits in "
                "the 4096-line L2, then dropping as poll misses "
                "contend on the shared memory controllers.\n");
    return 0;
}
