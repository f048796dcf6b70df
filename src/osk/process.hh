/**
 * @file
 * Processes and the kernel aggregate.
 *
 * Kernel wires together every OS subsystem (VFS, devices, SSD, UDP,
 * CPU cores, system workqueue) and owns the processes. A Process is the
 * CPU-side context a GPU kernel is launched from: its descriptor table,
 * address space, and signal queue are what GENESYS "borrows" when
 * servicing GPU system calls in OS worker threads (Section VI).
 */

#ifndef GENESYS_OSK_PROCESS_HH
#define GENESYS_OSK_PROCESS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "osk/block_device.hh"
#include "osk/devices.hh"
#include "osk/epoll.hh"
#include "osk/fault.hh"
#include "osk/file.hh"
#include "osk/mm.hh"
#include "osk/net.hh"
#include "osk/tcp.hh"
#include "osk/params.hh"
#include "osk/signals.hh"
#include "osk/syscalls.hh"
#include "osk/vfs.hh"
#include "osk/workqueue.hh"
#include "sim/sim.hh"

namespace genesys::osk
{

class Kernel;

class Process
{
  public:
    Process(Kernel &kernel, int pid, std::uint64_t phys_limit_bytes);

    int pid() const { return pid_; }
    Kernel &kernel() { return kernel_; }
    FdTable &fds() { return fds_; }
    MemoryManager &mm() { return mm_; }
    SignalManager &signals() { return signals_; }

  private:
    Kernel &kernel_;
    int pid_;
    FdTable fds_;
    MemoryManager mm_;
    SignalManager signals_;
};

struct KernelConfig
{
    std::uint32_t cpuCores = 4;
    std::uint32_t workqueueWorkers = 32; ///< cmwq-style elastic pool
    /// Physical memory available to a process before swapping
    /// (Fig 11 caps this below the miniAMR dataset size).
    std::uint64_t physMemBytes = 16ull * 1024 * 1024 * 1024;
    OskParams params;
    BlockDeviceParams ssd;
    std::uint32_t fbWidth = 1024;
    std::uint32_t fbHeight = 768;
    std::uint32_t fbBpp = 32;
};

class Kernel
{
  public:
    Kernel(sim::Sim &sim, const KernelConfig &config);

    sim::Sim &sim() { return sim_; }
    const OskParams &params() const { return config_.params; }
    const KernelConfig &config() const { return config_; }

    Vfs &vfs() { return vfs_; }
    UdpStack &udp() { return udp_; }
    TcpStack &tcp() { return tcp_; }
    EpollSystem &epoll() { return epoll_; }
    CpuCluster &cpus() { return cpus_; }
    WorkQueue &workqueue() { return workqueue_; }
    BlockDevice &ssd() { return ssd_; }
    TerminalDevice &terminal() { return *terminal_; }
    FramebufferDevice &framebuffer() { return *framebuffer_; }
    FaultInjector &faults() { return faults_; }
    const FaultInjector &faults() const { return faults_; }

    /** Dispatch a system call in the context of @p proc. */
    sim::Task<std::int64_t>
    doSyscall(Process &proc, int num, const SyscallArgs &args)
    {
        return invokeSyscall(*this, proc, num, args);
    }

    /**
     * Dispatch with fault injection armed. Only the GPU service path
     * (GenesysHost workers and the polling daemon) uses this variant:
     * the GPU client and host implement POSIX recovery, while CPU-side
     * workload code calling doSyscall() keeps the exact-once semantics
     * it was written against.
     */
    sim::Task<std::int64_t>
    doSyscallFaultable(Process &proc, int num, const SyscallArgs &args)
    {
        return invokeSyscall(*this, proc, num, args, &faults_);
    }

    Process &createProcess();
    /** The process @p pid names, or nullptr (pid is GPU-reachable). */
    Process *process(int pid);

    /**
     * Create a file under the SSD mount: reads through it pay block
     * device time in addition to the copy.
     */
    RegularFile *createSsdFile(const std::string &path);

  private:
    void populateDevTree();

    sim::Sim &sim_;
    KernelConfig config_;
    Vfs vfs_;
    UdpStack udp_;
    TcpStack tcp_;
    EpollSystem epoll_;
    CpuCluster cpus_;
    WorkQueue workqueue_;
    BlockDevice ssd_;
    TerminalDevice *terminal_ = nullptr;
    FramebufferDevice *framebuffer_ = nullptr;
    FaultInjector faults_;
    std::vector<std::unique_ptr<Process>> processes_;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_PROCESS_HH
