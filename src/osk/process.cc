/**
 * @file
 * Process and Kernel implementation.
 */

#include "process.hh"

#include "support/logging.hh"

namespace genesys::osk
{

Process::Process(Kernel &kernel, int pid, std::uint64_t phys_limit_bytes)
    : kernel_(kernel), pid_(pid),
      mm_(kernel.sim().events(), kernel.params(), phys_limit_bytes),
      signals_(kernel.sim().events(), kernel.params())
{
    mm_.setCpuCluster(&kernel.cpus());
}

Kernel::Kernel(sim::Sim &sim, const KernelConfig &config)
    : sim_(sim), config_(config), udp_(sim.events(), config_.params),
      tcp_(sim.events(), config_.params),
      epoll_(sim.events(), config_.params, udp_, tcp_),
      cpus_(sim, config.cpuCores),
      workqueue_(sim, cpus_, config_.params, config.workqueueWorkers),
      ssd_(sim.events(), config.ssd)
{
    populateDevTree();
    ssd_.setFaultInjector(&faults_);
}

void
Kernel::populateDevTree()
{
    auto term = std::make_shared<TerminalDevice>();
    terminal_ = term.get();
    GENESYS_ASSERT(vfs_.install("/dev/console", term), "vfs setup");

    auto null_dev = std::make_shared<NullDevice>();
    GENESYS_ASSERT(vfs_.install("/dev/null", std::move(null_dev)),
                   "vfs setup");

    auto fb = std::make_shared<FramebufferDevice>(
        config_.fbWidth, config_.fbHeight, config_.fbBpp);
    framebuffer_ = fb.get();
    GENESYS_ASSERT(vfs_.install("/dev/fb0", std::move(fb)), "vfs setup");

    // /proc/meminfo-style generated file (everything-is-a-file demo).
    auto meminfo = std::make_shared<ProcFile>([this]() {
        std::string out;
        for (const auto &proc : processes_) {
            out += logging::format(
                "pid %d rss_bytes %llu peak_bytes %llu\n", proc->pid(),
                static_cast<unsigned long long>(proc->mm().rssBytes()),
                static_cast<unsigned long long>(
                    proc->mm().peakRssBytes()));
        }
        return out;
    });
    GENESYS_ASSERT(vfs_.install("/proc/meminfo", std::move(meminfo)),
                   "vfs setup");
}

Process &
Kernel::createProcess()
{
    const int pid = static_cast<int>(processes_.size()) + 1;
    processes_.push_back(
        std::make_unique<Process>(*this, pid, config_.physMemBytes));
    Process &proc = *processes_.back();
    // Standard descriptors 0/1/2 are the controlling terminal, so
    // write(1, ...) prints to the console like any Unix process.
    for (int fd = 0; fd < 3; ++fd) {
        auto file = std::make_shared<OpenFile>(
            FileKind::CharDevice, fd == 0 ? O_RDONLY : O_WRONLY);
        file->inode = terminal_;
        file->path = "/dev/console";
        const int got = proc.fds().allocate(std::move(file));
        GENESYS_ASSERT(got == fd, "stdio setup");
    }
    return proc;
}

Process *
Kernel::process(int pid)
{
    if (pid < 1 || static_cast<std::size_t>(pid) > processes_.size())
        return nullptr;
    return processes_[static_cast<std::size_t>(pid - 1)].get();
}

RegularFile *
Kernel::createSsdFile(const std::string &path)
{
    RegularFile *file = vfs_.createFile(path);
    if (file != nullptr)
        file->setBacking(&ssd_);
    return file;
}

} // namespace genesys::osk
