/**
 * @file
 * System façade implementation.
 */

#include "system.hh"

#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "osk/sysfs.hh"
#include "support/logging.hh"

namespace genesys::core
{

namespace
{

// S is the System a row reads (and a knob writes through).
using S = const System &;
using Shard = std::uint32_t;
using Value = std::uint64_t;

GenesysParams &
params(S s)
{
    return s.host().params();
}

osk::FaultConfig &
fault(S s)
{
    return s.kernel().faults().config();
}

/** A knob value its row has already range-checked. */
std::uint32_t
u32(Value v)
{
    return static_cast<std::uint32_t>(v);
}

/**
 * One counter or knob, registered once for both surfaces. @c path is
 * its file under /sys/genesys/ ("%u" expands once per syscall-area
 * shard; nullptr = report only) and @c report its statsReport() name
 * (nullptr = sysfs only). A knob's @c set sees only values in
 * [lo, hi] and may still refuse one. @c real stands in for @c get on
 * the report's non-integer lines.
 */
struct Metric
{
    const char *path = nullptr;
    const char *report = nullptr;
    Value (*get)(S, Shard) = nullptr;
    bool (*set)(S, Value) = nullptr;
    Value lo = 0;
    Value hi = UINT64_MAX;
    double (*real)(S) = nullptr;
};

/** A knob over one plain field of the struct @p Holder returns. */
template <auto Holder, auto Field>
constexpr Metric
field(const char *path, Value lo = 0, Value hi = UINT64_MAX)
{
    return {path, nullptr,
            [](S s, Shard) { return static_cast<Value>(Holder(s).*Field); },
            [](S s, Value v) {
                auto &f = Holder(s).*Field;
                f = static_cast<std::remove_reference_t<decltype(f)>>(v);
                return true;
            },
            lo, hi};
}

constexpr Value kPpm = 1'000'000;

/** In statsReport() order; sysfs-only rows sit beside their kin. */
const Metric kMetrics[] = {
    {nullptr, "gpu.kernels_launched",
     [](S s, Shard) { return s.gpu().launchedKernels(); }},
    {nullptr, "gpu.workgroups_launched",
     [](S s, Shard) { return s.gpu().launchedWorkGroups(); }},
    {nullptr, "gpu.wavefronts_launched",
     [](S s, Shard) { return s.gpu().launchedWavefronts(); }},
    {nullptr, "gpu.l2_hits", [](S s, Shard) { return s.gpu().l2().hits(); }},
    {nullptr, "gpu.l2_misses",
     [](S s, Shard) { return s.gpu().l2().misses(); }},

    // The paper's coalescing knobs (Section VI), then the service
    // path's counters, shard geometry and per-shard dirs (DESIGN.md
    // §10).
    field<params, &GenesysParams::coalesceWindow>("coalesce_window_ns"),
    field<params, &GenesysParams::coalesceMaxBatch>("coalesce_max_batch",
                                                    1, UINT32_MAX),
    {nullptr, "genesys.requests_issued",
     [](S s, Shard) { return s.gpuSys().issuedRequests(); }},
    {nullptr, "genesys.interrupts",
     [](S s, Shard) { return s.host().interrupts(); }},
    {nullptr, "genesys.batches",
     [](S s, Shard) { return s.host().batches(); }},
    {nullptr, "genesys.syscalls_processed",
     [](S s, Shard) { return s.host().processedSyscalls(); }},
    {.report = "genesys.batch_size_mean",
     .real = [](S s) { return s.host().batchSizes().mean(); }},
    {nullptr, "genesys.syscall_retries",
     [](S s, Shard) { return s.gpuSys().syscallRetries(); }},
    {nullptr, "genesys.short_transfers",
     [](S s, Shard) { return s.gpuSys().shortTransfers(); }},
    {nullptr, "genesys.host_restarts",
     [](S s, Shard) { return s.host().hostRestarts(); }},
    {"shards/count", "genesys.area_shards",
     [](S s, Shard) -> Value { return s.syscallArea().shardCount(); }},
    {"shards/%u/issued", nullptr,
     [](S s, Shard i) { return s.syscallArea().issuedOnShard(i); }},
    {"shards/%u/processed", nullptr,
     [](S s, Shard i) { return s.syscallArea().processedOnShard(i); }},
    {"shards/%u/interrupts", nullptr,
     [](S s, Shard i) { return s.host().interruptsOnShard(i); }},

    // Ring submission (DESIGN.md §13). Mode and geometry are fixed at
    // construction (rings are sized with the area), so both files are
    // read-only; the next consume task reads the lingering knobs live.
    {"rings/enabled", "genesys.rings_enabled",
     [](S s, Shard) -> Value {
         return s.syscallArea().ringsEnabled() ? 1 : 0;
     }},
    {"rings/batches", "genesys.ring_batches",
     [](S s, Shard) { return s.syscallArea().ringBatchesTotal(); }},
    {"rings/entries_submitted", "genesys.ring_entries",
     [](S s, Shard) { return s.syscallArea().ringEntriesTotal(); }},
    {.report = "genesys.ring_batch_occupancy",
     .real = [](S s) { return s.syscallArea().ringBatchOccupancy(); }},
    {"rings/doorbells_suppressed", "genesys.ring_doorbells_suppressed",
     [](S s, Shard) { return s.host().ringDoorbellsSuppressed(); }},
    {"rings/cq_posted", "genesys.ring_cq_posted",
     [](S s, Shard) { return s.host().ringCqPosted(); }},
    {"rings/entries", nullptr,
     [](S s, Shard) -> Value { return s.syscallArea().sq(0).capacity(); }},
    {"rings/sq_full_retries", nullptr,
     [](S s, Shard) { return s.gpuSys().ringFullRetries(); }},
    field<params, &GenesysParams::ringConsumerGrace>(
        "rings/consumer_grace_ns"),
    field<params, &GenesysParams::ringConsumerPoll>("rings/consumer_poll_ns"),
    {"rings/%u/sq_head", nullptr,
     [](S s, Shard i) { return s.syscallArea().sq(i).loadHeadAcquire(); }},
    {"rings/%u/sq_tail", nullptr,
     [](S s, Shard i) { return s.syscallArea().sq(i).loadTailAcquire(); }},
    {"rings/%u/cq_head", nullptr,
     [](S s, Shard i) { return s.syscallArea().cq(i).loadHeadAcquire(); }},
    {"rings/%u/cq_tail", nullptr,
     [](S s, Shard i) { return s.syscallArea().cq(i).loadTailAcquire(); }},
    {"rings/%u/batches", nullptr,
     [](S s, Shard i) { return s.syscallArea().ringBatchesOnShard(i); }},
    {"rings/%u/entries", nullptr,
     [](S s, Shard i) { return s.syscallArea().ringEntriesOnShard(i); }},
    {"rings/%u/cq_reclaims", nullptr,
     [](S s, Shard i) { return s.syscallArea().cq(i).reclaims(); }},

    // Fault injection (osk/fault.hh); rates are per dispatch, in ppm.
    {"fault/injected", "osk.faults_injected",
     [](S s, Shard) { return s.kernel().faults().injected(); }},
    field<fault, &osk::FaultConfig::eintrPpm>("fault/eintr_ppm", 0, kPpm),
    field<fault, &osk::FaultConfig::eagainPpm>("fault/eagain_ppm", 0, kPpm),
    field<fault, &osk::FaultConfig::shortPpm>("fault/short_ppm", 0, kPpm),
    field<fault, &osk::FaultConfig::errnoPpm>("fault/errno_ppm", 0, kPpm),
    field<fault, &osk::FaultConfig::deviceDelayPpm>("fault/device_delay_ppm",
                                                    0, kPpm),
    field<fault, &osk::FaultConfig::seed>("fault/seed"),
    field<fault, &osk::FaultConfig::errnoValue>("fault/errno_value", 1, 4095),
    field<fault, &osk::FaultConfig::atomicTransferBytes>(
        "fault/atomic_transfer_bytes", 0, UINT32_MAX),
    field<fault, &osk::FaultConfig::deviceDelay>("fault/device_delay_ns"),

    // gsan (DESIGN.md §9): runtime switch, report cap, report counts.
    {"gsan/enabled", "gsan.enabled",
     [](S s, Shard) -> Value { return s.gsan().enabled() ? 1 : 0; },
     [](S s, Value v) { s.gsan().setEnabled(v == 1); return true; }, 0, 1},
    {"gsan/max_reports", nullptr,
     [](S s, Shard) -> Value { return s.gsan().maxStoredReports(); },
     [](S s, Value v) { s.gsan().setMaxStoredReports(u32(v)); return true; },
     0, UINT32_MAX},
    {"gsan/reports", "gsan.reports",
     [](S s, Shard) { return s.gsan().reportCount(); }},
    {"gsan/payload_races", "gsan.payload_races",
     [](S s, Shard) {
         return s.gsan().countOf(gsan::ReportKind::PayloadRace);
     }},
    {"gsan/ordering_violations", "gsan.ordering_violations",
     [](S s, Shard) {
         return s.gsan().countOf(gsan::ReportKind::OrderingViolation);
     }},
    {"gsan/lost_wakeups", "gsan.lost_wakeups",
     [](S s, Shard) {
         return s.gsan().countOf(gsan::ReportKind::LostWakeup);
     }},
    {nullptr, "gsan.threads",
     [](S s, Shard) -> Value { return s.gsan().threadCount(); }},

    // gnet (DESIGN.md §12): UDP delivery, the TCP wire and its
    // zero-copy ledger (copied_bytes stays flat on a serving path that
    // never copies), the loss knob, and epoll wait/wake statistics
    // with the per-shard readiness-wake fanout.
    {"net/udp/delivered", "net.udp_delivered",
     [](S s, Shard) { return s.kernel().udp().deliveredDatagrams(); }},
    {"net/udp/dropped", "net.udp_dropped",
     [](S s, Shard) { return s.kernel().udp().dropped(); }},
    {"net/udp/unroutable", nullptr,
     [](S s, Shard) { return s.kernel().udp().unroutable(); }},
    {"net/tcp/segs_sent", "net.tcp_segs_sent",
     [](S s, Shard) { return s.kernel().tcp().counters().segsSent; }},
    {"net/tcp/retransmits", "net.tcp_retransmits",
     [](S s, Shard) { return s.kernel().tcp().counters().retransmits; }},
    {"net/tcp/backpressure_stalls", "net.tcp_backpressure_stalls",
     [](S s, Shard) {
         return s.kernel().tcp().counters().backpressureStalls;
     }},
    {"net/tcp/resets", "net.tcp_resets",
     [](S s, Shard) { return s.kernel().tcp().counters().resets; }},
    {"net/tcp/copied_bytes", "net.tcp_copied_bytes",
     [](S s, Shard) { return s.kernel().tcp().counters().copiedBytes; }},
    {"net/tcp/zerocopy_bytes", "net.tcp_zerocopy_bytes",
     [](S s, Shard) { return s.kernel().tcp().counters().zerocopyBytes; }},
    {"net/tcp/segs_lost", nullptr,
     [](S s, Shard) { return s.kernel().tcp().counters().segsLost; }},
    {"net/tcp/accepts", nullptr,
     [](S s, Shard) { return s.kernel().tcp().counters().accepts; }},
    {"net/tcp/connects", nullptr,
     [](S s, Shard) { return s.kernel().tcp().counters().connects; }},
    {"net/tcp/refused", nullptr,
     [](S s, Shard) { return s.kernel().tcp().counters().refused; }},
    {"net/tcp/loss_ppm", nullptr,
     [](S s, Shard) -> Value { return s.kernel().tcp().lossPpm(); },
     [](S s, Value v) { s.kernel().tcp().setLossPpm(u32(v)); return true; },
     0, kPpm},
    {"net/epoll/waits", "net.epoll_waits",
     [](S s, Shard) { return s.kernel().epoll().waits(); }},
    {"net/epoll/wakeups", "net.epoll_wakeups",
     [](S s, Shard) { return s.kernel().epoll().wakeups(); }},
    {"net/epoll/notifies", "net.epoll_notifies",
     [](S s, Shard) { return s.kernel().epoll().notifies(); }},
    {"net/epoll/timeouts", nullptr,
     [](S s, Shard) { return s.kernel().epoll().timeouts(); }},
    {"net/epoll/edges_recorded", nullptr,
     [](S s, Shard) { return s.kernel().epoll().edgesRecorded(); }},
    {"net/epoll/edges_delivered", nullptr,
     [](S s, Shard) { return s.kernel().epoll().edgesDelivered(); }},
    {"net/epoll/shards/%u/wakeups", nullptr,
     [](S s, Shard i) { return s.epollShardWakes()[i]; }},

    {nullptr, "mem.gpu_bytes",
     [](S s, Shard) { return s.memBus().bytesMoved("gpu"); }},
    {nullptr, "mem.cpu_bytes",
     [](S s, Shard) { return s.memBus().bytesMoved("cpu"); }},
    {.report = "cpu.utilization",
     .real =
         [](S s) { return s.kernel().cpus().utilization(0, s.sim().now()); }},

    // The workqueue (DESIGN.md §10): the worker-count knob is bounded
    // by the pool built at construction.
    {nullptr, "osk.workqueue_tasks",
     [](S s, Shard) { return s.kernel().workqueue().executedTasks(); }},
    {"workqueue/max_workers", "osk.workqueue_max_workers",
     [](S s, Shard) -> Value { return s.kernel().workqueue().maxWorkers(); },
     [](S s, Value v) {
         osk::WorkQueue &wq = s.kernel().workqueue();
         if (v > wq.workerCap())
             return false;
         wq.setMaxWorkers(u32(v));
         return true;
     },
     1, UINT32_MAX},
    {"workqueue/steals", "osk.workqueue_steals",
     [](S s, Shard) { return s.kernel().workqueue().steals(); }},
    {"workqueue/spills", "osk.workqueue_spills",
     [](S s, Shard) { return s.kernel().workqueue().spills(); }},
    {"workqueue/queue_bound", nullptr,
     [](S s, Shard) -> Value { return s.kernel().workqueue().queueBound(); },
     [](S s, Value v) {
         s.kernel().workqueue().setQueueBound(u32(v));
         return true;
     },
     1, UINT32_MAX},

    {nullptr, "sim.events_executed",
     [](S s, Shard) { return s.sim().events().executedEvents(); }},
    {nullptr, "sim.final_tick", [](S s, Shard) { return s.sim().now(); }},
};

/** A /sys/genesys file backed by one table row (and shard). */
class MetricFile final : public osk::SysfsFile
{
  public:
    MetricFile(const Metric &m, S sys, Shard shard)
        : m_(m), sys_(sys), shard_(shard)
    {}

  private:
    Value value() const override { return m_.get(sys_, shard_); }

    bool
    store(Value v) override
    {
        return m_.set != nullptr && v >= m_.lo && v <= m_.hi &&
               m_.set(sys_, v);
    }

    const Metric &m_;
    const System &sys_;
    Shard shard_;
};

} // namespace

System::System(const SystemConfig &config)
    : config_(config), sim_(std::make_unique<sim::Sim>(config.seed)),
      memBus_(std::make_unique<mem::MemBus>(sim_->events(),
                                            config.memBus)),
      kernel_(std::make_unique<osk::Kernel>(*sim_, config.kernel)),
      proc_(&kernel_->createProcess()),
      gpu_(std::make_unique<gpu::GpuDevice>(*sim_, config.gpu,
                                            memBus_.get())),
      area_(std::make_unique<SyscallArea>(config.gpu, config.genesys)),
      host_(std::make_unique<GenesysHost>(*kernel_, *gpu_, *area_,
                                          *proc_, config.genesys)),
      client_(std::make_unique<GpuSyscalls>(*gpu_, *area_,
                                            config.genesys)),
      gsan_(std::make_unique<gsan::Sanitizer>())
{
    gsan_->setNow([this]() -> std::uint64_t { return sim_->now(); });
    gpu_->setSanitizer(gsan_.get());
    area_->attachSanitizer(gsan_.get());
    host_->setSanitizer(gsan_.get());
    client_->setSanitizer(gsan_.get());
    kernel_->epoll().setSanitizer(gsan_.get());

    // Readiness wake fanout accounting: map each woken GPU waiter
    // (cookie = hardware wave slot) to its syscall-area shard. Host
    // waiters carry kEpollHostWaiter and are not shard-attributed.
    epollShardWakes_.assign(area_->shardCount(), 0);
    kernel_->epoll().setWakeObserver([this](std::uint64_t cookie) {
        if (cookie == osk::kEpollHostWaiter)
            return;
        const std::uint32_t shard =
            area_->shardOfWave(static_cast<std::uint32_t>(cookie));
        if (shard < epollShardWakes_.size())
            ++epollShardWakes_[shard];
    });

    // /sys/genesys is listed from the start; its files are built on
    // the directory's first lookup, which most runs never make.
    const bool installed = kernel_->vfs().install(
        "/sys/genesys",
        std::make_shared<osk::Directory>([this] { installSysfs(); }));
    GENESYS_ASSERT(installed, "sysfs setup");

    // GENESYS_GSAN=1 turns the sanitizer on for a whole test/bench
    // run without touching code (the gsan-enabled CI job uses this).
    const char *env = std::getenv("GENESYS_GSAN");
    if (env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0')) {
        gsan_->setEnabled(true);
    }
}

void
System::installSysfs()
{
    for (const Metric &m : kMetrics) {
        if (m.path == nullptr)
            continue;
        const std::string path = std::string("/sys/genesys/") + m.path;
        const std::size_t at = path.find("%u");
        if (at == std::string::npos) {
            kernel_->vfs().install(
                path, std::make_shared<MetricFile>(m, *this, 0));
            continue;
        }
        for (Shard s = 0; s < area_->shardCount(); ++s) {
            std::string file = path;
            file.replace(at, 2, std::to_string(s));
            kernel_->vfs().install(
                file, std::make_shared<MetricFile>(m, *this, s));
        }
    }
}

sim::Task<>
System::launchDrainTask(gpu::KernelLaunch launch)
{
    co_await gpu_->launch(std::move(launch));
    co_await host_->drain();
}

std::string
System::statsReport() const
{
    std::string out;
    for (const Metric &m : kMetrics) {
        if (m.report == nullptr)
            continue;
        const double v = m.real != nullptr
                             ? m.real(*this)
                             : static_cast<double>(m.get(*this, 0));
        out += logging::format("%-40s %.6g\n", m.report, v);
    }
    return out;
}

std::string
System::platformString() const
{
    return logging::format(
        "cpu: %u cores | gpu: %u CUs x %u waves x %u lanes @ %.0f MHz | "
        "gpu L2: %llu KiB | mem: %.1f GB/s | syscall area: %llu KiB "
        "(%zu slots x %u B)",
        config_.kernel.cpuCores, config_.gpu.numCus,
        config_.gpu.maxWavesPerCu, config_.gpu.wavefrontSize,
        config_.gpu.clockHz / 1e6,
        static_cast<unsigned long long>(config_.gpu.l2Bytes / 1024),
        config_.memBus.bytesPerSec / 1e9,
        static_cast<unsigned long long>(area_->areaBytes() / 1024),
        area_->slotCount(), config_.genesys.slotBytes);
}

} // namespace genesys::core
