/**
 * @file
 * gmc GENESYS binding implementation.
 */

#include "gmc.hh"

#include <functional>
#include <memory>
#include <utility>

#include "osk/epoll.hh"
#include "osk/net.hh"
#include "osk/tcp.hh"
#include "osk/vfs.hh"
#include "support/logging.hh"

namespace genesys::core::gmc
{

using logging::format;

namespace
{

/// Event budget per explored run. Collapsed clean runs execute a few
/// hundred events; a livelocked schedule (e.g. a stranded poller)
/// burns through this quickly and is reported as "stuck".
constexpr std::uint64_t kMaxEventsPerRun = 20'000;
/// Simulated-time horizon per run (collapsed clean runs end far
/// below; polling always advances the clock, so a stuck run walks
/// into one of the two budgets).
constexpr Tick kHorizon = 2'000'000;

/// Static payload bytes: non-blocking requests may outlive the
/// issuing wavefront's coroutine frame, so argument buffers must not
/// live on it.
constexpr char kPayload[] = "abcdefghijklmnopqrstuvwxyz"
                            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/";

constexpr std::int64_t kUnset = INT64_MIN;

/** Cross-wave workload state (alive for the whole run). */
struct Shared
{
    std::vector<std::int64_t> results;
    std::int64_t kernelFd = -1;
};

/** fd values depend on allocation order (schedule-dependent by
 *  design), so the digest only keeps success/failure. */
std::int64_t
normalizeFd(std::int64_t fd)
{
    return fd >= 0 ? 1 : fd;
}

class Fnv1a
{
  public:
    void
    mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xFF;
            hash_ *= 1099511628211ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 1469598103934665603ull;
};

sim::Task<>
runWave(System &sys, const McConfig mc,
        const std::shared_ptr<Shared> shared, gpu::WavefrontCtx &ctx)
{
    GpuSyscalls &api = sys.gpuSys();
    const std::uint32_t waveSize = ctx.laneCount();
    const std::uint32_t group = ctx.workgroupId();

    // Setup invocations (the open) always use the safest point of the
    // design space; the payload pwrite uses the checked config.
    Invocation setup;
    setup.granularity = Granularity::WorkGroup;
    setup.ordering = Ordering::Strong;
    setup.blocking = Blocking::Blocking;
    setup.waitMode = WaitMode::Polling;

    Invocation payload;
    payload.granularity = mc.granularity;
    payload.ordering = mc.ordering;
    payload.blocking = mc.blocking;
    payload.waitMode = mc.wait;

    if (mc.granularity == Granularity::Kernel) {
        if (group == 0) {
            const std::int64_t fd =
                co_await api.open(ctx, setup, "/gmc/data", 1);
            shared->kernelFd = fd;
            shared->results[0] = normalizeFd(fd);
        }
        // Every wavefront participates in a kernel-granularity
        // invocation; only work-group 0's leader issues (and only it
        // uses the fd argument).
        const std::int64_t ret = co_await api.pwrite(
            ctx, payload, static_cast<int>(shared->kernelFd),
            &kPayload[0], 1, 0);
        if (group == 0)
            shared->results[1] = ret;
        co_return;
    }

    const std::int64_t fd =
        co_await api.open(ctx, setup, "/gmc/data", 1);
    shared->results[group * waveSize] = normalizeFd(fd);

    if (mc.granularity == Granularity::WorkGroup) {
        const std::int64_t ret = co_await api.pwrite(
            ctx, payload, static_cast<int>(fd),
            &kPayload[group % (sizeof(kPayload) - 1)], 1, group);
        shared->results[group * waveSize + 1] = ret;
        co_return;
    }

    // Work-item granularity: every lane issues its own pwrite to a
    // disjoint offset.
    //
    // Both callbacks are hoisted into named locals: a lambda temporary
    // with owning by-value captures inside a co_await full-expression
    // is destroyed twice by GCC 12's coroutine lowering (an uncounted
    // bitwise copy of the closure feeds the std::function conversion,
    // then both frame slots are destroyed), silently dropping a
    // shared_ptr reference. gmc's schedule-invariance oracle found
    // this as a "divergence" on the clean work-item config; gstat's
    // coawait-owning-lambda rule now guards the pattern tree-wide.
    std::function<std::optional<osk::SyscallArgs>(std::uint32_t)>
        laneArgs = [&](std::uint32_t lane) {
            const std::uint32_t item = group * waveSize + lane;
            return std::optional<osk::SyscallArgs>(osk::makeArgs(
                fd, &kPayload[item % (sizeof(kPayload) - 1)], 1,
                static_cast<std::int64_t>(item)));
        };
    std::function<void(std::uint32_t, std::int64_t)> onResult =
        [shared, group, waveSize](std::uint32_t lane,
                                  std::int64_t ret) {
            shared->results[group * waveSize + lane] = ret;
        };
    co_await api.invokeWorkItems(ctx, payload, osk::sysno::pwrite64,
                                 std::move(laneArgs),
                                 std::move(onResult));
}

} // namespace

std::string
McConfig::name() const
{
    const char *g = granularity == Granularity::WorkItem ? "wi"
                    : granularity == Granularity::WorkGroup ? "wg"
                                                            : "k";
    std::string base =
        format("%s-%s-%s-%s-%ux%ug%u", g,
               ordering == Ordering::Strong ? "strong" : "relaxed",
               blocking == Blocking::Blocking ? "block" : "nonblock",
               wait == WaitMode::Polling ? "poll" : "halt",
               areaShards, workers, groups);
    if (useRings)
        base += format("-ring%u", ringEntries);
    if (lostEdge)
        base += "-etlost";
    return base;
}

std::vector<McConfig>
smallMatrix()
{
    std::vector<McConfig> configs;
    auto add = [&configs](Granularity g, Ordering o, Blocking b,
                          WaitMode w, std::uint32_t shards,
                          std::uint32_t workers, std::uint32_t groups) {
        McConfig mc;
        mc.granularity = g;
        mc.ordering = o;
        mc.blocking = b;
        mc.wait = w;
        mc.areaShards = shards;
        mc.workers = workers;
        mc.groups = groups;
        configs.push_back(mc);
    };

    // 1 shard × 1 worker × 1 group: exhaustively explorable; every
    // legal granularity/ordering/blocking/wait combination (work-item
    // implies strong, kernel requires relaxed, wait mode only matters
    // when blocking).
    add(Granularity::WorkItem, Ordering::Strong, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::WorkItem, Ordering::Strong, Blocking::Blocking,
        WaitMode::HaltResume, 1, 1, 1);
    add(Granularity::WorkItem, Ordering::Strong, Blocking::NonBlocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::HaltResume, 1, 1, 1);
    add(Granularity::WorkGroup, Ordering::Relaxed, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::WorkGroup, Ordering::Relaxed,
        Blocking::NonBlocking, WaitMode::Polling, 1, 1, 1);
    add(Granularity::Kernel, Ordering::Relaxed, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 1);
    add(Granularity::Kernel, Ordering::Relaxed, Blocking::NonBlocking,
        WaitMode::Polling, 1, 1, 1);

    // Multi-actor points (bounded): concurrent groups on one shard,
    // then sharded areas with parallel workers.
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::Polling, 1, 1, 2);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::HaltResume, 1, 1, 2);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::Polling, 2, 2, 2);
    add(Granularity::WorkGroup, Ordering::Strong, Blocking::Blocking,
        WaitMode::HaltResume, 2, 2, 2);
    return configs;
}

const McConfig *
configByName(const std::vector<McConfig> &configs,
             const std::string &name)
{
    for (const McConfig &mc : configs) {
        if (mc.name() == name)
            return &mc;
    }
    return nullptr;
}

SystemConfig
collapsedConfig(const McConfig &mc)
{
    SystemConfig cfg;
    cfg.seed = 12345;

    auto &g = cfg.gpu;
    g.numCus = mc.areaShards; // one CU per shard
    g.wavefrontSize = 2;      // two lanes: minimal work-item fan-out
    g.maxWavesPerCu = 2;      // up to two single-wave groups per CU
    // Dispatch is first-fit, so with two groups per CU every group of
    // a multi-shard config would land on CU 0, i.e. shard 0. One group
    // per CU there gives each shard its own requester.
    g.maxWorkGroupsPerCu = mc.areaShards > 1 ? 1 : 2;
    g.kernelLaunchLatency = 0;
    g.waveResumeLatency = 0;
    g.dynamicLaunchLatency = 0;
    g.l2HitLatency = 0;
    g.atomicCmpSwap = 0;
    g.atomicSwap = 0;
    g.atomicLoad = 0;
    g.plainLoad = 0;

    cfg.kernel.cpuCores = 2;
    cfg.kernel.workqueueWorkers = mc.workers;
    auto &o = cfg.kernel.params;
    o.syscallBase = 0;
    o.pathComponent = 0;
    o.pageCacheLookup = 0;
    o.mmapBase = 0;
    o.munmapBase = 0;
    o.madviseBase = 0;
    o.perPageRelease = 0;
    o.minorFault = 0;
    o.swapInPerPage = 0;
    o.swapOutPerPage = 0;
    o.udpSendBase = 0;
    o.udpRecvBase = 0;
    o.signalQueue = 0;
    o.signalDeliver = 0;
    o.getrusage = 0;
    o.ioctlBase = 0;
    o.lseek = 0;
    o.workqueueEnqueue = 0;
    o.workerDispatch = 0;
    o.contextSwitch = 0;
    o.interruptDeliver = 0;
    o.interruptHandler = 0;
    o.tcpConnectBase = 0;
    o.tcpSendBase = 0;
    o.tcpRecvBase = 0;
    o.tcpRtt = 0;
    o.tcpRto = 0;
    o.epollCtlBase = 0;
    o.epollWaitBase = 0;
    // tmpfs/net bytes-per-sec stay nonzero (they are divisors). TCP
    // segments carry a 40-byte modeled header, so the wire rate must
    // be high enough that even those round to zero ticks.
    o.netBytesPerSec = 1e18;

    cfg.memBus.requestOverhead = 0;

    auto &gp = cfg.genesys;
    gp.areaShards = mc.areaShards;
    gp.useRings = mc.useRings;
    gp.ringEntries = mc.ringEntries == 0 ? 1 : mc.ringEntries;
    // No grace polling under the model checker: a lingering consumer
    // adds an unbounded tail of poll slices to every schedule, and
    // the mutants whose signature is "batch stranded after the
    // consumer retires" need the consumer to actually retire.
    gp.ringConsumerGrace = 0;
    // The one latency deliberately kept nonzero: polling must advance
    // the clock or a waiting wave could spin forever inside one tick.
    // One GPU cycle rounds up to one tick.
    gp.pollIntervalCycles = 1;
    gp.perLanePopulate = 0;
    gp.l1FlushCost = 0;
    gp.gsanTest = mc.hooks;
    return cfg;
}

namespace
{

/**
 * The checked-run harness every scenario shares. @p sys is the
 * scenario's collapsed System after its FIFO-only setup. The harness
 * installs @p driver as the tie-breaker, records the idle-task
 * baseline, lets @p spawn start the scenario's actors, runs under
 * kHorizon/kMaxEventsPerRun, and applies the oracles in order: panic,
 * budget "stuck", task "stuck", gsan, per-shard quiescence, and SQ
 * idle when rings are on. A clean run is fingerprinted by @p digest.
 * @p run and @p lost name the run and its most likely lost event in
 * "stuck" details.
 */
template <typename Spawn, typename Digest>
sim::gmc::RunOutcome
checkedRun(System &sys, sim::gmc::ScheduleDriver &driver, const char *run,
           const char *lost, const Spawn &spawn, const Digest &digest)
{
    sim::gmc::RunOutcome out;
    sys.sim().events().setTieBreaker(&driver);
    // Service loops (workqueue workers, backend pollers) are perpetual:
    // they idle suspended on their wait queues after a clean drain.
    // Everything spawned beyond this baseline — wave programs, the
    // drain task, host clients — must have completed by the end.
    const std::size_t idleTasks = sys.sim().liveTasks();
    spawn();

    bool panicked = false;
    std::string what;
    try {
        sys.run(kHorizon, kMaxEventsPerRun);
    } catch (const std::exception &e) {
        panicked = true;
        what = e.what();
    }
    sys.sim().events().setTieBreaker(nullptr);

    out.endTick = sys.sim().now();
    out.events = sys.sim().events().executedEvents();
    out.violation = true;
    if (panicked) {
        out.kind = "panic";
        out.detail = what;
        return out;
    }
    if (!sys.sim().events().empty()) {
        out.kind = "stuck";
        out.detail = format(
            "%s exceeded its budget (%llu events, tick %llu): "
            "livelock or starvation",
            run, static_cast<unsigned long long>(out.events),
            static_cast<unsigned long long>(out.endTick));
        return out;
    }
    if (sys.sim().liveTasks() > idleTasks) {
        out.kind = "stuck";
        out.detail = format(
            "%zu task(s) beyond the %zu idle service loops still "
            "suspended with a drained event queue: lost %s or deadlock",
            sys.sim().liveTasks() - idleTasks, idleTasks, lost);
        return out;
    }
    if (sys.gsan().reportCount() != 0) {
        out.kind = "gsan";
        out.detail = sys.gsan().renderReports();
        return out;
    }
    SyscallArea &area = sys.syscallArea();
    for (std::uint32_t s = 0; s < area.shardCount(); ++s) {
        if (!area.quiescent(s)) {
            out.kind = "quiescence";
            out.detail =
                format("shard %u has non-Free slots after drain", s);
            return out;
        }
    }
    if (area.ringsEnabled() && !area.ringsIdle()) {
        out.kind = "quiescence";
        out.detail =
            "SQ entries left claimed or published but unconsumed "
            "after drain";
        return out;
    }

    out.violation = false;
    Fnv1a fnv;
    digest(fnv);
    out.digest = fnv.value();
    return out;
}

} // namespace

sim::gmc::RunFn
scenario(const McConfig &mc)
{
    return [mc](sim::gmc::ScheduleDriver &driver)
               -> sim::gmc::RunOutcome {
        System sys(collapsedConfig(mc));
        osk::RegularFile *file =
            sys.kernel().vfs().createFile("/gmc/data");
        const std::uint32_t waveSize = sys.config().gpu.wavefrontSize;
        auto shared = std::make_shared<Shared>();
        shared->results.assign(
            static_cast<std::size_t>(mc.groups) * waveSize, kUnset);
        sys.gsan().setEnabled(true);

        auto spawn = [&] {
            gpu::KernelLaunch launch;
            launch.workItems =
                static_cast<std::uint64_t>(mc.groups) * waveSize;
            launch.wgSize = waveSize;
            launch.program = [&sys, mc, shared](gpu::WavefrontCtx &ctx)
                -> sim::Task<> { return runWave(sys, mc, shared, ctx); };
            sys.launchGpuAndDrain(std::move(launch));
        };
        auto digest = [&](Fnv1a &d) {
            for (std::int64_t r : shared->results)
                d.mix(static_cast<std::uint64_t>(r));
            for (std::uint8_t b : file->data())
                d.mix(b);
            const SyscallArea &area = sys.syscallArea();
            for (std::uint32_t s = 0; s < area.shardCount(); ++s) {
                d.mix(area.issuedOnShard(s));
                d.mix(area.processedOnShard(s));
                if (area.ringsEnabled()) {
                    // Entry counts (not batch shapes) are the
                    // schedule-invariant ring outcome.
                    d.mix(area.sq(s).publishedTotal());
                    d.mix(area.sq(s).consumedTotal());
                }
            }
        };
        return checkedRun(sys, driver, "run", "wakeup", spawn, digest);
    };
}

sim::gmc::ExploreResult
exploreConfig(const McConfig &mc, const sim::gmc::ExploreOptions &opts)
{
    return sim::gmc::explore(scenario(mc), opts);
}

namespace
{

/** Cross-actor state for both echo scenarios. Buffers live here
 *  because slot payload reads/writes may outlive a wave's frame. */
struct EchoShared
{
    osk::SockAddr addr{1, 9200};
    osk::EpollEvent listenEv{};
    osk::EpollEvent connEv{};
    osk::EpollEvent evs[4]{};
    std::uint8_t srvBuf[16]{};
    osk::IoVec rxIov[1]{};
    /// The 4-byte echoes land side by side.
    std::uint8_t cliBuf[8]{};
    /// rc codes and byte counts from both sides (fds normalized):
    /// epoll_create, epoll_ctl, epoll_wait, accept, connect, then a
    /// (write, echoed) pair per round, then the client's EOF read.
    std::int64_t results[10] = {kUnset, kUnset, kUnset, kUnset,
                                kUnset, kUnset, kUnset, kUnset,
                                kUnset, kUnset};
    std::uint64_t echoed = 0;
};

/** Bind and listen (host syscalls, FIFO order) into @p fd_out. */
sim::Task<>
listenTask(System &sys, const std::shared_ptr<EchoShared> es,
           std::int64_t &fd_out)
{
    fd_out = co_await sys.kernel().doSyscall(
        sys.process(), osk::sysno::socket, osk::makeArgs(2, 1, 0));
    co_await sys.kernel().doSyscall(sys.process(), osk::sysno::bind,
                                    osk::makeArgs(fd_out, &es->addr, 8));
    co_await sys.kernel().doSyscall(sys.process(), osk::sysno::listen,
                                    osk::makeArgs(fd_out, 4));
}

/**
 * GPU side: an epoll-driven accept + echo loop on one work-group.
 * Level-triggered (@p edge false), each wake reads one 4-byte message
 * — the GPU libc layer completes short transfers by reissuing the
 * read, so a larger count would block until the client sent more.
 * Edge-triggered, the connection is registered EPOLLIN|EPOLLET and
 * served with the strict-ET discipline: one epoll_wait per
 * transition, each wake drained to -EAGAIN with recvmsg(MSG_DONTWAIT)
 * before sleeping again (a byte left queued would keep the level high
 * and suppress every later edge).
 */
sim::Task<>
runEchoServerWave(System &sys, const McConfig mc, const bool edge,
                  const std::shared_ptr<EchoShared> es, int listen_fd,
                  gpu::WavefrontCtx &ctx)
{
    GpuSyscalls &api = sys.gpuSys();
    Invocation inv;
    inv.granularity = Granularity::WorkGroup;
    inv.ordering = mc.ordering;
    inv.blocking = Blocking::Blocking;
    inv.waitMode = mc.wait;

    const std::int64_t epfd = co_await api.epollCreate(ctx, inv);
    es->results[0] = normalizeFd(epfd);
    es->listenEv = osk::EpollEvent{
        osk::EPOLLIN_, static_cast<std::uint64_t>(listen_fd)};
    es->results[1] = co_await api.epollCtl(
        ctx, inv, static_cast<int>(epfd), osk::EPOLL_CTL_ADD_,
        listen_fd, &es->listenEv);
    es->results[2] = co_await api.epollWait(
        ctx, inv, static_cast<int>(epfd), es->evs, 4, -1);
    const std::int64_t cfd =
        co_await api.accept(ctx, inv, listen_fd, nullptr);
    es->results[3] = normalizeFd(cfd);
    co_await api.epollCtl(ctx, inv, static_cast<int>(epfd),
                          osk::EPOLL_CTL_DEL_, listen_fd, nullptr);
    es->connEv = osk::EpollEvent{
        edge ? osk::EPOLLIN_ | osk::EPOLLET_ : osk::EPOLLIN_,
        static_cast<std::uint64_t>(cfd)};
    co_await api.epollCtl(ctx, inv, static_cast<int>(epfd),
                          osk::EPOLL_CTL_ADD_, static_cast<int>(cfd),
                          &es->connEv);
    bool open = true;
    while (open) {
        const std::int64_t n = co_await api.epollWait(
            ctx, inv, static_cast<int>(epfd), es->evs, 4, -1);
        if (n <= 0)
            break;
        do {
            std::int64_t rn;
            if (edge) {
                es->rxIov[0] = osk::IoVec{
                    osk::SyscallArgs::fromPtr(&es->srvBuf[0]),
                    sizeof(es->srvBuf)};
                rn = co_await api.recvmsg(ctx, inv, static_cast<int>(cfd),
                                          es->rxIov, 1,
                                          osk::MSG_DONTWAIT_);
                if (rn == -EAGAIN)
                    break; // drained: safe to sleep on the next edge
            } else {
                rn = co_await api.read(ctx, inv, static_cast<int>(cfd),
                                       es->srvBuf, 4);
            }
            if (rn <= 0) {
                open = false; // EOF: the client half-closed
                break;
            }
            es->echoed += static_cast<std::uint64_t>(rn);
            co_await api.write(ctx, inv, static_cast<int>(cfd),
                               es->srvBuf, static_cast<std::uint64_t>(rn));
        } while (edge);
    }
    co_await api.close(ctx, inv, static_cast<int>(cfd));
    co_await api.close(ctx, inv, static_cast<int>(epfd));
    co_await api.close(ctx, inv, listen_fd);
}

/**
 * Host side: @p rounds ping/echo rounds, then half-close and read the
 * server's FIN. Waiting for each echo before the next ping lets the
 * server drain the chain to empty in between, so under ET each ping
 * is a genuine readiness edge (strict ET records nothing while data
 * is still queued) and the FIN one more.
 */
sim::Task<>
runEchoClient(System &sys, const std::shared_ptr<EchoShared> es,
              const int rounds)
{
    auto &tcp = sys.kernel().tcp();
    osk::TcpSocket *c = tcp.createSocket();
    const int cid = c->id();
    es->results[4] = co_await c->connect(es->addr);
    if (es->results[4] != 0) {
        tcp.closeSocket(cid);
        co_return;
    }
    static const char *const kPings[2] = {"ping", "pong"};
    for (int round = 0; round < rounds; ++round) {
        es->results[5 + round * 2] =
            co_await c->write(kPings[round], 4);
        std::uint64_t got = 0;
        while (got < 4) {
            const std::int64_t rn = co_await c->read(
                es->cliBuf + 4 * round + got, 4 - got);
            if (rn <= 0)
                break;
            got += static_cast<std::uint64_t>(rn);
        }
        es->results[6 + round * 2] = static_cast<std::int64_t>(got);
    }
    co_await c->shutdown(osk::SHUT_WR_);
    std::uint8_t tail = 0;
    es->results[5 + rounds * 2] = co_await c->read(&tail, 1); // FIN: EOF
    tcp.closeSocket(cid);
}

/** The echo scenario behind netScenario (LT, one round) and
 *  etNetScenario (ET, two rounds). */
sim::gmc::RunFn
echoScenario(const McConfig &mc, const bool edge)
{
    return [mc, edge](sim::gmc::ScheduleDriver &driver)
               -> sim::gmc::RunOutcome {
        System sys(collapsedConfig(mc));
        auto es = std::make_shared<EchoShared>();
        sys.gsan().setEnabled(true);
        sys.kernel().epoll().setTestLostEdge(mc.lostEdge);

        // The listener is set up to completion under FIFO order before
        // the tie-breaker is installed, so every schedule starts from
        // the same bound socket (and the client never races listen()).
        std::int64_t listen_fd = -1;
        sys.sim().spawn(listenTask(sys, es, listen_fd));
        sys.run();

        const int rounds = edge ? 2 : 1;
        auto spawn = [&] {
            const std::uint32_t waveSize = sys.config().gpu.wavefrontSize;
            gpu::KernelLaunch launch;
            launch.workItems = waveSize;
            launch.wgSize = waveSize;
            const int lfd = static_cast<int>(listen_fd);
            launch.program = [&sys, mc, edge, es,
                              lfd](gpu::WavefrontCtx &ctx) -> sim::Task<> {
                return runEchoServerWave(sys, mc, edge, es, lfd, ctx);
            };
            sys.launchGpuAndDrain(std::move(launch));
            sys.sim().spawn(runEchoClient(sys, es, rounds));
        };
        // Connect-retry counters (segs sent, refused) and edge counts
        // (a ping split across wire deliveries yields an extra
        // drained-then-risen transition) are schedule-dependent; the
        // digest keeps the schedule-invariant outcome: every rc, the
        // echoes, and the rendezvous counts.
        auto digest = [&](Fnv1a &d) {
            for (int i = 0; i < 6 + 2 * rounds; ++i)
                d.mix(static_cast<std::uint64_t>(es->results[i]));
            for (int i = 0; i < 4 * rounds; ++i)
                d.mix(es->cliBuf[i]);
            d.mix(es->echoed);
            d.mix(sys.kernel().tcp().counters().connects);
            d.mix(sys.kernel().tcp().counters().accepts);
        };
        return checkedRun(sys, driver, edge ? "ET net run" : "net run",
                          edge ? "readiness edge" : "epoll wakeup", spawn,
                          digest);
    };
}

} // namespace

sim::gmc::RunFn
netScenario(const McConfig &mc)
{
    return echoScenario(mc, false);
}

sim::gmc::RunFn
etNetScenario(const McConfig &mc)
{
    return echoScenario(mc, true);
}

} // namespace genesys::core::gmc
