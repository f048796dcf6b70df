/**
 * @file
 * genesys_perf: the repository benchmark's measuring harness.
 *
 *   genesys_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *                [--spans <path>]
 *
 * Runs one workload (gkv_serve, wordcount_ssd, pread_daemon,
 * gmc_explore) in this process on this thread. Every iteration builds
 * a fresh System from the seed, so iterations of one run are
 * identical simulations: their simulated facts must match bit for
 * bit (the determinism self-check), and their host times are samples
 * whose median is reported. With --trace 1 a traced iteration follows
 * the untraced ones; it must reproduce the same simulated facts
 * (tracing neutrality) and yields the per-layer metrics.
 *
 * The last line of stdout is one JSON object; perfbench/run.py turns
 * it into the benchmark's result line. Exit status is 0 only when
 * every correctness gate and the determinism check pass.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/backend/polling_backend.hh"
#include "core/gmc.hh"
#include "core/system.hh"
#include "osk/syscalls.hh"
#include "osk/vfs.hh"
#include "support/gmc_probe.hh"
#include "support/trace.hh"
#include "workloads/gkv.hh"
#include "workloads/wordcount.hh"

using namespace genesys;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------- spans

/** Host-time spans the harness records around its calls into each
 *  layer; written as Chrome trace-event JSON at the end of a traced
 *  run. */
class Spans
{
  public:
    int
    begin(const std::string &name)
    {
        spans_.push_back({name, nowUs(), -1.0, open_});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    end(int id)
    {
        spans_[id].endUs = nowUs();
        open_ = spans_[id].parent;
    }

    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"parent\":%d}}\n",
                         i == 0 ? "" : ",", s.name.c_str(), s.startUs,
                         s.endUs - s.startUs, s.parent);
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        std::string name;
        double startUs;
        double endUs;
        int parent;
    };

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    int open_ = -1;
};

Spans g_spans;

/** A span that also hands its duration back to the caller. */
class Timed
{
  public:
    Timed(const char *name, double &seconds)
        : seconds_(seconds), id_(g_spans.begin(name)), t0_(Clock::now())
    {}
    ~Timed()
    {
        seconds_ = secondsSince(t0_);
        g_spans.end(id_);
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    double &seconds_;
    int id_;
    Clock::time_point t0_;
};

// --------------------------------------------------------- statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of sorted @p v. */
double
rankPercentile(const std::vector<double> &v, double pct)
{
    if (v.empty())
        return 0.0;
    const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

/**
 * The highest percentile (capped at 99) that still leaves at least ten
 * samples above it; 0 when there are too few samples for any tail.
 */
double
tailPct(std::size_t n)
{
    if (n < 20)
        return 0.0;
    const double p = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
    return std::min(99.0, std::floor(p * 100.0) / 100.0);
}

std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

// ------------------------------------------------------------ results

/** Ordered name -> value; compared bit for bit across iterations. */
using Facts = std::map<std::string, double>;

struct Iteration
{
    double systemS = 0.0; ///< System construction
    double inputsS = 0.0; ///< workload inputs (files, corpus, fds)
    double wallS = 0.0;   ///< the timed phase
    std::uint64_t events = 0;
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
    Facts sim;    ///< simulated end-to-end metrics (printed, exact)
    Facts layer;  ///< simulated per-layer counters (exact)
    Facts stages; ///< traced iterations only: stage percentiles
};

void
gate(Iteration &it, bool ok, const std::string &what)
{
    if (!ok)
        it.failures.push_back(what);
}

// ------------------------------------------------------ stage tracer

/**
 * Stage timestamps of every syscall, taken from outside the program:
 *  - the gmc footprint probe names the slots each event touched, and
 *    the slot's public state after the event gives the transition
 *    (Ready = published, Processing = taken by the host, Finished /
 *    Free = completed);
 *  - GENESYS_TRACE "genesys" records, caught through trace::setSink,
 *    give each wave's doorbell times.
 * Installed as an always-FIFO tie-break policy, so the event order is
 * the default one; the determinism check compares it against the
 * untraced iterations.
 */
class StageTracer : public sim::TieBreakPolicy
{
  public:
    explicit StageTracer(core::System &sys)
        : sys_(sys), slots_(sys.syscallArea().slotCount()),
          doorbells_(sys.syscallArea().slotCount() /
                         sys.syscallArea().wavefrontSize() +
                     1)
    {
        gmc::Probe::instance().setEnabled(true);
        trace::enable("genesys");
        trace::setSink([this](Tick when, const std::string &category,
                              const std::string &message) {
            onRecord(when, category, message);
        });
        sys_.sim().events().setTieBreaker(this);
    }

    ~StageTracer() override
    {
        sys_.sim().events().setTieBreaker(nullptr);
        trace::setSink(nullptr);
        trace::reset();
        gmc::Probe::instance().setEnabled(false);
    }

    StageTracer(const StageTracer &) = delete;
    StageTracer &operator=(const StageTracer &) = delete;

    std::size_t
    pick(Tick, const std::vector<sim::TieBreakCandidate> &) override
    {
        return 0;
    }

    void
    onExecute(sim::EventId, Tick when) override
    {
        for (gmc::ProbeKey key : gmc::Probe::instance().drain()) {
            if ((key >> 56) ==
                static_cast<std::uint64_t>(gmc::ProbeKind::Slot))
                observe(static_cast<std::uint32_t>(key &
                                                   0xFFFF'FFFFull),
                        when);
        }
    }

    /** The benchmark's own kernel saw @p slot's result at @p now. */
    void
    onResume(std::uint32_t slot, Tick now)
    {
        const SlotRec &r = slots_[slot];
        if (r.hasFinished)
            completeToResume_.push_back(ticks::toUs(now - r.finished));
    }

    Facts
    facts() const
    {
        Facts f;
        add(f, "core.stage.publish_to_doorbell", publishToDoorbell_);
        add(f, "core.stage.doorbell_to_service", doorbellToService_);
        add(f, "core.stage.service", service_);
        add(f, "core.stage.complete_to_resume", completeToResume_);
        return f;
    }

  private:
    struct SlotRec
    {
        std::uint64_t seen = 0;
        core::SlotState state = core::SlotState::Free;
        std::uint32_t wave = 0;
        Tick published = 0;
        Tick started = 0;
        Tick finished = 0;
        bool hasPublish = false;
        bool hasStart = false;
        bool hasFinished = false;
    };

    static void
    add(Facts &f, const std::string &stage, std::vector<double> v)
    {
        std::sort(v.begin(), v.end());
        const double tail = tailPct(v.size());
        f[stage + ".n"] = static_cast<double>(v.size());
        f[stage + ".p50_us"] = rankPercentile(v, 50.0);
        f[stage + ".tail_pct"] = tail;
        f[stage + ".tail_us"] = tail > 0 ? rankPercentile(v, tail) : 0.0;
    }

    void
    onRecord(Tick when, const std::string &category,
             const std::string &message)
    {
        if (category != "genesys")
            return;
        unsigned wave = 0;
        if (std::sscanf(message.c_str(), "s_sendmsg interrupt from hw wave %u",
                        &wave) == 1 ||
            std::sscanf(message.c_str(), "ring doorbell from hw wave %u",
                        &wave) == 1) {
            if (wave < doorbells_.size())
                doorbells_[wave].push_back(when);
        }
    }

    void
    observe(std::uint32_t idx, Tick now)
    {
        if (idx >= slots_.size())
            return;
        const core::SyscallSlot &slot = sys_.syscallArea().slot(idx);
        SlotRec &r = slots_[idx];
        if (slot.transitions() == r.seen)
            return;
        r.seen = slot.transitions();
        const core::SlotState prev = r.state;
        r.state = slot.state();
        switch (r.state) {
          case core::SlotState::Populating:
            r.hasPublish = r.hasStart = r.hasFinished = false;
            break;
          case core::SlotState::Ready:
            r.published = now;
            r.wave = slot.hwWaveSlot();
            r.hasPublish = true;
            r.hasStart = r.hasFinished = false;
            break;
          case core::SlotState::Processing: {
            if (r.hasPublish) {
                Tick visible = r.published;
                const auto &d = doorbells_[std::min<std::size_t>(
                    r.wave, doorbells_.size() - 1)];
                const auto it =
                    std::lower_bound(d.begin(), d.end(), r.published);
                if (it != d.end() && *it <= now) {
                    publishToDoorbell_.push_back(
                        ticks::toUs(*it - r.published));
                    visible = *it;
                }
                doorbellToService_.push_back(ticks::toUs(now - visible));
            }
            r.started = now;
            r.hasStart = true;
            break;
          }
          case core::SlotState::Finished:
            if (r.hasStart)
                service_.push_back(ticks::toUs(now - r.started));
            r.finished = now;
            r.hasFinished = true;
            r.hasStart = false;
            break;
          case core::SlotState::Free:
            if (prev == core::SlotState::Processing && r.hasStart)
                service_.push_back(ticks::toUs(now - r.started));
            r.hasStart = r.hasPublish = false;
            break;
        }
    }

    core::System &sys_;
    std::vector<SlotRec> slots_;
    std::vector<std::vector<Tick>> doorbells_;
    std::vector<double> publishToDoorbell_;
    std::vector<double> doorbellToService_;
    std::vector<double> service_;
    std::vector<double> completeToResume_;
};

// ----------------------------------------------------- layer counters

/** Per-layer counters read through the components' public getters. */
Facts
layerCounters(core::System &sys, std::uint64_t daemon_sweeps)
{
    Facts f;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    core::GenesysHost &host = sys.host();
    core::SyscallArea &area = sys.syscallArea();
    osk::Kernel &k = sys.kernel();

    f["sim.events"] = d(sys.sim().events().executedEvents());
    f["gpu.wavefronts"] = d(sys.gpu().launchedWavefronts());
    f["mem.l2_hits"] = d(sys.gpu().l2().hits());
    f["mem.l2_misses"] = d(sys.gpu().l2().misses());
    f["mem.bus_bytes_gpu"] = d(sys.memBus().bytesMoved("gpu"));
    f["mem.bus_bytes_cpu"] = d(sys.memBus().bytesMoved("cpu"));

    std::uint64_t transitions = 0;
    for (std::uint32_t i = 0; i < area.slotCount(); ++i)
        transitions += area.slot(i).transitions();
    f["core.slot_transitions"] = d(transitions);
    f["core.interrupts"] = d(host.interrupts());
    f["core.batches"] = d(host.batches());
    f["core.batch_size_mean"] =
        host.batchSizes().count() == 0 ? 0.0 : host.batchSizes().mean();
    f["core.host_restarts"] = d(host.hostRestarts());
    f["core.ring_entries_per_batch"] =
        area.ringBatchesTotal() == 0
            ? 0.0
            : d(area.ringEntriesTotal()) / d(area.ringBatchesTotal());
    f["core.ring_doorbells_suppressed"] = d(host.ringDoorbellsSuppressed());
    f["core.ring_cq_posted"] = d(host.ringCqPosted());
    f["core.daemon_sweeps"] = d(daemon_sweeps);
    // A sweep visits every slot of its shard.
    const double swept = d(daemon_sweeps) * d(area.shardSlotCount());
    f["core.daemon_useful_ratio"] =
        swept == 0 ? 0.0 : d(host.processedSyscalls()) / swept;

    f["osk.ssd_bytes"] = d(k.ssd().bytesRead());
    f["osk.ssd_requests"] = d(k.ssd().requests());
    f["osk.ssd_delayed"] = d(k.ssd().delayedRequests());
    f["osk.tcp_zerocopy_bytes"] = d(k.tcp().counters().zerocopyBytes);
    f["osk.tcp_copied_bytes"] = d(k.tcp().counters().copiedBytes);
    f["osk.epoll_wakeups"] = d(k.epoll().wakeups());
    f["osk.epoll_edges_delivered"] = d(k.epoll().edgesDelivered());
    f["osk.wq_tasks"] = d(k.workqueue().executedTasks());
    f["osk.wq_steals"] = d(k.workqueue().steals());
    f["osk.wq_spills"] = d(k.workqueue().spills());
    return f;
}

std::unique_ptr<core::System>
buildSystem(const core::SystemConfig &sc, double &seconds)
{
    Timed t("setup.system", seconds);
    auto sys = std::make_unique<core::System>(sc);
    sys->gsan().setEnabled(false); // production setting
    return sys;
}

/** A workload's call mix run through Kernel::doSyscall without the
 *  GPU: simulated and host time per operation. */
struct Replay
{
    double simUs = 0.0;
    double hostUs = 0.0;
};

// ---------------------------------------------------------- gkv_serve

constexpr std::uint32_t kGkvConns = 16;
constexpr std::uint32_t kGkvRequestsPerConn = 4096;

core::SystemConfig
gkvSystemConfig(std::uint64_t seed)
{
    core::SystemConfig sc;
    sc.seed = seed;
    sc.genesys.areaShards = 8;
    sc.genesys.useRings = true;
    sc.kernel.workqueueWorkers = 4;
    return sc;
}

workloads::GkvConfig
gkvConfig(bool gpu)
{
    workloads::GkvConfig cfg;
    cfg.useGpu = gpu;
    cfg.numConnections = kGkvConns;
    cfg.requestsPerConn = kGkvRequestsPerConn;
    cfg.serverGroups = 8;
    cfg.pipelineDepth = 4;
    cfg.setFraction = 0.25;
    return cfg;
}

Iteration
runGkvServe(std::uint64_t seed, bool traced)
{
    Iteration it;
    auto sys = buildSystem(gkvSystemConfig(seed), it.systemS);
    std::optional<StageTracer> tracer;
    if (traced)
        tracer.emplace(*sys);
    const workloads::GkvConfig cfg = gkvConfig(true);
    workloads::GkvResult res;
    {
        Timed t("workloads.runGkv", it.wallS);
        res = workloads::runGkv(*sys, cfg);
    }
    const std::uint64_t requests = res.gets + res.sets;
    const std::uint64_t want = std::uint64_t(kGkvConns) * kGkvRequestsPerConn;
    it.attempted = want;
    it.events = sys->sim().events().executedEvents();
    gate(it, res.correct, "gkv: a reply failed verification");
    gate(it, res.accepted == kGkvConns, "gkv: not every connection served");
    gate(it, requests == want, "gkv: request count mismatch");
    gate(it, sys->kernel().tcp().counters().copiedBytes == 0,
         "gkv: osk.tcp_copied_bytes != 0");

    const double frame = workloads::kGkvHeaderBytes + cfg.valueBytes;
    it.sim["sim_kops"] = res.throughputKops;
    it.sim["sim_mb_per_s"] =
        2.0 * frame * static_cast<double>(requests) /
        ticks::toSec(res.elapsed) / 1e6;
    it.sim["sim_p50_us"] = res.p50LatencyUs;
    it.sim["sim_p99_us"] = res.p99LatencyUs;
    it.sim["sim_latency_n"] = static_cast<double>(requests);
    it.layer = layerCounters(*sys, 0);
    if (tracer)
        it.stages = tracer->facts();
    return it;
}

/** The same serving mix on CPU threads: every call goes straight
 *  through Kernel::doSyscall, no GPU and no syscall slots. */
Replay
gkvDirect(std::uint64_t seed)
{
    double sys_s = 0.0, wall = 0.0;
    auto sys = buildSystem(gkvSystemConfig(seed), sys_s);
    workloads::GkvResult res;
    {
        Timed t("osk.direct_replay", wall);
        res = workloads::runGkv(*sys, gkvConfig(false));
    }
    const double n = static_cast<double>(res.gets + res.sets);
    return {res.p50LatencyUs, n == 0 ? 0.0 : wall * 1e6 / n};
}

// ------------------------------------------------------ wordcount_ssd

struct WordcountRun
{
    std::unique_ptr<core::System> sys;
    workloads::WordcountCorpus corpus;
};

Iteration
runWordcountSsd(std::uint64_t seed, bool traced, WordcountRun *keep)
{
    Iteration it;
    core::SystemConfig sc;
    sc.seed = seed;
    auto sys = buildSystem(sc, it.systemS);
    workloads::WordcountCorpus corpus;
    {
        Timed t("setup.inputs", it.inputsS);
        workloads::WordcountCorpusConfig cc;
        cc.numFiles = 64;
        cc.fileBytes = 256 * 1024;
        cc.numWords = 64;
        corpus = workloads::buildWordcountCorpus(*sys, cc);
    }
    std::optional<StageTracer> tracer;
    if (traced)
        tracer.emplace(*sys);
    workloads::WordcountResult res;
    {
        Timed t("workloads.runWordcount", it.wallS);
        res = workloads::runWordcount(*sys, corpus,
                                      workloads::WordcountMode::Genesys);
    }
    it.attempted = sys->host().processedSyscalls();
    it.events = sys->sim().events().executedEvents();
    gate(it, res.correct && res.counts == corpus.expected,
         "wordcount: totals differ from expected");
    gate(it, it.attempted > 0, "wordcount: no syscalls serviced");
    it.sim["sim_ms"] = ticks::toMs(res.elapsed);
    it.sim["sim_mb_per_s"] = res.ssdThroughputMBps;
    it.layer = layerCounters(*sys, 0);
    if (tracer) {
        it.stages = tracer->facts();
        tracer.reset();
    }
    if (keep != nullptr) {
        keep->sys = std::move(sys);
        keep->corpus = std::move(corpus);
    }
    return it;
}

/** wordcount's open / 32 KiB read / close mix, straight through
 *  Kernel::doSyscall on the corpus the GPU run just counted. */
Replay
wordcountDirect(WordcountRun &run)
{
    core::System &sys = *run.sys;
    std::uint64_t calls = 0;
    double wall = 0.0;
    const Tick t0 = sys.sim().now();
    {
        Timed t("osk.direct_replay", wall);
        sys.sim().spawn([](core::System &s,
                           const workloads::WordcountCorpus &c,
                           std::uint64_t &n) -> sim::Task<> {
            std::vector<std::uint8_t> buf(32 * 1024);
            for (const std::string &path : c.files) {
                const std::int64_t fd = co_await s.kernel().doSyscall(
                    s.process(), osk::sysno::open,
                    osk::makeArgs(path.c_str(), osk::O_RDONLY));
                ++n;
                for (;;) {
                    const std::int64_t got = co_await s.kernel().doSyscall(
                        s.process(), osk::sysno::read,
                        osk::makeArgs(static_cast<int>(fd), buf.data(),
                                      buf.size()));
                    ++n;
                    if (got <= 0 ||
                        static_cast<std::size_t>(got) < buf.size())
                        break;
                }
                co_await s.kernel().doSyscall(
                    s.process(), osk::sysno::close,
                    osk::makeArgs(static_cast<int>(fd)));
                ++n;
            }
        }(sys, run.corpus, calls));
        sys.run();
    }
    const double n = static_cast<double>(std::max<std::uint64_t>(calls, 1));
    return {ticks::toUs(sys.sim().now() - t0) / n, wall * 1e6 / n};
}

/** countOccurrences over the whole corpus, called directly: the part
 *  of wordcount's host time that no simulator change can move. */
double
wordcountCountHost(WordcountRun &run)
{
    std::vector<std::string> texts;
    for (const std::string &path : run.corpus.files) {
        const auto *file = dynamic_cast<const osk::RegularFile *>(
            run.sys->kernel().vfs().resolve(path));
        std::string text(file != nullptr ? file->size() : 0, '\0');
        if (file != nullptr)
            file->readAt(0, text.data(), text.size());
        texts.push_back(std::move(text));
    }
    double seconds = 0.0;
    std::uint64_t total = 0;
    {
        Timed t("workloads.countOccurrences", seconds);
        for (const std::string &text : texts)
            for (const std::string &word : run.corpus.words)
                total += workloads::countOccurrences(text, word);
    }
    std::uint64_t want = 0;
    for (std::uint64_t e : run.corpus.expected)
        want += e;
    if (total != want)
        std::fprintf(stderr, "countOccurrences replay disagrees\n");
    return seconds;
}

// ------------------------------------------------------- pread_daemon

constexpr const char *kPreadPath = "/tmp/perf.dat";
constexpr std::uint32_t kPreadLaunches = 16;
constexpr std::uint32_t kPreadItems = 256; // 4 waves x 64 lanes
constexpr std::uint32_t kPreadBytes = 1024;
constexpr std::uint64_t kPreadRegion = 512 * 1024; // read-only region
constexpr std::uint32_t kPreadCalls = kPreadLaunches * kPreadItems;

struct PreadInputs
{
    std::vector<std::uint8_t> content;   ///< read region
    std::vector<std::uint64_t> offsets;  ///< per call (read calls)
    std::vector<std::uint8_t> writeData; ///< per call kPreadBytes
};

PreadInputs
preadInputs(std::uint64_t seed)
{
    PreadInputs in;
    std::uint64_t s = seed * 0x2545F4914F6CDD1Dull + 7;
    in.content.resize(kPreadRegion);
    for (auto &b : in.content)
        b = static_cast<std::uint8_t>(splitmix(s));
    in.offsets.resize(kPreadCalls);
    for (auto &o : in.offsets)
        o = splitmix(s) % (kPreadRegion - kPreadBytes + 1);
    in.writeData.resize(std::size_t(kPreadCalls) * kPreadBytes);
    for (auto &b : in.writeData)
        b = static_cast<std::uint8_t>(splitmix(s));
    return in;
}

/** Calls 3 of every 4 lanes pread, the 4th pwrites its own block. */
bool
isPwrite(std::uint32_t lane)
{
    return lane % 4 == 3;
}

Iteration
runPreadDaemon(std::uint64_t seed, bool traced, Replay *direct)
{
    Iteration it;
    core::SystemConfig sc;
    sc.seed = seed;
    auto sys = buildSystem(sc, it.systemS);
    PreadInputs in;
    std::int64_t fd = -1;
    {
        Timed t("setup.inputs", it.inputsS);
        in = preadInputs(seed);
        sys->kernel().vfs().createFile(kPreadPath)->setData(
            std::string_view(reinterpret_cast<const char *>(
                                 in.content.data()),
                             in.content.size()));
        sys->sim().spawn([](core::System &s, std::int64_t &out)
                             -> sim::Task<> {
            out = co_await s.kernel().doSyscall(
                s.process(), osk::sysno::open,
                osk::makeArgs(kPreadPath, osk::O_RDWR));
        }(*sys, fd));
        sys->run();
        sys->host().startPollingDaemon(ticks::us(50));
    }
    auto *daemon = dynamic_cast<core::PollingDaemonBackend *>(
        &sys->host().activeBackend());
    std::optional<StageTracer> tracer;
    if (traced)
        tracer.emplace(*sys);

    std::vector<double> lat;
    lat.reserve(kPreadCalls);
    std::uint64_t bad = 0;
    std::uint64_t done = 0;
    std::vector<std::uint8_t> bufs(std::size_t(kPreadCalls) * kPreadBytes);
    StageTracer *tr = tracer ? &*tracer : nullptr;
    Tick start = 0, end = 0;
    {
        Timed t("sim.run", it.wallS);
        start = sys->sim().now();
        sys->sim().spawn([](core::System &s, const PreadInputs &inp,
                            int file, std::vector<std::uint8_t> &buf,
                            std::vector<double> &out, std::uint64_t &errs,
                            std::uint64_t &n, StageTracer *trc)
                             -> sim::Task<> {
            for (std::uint32_t l = 0; l < kPreadLaunches; ++l) {
                gpu::KernelLaunch k;
                k.workItems = kPreadItems;
                k.wgSize = kPreadItems;
                k.program = [&s, &inp, file, &buf, &out, &errs, &n, trc,
                             l](gpu::WavefrontCtx &ctx) -> sim::Task<> {
                    core::Invocation wi;
                    wi.granularity = core::Granularity::WorkItem;
                    wi.ordering = core::Ordering::Strong;
                    const std::uint32_t wave = ctx.waveInGroup();
                    const auto callOf = [l, wave](std::uint32_t lane) {
                        return l * kPreadItems + wave * 64 + lane;
                    };
                    const std::uint32_t first =
                        s.syscallArea().firstItemSlotOfWave(
                            ctx.hwWaveSlot());
                    for (const bool writes : {false, true}) {
                        wi.role = writes ? core::Role::Consumer
                                         : core::Role::Producer;
                        const Tick issued = ctx.sim().now();
                        co_await s.gpuSys().invokeWorkItems(
                            ctx, wi,
                            writes ? osk::sysno::pwrite64
                                   : osk::sysno::pread64,
                            [&](std::uint32_t lane)
                                -> std::optional<osk::SyscallArgs> {
                                if (isPwrite(lane) != writes)
                                    return std::nullopt;
                                const std::uint32_t c = callOf(lane);
                                std::uint8_t *b =
                                    buf.data() + std::size_t(c) * kPreadBytes;
                                if (writes) {
                                    return osk::makeArgs(
                                        file,
                                        inp.writeData.data() +
                                            std::size_t(c) * kPreadBytes,
                                        kPreadBytes,
                                        kPreadRegion +
                                            std::uint64_t(c) * kPreadBytes);
                                }
                                return osk::makeArgs(file, b, kPreadBytes,
                                                     inp.offsets[c]);
                            },
                            [&](std::uint32_t lane, std::int64_t ret) {
                                const Tick now = ctx.sim().now();
                                out.push_back(ticks::toUs(now - issued));
                                if (trc != nullptr)
                                    trc->onResume(first + lane, now);
                                ++n;
                                const std::uint32_t c = callOf(lane);
                                if (ret != kPreadBytes) {
                                    ++errs;
                                    return;
                                }
                                if (!writes &&
                                    std::memcmp(
                                        buf.data() +
                                            std::size_t(c) * kPreadBytes,
                                        inp.content.data() + inp.offsets[c],
                                        kPreadBytes) != 0)
                                    ++errs;
                            });
                    }
                };
                co_await s.gpu().launch(std::move(k));
            }
            s.host().stopDaemon();
            co_await s.host().drain();
        }(*sys, in, static_cast<int>(fd), bufs, lat, bad, done, tr));
        sys->run();
        end = sys->sim().now();
    }
    const std::uint64_t sweeps = daemon != nullptr ? daemon->sweeps() : 0;
    it.events = sys->sim().events().executedEvents();
    it.attempted = kPreadCalls;

    // The pwrites read back through the kernel.
    std::vector<std::uint8_t> back(std::size_t(kPreadCalls) * kPreadBytes);
    std::int64_t got = -1;
    sys->sim().spawn([](core::System &s, int file,
                        std::vector<std::uint8_t> &out,
                        std::int64_t &n) -> sim::Task<> {
        n = co_await s.kernel().doSyscall(
            s.process(), osk::sysno::pread64,
            osk::makeArgs(file, out.data(), out.size(), kPreadRegion));
    }(*sys, static_cast<int>(fd), back, got));
    sys->run();
    std::uint64_t bad_writes = 0;
    for (std::uint32_t c = 0; c < kPreadCalls; ++c) {
        if (isPwrite(c % 64) &&
            std::memcmp(back.data() + std::size_t(c) * kPreadBytes,
                        in.writeData.data() + std::size_t(c) * kPreadBytes,
                        kPreadBytes) != 0)
            ++bad_writes;
    }
    gate(it, done == kPreadCalls, "pread_daemon: not every lane resumed");
    gate(it, bad == 0, "pread_daemon: a lane's bytes differ from the file");
    gate(it, got == static_cast<std::int64_t>(back.size()) &&
                 bad_writes == 0,
         "pread_daemon: a pwrite did not read back");

    std::sort(lat.begin(), lat.end());
    const double secs = ticks::toSec(end - start);
    it.sim["sim_kops"] = static_cast<double>(kPreadCalls) / secs / 1e3;
    it.sim["sim_mb_per_s"] =
        static_cast<double>(kPreadCalls) * kPreadBytes / secs / 1e6;
    it.sim["sim_p50_us"] = rankPercentile(lat, 50.0);
    it.sim["sim_p99_us"] = rankPercentile(lat, 99.0);
    it.sim["sim_latency_n"] = static_cast<double>(lat.size());
    it.layer = layerCounters(*sys, sweeps);
    if (tracer)
        it.stages = tracer->facts();
    tracer.reset();

    if (direct != nullptr) {
        // The same call mix, one call at a time, without the GPU.
        double wall = 0.0;
        const Tick t0 = sys->sim().now();
        {
            Timed t("osk.direct_replay", wall);
            sys->sim().spawn([](core::System &s, const PreadInputs &inp,
                                int file, std::vector<std::uint8_t> &buf)
                                 -> sim::Task<> {
                for (std::uint32_t c = 0; c < kPreadCalls; ++c) {
                    std::uint8_t *b =
                        buf.data() + std::size_t(c) * kPreadBytes;
                    if (isPwrite(c % 64)) {
                        co_await s.kernel().doSyscall(
                            s.process(), osk::sysno::pwrite64,
                            osk::makeArgs(
                                file,
                                inp.writeData.data() +
                                    std::size_t(c) * kPreadBytes,
                                kPreadBytes,
                                kPreadRegion +
                                    std::uint64_t(c) * kPreadBytes));
                    } else {
                        co_await s.kernel().doSyscall(
                            s.process(), osk::sysno::pread64,
                            osk::makeArgs(file, b, kPreadBytes,
                                          inp.offsets[c]));
                    }
                }
            }(*sys, in, static_cast<int>(fd), bufs));
            sys->run();
        }
        direct->simUs = ticks::toUs(sys->sim().now() - t0) / kPreadCalls;
        direct->hostUs = wall * 1e6 / kPreadCalls;
    }
    return it;
}

// -------------------------------------------------------- gmc_explore

constexpr const char *kGmcConfig = "wi-strong-block-poll-1x1g1";
/// Exhaustive schedule count and FIFO-reference digest of kGmcConfig
/// on the tree this benchmark was defined on. A change to either is a
/// change to the checked protocol, not noise.
constexpr std::uint64_t kGmcSchedules = 4851;
constexpr std::uint64_t kGmcReferenceDigest = 5559661741539621184ull;

Iteration
runGmcExplore()
{
    Iteration it;
    std::vector<core::gmc::McConfig> matrix;
    const core::gmc::McConfig *mc = nullptr;
    {
        // The explorer builds a fresh System per schedule inside the
        // timed phase; set-up is the matrix plus one collapsed System.
        Timed t("setup.system", it.systemS);
        matrix = core::gmc::smallMatrix();
        mc = core::gmc::configByName(matrix, kGmcConfig);
        if (mc != nullptr) {
            core::System probe(core::gmc::collapsedConfig(*mc));
            (void)probe;
        }
    }
    if (mc == nullptr) {
        gate(it, false, "gmc: config missing from smallMatrix()");
        it.attempted = 1;
        return it;
    }
    sim::gmc::ExploreResult r;
    {
        Timed t("gmc.exploreConfig", it.wallS);
        r = core::gmc::exploreConfig(*mc, {});
    }
    it.attempted = r.stats.schedulesRun;
    it.events = r.stats.eventsExecuted;
    gate(it, r.stats.exhaustive, "gmc: exploration not exhaustive");
    gate(it, r.violations.empty(), "gmc: violations found");
    gate(it, r.stats.schedulesRun == kGmcSchedules,
         "gmc: schedule count changed");
    gate(it, r.reference.digest == kGmcReferenceDigest,
         "gmc: FIFO reference digest changed");
    it.sim["gmc_schedules"] = static_cast<double>(r.stats.schedulesRun);
    it.layer["sim.events"] = static_cast<double>(r.stats.eventsExecuted);
    it.layer["gmc.choice_points"] =
        static_cast<double>(r.stats.choicePoints);
    it.layer["gmc.events"] = static_cast<double>(r.stats.eventsExecuted);
    return it;
}

// -------------------------------------------------------- event engine

/** EventQueue alone: @p n events through schedule()/run(), 64 live at
 *  a time, each rescheduling itself at a pseudo-random delay. */
double
engineNsPerEvent(std::uint64_t n)
{
    n = std::max<std::uint64_t>(n, 1000);
    sim::EventQueue eq;
    std::uint64_t left = n;
    std::uint64_t rng = 12345;
    std::function<void()> tick;
    tick = [&]() {
        if (left == 0)
            return;
        --left;
        eq.scheduleIn(1 + splitmix(rng) % 997, tick);
    };
    double seconds = 0.0;
    {
        Timed t("sim.engine_replay", seconds);
        for (int i = 0; i < 64; ++i)
            eq.schedule(static_cast<Tick>(i), tick);
        eq.run();
    }
    return seconds * 1e9 / static_cast<double>(eq.executedEvents());
}

// --------------------------------------------------------------- main

#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--spans")
            a.spans = v;
        else
            return false;
    }
    return !a.workload.empty() && a.seconds > 0 && argc % 2 == 1;
}

std::string
jsonFacts(const Facts &f)
{
    std::string out = "{";
    for (const auto &[k, v] : f) {
        if (out.size() > 1)
            out += ",";
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(v) ? v : 0.0);
        out += "\"" + k + "\":" + buf;
    }
    return out + "}";
}

std::string
jsonStrings(const std::vector<std::string> &v)
{
    std::string out = "[";
    for (const std::string &s : v) {
        if (out.size() > 1)
            out += ",";
        out += "\"" + s + "\"";
    }
    return out + "]";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: genesys_perf --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans <path>]\n");
        return 2;
    }

    // Keep freed memory in the heap: every iteration rebuilds a System
    // of the same shape, and returning it to the kernel in between
    // turns each iteration into a burst of page faults whose cost
    // depends on the machine, not on the code under test.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    using RunFn = std::function<Iteration(bool)>;
    RunFn run;
    const std::uint64_t seed = args.seed;
    if (args.workload == "gkv_serve")
        run = [seed](bool tr) { return runGkvServe(seed, tr); };
    else if (args.workload == "wordcount_ssd")
        run = [seed](bool tr) { return runWordcountSsd(seed, tr, nullptr); };
    else if (args.workload == "pread_daemon")
        run = [seed](bool tr) { return runPreadDaemon(seed, tr, nullptr); };
    else if (args.workload == "gmc_explore")
        run = [](bool) { return runGmcExplore(); };
    else {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }

    // Untraced iterations, set-up included, until the budget is spent
    // (half of it in a traced run); at least two, so the determinism
    // check always has a pair to compare.
    const double budget = args.trace ? args.seconds / 2 : args.seconds;
    const Clock::time_point started = Clock::now();
    std::vector<Iteration> iters;
    while (iters.size() < 2 || secondsSince(started) < budget)
        iters.push_back(run(false));

    // An iteration fails when it fails a gate or does not reproduce
    // the first iteration's simulated facts; all its operations count
    // as failed.
    std::vector<std::string> failures;
    std::uint64_t attempted = 0, failed = 0;
    const auto account = [&](const Iteration &it, const char *what) {
        std::vector<std::string> bad = it.failures;
        if (it.sim != iters[0].sim || it.layer != iters[0].layer)
            bad.push_back(std::string("determinism: ") + what +
                          " differs from the first iteration");
        attempted += it.attempted;
        if (!bad.empty())
            failed += it.attempted;
        for (const std::string &f : bad)
            if (std::find(failures.begin(), failures.end(), f) ==
                failures.end())
                failures.push_back(f);
    };
    for (const Iteration &it : iters)
        account(it, "an untraced iteration");

    std::vector<double> setups, walls, systems, inputs;
    for (const Iteration &it : iters) {
        setups.push_back(it.systemS + it.inputsS);
        walls.push_back(it.wallS);
        systems.push_back(it.systemS);
        inputs.push_back(it.inputsS);
    }
    const double wall = median(walls);
    const double events = static_cast<double>(iters[0].events);

    Facts metrics;
    if (!args.trace) {
        metrics["setup_s"] = median(setups);
        metrics["wall_s"] = wall;
        metrics["peak_rss_mb"] = peakRssMb();
        metrics["host_mev_per_s"] = events / wall / 1e6;
    } else {
        // One traced iteration, then the per-layer extras.
        Replay direct;
        double count_host = 0.0;
        Iteration traced;
        if (args.workload == "wordcount_ssd") {
            WordcountRun keep;
            traced = runWordcountSsd(seed, true, &keep);
            direct = wordcountDirect(keep);
            count_host = wordcountCountHost(keep);
        } else if (args.workload == "pread_daemon") {
            traced = runPreadDaemon(seed, true, &direct);
        } else if (args.workload == "gkv_serve") {
            traced = run(true);
            direct = gkvDirect(seed);
        } else {
            traced = run(true);
        }
        account(traced, "the traced iteration");

        Facts &m = metrics;
        // Every per-layer metric on every workload; a layer the
        // workload does not load reads 0.
        for (const char *k :
             {"gmc.choice_points", "gmc.events", "gpu.wavefronts",
              "mem.l2_hits", "mem.l2_misses", "mem.bus_bytes_gpu",
              "mem.bus_bytes_cpu", "core.slot_transitions",
              "core.interrupts", "core.batches", "core.batch_size_mean",
              "core.host_restarts", "core.ring_entries_per_batch",
              "core.ring_doorbells_suppressed", "core.ring_cq_posted",
              "core.daemon_sweeps", "core.daemon_useful_ratio",
              "osk.ssd_bytes", "osk.ssd_requests", "osk.ssd_delayed",
              "osk.tcp_zerocopy_bytes", "osk.tcp_copied_bytes",
              "osk.epoll_wakeups", "osk.epoll_edges_delivered",
              "osk.wq_tasks", "osk.wq_steals", "osk.wq_spills"})
            m[k] = 0.0;
        for (const char *stage :
             {"core.stage.publish_to_doorbell",
              "core.stage.doorbell_to_service", "core.stage.service",
              "core.stage.complete_to_resume"})
            for (const char *suffix : {".n", ".p50_us", ".tail_pct",
                                       ".tail_us"})
                m[std::string(stage) + suffix] = 0.0;
        for (const auto &[k, v] : traced.layer)
            m[k] = v;
        for (const auto &[k, v] : traced.stages)
            m[k] = v;
        m["sim.events"] = events;
        m["sim.host_ns_per_event"] = wall * 1e9 / events;
        m["sim.engine_ns_per_event"] =
            engineNsPerEvent(static_cast<std::uint64_t>(events));
        m["gmc.host_ms_per_schedule"] =
            args.workload == "gmc_explore"
                ? wall * 1e3 / static_cast<double>(iters[0].attempted)
                : 0.0;
        const double sweeps = m["core.daemon_sweeps"];
        m["core.daemon_host_us_per_sweep"] =
            sweeps == 0 ? 0.0 : wall * 1e6 / sweeps;
        m["osk.direct_syscall_sim_us"] = direct.simUs;
        m["osk.direct_syscall_host_us"] = direct.hostUs;
        m["workloads.count_host_s"] = count_host;
        m["setup.system_s"] = median(systems);
        m["setup.inputs_s"] = median(inputs);
        m["trace.overhead_ratio"] = traced.wallS / wall;
        if (!args.spans.empty() && !g_spans.write(args.spans))
            std::fprintf(stderr, "cannot write spans to %s\n",
                         args.spans.c_str());
    }

    const bool correct = failures.empty();
    char head[512];
    std::snprintf(head, sizeof head,
                  "{\"workload\":\"%s\",\"seed\":%" PRIu64
                  ",\"trace\":%d,\"correct\":%s,\"attempted\":%" PRIu64
                  ",\"failed\":%" PRIu64 ",\"iterations\":%zu,"
                  "\"build_type\":\"%s\",\"compiler\":\"%s\",",
                  args.workload.c_str(), args.seed, args.trace ? 1 : 0,
                  correct ? "true" : "false", attempted, failed,
                  iters.size(), GENESYS_PERF_BUILD_TYPE, kCompiler);
    std::printf("%s\"failures\":%s,\"sim\":%s,\"metrics\":%s}\n", head,
                jsonStrings(failures).c_str(),
                jsonFacts(iters[0].sim).c_str(),
                jsonFacts(metrics).c_str());
    return correct ? 0 : 1;
}
