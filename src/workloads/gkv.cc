/**
 * @file
 * gkv implementation.
 */

#include "gkv.hh"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>

#include "osk/epoll.hh"
#include "osk/file.hh"
#include "osk/tcp.hh"
#include "support/logging.hh"

namespace genesys::workloads
{

namespace
{

/// Value materialization + copy into the reply frame.
constexpr double kCopyCyclesPerByte = 0.25;
/// Fixed per-request bookkeeping (decode, store probe).
constexpr double kRequestCycles = 400.0;
constexpr double kCpuClockHz = 2.7e9;

constexpr int kMaxEvents = 8;
/// Scatter width of one recvmsg/readSegments drain call.
constexpr int kMaxSegs = 8;

struct Request
{
    bool isSet = false;
    std::uint32_t key = 0;
};

struct Shared
{
    const GkvConfig *config = nullptr;
    GkvStore *store = nullptr;
    std::uint64_t gets = 0;
    std::uint64_t sets = 0;
    std::uint64_t accepted = 0;
    std::uint64_t badReplies = 0;
    std::uint64_t connsDone = 0;
    std::uint64_t nextVersion = 0;
    stats::Distribution latencies;

    /**
     * Per-connection server state: the split-frame carry buffer, the
     * recvmsg scatter list (rewritten in place by MSG_ZEROCOPY to
     * point into loaned wire segments), and the batched replies, frame
     * after frame, with their writev gather list of one entry per
     * frame. Lives host-side so the buffers stay put across the GPU
     * kernel's co_awaits.
     */
    struct Conn
    {
        std::vector<std::uint8_t> partial;
        std::vector<osk::IoVec> rxIov;
        std::vector<std::uint8_t> tx;
        std::vector<osk::IoVec> txIov;
    };

    /// Per-server-group state (buffers live host-side, like the
    /// memcached study's GroupBufs).
    struct Group
    {
        int listenFd = -1;
        std::uint32_t expectedConns = 0;
        std::vector<osk::EpollEvent> events;
        osk::EpollEvent ctlEv{};
        osk::SockAddr peer{};
        std::map<int, Conn> conns;
    };
    std::vector<Group> groups;
};

Tick
cpuServeTicks(std::uint32_t value_bytes)
{
    const double cycles =
        kRequestCycles +
        static_cast<double>(value_bytes) * kCopyCyclesPerByte;
    return static_cast<Tick>(cycles / kCpuClockHz * 1e9);
}

std::uint64_t
gpuServeCycles(std::uint32_t value_bytes, std::uint32_t items)
{
    return static_cast<std::uint64_t>(
        (kRequestCycles +
         static_cast<double>(value_bytes) * kCopyCyclesPerByte) /
        items);
}

/// splitmix64's increment and finalizer.
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Walk the value (key, version) names in 8-byte steps, handing
 * @p step each step's offset, byte count and bytes. Every step is one
 * splitmix64 output of its own, so no step waits on the one before.
 * Stops early when @p step returns false.
 */
template <typename Fn>
bool
forValueWords(std::uint32_t key, std::uint64_t version,
              std::uint32_t value_bytes, Fn &&step)
{
    const std::uint64_t seed = mix64(mix64(version) ^ key);
    for (std::uint32_t at = 0; at < value_bytes; at += 8) {
        const std::uint64_t word = mix64(seed + (at / 8 + 1) * kGolden);
        if (!step(at, std::min<std::uint32_t>(8, value_bytes - at), word))
            return false;
    }
    return true;
}

/**
 * Frame reassembly: feed a byte run into the per-connection parse
 * state machine, invoking @p on_frame with a pointer to each complete
 * frame. Frames fully contained in the run are parsed in place (zero
 * copies); a frame straddling run boundaries accumulates in
 * @p partial and is delivered from there.
 */
template <typename Fn>
void
feedFrames(std::vector<std::uint8_t> &partial,
           std::uint32_t frame_bytes, const std::uint8_t *p,
           std::uint64_t n, Fn &&on_frame)
{
    while (n > 0) {
        if (partial.empty() && n >= frame_bytes) {
            on_frame(p);
            p += frame_bytes;
            n -= frame_bytes;
            continue;
        }
        const std::uint64_t need = frame_bytes - partial.size();
        const std::uint64_t take = n < need ? n : need;
        partial.insert(partial.end(), p, p + take);
        p += take;
        n -= take;
        if (partial.size() == frame_bytes) {
            on_frame(partial.data());
            partial.clear();
        }
    }
}

/**
 * Parse every complete request out of the loaned segments the last
 * recvmsg left in @p cn.rxIov. Only the 16-byte header is decoded —
 * the store never reads a request payload, so frame bodies stay in
 * the loaned segments untouched. Must complete before the next
 * recvmsg on the same fd: that call retires this loan generation.
 */
void
collectRequests(Shared::Conn &cn, std::uint32_t frame_bytes,
                std::vector<GkvFrame> &out)
{
    for (const osk::IoVec &v : cn.rxIov) {
        if (v.len == 0)
            break;
        feedFrames(cn.partial, frame_bytes,
                   static_cast<const std::uint8_t *>(v.asPtr()),
                   v.len, [&](const std::uint8_t *f) {
                       if (auto req = gkvDecode(f, kGkvHeaderBytes))
                           out.push_back(*req);
                   });
    }
}

/** Serve one decoded request frame against the store. */
GkvFrame
serveRequest(Shared &shared, const GkvFrame &req)
{
    GkvStore &store = *shared.store;
    GkvFrame reply;
    reply.key = req.key;
    if (req.key >= store.numKeys()) {
        reply.op = GkvOp::Miss;
        return reply;
    }
    if (req.op == GkvOp::Set) {
        store.set(req.key, req.version);
        ++shared.sets;
        reply.op = GkvOp::Reply;
        reply.version = req.version;
    } else {
        ++shared.gets;
        reply.op = GkvOp::Reply;
        reply.version = store.version(req.key);
    }
    return reply;
}

/** Encode the served replies into cn.tx, one writev entry per frame. */
void
batchReplies(Shared &shared, Shared::Conn &cn,
             const std::vector<GkvFrame> &reqs)
{
    const std::uint32_t value_bytes = shared.store->valueBytes();
    const std::size_t frame_bytes = kGkvHeaderBytes + value_bytes;
    cn.tx.resize(reqs.size() * frame_bytes);
    cn.txIov.clear();
    for (std::size_t r = 0; r < reqs.size(); ++r) {
        std::uint8_t *wire = cn.tx.data() + r * frame_bytes;
        gkvEncode(serveRequest(shared, reqs[r]), wire, value_bytes);
        cn.txIov.push_back(
            osk::IoVec{osk::SyscallArgs::fromPtr(wire), frame_bytes});
    }
}

/**
 * CPU server loop for one group: the same multiplexed structure the
 * GPU kernel runs — level-triggered listen socket, edge-triggered
 * connections drained to -EAGAIN with zero-copy recvmsg, batched
 * writev replies — expressed with direct kernel syscalls. Exits once
 * every expected connection has reached EOF.
 */
sim::Task<>
cpuGkvServer(core::System &sys, std::shared_ptr<Shared> shared,
             std::uint32_t g)
{
    auto &st = shared->groups[g];
    if (st.expectedConns == 0)
        co_return;
    const std::uint32_t frame_bytes =
        kGkvHeaderBytes + shared->store->valueBytes();

    const std::int64_t epfd = co_await sys.kernel().doSyscall(
        sys.process(), osk::sysno::epoll_create, osk::makeArgs(1));
    GENESYS_ASSERT(epfd >= 0, "gkv epoll_create failed");
    st.ctlEv = osk::EpollEvent{
        osk::EPOLLIN_, static_cast<std::uint64_t>(st.listenFd)};
    std::int64_t rc = co_await sys.kernel().doSyscall(
        sys.process(), osk::sysno::epoll_ctl,
        osk::makeArgs(epfd, osk::EPOLL_CTL_ADD_, st.listenFd,
                      &st.ctlEv));
    GENESYS_ASSERT(rc == 0, "gkv epoll_ctl failed");

    std::vector<GkvFrame> reqs;
    std::uint32_t closed = 0;
    while (closed < st.expectedConns) {
        const std::int64_t n = co_await sys.kernel().doSyscall(
            sys.process(), osk::sysno::epoll_wait,
            osk::makeArgs(epfd, st.events.data(), kMaxEvents,
                          std::int64_t(-1), osk::kEpollHostWaiter));
        GENESYS_ASSERT(n > 0, "gkv epoll_wait failed");
        for (std::int64_t i = 0; i < n; ++i) {
            const int fd = static_cast<int>(st.events[i].data);
            if (fd == st.listenFd) {
                const std::int64_t cfd =
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::accept,
                        osk::makeArgs(fd, &st.peer, 8));
                GENESYS_ASSERT(cfd >= 0, "gkv accept failed");
                st.ctlEv = osk::EpollEvent{
                    osk::EPOLLIN_ | osk::EPOLLET_,
                    static_cast<std::uint64_t>(cfd)};
                rc = co_await sys.kernel().doSyscall(
                    sys.process(), osk::sysno::epoll_ctl,
                    osk::makeArgs(epfd, osk::EPOLL_CTL_ADD_,
                                  static_cast<int>(cfd), &st.ctlEv));
                GENESYS_ASSERT(rc == 0, "gkv epoll_ctl add failed");
                st.conns[static_cast<int>(cfd)] = Shared::Conn{};
                ++shared->accepted;
                continue;
            }
            // Edge-triggered: drain the connection to -EAGAIN.
            for (;;) {
                auto &cn = st.conns[fd];
                cn.rxIov.assign(kMaxSegs, osk::IoVec{});
                const std::int64_t rn =
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::recvmsg,
                        osk::makeArgs(
                            fd, cn.rxIov.data(), kMaxSegs,
                            std::uint64_t(osk::MSG_ZEROCOPY_ |
                                          osk::MSG_DONTWAIT_)));
                if (rn == -EAGAIN)
                    break;
                if (rn <= 0) {
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::epoll_ctl,
                        osk::makeArgs(epfd, osk::EPOLL_CTL_DEL_, fd,
                                      nullptr));
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::close,
                        osk::makeArgs(fd));
                    st.conns.erase(fd);
                    ++closed;
                    break;
                }
                reqs.clear();
                collectRequests(cn, frame_bytes, reqs);
                for (std::size_t r = 0; r < reqs.size(); ++r) {
                    co_await sim::Delay(
                        sys.sim().events(),
                        cpuServeTicks(shared->store->valueBytes()));
                }
                batchReplies(*shared, cn, reqs);
                if (cn.txIov.empty())
                    continue;
                const std::int64_t wn =
                    co_await sys.kernel().doSyscall(
                        sys.process(), osk::sysno::writev,
                        osk::makeArgs(
                            fd, cn.txIov.data(),
                            static_cast<int>(cn.txIov.size())));
                GENESYS_ASSERT(
                    wn == static_cast<std::int64_t>(
                              std::uint64_t(reqs.size()) *
                              frame_bytes),
                    "gkv reply writev failed");
            }
        }
    }
    co_await sys.kernel().doSyscall(sys.process(), osk::sysno::close,
                                    osk::makeArgs(epfd));
    co_await sys.kernel().doSyscall(sys.process(), osk::sysno::close,
                                    osk::makeArgs(st.listenFd));
}

/**
 * Load-generator connection: connect, keep up to pipelineDepth
 * scripted requests in flight (each window refill is one batched
 * write — the request train), parse replies zero-copy off the
 * segment chain, then half-close and wait for the server's FIN. Runs
 * on the modeled wire via the raw stream API (the generator stands in
 * for remote machines, like the memcached clients).
 */
sim::Task<>
gkvClient(core::System &sys, std::shared_ptr<Shared> shared,
          std::uint32_t group, std::vector<Request> script)
{
    auto &tcp = sys.kernel().tcp();
    const std::uint32_t value_bytes = shared->store->valueBytes();
    const std::uint32_t frame_bytes = kGkvHeaderBytes + value_bytes;
    const std::uint32_t depth =
        shared->config->pipelineDepth == 0
            ? 1
            : shared->config->pipelineDepth;

    osk::TcpSocket *sock = tcp.createSocket();
    const int sock_id = sock->id();
    const int rc = co_await sock->connect(
        {1, static_cast<std::uint16_t>(kGkvBasePort + group)});
    GENESYS_ASSERT(rc == 0, "gkv connect failed");

    const std::size_t total = script.size();
    std::size_t sent = 0;
    std::size_t completed = 0;
    std::deque<Tick> issued;         // send tick, per in-flight req
    std::deque<std::uint32_t> keys;  // expected reply keys, FIFO
    std::vector<std::uint8_t> batch; // the request train
    const auto fillWindow = [&]() {
        batch.clear();
        while (sent < total && sent - completed < depth) {
            const Request &req = script[sent];
            GkvFrame f;
            f.op = req.isSet ? GkvOp::Set : GkvOp::Get;
            f.key = req.key;
            if (req.isSet)
                f.version = ++shared->nextVersion;
            batch.resize(batch.size() + frame_bytes);
            gkvEncode(f, batch.data() + batch.size() - frame_bytes,
                      value_bytes);
            issued.push_back(sys.sim().now());
            keys.push_back(f.key);
            ++sent;
        }
    };

    std::vector<std::uint8_t> partial;
    osk::NetSeg segs[kMaxSegs];
    fillWindow();
    if (!batch.empty()) {
        const std::int64_t wn =
            co_await sock->write(batch.data(), batch.size());
        GENESYS_ASSERT(wn == static_cast<std::int64_t>(batch.size()),
                       "gkv request write failed");
    }
    while (completed < total) {
        const std::int64_t got =
            co_await sock->readSegments(segs, kMaxSegs, false);
        GENESYS_ASSERT(got > 0, "gkv reply stream truncated");
        std::uint64_t replies = 0;
        for (std::int64_t i = 0; i < got; ++i) {
            feedFrames(
                partial, frame_bytes, segs[i].bytes(), segs[i].len,
                [&](const std::uint8_t *f) {
                    if (!gkvReplyValid(f, keys.front(), value_bytes))
                        ++shared->badReplies;
                    keys.pop_front();
                    shared->latencies.sample(
                        ticks::toUs(sys.sim().now() -
                                    issued.front()));
                    issued.pop_front();
                    ++replies;
                });
            segs[i] = osk::NetSeg{}; // drop the loan promptly
        }
        completed += replies;
        if (shared->config->thinkNs > 0 && replies > 0) {
            co_await sim::Delay(sys.sim().events(),
                                shared->config->thinkNs * replies);
        }
        fillWindow();
        if (!batch.empty()) {
            const std::int64_t wn =
                co_await sock->write(batch.data(), batch.size());
            GENESYS_ASSERT(
                wn == static_cast<std::int64_t>(batch.size()),
                "gkv request write failed");
        }
    }
    co_await sock->shutdown(osk::SHUT_WR_);
    // Drain the server's FIN so the connection closes cleanly.
    std::uint8_t tail = 0;
    const std::int64_t fin = co_await sock->read(&tail, 1);
    GENESYS_ASSERT(fin == 0, "gkv expected EOF after half-close");
    tcp.closeSocket(sock_id);
    ++shared->connsDone;
}

} // namespace

void
gkvEncode(const GkvFrame &frame, std::uint8_t *wire,
          std::uint32_t value_bytes)
{
    const auto op = static_cast<std::uint32_t>(frame.op);
    for (int i = 0; i < 4; ++i) {
        wire[i] = static_cast<std::uint8_t>(op >> (8 * i));
        wire[4 + i] = static_cast<std::uint8_t>(frame.key >> (8 * i));
    }
    for (int i = 0; i < 8; ++i)
        wire[8 + i] =
            static_cast<std::uint8_t>(frame.version >> (8 * i));
    std::uint8_t *value = wire + kGkvHeaderBytes;
    if (frame.op != GkvOp::Set && frame.op != GkvOp::Reply) {
        std::memset(value, 0, value_bytes);
        return;
    }
    forValueWords(frame.key, frame.version, value_bytes,
                  [&](std::uint32_t at, std::uint32_t n,
                      std::uint64_t word) {
                      std::memcpy(value + at, &word, n);
                      return true;
                  });
}

std::optional<GkvFrame>
gkvDecode(const std::uint8_t *wire, std::size_t len)
{
    if (wire == nullptr || len < kGkvHeaderBytes)
        return std::nullopt;
    GkvFrame frame;
    std::uint32_t op = 0;
    std::uint32_t key = 0;
    std::uint64_t version = 0;
    for (int i = 0; i < 4; ++i) {
        op |= std::uint32_t(wire[i]) << (8 * i);
        key |= std::uint32_t(wire[4 + i]) << (8 * i);
    }
    for (int i = 0; i < 8; ++i)
        version |= std::uint64_t(wire[8 + i]) << (8 * i);
    if (op < 1 || op > 4)
        return std::nullopt;
    frame.op = static_cast<GkvOp>(op);
    frame.key = key;
    frame.version = version;
    return frame;
}

bool
gkvReplyValid(const std::uint8_t *wire, std::uint32_t key,
              std::uint32_t value_bytes)
{
    const auto reply = gkvDecode(wire, kGkvHeaderBytes);
    if (!reply.has_value() || reply->op != GkvOp::Reply ||
        reply->key != key)
        return false;
    const std::uint8_t *value = wire + kGkvHeaderBytes;
    return forValueWords(key, reply->version, value_bytes,
                         [&](std::uint32_t at, std::uint32_t n,
                             std::uint64_t word) {
                             return std::memcmp(value + at, &word, n) ==
                                    0;
                         });
}

GkvStore::GkvStore(std::uint32_t num_keys, std::uint32_t value_bytes)
    : valueBytes_(value_bytes), versions_(num_keys, 0)
{}

void
GkvStore::set(std::uint32_t key, std::uint64_t version)
{
    versions_[key] = version;
}

GkvResult
runGkv(core::System &sys, const GkvConfig &config)
{
    GkvStore store(config.numKeys, config.valueBytes);
    const std::uint32_t frame_bytes =
        kGkvHeaderBytes + config.valueBytes;
    GENESYS_ASSERT(frame_bytes <= sys.config().kernel.params.tcpMss,
                   "gkv frame must fit one segment");

    auto shared = std::make_shared<Shared>();
    shared->config = &config;
    shared->store = &store;
    shared->groups.resize(config.serverGroups);
    for (std::uint32_t c = 0; c < config.numConnections; ++c)
        ++shared->groups[c % config.serverGroups].expectedConns;
    for (auto &g : shared->groups)
        g.events.resize(kMaxEvents);

    // Request scripts, drawn up front so the mix is independent of
    // connection interleaving.
    Random &rng = sys.sim().random();
    std::vector<std::vector<Request>> scripts(config.numConnections);
    for (std::uint32_t c = 0; c < config.numConnections; ++c) {
        scripts[c].reserve(config.requestsPerConn);
        for (std::uint32_t r = 0; r < config.requestsPerConn; ++r) {
            Request req;
            req.isSet = rng.chance(config.setFraction);
            req.key = static_cast<std::uint32_t>(
                rng.below(config.numKeys));
            scripts[c].push_back(req);
        }
    }

    // Listening sockets, bound before anything runs.
    sys.sim().spawn([](core::System &s,
                       std::shared_ptr<Shared> sh) -> sim::Task<> {
        for (std::uint32_t g = 0; g < sh->groups.size(); ++g) {
            const std::int64_t fd = co_await s.kernel().doSyscall(
                s.process(), osk::sysno::socket,
                osk::makeArgs(2, 1 /* SOCK_STREAM */, 0));
            GENESYS_ASSERT(fd >= 0, "gkv socket failed");
            osk::SockAddr addr{
                1, static_cast<std::uint16_t>(kGkvBasePort + g)};
            std::int64_t rc = co_await s.kernel().doSyscall(
                s.process(), osk::sysno::bind,
                osk::makeArgs(fd, &addr, 8));
            GENESYS_ASSERT(rc == 0, "gkv bind failed");
            rc = co_await s.kernel().doSyscall(
                s.process(), osk::sysno::listen,
                osk::makeArgs(fd, 128));
            GENESYS_ASSERT(rc == 0, "gkv listen failed");
            sh->groups[g].listenFd = static_cast<int>(fd);
        }
    }(sys, shared));
    sys.run();

    const Tick start = sys.sim().now();

    if (!config.useGpu) {
        for (std::uint32_t g = 0; g < config.serverGroups; ++g) {
            sys.sim().spawn(sys.kernel().cpus().run(
                cpuGkvServer(sys, shared, g)));
        }
    } else {
        gpu::KernelLaunch launch;
        // One wavefront per server group: the epoll loop's control
        // flow is data-dependent, and a single-wave group keeps every
        // work-group-granularity invocation trivially uniform.
        const std::uint32_t wg_size = sys.config().gpu.wavefrontSize;
        launch.workItems =
            std::uint64_t(config.serverGroups) * wg_size;
        launch.wgSize = wg_size;
        launch.program = [&sys, shared,
                          wg_size](gpu::WavefrontCtx &ctx)
            -> sim::Task<> {
            auto &st = shared->groups[ctx.workgroupId()];
            if (st.expectedConns == 0)
                co_return;
            const std::uint32_t frame =
                kGkvHeaderBytes + shared->store->valueBytes();
            core::Invocation weak;
            weak.ordering = core::Ordering::Relaxed;

            const std::int64_t epfd =
                co_await sys.gpuSys().epollCreate(ctx, weak);
            st.ctlEv = osk::EpollEvent{
                osk::EPOLLIN_,
                static_cast<std::uint64_t>(st.listenFd)};
            co_await sys.gpuSys().epollCtl(
                ctx, weak, static_cast<int>(epfd),
                osk::EPOLL_CTL_ADD_, st.listenFd, &st.ctlEv);

            std::vector<GkvFrame> reqs;
            std::uint32_t closed = 0;
            while (closed < st.expectedConns) {
                const std::int64_t n =
                    co_await sys.gpuSys().epollWait(
                        ctx, weak, static_cast<int>(epfd),
                        st.events.data(), kMaxEvents, -1);
                for (std::int64_t i = 0; i < n; ++i) {
                    const int fd =
                        static_cast<int>(st.events[i].data);
                    if (fd == st.listenFd) {
                        const std::int64_t cfd =
                            co_await sys.gpuSys().accept(
                                ctx, weak, fd, &st.peer);
                        if (cfd < 0)
                            continue;
                        st.ctlEv = osk::EpollEvent{
                            osk::EPOLLIN_ | osk::EPOLLET_,
                            static_cast<std::uint64_t>(cfd)};
                        co_await sys.gpuSys().epollCtl(
                            ctx, weak, static_cast<int>(epfd),
                            osk::EPOLL_CTL_ADD_,
                            static_cast<int>(cfd), &st.ctlEv);
                        st.conns[static_cast<int>(cfd)] =
                            Shared::Conn{};
                        ++shared->accepted;
                        continue;
                    }
                    // Edge-triggered: drain this connection to
                    // -EAGAIN, parsing requests straight out of the
                    // loaned segments and batching the replies.
                    for (;;) {
                        auto &cn = st.conns[fd];
                        cn.rxIov.assign(kMaxSegs, osk::IoVec{});
                        const std::int64_t rn =
                            co_await sys.gpuSys().recvmsg(
                                ctx, weak, fd, cn.rxIov.data(),
                                kMaxSegs,
                                std::uint64_t(osk::MSG_ZEROCOPY_ |
                                              osk::MSG_DONTWAIT_));
                        if (rn == -EAGAIN)
                            break;
                        if (rn <= 0) {
                            co_await sys.gpuSys().epollCtl(
                                ctx, weak, static_cast<int>(epfd),
                                osk::EPOLL_CTL_DEL_, fd, nullptr);
                            co_await sys.gpuSys().close(ctx, weak,
                                                        fd);
                            st.conns.erase(fd);
                            ++closed;
                            break;
                        }
                        reqs.clear();
                        collectRequests(cn, frame, reqs);
                        for (std::size_t r = 0; r < reqs.size();
                             ++r) {
                            // Value materialization parallelized
                            // across the work-group's lanes.
                            co_await ctx.compute(gpuServeCycles(
                                shared->store->valueBytes(),
                                wg_size));
                        }
                        batchReplies(*shared, cn, reqs);
                        if (cn.txIov.empty())
                            continue;
                        co_await sys.gpuSys().writev(
                            ctx, weak, fd, cn.txIov.data(),
                            static_cast<int>(cn.txIov.size()));
                    }
                }
            }
            co_await sys.gpuSys().close(ctx, weak,
                                        static_cast<int>(epfd));
            co_await sys.gpuSys().close(ctx, weak, st.listenFd);
        };
        sys.launchGpuAndDrain(std::move(launch));
    }

    for (std::uint32_t c = 0; c < config.numConnections; ++c) {
        sys.sim().spawn(gkvClient(sys, shared,
                                  c % config.serverGroups,
                                  scripts[c]));
    }

    const Tick end = sys.run();

    GkvResult result;
    result.elapsed = end - start;
    result.gets = shared->gets;
    result.sets = shared->sets;
    result.accepted = shared->accepted;
    const std::uint64_t total_requests =
        std::uint64_t(config.numConnections) * config.requestsPerConn;
    result.correct =
        shared->badReplies == 0 &&
        shared->connsDone == config.numConnections &&
        shared->gets + shared->sets == total_requests &&
        shared->accepted == config.numConnections;
    result.p50LatencyUs = shared->latencies.percentile(50);
    result.p95LatencyUs = shared->latencies.percentile(95);
    result.p99LatencyUs = shared->latencies.percentile(99);
    result.throughputKops =
        result.elapsed == 0
            ? 0.0
            : static_cast<double>(total_requests) /
                  ticks::toMs(result.elapsed);
    return result;
}

} // namespace genesys::workloads
