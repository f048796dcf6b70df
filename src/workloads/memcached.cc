/**
 * @file
 * Memcached implementation.
 */

#include "memcached.hh"

#include <memory>

#include "osk/file.hh"
#include "support/logging.hh"

namespace genesys::workloads
{

namespace
{

/// Key comparison cost while scanning a bucket chain: each entry is a
/// dependent pointer chase + string compare (cache-miss dominated).
constexpr double kCpuCompareCyclesPerEntry = 150.0;
constexpr double kCpuClockHz = 2.7e9;
constexpr double kGpuCompareCyclesPerEntry = 150.0;
/// Value copy into the reply buffer.
constexpr double kCopyCyclesPerByte = 0.25;

constexpr osk::SockAddr kServerAddr{1, 11211};

std::vector<std::uint8_t>
valueForKey(const std::string &key, std::uint32_t value_bytes)
{
    // Deterministic value so replies are verifiable end to end.
    std::vector<std::uint8_t> v(value_bytes);
    std::uint64_t h = 1469598103934665603ull;
    for (char c : key)
        h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
    for (std::uint32_t i = 0; i < value_bytes; ++i)
        v[i] = static_cast<std::uint8_t>((h >> (8 * (i % 8))) + i);
    return v;
}

struct Shared
{
    const MemcachedConfig *config = nullptr;
    McHashTable *table = nullptr;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t badReplies = 0;
    stats::Distribution latencies;
    std::uint32_t stopsRemaining = 0;
    /// Per-GPU-server-group receive and reply buffers + LDS cells.
    struct GroupBufs
    {
        std::vector<std::uint8_t> rx;
        std::vector<std::uint8_t> tx;
        osk::SockAddr from{};
        std::int64_t n = 0;
        bool stop = false;
    };
    std::vector<GroupBufs> groups;
};

Tick
cpuLookupTicks(std::size_t chain, std::uint32_t value_bytes)
{
    const double cycles =
        static_cast<double>(chain) * kCpuCompareCyclesPerEntry +
        static_cast<double>(value_bytes) * kCopyCyclesPerByte;
    return static_cast<Tick>(cycles / kCpuClockHz * 1e9);
}

std::uint64_t
gpuLookupCycles(std::size_t chain, std::uint32_t value_bytes,
                std::uint32_t items)
{
    return static_cast<std::uint64_t>(
        (static_cast<double>(chain) * kGpuCompareCyclesPerEntry +
         static_cast<double>(value_bytes) * kCopyCyclesPerByte) /
        items);
}

/** CPU server loop: recv, look up, reply; exits on Stop. */
sim::Task<>
cpuServer(core::System &sys, std::shared_ptr<Shared> shared, int fd)
{
    for (;;) {
        std::vector<std::uint8_t> rx(2048);
        osk::SockAddr from{};
        const std::int64_t n = co_await sys.kernel().doSyscall(
            sys.process(), osk::sysno::recvfrom,
            osk::makeArgs(fd, rx.data(), rx.size(), 0, &from, 8));
        GENESYS_ASSERT(n > 0, "server recv failed");
        rx.resize(static_cast<std::size_t>(n));
        const auto msg = mcDecode(rx);
        GENESYS_ASSERT(msg.has_value(), "bad request");
        if (msg->op == McOp::Stop)
            co_return;
        if (msg->op == McOp::Set) {
            shared->table->set(msg->key, msg->value);
            continue;
        }
        // GET: scan the bucket chain (real lookup + charged time);
        // the server thread holds its core throughout.
        const auto chain = shared->table->chainLength(msg->key);
        co_await sim::Delay(sys.sim().events(),
                            cpuLookupTicks(
                                chain, shared->table->valueBytes()));
        const McHashTable::Entry *entry = shared->table->get(msg->key);
        const auto reply =
            entry != nullptr
                ? mcEncode(McOp::Reply, msg->key, entry->value)
                : mcEncode(McOp::Miss, msg->key, {});
        co_await sys.kernel().doSyscall(
            sys.process(), osk::sysno::sendto,
            osk::makeArgs(fd, reply.data(), reply.size(), 0, &from, 8));
    }
}

/** Closed-loop client issuing GETs from outside the host. */
sim::Task<>
client(core::System &sys, std::shared_ptr<Shared> shared,
       std::uint32_t id, std::uint32_t num_gets,
       std::vector<std::string> keys)
{
    auto &udp = sys.kernel().udp();
    osk::UdpSocket *sock = udp.createSocket();
    GENESYS_ASSERT(sock->bind({100 + id, 9000}) == 0, "client bind");
    const auto value_bytes = shared->table->valueBytes();
    for (std::uint32_t g = 0; g < num_gets; ++g) {
        const std::string &key = keys[g % keys.size()];
        const Tick t0 = sys.sim().now();
        co_await sock->sendTo(kServerAddr,
                              mcEncode(McOp::Get, key, {}));
        osk::Datagram reply = co_await sock->recvFrom(4096);
        const Tick t1 = sys.sim().now();
        shared->latencies.sample(ticks::toUs(t1 - t0));
        const auto msg = mcDecode(reply.payload);
        GENESYS_ASSERT(msg.has_value(), "bad reply");
        if (msg->op == McOp::Reply) {
            ++shared->hits;
            if (msg->value != valueForKey(key, value_bytes))
                ++shared->badReplies;
        } else {
            ++shared->misses;
        }
    }
    // Last client out stops the servers.
    if (--shared->stopsRemaining == 0) {
        for (std::uint32_t s = 0; s < shared->groups.size() + 8; ++s)
            co_await sock->sendTo(kServerAddr,
                                  mcEncode(McOp::Stop, "", {}));
    }
}

} // namespace

std::uint32_t
McHashTable::bucketOf(const std::string &key) const
{
    std::uint64_t h = 1469598103934665603ull;
    for (char c : key)
        h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
    return static_cast<std::uint32_t>(h % buckets_.size());
}

void
McHashTable::set(const std::string &key, std::vector<std::uint8_t> value)
{
    auto &bucket = buckets_[bucketOf(key)];
    for (auto &entry : bucket) {
        if (entry.key == key) {
            entry.value = std::move(value);
            return;
        }
    }
    bucket.push_back(Entry{key, std::move(value)});
}

const McHashTable::Entry *
McHashTable::get(const std::string &key) const
{
    const auto &bucket = buckets_[bucketOf(key)];
    for (const auto &entry : bucket) {
        if (entry.key == key)
            return &entry;
    }
    return nullptr;
}

std::size_t
McHashTable::chainLength(const std::string &key) const
{
    return buckets_[bucketOf(key)].size();
}

std::vector<std::uint8_t>
mcEncode(McOp op, const std::string &key,
         const std::vector<std::uint8_t> &val)
{
    std::vector<std::uint8_t> wire;
    wire.reserve(3 + key.size() + val.size());
    wire.push_back(static_cast<std::uint8_t>(op));
    wire.push_back(static_cast<std::uint8_t>(key.size() & 0xff));
    wire.push_back(static_cast<std::uint8_t>(key.size() >> 8));
    wire.insert(wire.end(), key.begin(), key.end());
    wire.insert(wire.end(), val.begin(), val.end());
    return wire;
}

std::optional<McMessage>
mcDecode(const std::vector<std::uint8_t> &wire)
{
    if (wire.size() < 3)
        return std::nullopt;
    McMessage msg;
    msg.op = static_cast<McOp>(wire[0]);
    const std::size_t keylen = wire[1] | (std::size_t(wire[2]) << 8);
    if (wire.size() < 3 + keylen)
        return std::nullopt;
    msg.key.assign(wire.begin() + 3, wire.begin() + 3 + keylen);
    msg.value.assign(wire.begin() + 3 + keylen, wire.end());
    return msg;
}

MemcachedResult
runMemcached(core::System &sys, const MemcachedConfig &config)
{
    McHashTable table(config.buckets, config.valueBytes);

    // Preload: elemsPerBucket entries per bucket, via real SETs into
    // the shared table (host side, before timing starts).
    std::vector<std::string> keys;
    Random &rng = sys.sim().random();
    const std::uint64_t total_keys =
        std::uint64_t(config.buckets) * config.elemsPerBucket;
    keys.reserve(total_keys);
    for (std::uint64_t s = 0; s < total_keys; ++s) {
        std::string key = logging::format(
            "key-%010llu", static_cast<unsigned long long>(s));
        table.set(key, valueForKey(key, config.valueBytes));
        keys.push_back(std::move(key));
    }

    auto shared = std::make_shared<Shared>();
    shared->config = &config;
    shared->table = &table;

    // Keys the clients will request (with a miss fraction).
    std::vector<std::string> get_keys;
    const std::uint32_t num_clients = 4;
    for (std::uint32_t g = 0; g < config.numGets; ++g) {
        if (rng.chance(config.missFraction))
            get_keys.push_back(logging::format(
                "missing-%04u", static_cast<unsigned>(g)));
        else
            get_keys.push_back(keys[rng.below(keys.size())]);
    }

    // Server socket, bound before anything runs.
    std::int64_t server_fd = -1;
    sys.sim().spawn([](core::System &s,
                       std::int64_t &fd_out) -> sim::Task<> {
        fd_out = co_await s.kernel().doSyscall(
            s.process(), osk::sysno::socket, osk::makeArgs(2, 2, 0));
        osk::SockAddr addr = kServerAddr;
        const auto rc = co_await s.kernel().doSyscall(
            s.process(), osk::sysno::bind,
            osk::makeArgs(fd_out, &addr, 8));
        GENESYS_ASSERT(rc == 0, "server bind failed");
    }(sys, server_fd));
    sys.run();

    const Tick start = sys.sim().now();
    shared->stopsRemaining = num_clients;

    if (!config.useGpu) {
        for (std::uint32_t s = 0; s < sys.kernel().cpus().cores();
             ++s) {
            sys.sim().spawn(sys.kernel().cpus().run(
                cpuServer(sys, shared, static_cast<int>(server_fd))));
        }
    } else {
        shared->groups.resize(config.gpuServerGroups);
        for (auto &g : shared->groups) {
            g.rx.resize(4096);
        }
        gpu::KernelLaunch launch;
        const std::uint32_t wg_size = 256;
        launch.workItems =
            std::uint64_t(config.gpuServerGroups) * wg_size;
        launch.wgSize = wg_size;
        const int gpu_fd = static_cast<int>(server_fd);
        launch.program = [&sys, shared, wg_size,
                          gpu_fd](gpu::WavefrontCtx &ctx)
            -> sim::Task<> {
            auto &g = shared->groups[ctx.workgroupId()];
            McHashTable &tbl = *shared->table;
            core::Invocation weak;
            weak.ordering = core::Ordering::Relaxed;
            const int fd = gpu_fd; // descriptor opened host-side
            for (;;) {
                const auto n_leader = co_await sys.gpuSys().recvfrom(
                    ctx, weak, fd,
                    ctx.isGroupLeader() ? g.rx.data() : nullptr,
                    g.rx.size(), ctx.isGroupLeader() ? &g.from
                                                     : nullptr);
                if (ctx.isGroupLeader()) {
                    g.n = n_leader;
                    g.stop = false;
                    std::vector<std::uint8_t> wire(
                        g.rx.begin(), g.rx.begin() + n_leader);
                    const auto msg = mcDecode(wire);
                    if (!msg || msg->op == McOp::Stop) {
                        g.stop = true;
                    } else {
                        const auto chain = tbl.chainLength(msg->key);
                        const McHashTable::Entry *entry =
                            tbl.get(msg->key);
                        g.tx = entry != nullptr
                                   ? mcEncode(McOp::Reply, msg->key,
                                              entry->value)
                                   : mcEncode(McOp::Miss, msg->key,
                                              {});
                        g.n = static_cast<std::int64_t>(chain);
                    }
                }
                co_await ctx.wgBarrier();
                if (g.stop)
                    break;
                // Parallel key comparison + value copy across the
                // work-group (the GPU's edge on deep buckets).
                co_await ctx.compute(gpuLookupCycles(
                    static_cast<std::size_t>(g.n), tbl.valueBytes(),
                    wg_size));
                co_await sys.gpuSys().sendto(ctx, weak, fd,
                                             g.tx.data(), g.tx.size(),
                                             &g.from);
            }
        };
        sys.launchGpuAndDrain(std::move(launch));
    }

    for (std::uint32_t c = 0; c < num_clients; ++c) {
        sys.sim().spawn(client(sys, shared, c,
                               config.numGets / num_clients,
                               get_keys));
    }

    const Tick end = sys.run();

    MemcachedResult result;
    result.elapsed = end - start;
    result.hits = shared->hits;
    result.misses = shared->misses;
    result.correct = shared->badReplies == 0 &&
                     (shared->hits + shared->misses ==
                      (config.numGets / num_clients) * num_clients);
    result.meanLatencyUs = shared->latencies.mean();
    result.p50LatencyUs = shared->latencies.percentile(50);
    result.p95LatencyUs = shared->latencies.percentile(95);
    result.p99LatencyUs = shared->latencies.percentile(99);
    result.throughputKops =
        result.elapsed == 0
            ? 0.0
            : static_cast<double>(shared->hits + shared->misses) /
                  ticks::toMs(result.elapsed);
    return result;
}

} // namespace genesys::workloads
