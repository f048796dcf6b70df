/**
 * @file
 * Minimal UDP stack.
 *
 * Supports the memcached case study (Section VIII-D): sockets with
 * bind/sendto/recvfrom semantics, bounded receive queues with drop-on-
 * overflow (UDP), and a modeled on-host delivery path. The paper's
 * GENESYS memcached deliberately avoids RDMA; plain sendto/recvfrom
 * through the OS stack is the whole point, so the stack charges normal
 * kernel send/receive costs.
 */

#ifndef GENESYS_OSK_NET_HH
#define GENESYS_OSK_NET_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "osk/params.hh"
#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/types.hh"

namespace genesys::osk
{

/**
 * Scatter/gather element; mirrors struct iovec (base, len). Lives at
 * the bottom of the osk stack because every layer speaks it: the
 * syscall ABI (readv/writev/sendmsg/recvmsg take an IoVec array), the
 * stream sockets (gather transmit, scatter receive), and the GPU
 * client's vectored submission window (core/client.hh), whose
 * per-shard descriptor pages are arrays of exactly this struct.
 */
struct IoVec
{
    std::uint64_t base = 0; ///< pointer value (SyscallArgs::fromPtr).
    std::uint64_t len = 0;

    void *
    asPtr() const
    {
        return reinterpret_cast<void *>(
            static_cast<std::uintptr_t>(base));
    }

    /** The one-segment vector over @p len bytes at @p p. */
    static IoVec
    of(const void *p, std::uint64_t len)
    {
        return {static_cast<std::uint64_t>(
                    reinterpret_cast<std::uintptr_t>(p)),
                len};
    }
};

/** Total length of @p cnt iovecs; saturates rather than wraps, since
 *  the lengths may come from a GPU wave. */
inline std::uint64_t
iovTotal(const IoVec *iov, int cnt)
{
    std::uint64_t total = 0;
    for (int i = 0; i < cnt; ++i)
        total += std::min(iov[i].len, ~std::uint64_t{0} - total);
    return total;
}

/**
 * A position in an iovec array. scatter() and gather() move bytes
 * between it and a flat byte sequence, across segment boundaries,
 * and leave the cursor after them; the caller keeps every move within
 * the array's total length. A null base takes no bytes (scatter) and
 * reads as zeros (gather).
 */
class IovCursor
{
  public:
    explicit IovCursor(const IoVec *iov) : iov_(iov) {}

    template <typename In>
    void
    scatter(In from, std::uint64_t n)
    {
        for (std::uint64_t take = 0; n > 0; n -= take, from += take) {
            take = step(n);
            if (auto *to = static_cast<std::uint8_t *>(iov_->asPtr()))
                std::copy_n(from, take, to + off_);
            off_ += take;
        }
    }

    template <typename Out>
    void
    gather(Out to, std::uint64_t n)
    {
        for (std::uint64_t take = 0; n > 0; n -= take) {
            take = step(n);
            const auto *from =
                static_cast<const std::uint8_t *>(iov_->asPtr());
            to = from != nullptr ? std::copy_n(from + off_, take, to)
                                 : std::fill_n(to, take, 0);
            off_ += take;
        }
    }

  private:
    /** Bytes (at most @p n) left in the first unfinished segment. */
    std::uint64_t
    step(std::uint64_t n)
    {
        while (off_ >= iov_->len) {
            ++iov_;
            off_ = 0;
        }
        return std::min(n, iov_->len - off_);
    }

    const IoVec *iov_;
    std::uint64_t off_ = 0;
};

/** (address, port) endpoint; address is an opaque host id. */
struct SockAddr
{
    std::uint32_t host = 0;
    std::uint16_t port = 0;

    bool
    operator<(const SockAddr &o) const
    {
        return host != o.host ? host < o.host : port < o.port;
    }
    bool
    operator==(const SockAddr &o) const
    {
        return host == o.host && port == o.port;
    }
};

struct Datagram
{
    SockAddr from;
    std::vector<std::uint8_t> payload;
};

class UdpStack;

/** One UDP socket: a bound endpoint plus a receive queue. */
class UdpSocket
{
  public:
    UdpSocket(UdpStack &stack, int id);

    int id() const { return id_; }
    const SockAddr &local() const { return local_; }

    /** @return 0 or negative errno (EADDRINUSE). */
    int bind(SockAddr addr);

    /**
     * Send @p payload to @p dst, charging kernel + wire time.
     * @return bytes sent or negative errno.
     */
    sim::Task<std::int64_t> sendTo(SockAddr dst,
                                   std::vector<std::uint8_t> payload);

    /**
     * Receive one datagram (waits if the queue is empty).
     * Datagram semantics: excess bytes beyond @p maxLen are discarded.
     */
    sim::Task<Datagram> recvFrom(std::uint64_t maxLen);

    /** Non-blocking variant. @return false if no datagram pending. */
    bool tryRecv(Datagram &out);

    std::size_t queued() const { return rx_.size(); }
    std::uint64_t dropped() const { return dropped_; }

  private:
    friend class UdpStack;

    void enqueue(Datagram dgram);

    UdpStack &stack_;
    int id_;
    SockAddr local_;
    std::deque<Datagram> rx_;
    std::unique_ptr<sim::WaitQueue> rxWait_;
    std::uint64_t dropped_ = 0;
    static constexpr std::size_t kMaxQueue = 1024;
};

/** Host-wide UDP state: port table + delivery. */
class UdpStack
{
  public:
    UdpStack(sim::EventQueue &eq, const OskParams &params)
        : eq_(eq), params_(params)
    {}

    /** Create a socket; returned pointer owned by the stack. */
    UdpSocket *createSocket();

    UdpSocket *socket(int id) const;
    bool closeSocket(int id);

    sim::EventQueue &events() { return eq_; }
    const OskParams &params() const { return params_; }

    /** Deliver to the socket bound to @p dst (drop if none). */
    void deliver(SockAddr dst, Datagram dgram);

    std::uint64_t deliveredDatagrams() const { return delivered_; }
    std::uint64_t unroutable() const { return unroutable_; }
    /** Datagrams dropped on receive-queue overflow, stack-wide
     *  (survives socket close, unlike UdpSocket::dropped()). */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Readiness observer: called with a socket id whenever a datagram
     * lands on that socket (the epoll layer wakes waiters off it).
     */
    void setReadyCallback(std::function<void(int)> cb)
    {
        readyCb_ = std::move(cb);
    }

  private:
    friend class UdpSocket;

    sim::EventQueue &eq_;
    const OskParams &params_;
    std::function<void(int)> readyCb_;
    std::map<int, std::unique_ptr<UdpSocket>> sockets_;
    std::map<SockAddr, int> bound_;
    int nextId_ = 1;
    std::uint64_t delivered_ = 0;
    std::uint64_t unroutable_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_NET_HH
