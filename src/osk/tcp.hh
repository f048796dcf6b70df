/**
 * @file
 * Connection-oriented stream sockets (gnet).
 *
 * Models TCP at the level GENESYS needs: a per-socket state machine
 * (LISTEN / SYN / ESTABLISHED / FIN states), bounded receive windows
 * with sender backpressure, and a modeled wire with per-link RTT and a
 * deterministic per-segment loss process driven by an explicitly
 * seeded support/random.hh stream. Lost segments are retransmitted
 * after an RTO; a segment that exhausts its attempt budget resets the
 * connection. No checksum/sequence machinery is modeled — the wire is
 * lossy but not reordering, which is all the timing study requires.
 *
 * Receive buffering is a chain of refcounted wire segments (NetSeg)
 * living in GPU-visible memory rather than a flat byte deque: write()
 * materializes each wire segment exactly once (the tx DMA), deposit()
 * moves the reference into the peer's chain, and readers choose
 * between the classic copy-out path (read/readv, counted in
 * copiedBytes) and the zero-copy path (readSegments, which transfers
 * segment ownership to the caller and counts zerocopyBytes). The two
 * counters under /sys/genesys/net/tcp/ are how benchmarks prove a
 * serving path never copied on its hot path.
 *
 * Readiness changes (data arrival, accept-queue growth, window space,
 * EOF, reset) are reported through a stack-level callback so the epoll
 * layer (osk/epoll.hh) can wake multi-socket waiters.
 */

#ifndef GENESYS_OSK_TCP_HH
#define GENESYS_OSK_TCP_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "osk/net.hh"
#include "osk/params.hh"
#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "support/random.hh"
#include "support/types.hh"

namespace genesys::osk
{

/** Collapsed TCP state machine (TIME_WAIT and friends elided). */
enum class TcpState
{
    Closed,      ///< no connection (initial and terminal state)
    Listen,      ///< passive open, accepting
    SynSent,     ///< active open in flight
    SynRcvd,     ///< passive side mid-handshake
    Established, ///< data flows both ways
    FinWait,     ///< we sent FIN; peer may still send
    CloseWait    ///< peer sent FIN; we may still send
};

// shutdown(2) `how` values (match Linux).
inline constexpr int SHUT_RD_ = 0;
inline constexpr int SHUT_WR_ = 1;
inline constexpr int SHUT_RDWR_ = 2;

// sendmsg/recvmsg flag subset (values match Linux). MSG_DONTWAIT
// turns an empty receive chain into -EAGAIN instead of a park — the
// drain loop primitive edge-triggered consumers are built on.
// MSG_ZEROCOPY switches recvmsg to the loaned-segment protocol: the
// caller's iovec entries are rewritten to point into refcounted wire
// segments instead of being copied into.
inline constexpr int MSG_DONTWAIT_ = 0x40;
inline constexpr int MSG_ZEROCOPY_ = 0x4000000;

/**
 * One refcounted wire segment. The backing vector is allocated once by
 * the sender (the single tx copy the DMA model charges for) and then
 * only referenced: deposit() moves it into the receiver's chain and
 * readSegments() hands it to the consumer without copying. (off, len)
 * window the live bytes so partial copy-out reads can coexist with
 * whole-segment loans on the same chain.
 */
struct NetSeg
{
    std::shared_ptr<std::vector<std::uint8_t>> data;
    std::uint32_t off = 0;
    std::uint32_t len = 0;

    const std::uint8_t *
    bytes() const
    {
        return data->data() + off;
    }
};

/** Stack-wide counters, exported through /sys/genesys/net/tcp/. */
struct TcpCounters
{
    std::uint64_t segsSent = 0;    ///< segments put on the wire.
    std::uint64_t segsLost = 0;    ///< wire drops (each retransmitted).
    std::uint64_t retransmits = 0; ///< RTO-driven resends.
    std::uint64_t backpressureStalls = 0; ///< writes blocked on window.
    std::uint64_t accepts = 0;
    std::uint64_t connects = 0;
    std::uint64_t refused = 0; ///< connects with no listener/backlog.
    std::uint64_t resets = 0;  ///< attempt budget exhausted.
    std::uint64_t copiedBytes = 0;   ///< rx bytes copied out (read/readv).
    std::uint64_t zerocopyBytes = 0; ///< rx bytes loaned (readSegments).
};

class TcpStack;

/** One endpoint of (at most) one stream connection. */
class TcpSocket
{
  public:
    TcpSocket(TcpStack &stack, int id);

    int id() const { return id_; }
    TcpState state() const { return tcpState_; }
    const SockAddr &local() const { return local_; }
    const SockAddr &peer() const { return peer_; }

    /** @return 0 or negative errno (EADDRINUSE, EINVAL). */
    int bind(SockAddr addr);

    /** Passive open. @return 0 or negative errno. */
    int listen(int backlog);

    /**
     * Active open: charges handshake RTT (SYN is retransmitted like
     * any segment) and rendezvouses with a listener.
     * @return 0 or negative errno (ECONNREFUSED, ECONNRESET, EISCONN).
     */
    sim::Task<int> connect(SockAddr dst);

    /**
     * Pop one established connection, waiting while the queue is
     * empty. @return new socket id or negative errno (EINVAL).
     */
    sim::Task<int> accept();

    /** Non-blocking variant. @return false if nothing is queued. */
    bool tryAccept(int &out_id);

    /**
     * Stream read: returns immediately-available bytes (up to
     * @p max_len), waits while the receive buffer is empty, returns 0
     * at EOF (peer FIN, buffer drained). Copy-out path: bytes are
     * counted in TcpCounters::copiedBytes.
     */
    sim::Task<std::int64_t> read(void *buf, std::uint64_t max_len);

    /**
     * Scatter read: like read() but fills @p iov[0..iov_cnt) in order.
     * One wait, then as many immediately-available bytes as fit;
     * @p nonblock answers -EAGAIN instead of waiting (MSG_DONTWAIT).
     */
    sim::Task<std::int64_t> readv(const IoVec *iov, int iov_cnt,
                                  bool nonblock = false);

    /**
     * Zero-copy read: pops up to @p max_segs whole segments off the
     * receive chain into @p out, transferring ownership (the caller's
     * NetSeg refs keep the buffers alive). Bytes are counted in
     * TcpCounters::zerocopyBytes, never copiedBytes.
     * @return segment count (> 0), 0 at EOF, or negative errno;
     * -EAGAIN when @p nonblock and the chain is empty.
     */
    sim::Task<std::int64_t> readSegments(NetSeg *out, int max_segs,
                                         bool nonblock);

    /**
     * Stream write: segments the payload, charges wire time per
     * segment (including retransmits), blocks while the peer's
     * receive window is full. Writes everything or fails.
     * @return @p len or negative errno (EPIPE, ECONNRESET).
     */
    sim::Task<std::int64_t> write(const void *buf, std::uint64_t len);

    /**
     * Gather write: transmits @p iov[0..iov_cnt) as one stream, wire
     * segments packed across iovec boundaries (one tx copy per wire
     * segment, same as write()).
     */
    sim::Task<std::int64_t> writev(const IoVec *iov, int iov_cnt);

    /** Half/full close. @return 0 or negative errno. */
    sim::Task<int> shutdown(int how);

    // Readiness probes for the epoll layer.
    std::size_t rxQueued() const { return rx_bytes_; }
    std::size_t acceptQueued() const { return accept_q_.size(); }
    bool eofPending() const { return fin_rcvd_; }
    bool errorPending() const { return error_ != 0; }
    /** True when a write of one byte would not block. */
    bool writeReady() const;

  private:
    friend class TcpStack;

    /** Free space in this socket's receive window. */
    std::uint64_t rxSpace() const;

    /** Take ownership of a wire segment arriving from the peer. */
    void deposit(NetSeg seg);

    /** Peer sent FIN: mark EOF and wake readers. */
    void finFromPeer();

    /** Hard error (reset): fail pending and future operations. */
    void resetFromPeer();

    /**
     * Shared wait/validate prologue for the read family: waits until
     * data is queued or a terminal condition holds. @return 1 when
     * data is available, else 0 (EOF) or negative errno.
     */
    sim::Task<std::int64_t> awaitReadable(bool nonblock);

    /** Post-consume bookkeeping: open window, wake, note readiness. */
    void consumed(std::uint64_t n);

    /** Gather-send over an iovec cursor; shared by write/writev. */
    sim::Task<std::int64_t> gatherSend(const IoVec *iov, std::uint64_t total);

    TcpStack &stack_;
    int id_;
    TcpState tcpState_ = TcpState::Closed;
    SockAddr local_;
    SockAddr peer_;
    int peer_id_ = -1;
    int error_ = 0; ///< sticky errno after a reset.

    std::deque<NetSeg> rx_;     ///< receive chain (refcounted segs).
    std::uint64_t rx_bytes_ = 0; ///< live bytes across the chain.
    bool fin_rcvd_ = false;
    bool fin_sent_ = false;

    int backlog_ = 0;
    std::deque<int> accept_q_; ///< established, not yet accepted.

    std::unique_ptr<sim::WaitQueue> rx_wait_;     ///< readers.
    std::unique_ptr<sim::WaitQueue> space_wait_;  ///< peer's writers.
    std::unique_ptr<sim::WaitQueue> accept_wait_; ///< accept().
};

/** Host-wide TCP state: socket table, listeners, the modeled wire. */
class TcpStack
{
  public:
    /**
     * The loss process draws from its own seeded stream (never from
     * Sim::random(): workload data generation consumes that stream and
     * the wire must not perturb it).
     */
    TcpStack(sim::EventQueue &eq, const OskParams &params,
             std::uint64_t seed = 0x67EE7u /* "gnet" */);

    TcpSocket *createSocket();
    TcpSocket *socket(int id) const;
    bool closeSocket(int id);

    sim::EventQueue &events() { return eq_; }
    const OskParams &params() const { return params_; }
    const TcpCounters &counters() const { return counters_; }

    /** Override the params loss rate (tests, sysfs knob). */
    void setLossPpm(std::uint32_t ppm) { loss_ppm_ = ppm; }
    std::uint32_t lossPpm() const { return loss_ppm_; }

    /**
     * Readiness observer: called with a socket id whenever that
     * socket's readiness may have changed.
     */
    void setReadyCallback(std::function<void(int)> cb)
    {
        ready_cb_ = std::move(cb);
    }

  private:
    friend class TcpSocket;

    void noteReady(int sock_id);

    /**
     * Wire time for one segment of @p bytes including retransmits.
     * @return the delay to charge, or 0 with @p reset set when the
     * attempt budget is exhausted.
     */
    Tick segmentDelay(std::uint64_t bytes, bool &reset);

    sim::EventQueue &eq_;
    const OskParams &params_;
    Random rng_;
    std::uint32_t loss_ppm_;
    TcpCounters counters_;
    std::function<void(int)> ready_cb_;
    std::map<int, std::unique_ptr<TcpSocket>> sockets_;
    /** Closed sockets with possibly-live waiters; see closeSocket(). */
    std::vector<std::unique_ptr<TcpSocket>> graveyard_;
    std::map<SockAddr, int> bound_;     ///< all bound endpoints.
    std::map<SockAddr, int> listeners_; ///< subset in LISTEN.
    int next_id_ = 1;
    std::uint16_t next_ephemeral_ = 49152;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_TCP_HH
