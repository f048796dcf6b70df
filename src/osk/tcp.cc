/**
 * @file
 * Stream socket implementation (gnet).
 */

#include "tcp.hh"

#include <algorithm>
#include <cerrno>

#include "support/logging.hh"

namespace genesys::osk
{

TcpSocket::TcpSocket(TcpStack &stack, int id)
    : stack_(stack), id_(id),
      rx_wait_(std::make_unique<sim::WaitQueue>(stack.events())),
      space_wait_(std::make_unique<sim::WaitQueue>(stack.events())),
      accept_wait_(std::make_unique<sim::WaitQueue>(stack.events()))
{}

int
TcpSocket::bind(SockAddr addr)
{
    if (tcpState_ != TcpState::Closed)
        return -EINVAL;
    if (addr.port == 0)
        return -EINVAL;
    if (stack_.bound_.contains(addr))
        return -EADDRINUSE;
    if (local_.port != 0)
        stack_.bound_.erase(local_);
    local_ = addr;
    stack_.bound_[addr] = id_;
    return 0;
}

int
TcpSocket::listen(int backlog)
{
    if (tcpState_ != TcpState::Closed)
        return -EINVAL;
    if (local_.port == 0)
        return -EINVAL; // bind first; ephemeral listeners not modeled
    backlog_ = backlog > 0
                   ? backlog
                   : static_cast<int>(stack_.params().tcpAcceptBacklog);
    tcpState_ = TcpState::Listen;
    stack_.listeners_[local_] = id_;
    return 0;
}

sim::Task<int>
TcpSocket::connect(SockAddr dst)
{
    if (tcpState_ == TcpState::Established ||
        tcpState_ == TcpState::SynSent)
        co_return -EISCONN;
    if (tcpState_ != TcpState::Closed)
        co_return -EINVAL;
    if (error_ != 0)
        co_return -error_;
    if (local_.port == 0) {
        // Ephemeral port assignment.
        SockAddr addr = local_;
        do {
            addr.port = stack_.next_ephemeral_++;
        } while (stack_.bound_.contains(addr));
        local_ = addr;
        stack_.bound_[addr] = id_;
    }
    tcpState_ = TcpState::SynSent;
    bool reset = false;
    const Tick syn = stack_.segmentDelay(0, reset);
    if (reset) {
        ++stack_.counters_.resets;
        tcpState_ = TcpState::Closed;
        error_ = ETIMEDOUT;
        co_return -ETIMEDOUT;
    }
    co_await sim::Delay(stack_.events(), syn);

    auto it = stack_.listeners_.find(dst);
    TcpSocket *lst =
        it == stack_.listeners_.end() ? nullptr
                                      : stack_.socket(it->second);
    if (lst == nullptr || lst->tcpState_ != TcpState::Listen ||
        lst->accept_q_.size() >=
            static_cast<std::size_t>(lst->backlog_)) {
        ++stack_.counters_.refused;
        // RST comes straight back.
        co_await sim::Delay(stack_.events(), stack_.params().tcpRtt / 2);
        tcpState_ = TcpState::Closed;
        co_return -ECONNREFUSED;
    }

    // Passive endpoint for this connection.
    TcpSocket *srv = stack_.createSocket();
    srv->tcpState_ = TcpState::SynRcvd;
    srv->local_ = lst->local_;
    srv->peer_ = local_;
    srv->peer_id_ = id_;
    peer_ = dst;
    peer_id_ = srv->id_;

    // SYN-ACK back, final ACK piggybacks on first data.
    co_await sim::Delay(stack_.events(), stack_.params().tcpRtt / 2);
    tcpState_ = TcpState::Established;
    srv->tcpState_ = TcpState::Established;
    ++stack_.counters_.connects;
    lst->accept_q_.push_back(srv->id_);
    lst->accept_wait_->notifyAll();
    stack_.noteReady(lst->id_);
    co_return 0;
}

sim::Task<int>
TcpSocket::accept()
{
    for (;;) {
        if (tcpState_ != TcpState::Listen)
            co_return -EINVAL;
        if (!accept_q_.empty())
            break;
        co_await accept_wait_->wait();
    }
    const int sid = accept_q_.front();
    accept_q_.pop_front();
    ++stack_.counters_.accepts;
    stack_.noteReady(id_); // readiness level may have dropped
    co_return sid;
}

bool
TcpSocket::tryAccept(int &out_id)
{
    if (accept_q_.empty())
        return false;
    out_id = accept_q_.front();
    accept_q_.pop_front();
    ++stack_.counters_.accepts;
    return true;
}

sim::Task<std::int64_t>
TcpSocket::awaitReadable(bool nonblock)
{
    for (;;) {
        if (!rx_.empty())
            co_return 1;
        if (error_ != 0)
            co_return -error_;
        if (fin_rcvd_)
            co_return 0; // EOF
        if (tcpState_ == TcpState::Listen)
            co_return -EINVAL;
        if (tcpState_ == TcpState::Closed ||
            tcpState_ == TcpState::SynSent)
            co_return -ENOTCONN;
        if (nonblock)
            co_return -EAGAIN;
        co_await rx_wait_->wait();
    }
}

void
TcpSocket::consumed(std::uint64_t n)
{
    rx_bytes_ -= n;
    // Window opened: unblock the peer's writers and let epoll watchers
    // of the peer re-evaluate EPOLLOUT.
    space_wait_->notifyAll();
    stack_.noteReady(id_);
    if (TcpSocket *pp = stack_.socket(peer_id_))
        stack_.noteReady(pp->id());
}

sim::Task<std::int64_t>
TcpSocket::read(void *buf, std::uint64_t max_len)
{
    const IoVec one = IoVec::of(buf, max_len);
    co_return co_await readv(&one, 1);
}

sim::Task<std::int64_t>
TcpSocket::readv(const IoVec *iov, int iov_cnt, bool nonblock)
{
    const std::uint64_t cap = iovTotal(iov, iov_cnt);
    if (cap == 0)
        co_return 0;
    const std::int64_t rdy = co_await awaitReadable(nonblock);
    if (rdy <= 0)
        co_return rdy;
    IovCursor to(iov);
    std::uint64_t n = 0;
    while (n < cap && !rx_.empty()) {
        NetSeg &s = rx_.front();
        const auto take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(cap - n, s.len));
        to.scatter(s.bytes(), take);
        s.off += take;
        s.len -= take;
        if (s.len == 0)
            rx_.pop_front();
        n += take;
    }
    stack_.counters_.copiedBytes += n;
    consumed(n);
    co_return static_cast<std::int64_t>(n);
}

sim::Task<std::int64_t>
TcpSocket::readSegments(NetSeg *out, int max_segs, bool nonblock)
{
    if (max_segs <= 0)
        co_return -EINVAL;
    const std::int64_t rdy = co_await awaitReadable(nonblock);
    if (rdy <= 0)
        co_return rdy;
    int count = 0;
    std::uint64_t n = 0;
    while (count < max_segs && !rx_.empty()) {
        n += rx_.front().len;
        out[count++] = std::move(rx_.front());
        rx_.pop_front();
    }
    stack_.counters_.zerocopyBytes += n;
    consumed(n);
    co_return static_cast<std::int64_t>(count);
}

sim::Task<std::int64_t>
TcpSocket::gatherSend(const IoVec *iov, std::uint64_t total)
{
    if (error_ != 0)
        co_return -error_;
    if (tcpState_ == TcpState::FinWait)
        co_return -EPIPE; // we already sent FIN
    if (tcpState_ != TcpState::Established &&
        tcpState_ != TcpState::CloseWait)
        co_return -ENOTCONN;
    IovCursor from(iov);
    std::uint64_t sent = 0;
    while (sent < total) {
        if (error_ != 0)
            co_return -error_;
        if (fin_sent_)
            co_return -EPIPE;
        TcpSocket *peer = stack_.socket(peer_id_);
        if (peer == nullptr) {
            error_ = ECONNRESET;
            co_return -ECONNRESET;
        }
        const std::uint64_t space = peer->rxSpace();
        if (space == 0) {
            // Receive window full: block until the reader drains.
            ++stack_.counters_.backpressureStalls;
            co_await peer->space_wait_->wait();
            continue; // re-validate the peer after waking
        }
        const std::uint64_t seg_len = std::min<std::uint64_t>(
            {total - sent, space,
             static_cast<std::uint64_t>(stack_.params().tcpMss)});
        // Materialize the wire segment: the one tx copy, gathered
        // across iovec boundaries. Receivers only reference it.
        NetSeg seg;
        seg.data = std::make_shared<std::vector<std::uint8_t>>(seg_len);
        seg.len = static_cast<std::uint32_t>(seg_len);
        from.gather(seg.data->data(), seg_len);
        bool reset = false;
        const Tick delay = stack_.segmentDelay(seg_len, reset);
        if (reset) {
            ++stack_.counters_.resets;
            error_ = ECONNRESET;
            tcpState_ = TcpState::Closed;
            if (TcpSocket *pp = stack_.socket(peer_id_))
                pp->resetFromPeer();
            co_return -ECONNRESET;
        }
        co_await sim::Delay(stack_.events(), delay);
        if (error_ != 0)
            co_return -error_;
        peer = stack_.socket(peer_id_); // may have closed meanwhile
        if (peer == nullptr) {
            error_ = ECONNRESET;
            co_return -ECONNRESET;
        }
        peer->deposit(std::move(seg));
        sent += seg_len;
    }
    co_return static_cast<std::int64_t>(total);
}

sim::Task<std::int64_t>
TcpSocket::write(const void *buf, std::uint64_t len)
{
    const IoVec one = IoVec::of(buf, len);
    co_return co_await gatherSend(&one, len);
}

sim::Task<std::int64_t>
TcpSocket::writev(const IoVec *iov, int iov_cnt)
{
    co_return co_await gatherSend(iov, iovTotal(iov, iov_cnt));
}

sim::Task<int>
TcpSocket::shutdown(int how)
{
    if (how < SHUT_RD_ || how > SHUT_RDWR_)
        co_return -EINVAL;
    if (tcpState_ == TcpState::Closed || tcpState_ == TcpState::Listen ||
        tcpState_ == TcpState::SynSent)
        co_return -ENOTCONN;
    if (how == SHUT_RD_ || how == SHUT_RDWR_) {
        fin_rcvd_ = true; // further reads see EOF
        rx_wait_->notifyAll();
        stack_.noteReady(id_);
        if (how == SHUT_RD_)
            co_return 0;
    }
    if (fin_sent_)
        co_return 0;
    fin_sent_ = true;
    bool reset = false;
    const Tick fin = stack_.segmentDelay(0, reset);
    if (reset) {
        ++stack_.counters_.resets;
        error_ = ECONNRESET;
        tcpState_ = TcpState::Closed;
        if (TcpSocket *pp = stack_.socket(peer_id_))
            pp->resetFromPeer();
        co_return -ECONNRESET;
    }
    tcpState_ = tcpState_ == TcpState::CloseWait ? TcpState::Closed
                                           : TcpState::FinWait;
    co_await sim::Delay(stack_.events(), fin);
    if (TcpSocket *pp = stack_.socket(peer_id_))
        pp->finFromPeer();
    co_return 0;
}

bool
TcpSocket::writeReady() const
{
    if (tcpState_ != TcpState::Established &&
        tcpState_ != TcpState::CloseWait)
        return false;
    if (fin_sent_)
        return false;
    const TcpSocket *peer = stack_.socket(peer_id_);
    return peer != nullptr && peer->rxSpace() > 0;
}

std::uint64_t
TcpSocket::rxSpace() const
{
    const std::uint64_t window = stack_.params().tcpWindowBytes;
    return rx_bytes_ >= window ? 0 : window - rx_bytes_;
}

void
TcpSocket::deposit(NetSeg seg)
{
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(seg.len, rxSpace()));
    if (n == 0)
        return;
    seg.len = n; // window shrank in flight: excess trimmed (as before)
    rx_.push_back(std::move(seg));
    rx_bytes_ += n;
    rx_wait_->notifyAll();
    stack_.noteReady(id_);
}

void
TcpSocket::finFromPeer()
{
    if (fin_rcvd_)
        return;
    fin_rcvd_ = true;
    if (tcpState_ == TcpState::Established)
        tcpState_ = TcpState::CloseWait;
    else if (tcpState_ == TcpState::FinWait)
        tcpState_ = TcpState::Closed; // both FINs exchanged
    rx_wait_->notifyAll();
    stack_.noteReady(id_);
}

void
TcpSocket::resetFromPeer()
{
    if (error_ != 0)
        return;
    error_ = ECONNRESET;
    tcpState_ = TcpState::Closed;
    rx_wait_->notifyAll();
    space_wait_->notifyAll();
    accept_wait_->notifyAll();
    stack_.noteReady(id_);
}

TcpStack::TcpStack(sim::EventQueue &eq, const OskParams &params,
                   std::uint64_t seed)
    : eq_(eq), params_(params), rng_(seed), loss_ppm_(params.tcpLossPpm)
{}

TcpSocket *
TcpStack::createSocket()
{
    const int id = next_id_++;
    auto sock = std::make_unique<TcpSocket>(*this, id);
    TcpSocket *raw = sock.get();
    sockets_.emplace(id, std::move(sock));
    return raw;
}

TcpSocket *
TcpStack::socket(int id) const
{
    auto it = sockets_.find(id);
    return it == sockets_.end() ? nullptr : it->second.get();
}

bool
TcpStack::closeSocket(int id)
{
    auto it = sockets_.find(id);
    if (it == sockets_.end())
        return false;
    TcpSocket &s = *it->second;
    // Accepted sockets share local_ with their listener; only drop
    // the address-map entries that actually point at this socket.
    if (s.local_.port != 0) {
        auto bit = bound_.find(s.local_);
        if (bit != bound_.end() && bit->second == id)
            bound_.erase(bit);
        auto lit = listeners_.find(s.local_);
        if (lit != listeners_.end() && lit->second == id)
            listeners_.erase(lit);
    }
    // close() implies FIN in both directions; the FIN's wire time is
    // unobservable (the fd is gone) so it is delivered immediately.
    if (TcpSocket *pp = socket(s.peer_id_))
        pp->finFromPeer();
    // Queued-but-never-accepted connections are reset.
    const std::deque<int> orphans = std::move(s.accept_q_);
    s.accept_q_.clear();
    s.tcpState_ = TcpState::Closed;
    s.rx_wait_->notifyAll();
    s.space_wait_->notifyAll();
    s.accept_wait_->notifyAll();
    noteReady(id);
    // The object moves to a graveyard rather than being destroyed:
    // in-flight coroutines (a peer's write mid-wire-delay, a blocked
    // reader) still hold pointers to it and resolve their fate on the
    // next loop iteration via socket(), which now returns nullptr.
    graveyard_.push_back(std::move(it->second));
    sockets_.erase(it);
    for (const int qid : orphans) {
        if (TcpSocket *q = socket(qid)) {
            if (TcpSocket *qp = socket(q->peer_id_))
                qp->resetFromPeer();
            closeSocket(qid);
        }
    }
    return true;
}

void
TcpStack::noteReady(int sock_id)
{
    if (ready_cb_)
        ready_cb_(sock_id);
}

Tick
TcpStack::segmentDelay(std::uint64_t bytes, bool &reset)
{
    reset = false;
    constexpr std::uint64_t kHeaderBytes = 40; // IP + TCP
    std::uint32_t attempts = 1;
    while (loss_ppm_ > 0 && rng_.below(1000000) < loss_ppm_) {
        if (attempts >= params_.tcpMaxAttempts) {
            counters_.segsSent += attempts;
            counters_.segsLost += attempts;
            counters_.retransmits += attempts - 1;
            reset = true;
            return 0;
        }
        ++attempts;
    }
    counters_.segsSent += attempts;
    counters_.segsLost += attempts - 1;
    counters_.retransmits += attempts - 1;
    return (attempts - 1) * params_.tcpRto + params_.tcpRtt / 2 +
           transferTicks(bytes + kHeaderBytes, params_.netBytesPerSec);
}

} // namespace genesys::osk
