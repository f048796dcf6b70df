/**
 * @file
 * epoll-style readiness layer implementation (gnet).
 */

#include "epoll.hh"

#include <cerrno>

#include "support/gsan.hh"
#include "support/logging.hh"

namespace genesys::osk
{

EpollInstance::EpollInstance(EpollSystem &sys, int id)
    : sys_(sys), id_(id),
      wait_q_(std::make_shared<sim::WaitQueue>(sys.events()))
{}

int
EpollInstance::ctl(int op, int fd, FileKind kind, int sock_id,
                   std::uint32_t mask, std::uint64_t data)
{
    switch (op) {
      case EPOLL_CTL_ADD_: {
        if (interests_.contains(fd))
            return -EEXIST;
        Interest in{kind, sock_id, mask, data};
        bool wake = false;
        if (in.edgeMode()) {
            // Registration probes once: an already-ready condition is
            // the initial edge, so a consumer that registers after
            // data arrived still sees it.
            in.lastReady = sys_.probe(kind, sock_id) & in.condMask();
            if (in.lastReady != 0)
                wake = recordEdge(in, in.lastReady);
        }
        interests_[fd] = in;
        if (wake)
            wait_q_->notifyAll();
        return 0;
      }
      case EPOLL_CTL_MOD_: {
        auto it = interests_.find(fd);
        if (it == interests_.end())
            return -ENOENT;
        Interest &in = it->second;
        in.mask = mask;
        in.data = data;
        in.armed = true;
        in.pending = 0;
        in.lastReady = 0;
        if (in.edgeMode()) {
            // Re-arm replays the current level as a fresh edge: a
            // ONESHOT consumer that drained and re-armed must not
            // miss bytes that arrived while it was disarmed.
            in.lastReady = sys_.probe(in.kind, in.sockId) &
                           in.condMask();
            if (in.lastReady != 0 && recordEdge(in, in.lastReady))
                wait_q_->notifyAll();
        }
        return 0;
      }
      case EPOLL_CTL_DEL_: {
        return interests_.erase(fd) > 0 ? 0 : -ENOENT;
      }
      default:
        return -EINVAL;
    }
}

int
EpollInstance::collectReady(EpollEvent *events, int max_events)
{
    int n = 0;
    for (auto &[fd, interest] : interests_) {
        std::uint32_t ready;
        if (interest.edgeMode()) {
            if (!interest.armed)
                continue;
            // Replay recorded edges; no live re-probe in edge mode.
            ready = interest.pending;
        } else {
            // EPOLLERR/EPOLLHUP are always reported, as in Linux.
            ready = sys_.probe(interest.kind, interest.sockId) &
                    interest.condMask();
        }
        if (ready == 0)
            continue;
        if (events != nullptr && n < max_events) {
            events[n].events = ready;
            events[n].data = interest.data;
            if (interest.edgeMode()) {
                // Delivered exactly once; silent until the level
                // drops and rises again (or EPOLL_CTL_MOD re-arms).
                interest.pending = 0;
                ++sys_.edgesDelivered_;
                if (sys_.gsan_ != nullptr)
                    sys_.gsan_->epollEdgeDeliver(gsanKey());
                if ((interest.mask & EPOLLONESHOT_) != 0)
                    interest.armed = false;
            }
        }
        if (++n >= max_events)
            break;
    }
    return n;
}

bool
EpollInstance::recordEdge(Interest &in, std::uint32_t edges)
{
    if (sys_.gsan_ != nullptr)
        sys_.gsan_->epollEdgeSeen(gsanKey());
    if (sys_.test_lost_edge_ && !sys_.lost_edge_fired_) {
        // Seeded bug (gmc mutant): the transition is observed but
        // never latched — the probe state has already advanced, so no
        // later noteEvent re-derives it and the consumer sleeps
        // forever. gsan's edge channel sees the probe without the
        // matching record.
        sys_.lost_edge_fired_ = true;
        return false;
    }
    in.pending |= edges;
    ++sys_.edgesRecorded_;
    if (sys_.gsan_ != nullptr)
        sys_.gsan_->epollEdgeRecord(gsanKey());
    return in.armed;
}

bool
EpollInstance::noteEdges(FileKind kind, int sock_id)
{
    bool wake = false;
    for (auto &[fd, in] : interests_) {
        if (in.kind != kind || in.sockId != sock_id || !in.edgeMode())
            continue;
        const std::uint32_t now =
            sys_.probe(kind, sock_id) & in.condMask();
        const std::uint32_t edges = now & ~in.lastReady;
        in.lastReady = now;
        if (edges == 0)
            continue;
        if (recordEdge(in, edges))
            wake = true;
    }
    return wake;
}

bool
EpollInstance::hasLtInterest(FileKind kind, int sock_id) const
{
    for (const auto &[fd, in] : interests_) {
        if (in.kind == kind && in.sockId == sock_id && !in.edgeMode())
            return true;
    }
    return false;
}

sim::Task<std::int64_t>
EpollInstance::wait(EpollEvent *events, int max_events,
                    std::int64_t timeout_ns, std::uint64_t waiter)
{
    if (max_events <= 0)
        co_return -EINVAL;
    ++sys_.waits_;
    const bool infinite = timeout_ns < 0;
    const Tick deadline =
        infinite ? 0
                 : sys_.events().now() + static_cast<Tick>(timeout_ns);
    // The queue outlives the instance: a timer or a racing close may
    // fire after this epfd is gone.
    auto wq = wait_q_;
    bool timer_armed = false;
    for (;;) {
        if (closed_)
            co_return -EBADF;
        const int n = collectReady(events, max_events);
        if (n > 0)
            co_return n;
        if (!infinite && sys_.events().now() >= deadline) {
            ++sys_.timeouts_;
            co_return 0;
        }
        // The probe above found nothing; between here and the wait()
        // below is the lost-wakeup window gsan brackets.
        if (sys_.gsan_ != nullptr)
            sys_.gsan_->epollCheck(gsanKey(), waiter);
        if (test_sleep_gap_ > 0) {
            // Seeded bug: suspend inside the window without re-probing,
            // so a notification landing in the gap is really lost.
            co_await sim::Delay(sys_.events(), test_sleep_gap_);
        }
        if (sys_.gsan_ != nullptr)
            sys_.gsan_->epollSleep(gsanKey(), waiter);
        if (!infinite && !timer_armed) {
            timer_armed = true;
            const Tick now = sys_.events().now();
            sys_.events().scheduleIn(
                deadline > now ? deadline - now : 0,
                [wq] { wq->notifyAll(); });
        }
        ++blocked_[waiter];
        co_await wq->wait();
        auto it = blocked_.find(waiter);
        if (it != blocked_.end() && --it->second == 0)
            blocked_.erase(it);
        if (sys_.gsan_ != nullptr)
            sys_.gsan_->epollWake(gsanKey(), waiter);
    }
}

void
EpollInstance::forgetSocket(FileKind kind, int sock_id)
{
    bool removed = false;
    for (auto it = interests_.begin(); it != interests_.end();) {
        if (it->second.kind == kind && it->second.sockId == sock_id) {
            it = interests_.erase(it);
            removed = true;
        } else {
            ++it;
        }
    }
    if (removed)
        wait_q_->notifyAll(); // waiters re-probe the smaller set
}

bool
EpollInstance::watches(FileKind kind, int sock_id) const
{
    for (const auto &[fd, interest] : interests_) {
        if (interest.kind == kind && interest.sockId == sock_id)
            return true;
    }
    return false;
}

EpollSystem::EpollSystem(sim::EventQueue &eq, const OskParams &params,
                         UdpStack &udp, TcpStack &tcp)
    : eq_(eq), params_(params), udp_(udp), tcp_(tcp)
{
    // Readiness changes in the stacks fan out to blocked waiters.
    udp_.setReadyCallback(
        [this](int id) { noteEvent(FileKind::Udp, id); });
    tcp_.setReadyCallback(
        [this](int id) { noteEvent(FileKind::Tcp, id); });
}

int
EpollSystem::create()
{
    const int id = next_id_++;
    instances_.emplace(id, std::make_unique<EpollInstance>(*this, id));
    return id;
}

EpollInstance *
EpollSystem::instance(int id) const
{
    auto it = instances_.find(id);
    return it == instances_.end() ? nullptr : it->second.get();
}

bool
EpollSystem::close(int id)
{
    auto it = instances_.find(id);
    if (it == instances_.end())
        return false;
    it->second->closed_ = true;
    it->second->wait_q_->notifyAll(); // blocked waiters return -EBADF
    graveyard_.push_back(std::move(it->second));
    instances_.erase(it);
    return true;
}

void
EpollSystem::noteEvent(FileKind kind, int sock_id)
{
    ++notifies_;
    for (const auto &[id, inst] : instances_) {
        if (!inst->watches(kind, sock_id))
            continue;
        if (gsan_ != nullptr)
            gsan_->epollNotify(inst->gsanKey());
        // Edges are latched whether or not anyone is waiting — that
        // is the point of edge mode: the transition is recorded now
        // and replayed to whichever waiter arrives next.
        const bool fresh_edge = inst->noteEdges(kind, sock_id);
        if (inst->wait_q_->waiting() == 0)
            continue;
        // LT waiters re-probe on every change; ET-only waiters need
        // a wake only when a fresh edge was latched.
        if (!fresh_edge && !inst->hasLtInterest(kind, sock_id))
            continue;
        ++wakeups_;
        if (wake_observer_) {
            for (const auto &[cookie, count] : inst->blocked_) {
                for (std::uint32_t i = 0; i < count; ++i)
                    wake_observer_(cookie);
            }
        }
        inst->wait_q_->notifyAll();
    }
}

void
EpollSystem::forgetSocket(FileKind kind, int sock_id)
{
    for (const auto &[id, inst] : instances_)
        inst->forgetSocket(kind, sock_id);
}

std::uint32_t
EpollSystem::probe(FileKind kind, int sock_id) const
{
    std::uint32_t ready = 0;
    switch (kind) {
      case FileKind::Udp: {
        const UdpSocket *sock = udp_.socket(sock_id);
        if (sock == nullptr)
            return EPOLLERR_ | EPOLLHUP_;
        if (sock->queued() > 0)
            ready |= EPOLLIN_;
        ready |= EPOLLOUT_; // UDP sends never block
        break;
      }
      case FileKind::Tcp: {
        const TcpSocket *sock = tcp_.socket(sock_id);
        if (sock == nullptr)
            return EPOLLERR_ | EPOLLHUP_;
        if (sock->rxQueued() > 0 || sock->acceptQueued() > 0 ||
            sock->eofPending())
            ready |= EPOLLIN_;
        if (sock->writeReady())
            ready |= EPOLLOUT_;
        if (sock->errorPending())
            ready |= EPOLLERR_;
        if (sock->eofPending() && sock->state() == TcpState::Closed)
            ready |= EPOLLHUP_;
        break;
      }
      case FileKind::Regular:
      case FileKind::CharDevice:
      case FileKind::Proc:
      case FileKind::Pipe:
      case FileKind::Epoll:
        break; // not pollable: epoll_ctl refuses these with -EPERM
    }
    return ready;
}

} // namespace genesys::osk
