/**
 * @file
 * Awaitable synchronization primitives over the EventQueue.
 *
 * All wake-ups are delivered *through the event queue* (never by direct
 * resumption from inside the notifier), which bounds native stack depth
 * and gives deterministic FIFO wake order.
 */

#ifndef GENESYS_SIM_SYNC_HH
#define GENESYS_SIM_SYNC_HH

#include <coroutine>
#include <cstddef>
#include <deque>
#include <vector>

#include "sim/event_queue.hh"
#include "support/logging.hh"
#include "support/types.hh"

namespace genesys::sim
{

/** Suspend the awaiting coroutine for a fixed number of ticks. */
class Delay
{
  public:
    Delay(EventQueue &eq, Tick delay) : eq_(eq), delay_(delay) {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        eq_.scheduleIn(delay_, h);
    }

    void await_resume() const noexcept {}

  private:
    EventQueue &eq_;
    Tick delay_;
};

/**
 * FIFO wait queue: coroutines suspend on wait() and are woken by
 * notifyOne()/notifyAll() in arrival order.
 */
class WaitQueue
{
  public:
    explicit WaitQueue(EventQueue &eq) : eq_(eq) {}

    class Awaiter
    {
      public:
        explicit Awaiter(WaitQueue &q) : q_(q) {}
        bool await_ready() const noexcept { return false; }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            q_.waiters_.push_back(h);
        }
        void await_resume() const noexcept {}

      private:
        WaitQueue &q_;
    };

    /** Unconditionally suspend until notified. */
    Awaiter wait() { return Awaiter(*this); }

    /** Wake the oldest waiter after @p latency ticks. */
    void
    notifyOne(Tick latency = 0)
    {
        if (waiters_.empty())
            return;
        auto h = waiters_.front();
        waiters_.pop_front();
        eq_.scheduleIn(latency, h);
    }

    /** Wake every current waiter after @p latency ticks. */
    void
    notifyAll(Tick latency = 0)
    {
        while (!waiters_.empty())
            notifyOne(latency);
    }

    std::size_t waiting() const { return waiters_.size(); }

  private:
    EventQueue &eq_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Counting semaphore. release() hands the permit directly to the oldest
 * waiter (no lost wake-ups, no thundering herd).
 */
class Semaphore
{
  public:
    Semaphore(EventQueue &eq, std::size_t initial)
        : eq_(eq), count_(initial)
    {}

    class Acquire
    {
      public:
        explicit Acquire(Semaphore &s) : s_(s) {}
        bool
        await_ready()
        {
            if (s_.count_ > 0) {
                --s_.count_;
                return true;
            }
            return false;
        }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            s_.waiters_.push_back(h);
        }
        void await_resume() const noexcept {}

      private:
        Semaphore &s_;
    };

    /** Await one permit. */
    Acquire acquire() { return Acquire(*this); }

    /** Non-blocking attempt. */
    bool
    tryAcquire()
    {
        if (count_ == 0)
            return false;
        --count_;
        return true;
    }

    /** Return one permit (or transfer it to a waiter). */
    void
    release()
    {
        if (!waiters_.empty()) {
            auto h = waiters_.front();
            waiters_.pop_front();
            eq_.scheduleIn(0, h);
        } else {
            ++count_;
        }
    }

    std::size_t available() const { return count_; }
    std::size_t waiting() const { return waiters_.size(); }

  private:
    EventQueue &eq_;
    std::size_t count_;
    std::deque<std::coroutine_handle<>> waiters_;
};

/**
 * Reusable rendezvous barrier for a fixed party count, used to model
 * GPU work-group scope barriers. The last arrival releases everyone and
 * resets the barrier for the next round.
 */
class Barrier
{
  public:
    Barrier(EventQueue &eq, std::size_t parties)
        : eq_(eq), parties_(parties)
    {
        GENESYS_ASSERT(parties > 0, "barrier needs at least one party");
    }

    class ArriveAndWait
    {
      public:
        explicit ArriveAndWait(Barrier &b) : b_(b) {}
        bool
        await_ready()
        {
            if (b_.arrived_ + 1 == b_.parties_) {
                // Last arrival: wake the others, do not suspend.
                b_.arrived_ = 0;
                for (auto h : b_.waiters_)
                    b_.eq_.scheduleIn(0, h);
                b_.waiters_.clear();
                return true;
            }
            return false;
        }
        void
        await_suspend(std::coroutine_handle<> h)
        {
            ++b_.arrived_;
            b_.waiters_.push_back(h);
        }
        void await_resume() const noexcept {}

      private:
        Barrier &b_;
    };

    /** Await until all parties arrive. */
    ArriveAndWait arriveAndWait() { return ArriveAndWait(*this); }

    std::size_t parties() const { return parties_; }
    std::size_t arrived() const { return arrived_; }

  private:
    EventQueue &eq_;
    std::size_t parties_;
    std::size_t arrived_ = 0;
    std::vector<std::coroutine_handle<>> waiters_;
};

} // namespace genesys::sim

#endif // GENESYS_SIM_SYNC_HH
