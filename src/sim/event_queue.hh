/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated machine: GPU wavefronts,
 * CPU cores, OS worker threads, interrupt delivery, NIC peers and the
 * memory system all interact exclusively by scheduling events. Events at
 * the same tick execute in FIFO scheduling order (a monotone sequence
 * number breaks ties), which makes every run bit-for-bit deterministic.
 *
 * An event is a suspended coroutine to resume (what every awaitable
 * delay and wake-up schedules), a plain function with a context pointer,
 * or a std::function callback. All kinds share one (when, seq) order.
 *
 * The queue is a timing wheel (a calendar queue; Brown, CACM 1988;
 * Varghese & Lauck, SOSP 1987): one FIFO bucket per tick for the next
 * 2048 ticks, a two-level bitmap of the non-empty ones, and a binary
 * heap for events further out. Events join a bucket in seq order, so
 * same-tick order needs no key comparisons; far events move into their
 * buckets as soon as time brings them inside the window, before any
 * later event can join the same bucket.
 */

#ifndef GENESYS_SIM_EVENT_QUEUE_HH
#define GENESYS_SIM_EVENT_QUEUE_HH

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "support/types.hh"

namespace genesys::sim
{

/**
 * Handle for cancelling a scheduled event: the event cell's
 * generation in the high 32 bits, the cell index in the low 32. A
 * live generation is odd, so 0 is never issued.
 */
using EventId = std::uint64_t;

/**
 * One runnable event offered to a TieBreakPolicy. @p seq is the
 * monotone scheduling sequence number: candidates are always presented
 * in seq-ascending (FIFO) order, so index 0 is what the default policy
 * would run.
 */
struct TieBreakCandidate
{
    EventId id;
    std::uint64_t seq;
};

/**
 * Pluggable same-tick tie-break policy (the gmc model checker's hook
 * into the engine). When installed, every point where two or more live
 * events are runnable at the same tick becomes an explicit choice:
 * pick() selects which one executes next; the others keep their places
 * in the tick's bucket. With no policy installed the queue runs each
 * bucket in FIFO order, and an always-0 policy reproduces that run
 * exactly, ids included.
 */
class TieBreakPolicy
{
  public:
    virtual ~TieBreakPolicy() = default;

    /**
     * Choose which of @p candidates (>= 2, FIFO order) runs next at
     * tick @p now. Return an index into @p candidates.
     */
    virtual std::size_t pick(Tick now,
                             const std::vector<TieBreakCandidate> &candidates)
        = 0;

    /**
     * Called after every event callback finishes (including unique,
     * non-tied events). Lets a schedule recorder attribute side effects
     * (e.g. slot-probe touches) to the event that produced them.
     */
    virtual void onExecute(EventId id, Tick when) { (void)id; (void)when; }
};

class EventQueue
{
  public:
    using Callback = std::function<void()>;
    /// A plain function and its context: an event that allocates
    /// nothing (the memory bus and the L2-miss hand-off use it).
    using Action = void (*)(void *);

    EventQueue();

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     * Scheduling in the past is a simulator bug.
     * @return an id usable with deschedule().
     */
    EventId schedule(Tick when, Callback cb);

    /** Schedule @p cb to run @p delay ticks from now. */
    EventId scheduleIn(Tick delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /** Schedule the suspended coroutine @p h to resume at @p when. */
    EventId schedule(Tick when, std::coroutine_handle<> h);

    /** Schedule @p h to resume @p delay ticks from now. */
    EventId scheduleIn(Tick delay, std::coroutine_handle<> h)
    {
        return schedule(now_ + delay, h);
    }

    /** Schedule `fn(ctx)` to run at absolute tick @p when. */
    EventId schedule(Tick when, Action fn, void *ctx);

    /** Schedule `fn(ctx)` to run @p delay ticks from now. */
    EventId scheduleIn(Tick delay, Action fn, void *ctx)
    {
        return schedule(now_ + delay, fn, ctx);
    }

    /**
     * Cancel a pending event in O(1), destroying its callback now.
     * Cancelling an already-fired or unknown event is a no-op and
     * returns false, even after the event's cell has been reused.
     */
    bool deschedule(EventId id);

    /** True when no runnable events remain. */
    bool empty() const { return live_ == 0; }

    std::size_t pendingEvents() const { return live_; }

    /**
     * Execute the next event (advancing time to it).
     * @return false if the queue was empty.
     */
    bool runOne();

    /**
     * Run until the queue drains or the next event would fire past
     * @p limit. Time is left at the tick of the last executed event,
     * or advanced to @p limit if live events remain beyond it; it
     * never moves back, nor to a cancelled event's tick. When
     * @p max_events is non-zero, stop after executing that many events
     * in this call even if runnable work remains (model-checking budget
     * against schedules that never quiesce).
     * @return the final value of now().
     */
    Tick run(Tick limit = kMaxTick, std::uint64_t max_events = 0);

    /** Total events executed so far (for stats / leak checks). */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Install (or clear, with nullptr) a same-tick tie-break policy.
     * Non-owning; the policy must outlive the queue or be cleared
     * first. Null keeps the FIFO path.
     */
    void setTieBreaker(TieBreakPolicy *policy) { tieBreaker_ = policy; }

    TieBreakPolicy *tieBreaker() const { return tieBreaker_; }

  private:
    /// Ticks the wheel covers, [now_, now_ + kSpan): one bucket each.
    /// Taken from the measured delays: 99.8% of wordcount_ssd's events
    /// and 93% of gkv_serve's fall inside, where a quarter of
    /// wordcount's have delays in [1024, 2048).
    static constexpr Tick kSpan = 2048;
    static constexpr std::uint32_t kWords = kSpan / 64;
    static_assert((kSpan & (kSpan - 1)) == 0 && kWords <= 32);

    /// Cell index bits in a far key's tag; the seq takes the rest.
    static constexpr unsigned kCellBits = 24;
    static constexpr std::uint32_t kMaxCells = std::uint32_t{1}
                                               << kCellBits;
    static constexpr std::uint64_t kMaxSeq = std::uint64_t{1}
                                             << (64 - kCellBits);
    /// A free cell's seq, which no key carries.
    static constexpr std::uint64_t kFreeSeq = ~std::uint64_t{0};
    static constexpr std::uint32_t kNoCell = ~std::uint32_t{0};
    /// Pending events the pool and far heap hold before their first
    /// regrow.
    static constexpr std::size_t kInitialEvents = 256;

    /**
     * Far-heap entry: the event's tick and `seq << kCellBits | cell`.
     * The event lives in cells_[cell()]; the key is a tombstone once
     * that cell's seq no longer equals seq() (the event was
     * cancelled).
     */
    struct Key
    {
        Tick when;
        std::uint64_t tag;

        std::uint32_t
        cell() const
        {
            return static_cast<std::uint32_t>(tag & (kMaxCells - 1));
        }
        std::uint64_t seq() const { return tag >> kCellBits; }
    };
    static_assert(sizeof(Key) == 16);

    /** Min-heap order on (when, seq) for the std::*_heap algorithms. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.tag > b.tag;
        }
    };

    /**
     * An event slot: `fn(ctx)` to run or, when fn is null, a callback.
     * gen is odd while an event occupies the cell and even while the
     * cell is on the free list, so a stale or forged id never matches
     * a free cell. next and prev link a bucket's cells; next also
     * links the free list.
     */
    struct Cell
    {
        Callback cb;
        Action fn = nullptr;
        void *ctx = nullptr;
        Tick when = 0;
        std::uint64_t seq = kFreeSeq;
        std::uint32_t gen = 0;
        std::uint32_t next = kNoCell;
        std::uint32_t prev = kNoCell;
    };

    /** One tick's events in seq order; valid while its bit is set. */
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** Take a free cell for an event at @p when and queue it. */
    std::uint32_t claim(Tick when);
    EventId idOf(std::uint32_t cell) const;
    bool live(const Key &k) const { return cells_[k.cell()].seq == k.seq(); }
    /** True when @p when falls before the wheel's end, now_ + kSpan. */
    bool
    inWheel(Tick when) const
    {
        return when < now_ || when - now_ < kSpan;
    }
    void append(std::uint32_t cell);
    void unlink(std::uint32_t cell);
    /** The earliest live event's tick; false when none is pending. */
    bool nextTick(Tick &when);
    /** Move time to @p when and pull far events into the wheel. */
    void advanceTo(Tick when);
    /** Run the next event, due at @p when (as nextTick() found). */
    void runAt(Tick when);
    /** Return a fired or cancelled event's cell to the free list. */
    void release(std::uint32_t cell);
    void execute(std::uint32_t cell);

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Cell> cells_;
    std::uint32_t freeHead_ = kNoCell;
    /// Events scheduled but neither executed nor cancelled.
    std::size_t live_ = 0;
    /// Bucket tick % kSpan holds the events of that tick in the window.
    std::unique_ptr<Bucket[]> buckets_;
    /// One bit per non-empty bucket, and one per non-zero word of it.
    std::array<std::uint64_t, kWords> occupied_{};
    std::uint32_t occupiedWords_ = 0;
    /// Events at now_ + kSpan or later, as a binary min-heap of keys.
    std::vector<Key> far_;
    TieBreakPolicy *tieBreaker_ = nullptr;
    /// runAt()'s scratch under a policy, kept to reuse its storage.
    std::vector<TieBreakCandidate> candidates_;
};

} // namespace genesys::sim

#endif // GENESYS_SIM_EVENT_QUEUE_HH
