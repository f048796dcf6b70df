/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated machine: GPU wavefronts,
 * CPU cores, OS worker threads, interrupt delivery, NIC peers and the
 * memory system all interact exclusively by scheduling events. Events at
 * the same tick execute in FIFO scheduling order (a monotone sequence
 * number breaks ties), which makes every run bit-for-bit deterministic.
 */

#ifndef GENESYS_SIM_EVENT_QUEUE_HH
#define GENESYS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "support/types.hh"

namespace genesys::sim
{

/**
 * Handle for cancelling a scheduled event: the callback cell's
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
 * pick() selects which one executes next. With no policy installed the
 * queue keeps its original FIFO order on the original code path, so
 * default-schedule runs stay bit-identical.
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
     * @p limit. Time is left at the tick of the last executed event
     * (or advanced to @p limit if events remain beyond it). When
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
     * first. Null keeps the original FIFO fast path.
     */
    void setTieBreaker(TieBreakPolicy *policy) { tieBreaker_ = policy; }

    TieBreakPolicy *tieBreaker() const { return tieBreaker_; }

  private:
    /**
     * Heap entry. The callback lives in cells_[cell]; the key is a
     * tombstone once that cell's generation no longer equals gen
     * (the event fired or was cancelled).
     */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t cell;
        std::uint32_t gen;
    };

    /**
     * A callback slot. gen is odd while an event occupies the cell
     * and even while the cell is on the free list, so a stale or
     * forged id never matches a free cell.
     */
    struct Cell
    {
        Callback cb;
        std::uint32_t gen = 0;
        std::uint32_t nextFree = 0;
    };

    /** Min-heap order on (when, seq) for the std::*_heap algorithms. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    bool runOneWithPolicy();
    bool live(const Key &k) const { return cells_[k.cell].gen == k.gen; }
    void pushKey(const Key &k);
    Key popKey();
    /** Take the callback out of a live cell and free the cell. */
    Callback release(std::uint32_t cell);
    void execute(const Key &k);

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::vector<Key> heap_;
    std::vector<Cell> cells_;
    std::uint32_t freeHead_ = kNoCell;
    /// Events scheduled but neither executed nor cancelled.
    std::size_t live_ = 0;
    TieBreakPolicy *tieBreaker_ = nullptr;

    static constexpr std::uint32_t kNoCell = ~std::uint32_t{0};
    /// Pending events the heap and pool hold before their first regrow.
    static constexpr std::size_t kInitialEvents = 256;
};

} // namespace genesys::sim

#endif // GENESYS_SIM_EVENT_QUEUE_HH
