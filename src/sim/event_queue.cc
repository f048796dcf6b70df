/**
 * @file
 * EventQueue implementation.
 */

#include "event_queue.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"

namespace genesys::sim
{

namespace
{

EventId
makeId(std::uint32_t gen, std::uint32_t cell)
{
    return EventId{gen} << 32 | cell;
}

} // namespace

EventQueue::EventQueue()
{
    // Sized for a System's steady state (a Fig 13b wordcount run peaks
    // at ~110 pending events), so a run's ramp-up does not regrow the
    // vectors through a series of small reallocations. Those regrowths
    // fragmented the heap across back-to-back Systems enough to raise
    // the wordcount benchmark's peak RSS by 4-7%.
    heap_.reserve(kInitialEvents);
    cells_.reserve(kInitialEvents);
}

std::uint32_t
EventQueue::claim(Tick when)
{
    if (when < now_)
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    GENESYS_ASSERT(nextSeq_ < kMaxSeq, "event sequence numbers exhausted");
    std::uint32_t cell = freeHead_;
    if (cell != kNoCell) {
        freeHead_ = cells_[cell].nextFree;
    } else {
        GENESYS_ASSERT(cells_.size() < kMaxCells, "event cell pool full");
        cell = static_cast<std::uint32_t>(cells_.size());
        cells_.emplace_back();
    }
    Cell &c = cells_[cell];
    ++c.gen; // even (free) -> odd (live)
    c.seq = nextSeq_++;
    ++live_;
    pushKey(Key{when, c.seq << kCellBits | cell});
    return cell;
}

EventId
EventQueue::idOf(std::uint32_t cell) const
{
    return makeId(cells_[cell].gen, cell);
}

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    const std::uint32_t cell = claim(when);
    cells_[cell].cb = std::move(cb);
    return idOf(cell);
}

EventId
EventQueue::schedule(Tick when, std::coroutine_handle<> h)
{
    const std::uint32_t cell = claim(when);
    cells_[cell].handle = h;
    return idOf(cell);
}

bool
EventQueue::deschedule(EventId id)
{
    // Only ids that are still pending can be cancelled; already-fired
    // or already-cancelled ids are a no-op. The heap key remains as a
    // tombstone and is dropped when popped.
    const auto cell = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (cell >= cells_.size() || cells_[cell].gen != gen ||
        (gen & 1) == 0)
        return false;
    cells_[cell].cb = nullptr;
    cells_[cell].handle = nullptr;
    release(cell);
    return true;
}

void
EventQueue::pushKey(const Key &k)
{
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Key
EventQueue::popKey()
{
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key k = heap_.back();
    heap_.pop_back();
    return k;
}

void
EventQueue::release(std::uint32_t cell)
{
    Cell &c = cells_[cell];
    c.seq = kFreeSeq;
    ++c.gen; // odd (live) -> even (free)
    c.nextFree = freeHead_;
    freeHead_ = cell;
    --live_;
}

void
EventQueue::execute(const Key &k)
{
    // Free the cell before the event runs: it may schedule (reusing
    // the cell, growing the pool) or try to deschedule its own,
    // already-fired id.
    Cell &c = cells_[k.cell()];
    const std::coroutine_handle<> h = std::exchange(c.handle, nullptr);
    Callback cb = h ? nullptr : std::move(c.cb);
    release(k.cell());
    now_ = k.when;
    ++executed_;
    if (h)
        h.resume();
    else
        cb();
}

bool
EventQueue::runOne()
{
    if (tieBreaker_ != nullptr)
        return runOneWithPolicy();
    while (!heap_.empty()) {
        const Key k = popKey();
        if (!live(k))
            continue; // tombstone of a cancelled event
        execute(k);
        return true;
    }
    return false;
}

bool
EventQueue::runOneWithPolicy()
{
    // Gather every live event tied at the earliest tick. Pops arrive in
    // (when, seq) order, so `tied_` is FIFO-ordered by construction.
    tied_.clear();
    while (!heap_.empty()) {
        const Key k = popKey();
        if (!live(k))
            continue; // tombstone of a cancelled event
        if (!tied_.empty() && k.when != tied_.front().when) {
            pushKey(k); // first strictly-later event
            break;
        }
        tied_.push_back(k);
    }
    if (tied_.empty())
        return false;

    std::size_t choice = 0;
    if (tied_.size() > 1) {
        candidates_.clear();
        for (const Key &k : tied_)
            candidates_.push_back(
                TieBreakCandidate{idOf(k.cell()), k.seq()});
        choice = tieBreaker_->pick(tied_.front().when, candidates_);
        GENESYS_ASSERT(choice < tied_.size(),
                       "tie-break policy chose %zu of %zu candidates",
                       choice, tied_.size());
    }

    // Re-queue the losers with their original seq numbers (their FIFO
    // rank among themselves is preserved) *before* running the winner,
    // so the event can deschedule them normally.
    for (std::size_t i = 0; i < tied_.size(); ++i) {
        if (i != choice)
            pushKey(tied_[i]);
    }
    // The id is read before the event runs: the event may reschedule
    // into its own, just-freed cell and change the cell's generation.
    const Key chosen = tied_[choice];
    const EventId id = idOf(chosen.cell());
    execute(chosen);
    tieBreaker_->onExecute(id, chosen.when);
    return true;
}

Tick
EventQueue::run(Tick limit, std::uint64_t max_events)
{
    std::uint64_t ran = 0;
    while (!heap_.empty()) {
        // Skip tombstones without advancing time.
        if (!live(heap_.front())) {
            popKey();
            continue;
        }
        if (heap_.front().when > limit) {
            now_ = limit;
            return now_;
        }
        if (max_events != 0 && ran >= max_events)
            return now_;
        runOne();
        ++ran;
    }
    return now_;
}

} // namespace genesys::sim
