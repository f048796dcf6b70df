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

EventId
EventQueue::schedule(Tick when, Callback cb)
{
    if (when < now_)
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(now_));
    std::uint32_t cell = freeHead_;
    if (cell != kNoCell) {
        freeHead_ = cells_[cell].nextFree;
    } else {
        GENESYS_ASSERT(cells_.size() < kNoCell, "event cell pool full");
        cell = static_cast<std::uint32_t>(cells_.size());
        cells_.emplace_back();
    }
    Cell &c = cells_[cell];
    ++c.gen; // even (free) -> odd (live)
    c.cb = std::move(cb);
    ++live_;
    pushKey(Key{when, nextSeq_++, cell, c.gen});
    return makeId(c.gen, cell);
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

EventQueue::Callback
EventQueue::release(std::uint32_t cell)
{
    Cell &c = cells_[cell];
    Callback cb = std::move(c.cb);
    ++c.gen; // odd (live) -> even (free)
    c.nextFree = freeHead_;
    freeHead_ = cell;
    --live_;
    return cb;
}

void
EventQueue::execute(const Key &k)
{
    // Free the cell before the callback runs: the callback may
    // schedule (reusing the cell, growing the pool) or try to
    // deschedule its own, already-fired id.
    Callback cb = release(k.cell);
    now_ = k.when;
    ++executed_;
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
    // (when, seq) order, so `tied` is FIFO-ordered by construction.
    std::vector<Key> tied;
    while (!heap_.empty()) {
        const Key k = popKey();
        if (!live(k))
            continue; // tombstone of a cancelled event
        if (!tied.empty() && k.when != tied.front().when) {
            pushKey(k); // first strictly-later event
            break;
        }
        tied.push_back(k);
    }
    if (tied.empty())
        return false;

    std::size_t choice = 0;
    if (tied.size() > 1) {
        std::vector<TieBreakCandidate> candidates;
        candidates.reserve(tied.size());
        for (const Key &k : tied)
            candidates.push_back(
                TieBreakCandidate{makeId(k.gen, k.cell), k.seq});
        choice = tieBreaker_->pick(tied.front().when, candidates);
        GENESYS_ASSERT(choice < tied.size(),
                       "tie-break policy chose %zu of %zu candidates",
                       choice, tied.size());
    }

    // Re-queue the losers with their original seq numbers (their FIFO
    // rank among themselves is preserved) *before* running the winner,
    // so the callback can deschedule them normally.
    for (std::size_t i = 0; i < tied.size(); ++i) {
        if (i != choice)
            pushKey(tied[i]);
    }
    const Key chosen = tied[choice];
    execute(chosen);
    tieBreaker_->onExecute(makeId(chosen.gen, chosen.cell), chosen.when);
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
