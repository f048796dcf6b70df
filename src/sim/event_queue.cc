/**
 * @file
 * EventQueue implementation.
 */

#include "event_queue.hh"

#include <algorithm>
#include <bit>
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

void
resumeFrame(void *frame)
{
    std::coroutine_handle<>::from_address(frame).resume();
}

} // namespace

EventQueue::EventQueue()
    : buckets_(std::make_unique_for_overwrite<Bucket[]>(kSpan))
{
    // Sized for a System's steady state (a Fig 13b wordcount run peaks
    // at ~110 pending events), so a run's ramp-up does not regrow the
    // vectors through a series of small reallocations. Those regrowths
    // fragmented the heap across back-to-back Systems enough to raise
    // the wordcount benchmark's peak RSS by 4-7%.
    cells_.reserve(kInitialEvents);
    far_.reserve(kInitialEvents);
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
        freeHead_ = cells_[cell].next;
    } else {
        GENESYS_ASSERT(cells_.size() < kMaxCells, "event cell pool full");
        cell = static_cast<std::uint32_t>(cells_.size());
        cells_.emplace_back();
    }
    Cell &c = cells_[cell];
    ++c.gen; // even (free) -> odd (live)
    c.seq = nextSeq_++;
    c.when = when;
    ++live_;
    if (inWheel(when)) {
        append(cell);
    } else {
        far_.push_back(Key{when, c.seq << kCellBits | cell});
        std::push_heap(far_.begin(), far_.end(), Later{});
    }
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
    return schedule(when, resumeFrame, h.address());
}

EventId
EventQueue::schedule(Tick when, Action fn, void *ctx)
{
    const std::uint32_t cell = claim(when);
    cells_[cell].fn = fn;
    cells_[cell].ctx = ctx;
    return idOf(cell);
}

bool
EventQueue::deschedule(EventId id)
{
    // Only ids that are still pending can be cancelled; already-fired
    // or already-cancelled ids are a no-op. A wheel event leaves its
    // bucket now; a far key remains as a tombstone and is dropped when
    // it reaches the top of the heap.
    const auto cell = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (cell >= cells_.size() || cells_[cell].gen != gen ||
        (gen & 1) == 0)
        return false;
    Cell &c = cells_[cell];
    if (inWheel(c.when))
        unlink(cell);
    c.cb = nullptr;
    c.fn = nullptr;
    release(cell);
    return true;
}

void
EventQueue::append(std::uint32_t cell)
{
    Cell &c = cells_[cell];
    const auto b = static_cast<std::uint32_t>(c.when & (kSpan - 1));
    std::uint64_t &word = occupied_[b / 64];
    const std::uint64_t bit = std::uint64_t{1} << (b % 64);
    c.next = kNoCell;
    if ((word & bit) != 0) {
        c.prev = buckets_[b].tail;
        cells_[c.prev].next = cell;
        buckets_[b].tail = cell;
    } else {
        c.prev = kNoCell;
        buckets_[b] = Bucket{cell, cell};
        word |= bit;
        occupiedWords_ |= 1u << (b / 64);
    }
}

void
EventQueue::unlink(std::uint32_t cell)
{
    const Cell &c = cells_[cell];
    const auto b = static_cast<std::uint32_t>(c.when & (kSpan - 1));
    Bucket &bucket = buckets_[b];
    if (c.prev != kNoCell)
        cells_[c.prev].next = c.next;
    else
        bucket.head = c.next;
    if (c.next != kNoCell)
        cells_[c.next].prev = c.prev;
    else
        bucket.tail = c.prev;
    if (bucket.head == kNoCell) {
        std::uint64_t &word = occupied_[b / 64];
        word &= ~(std::uint64_t{1} << (b % 64));
        if (word == 0)
            occupiedWords_ &= ~(1u << (b / 64));
    }
}

bool
EventQueue::nextTick(Tick &when)
{
    if (occupiedWords_ != 0) {
        // The first non-empty bucket at or after now_'s, wrapping:
        // buckets before it hold ticks a whole span later.
        const auto from = static_cast<std::uint32_t>(now_ & (kSpan - 1));
        std::uint32_t w = from / 64;
        std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from % 64));
        if (bits == 0) {
            const std::uint32_t later =
                occupiedWords_ & ~((2u << w) - 1u);
            w = static_cast<std::uint32_t>(
                std::countr_zero(later != 0 ? later : occupiedWords_));
            bits = occupied_[w];
        }
        const std::uint32_t b =
            w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits));
        when = now_ + ((b - from) & (kSpan - 1));
        return true;
    }
    while (!far_.empty() && !live(far_.front())) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        far_.pop_back();
    }
    if (far_.empty())
        return false;
    when = far_.front().when;
    return true;
}

void
EventQueue::advanceTo(Tick when)
{
    now_ = when;
    // The buckets the window just opened are empty: their previous
    // ticks are all past. Filling them before any event runs at the
    // new time keeps each bucket in seq order.
    while (!far_.empty() && inWheel(far_.front().when)) {
        const Key k = far_.front();
        std::pop_heap(far_.begin(), far_.end(), Later{});
        far_.pop_back();
        if (live(k))
            append(k.cell());
    }
}

void
EventQueue::release(std::uint32_t cell)
{
    Cell &c = cells_[cell];
    c.seq = kFreeSeq;
    ++c.gen; // odd (live) -> even (free)
    c.next = freeHead_;
    freeHead_ = cell;
    --live_;
}

void
EventQueue::execute(std::uint32_t cell)
{
    // Free the cell before the event runs: it may schedule (reusing
    // the cell, growing the pool) or try to deschedule its own,
    // already-fired id.
    Cell &c = cells_[cell];
    ++executed_;
    if (c.fn != nullptr) {
        const Action fn = std::exchange(c.fn, nullptr);
        void *const ctx = c.ctx;
        release(cell);
        fn(ctx);
        return;
    }
    Callback cb = std::move(c.cb);
    release(cell);
    cb();
}

void
EventQueue::runAt(Tick when)
{
    if (when != now_)
        advanceTo(when);
    const std::uint32_t head = buckets_[when & (kSpan - 1)].head;
    if (tieBreaker_ == nullptr) {
        unlink(head);
        execute(head);
        return;
    }
    // Every live event tied at this tick is in the bucket, in seq
    // (FIFO) order. The losers keep their places.
    std::uint32_t chosen = head;
    if (cells_[head].next != kNoCell) {
        candidates_.clear();
        for (std::uint32_t c = head; c != kNoCell; c = cells_[c].next)
            candidates_.push_back(TieBreakCandidate{idOf(c), cells_[c].seq});
        const std::size_t choice = tieBreaker_->pick(when, candidates_);
        GENESYS_ASSERT(choice < candidates_.size(),
                       "tie-break policy chose %zu of %zu candidates",
                       choice, candidates_.size());
        chosen = static_cast<std::uint32_t>(candidates_[choice].id);
    }
    // The id is read before the event runs: the event may reschedule
    // into its own, just-freed cell and change the cell's generation.
    const EventId id = idOf(chosen);
    unlink(chosen);
    execute(chosen);
    tieBreaker_->onExecute(id, when);
}

bool
EventQueue::runOne()
{
    Tick when;
    if (!nextTick(when))
        return false;
    runAt(when);
    return true;
}

Tick
EventQueue::run(Tick limit, std::uint64_t max_events)
{
    std::uint64_t ran = 0;
    Tick when;
    while (nextTick(when)) {
        if (when > limit) {
            if (limit > now_)
                advanceTo(limit);
            return now_;
        }
        if (max_events != 0 && ran >= max_events)
            return now_;
        runAt(when);
        ++ran;
    }
    return now_;
}

} // namespace genesys::sim
