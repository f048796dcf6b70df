/**
 * @file
 * SyscallSlot / SyscallArea implementation.
 */

#include "slot.hh"

#include <bit>

#include "support/gmc_probe.hh"
#include "support/gsan.hh"
#include "support/logging.hh"

namespace genesys::core
{

const char *
slotStateName(SlotState s)
{
    switch (s) {
      case SlotState::Free:
        return "free";
      case SlotState::Populating:
        return "populating";
      case SlotState::Ready:
        return "ready";
      case SlotState::Processing:
        return "processing";
      case SlotState::Finished:
        return "finished";
    }
    return "?";
}

bool
slotTransitionLegal(SlotState from, SlotState to, bool blocking)
{
    switch (from) {
      case SlotState::Free:
        return to == SlotState::Populating;
      case SlotState::Populating:
        return to == SlotState::Ready;
      case SlotState::Ready:
        return to == SlotState::Processing;
      case SlotState::Processing:
        return blocking ? to == SlotState::Finished
                        : to == SlotState::Free;
      case SlotState::Finished:
        return to == SlotState::Free;
    }
    return false;
}

void
SyscallSlot::transition(SlotState to)
{
    if (!slotTransitionLegal(state_, to, blocking_)) {
        panic("illegal slot transition %s -> %s (%s)",
              slotStateName(state_), slotStateName(to),
              blocking_ ? "blocking" : "non-blocking");
    }
    if (readyWords_ != nullptr) {
        const std::uint64_t bit = std::uint64_t{1} << (index_ % 64);
        if (to == SlotState::Ready)
            readyWords_[index_ / 64] |= bit;
        else if (state_ == SlotState::Ready)
            readyWords_[index_ / 64] &= ~bit;
    }
    state_ = to;
    ++transitions_;
    gmc::Probe::instance().touch(gmc::ProbeKind::Slot, index_);
}

bool
SyscallSlot::claim()
{
    if (state_ != SlotState::Free)
        return false;
    // Free->Populating is an atomic CAS on the slot line: the claimer
    // acquires whatever the previous releaser (complete/consume)
    // published, so recycled slots never look like fresh races.
    if (gsan_ && gsan_->enabled())
        gsan_->slotAcquire(index_);
    transition(SlotState::Populating);
    return true;
}

void
SyscallSlot::publish(int sysno, const osk::SyscallArgs &args,
                     bool blocking, WaitMode wait_mode,
                     std::uint32_t hw_wave_slot)
{
    GENESYS_ASSERT(state_ == SlotState::Populating,
                   "publish from state %s", slotStateName(state_));
    sysno_ = sysno;
    args_ = args;
    blocking_ = blocking;
    waitMode_ = wait_mode;
    hwWaveSlot_ = hw_wave_slot;
    if (gsan_ && gsan_->enabled()) {
        gsan_->slotWrite(index_, "args");
        // Populating->Ready hands payload ownership to the CPU.
        gsan_->slotRelease(index_);
    }
    transition(SlotState::Ready);
}

bool
SyscallSlot::beginProcessing()
{
    if (state_ != SlotState::Ready)
        return false;
    if (gsan_ && gsan_->enabled()) {
        gsan_->slotAcquire(index_);
        gsan_->slotRead(index_, "args");
    }
    transition(SlotState::Processing);
    return true;
}

void
SyscallSlot::complete(std::int64_t result)
{
    GENESYS_ASSERT(state_ == SlotState::Processing,
                   "complete from state %s", slotStateName(state_));
    result_ = result;
    if (gsan_ && gsan_->enabled()) {
        gsan_->slotWrite(index_, "result");
        // Processing->Finished/Free hands ownership back to the GPU.
        gsan_->slotRelease(index_);
    }
    transition(blocking_ ? SlotState::Finished : SlotState::Free);
}

std::int64_t
SyscallSlot::consume()
{
    // Keep the explicit precondition on top of the edge check:
    // Processing->Free is a legal edge (non-blocking complete), so
    // edge legality alone would let a consume() race a non-blocking
    // completion undetected.
    GENESYS_ASSERT(state_ == SlotState::Finished,
                   "consume from state %s", slotStateName(state_));
    if (gsan_ && gsan_->enabled()) {
        gsan_->slotAcquire(index_);
        gsan_->slotRead(index_, "result");
        gsan_->slotConsumed(index_, hwWaveSlot_);
        // Finished->Free recycles the slot; release so the next
        // claimer inherits this consumption.
        gsan_->slotRelease(index_);
    }
    transition(SlotState::Free);
    return result_;
}

std::int64_t
SyscallSlot::racyPeekResult() const
{
    if (gsan_ && gsan_->enabled())
        gsan_->slotRead(index_, "result");
    return result_;
}

SyscallArea::SyscallArea(const gpu::GpuConfig &gpu_config,
                         const GenesysParams &params)
    : params_(params), wavefrontSize_(gpu_config.wavefrontSize),
      maxWavesPerCu_(gpu_config.maxWavesPerCu),
      numCus_(gpu_config.numCus),
      shardCount_(params.areaShards == 0 ? 1 : params.areaShards)
{
    const auto n =
        static_cast<std::uint32_t>(gpu_config.activeWorkItemSlots());
    readyWords_.assign((n + 63) / 64, 0);
    slots_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i)
        slots_.emplace_back(readyWords_.data(), i);
    GENESYS_ASSERT(shardCount_ <= numCus_,
                   "areaShards %u exceeds %u CUs", shardCount_,
                   numCus_);
    GENESYS_ASSERT(numCus_ % shardCount_ == 0,
                   "areaShards %u must divide %u CUs", shardCount_,
                   numCus_);
    cusPerShard_ = numCus_ / shardCount_;
    issued_.assign(shardCount_, 0);
    processed_.assign(shardCount_, 0);
    const std::uint32_t entries =
        params_.ringEntries == 0 ? 1 : params_.ringEntries;
    sqRings_.reserve(shardCount_);
    cqRings_.reserve(shardCount_);
    for (std::uint32_t s = 0; s < shardCount_; ++s) {
        sqRings_.emplace_back(entries);
        cqRings_.emplace_back(entries);
    }
    ringBatches_.assign(shardCount_, 0);
    ringEntriesSubmitted_.assign(shardCount_, 0);
}

SyscallRing &
SyscallArea::sq(std::uint32_t shard)
{
    GENESYS_ASSERT(shard < shardCount_, "shard %u out of range", shard);
    return sqRings_[shard];
}

SyscallRing &
SyscallArea::cq(std::uint32_t shard)
{
    GENESYS_ASSERT(shard < shardCount_, "shard %u out of range", shard);
    return cqRings_[shard];
}

const SyscallRing &
SyscallArea::sq(std::uint32_t shard) const
{
    GENESYS_ASSERT(shard < shardCount_, "shard %u out of range", shard);
    return sqRings_[shard];
}

const SyscallRing &
SyscallArea::cq(std::uint32_t shard) const
{
    GENESYS_ASSERT(shard < shardCount_, "shard %u out of range", shard);
    return cqRings_[shard];
}

mem::Addr
SyscallArea::sqAddr(std::uint32_t shard) const
{
    GENESYS_ASSERT(shard < shardCount_, "shard %u out of range", shard);
    return params_.syscallAreaBase + areaBytes() +
           std::uint64_t(shardCount_ + shard) * params_.slotBytes;
}

mem::Addr
SyscallArea::cqAddr(std::uint32_t shard) const
{
    GENESYS_ASSERT(shard < shardCount_, "shard %u out of range", shard);
    return params_.syscallAreaBase + areaBytes() +
           std::uint64_t(2 * shardCount_ + shard) * params_.slotBytes;
}

bool
SyscallArea::ringsIdle() const
{
    for (const auto &sq : sqRings_) {
        if (!sq.empty())
            return false;
    }
    return true;
}

std::uint64_t
SyscallArea::ringBatchesTotal() const
{
    std::uint64_t n = 0;
    for (const auto b : ringBatches_)
        n += b;
    return n;
}

std::uint64_t
SyscallArea::ringEntriesTotal() const
{
    std::uint64_t n = 0;
    for (const auto e : ringEntriesSubmitted_)
        n += e;
    return n;
}

double
SyscallArea::ringBatchOccupancy() const
{
    const std::uint64_t batches = ringBatchesTotal();
    if (batches == 0)
        return 0.0;
    return static_cast<double>(ringEntriesTotal()) /
           static_cast<double>(batches);
}

std::uint32_t
SyscallArea::shardFirstSlot(std::uint32_t shard) const
{
    GENESYS_ASSERT(shard < shardCount_, "shard %u out of range", shard);
    return shard * shardSlotCount();
}

std::uint32_t
SyscallArea::shardSlotCount() const
{
    return cusPerShard_ * maxWavesPerCu_ * wavefrontSize_;
}

mem::Addr
SyscallArea::doorbellAddr(std::uint32_t shard) const
{
    GENESYS_ASSERT(shard < shardCount_, "shard %u out of range", shard);
    return params_.syscallAreaBase + areaBytes() +
           std::uint64_t(shard) * params_.slotBytes;
}

std::uint32_t
SyscallArea::nextReady(std::uint32_t from, std::uint32_t end) const
{
    GENESYS_ASSERT(end <= slots_.size(), "slot %u out of range", end);
    if (from >= end)
        return end;
    std::size_t w = from / 64;
    const std::size_t last = (end - 1) / 64;
    // Mask off the bits below `from` in its word.
    std::uint64_t bits =
        readyWords_[w] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
        if (++w > last)
            return end;
        bits = readyWords_[w];
    }
    const auto i =
        static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
    return i < end ? i : end;
}

bool
SyscallArea::quiescent(std::uint32_t shard) const
{
    const std::uint32_t first = shardFirstSlot(shard);
    const std::uint32_t count = shardSlotCount();
    for (std::uint32_t i = first; i < first + count; ++i) {
        if (slots_[i].state() != SlotState::Free)
            return false;
    }
    return true;
}

SyscallSlot &
SyscallArea::slot(std::uint32_t hw_item_slot)
{
    GENESYS_ASSERT(hw_item_slot < slots_.size(), "slot %u out of range",
                   hw_item_slot);
    return slots_[hw_item_slot];
}

const SyscallSlot &
SyscallArea::slot(std::uint32_t hw_item_slot) const
{
    GENESYS_ASSERT(hw_item_slot < slots_.size(), "slot %u out of range",
                   hw_item_slot);
    return slots_[hw_item_slot];
}

bool
SyscallArea::quiescent() const
{
    for (const auto &slot : slots_) {
        if (slot.state() != SlotState::Free)
            return false;
    }
    return true;
}

void
SyscallArea::attachSanitizer(gsan::Sanitizer *gsan)
{
    for (auto &slot : slots_)
        slot.attachSanitizer(gsan);
    for (std::uint32_t s = 0; s < shardCount_; ++s) {
        sqRings_[s].attachSanitizer(gsan, sqRingKey(s));
        cqRings_[s].attachSanitizer(gsan, cqRingKey(s));
    }
}

mem::Addr
SyscallArea::slotAddr(std::uint32_t hw_item_slot) const
{
    return params_.syscallAreaBase +
           std::uint64_t(hw_item_slot) * params_.slotBytes;
}

} // namespace genesys::core
