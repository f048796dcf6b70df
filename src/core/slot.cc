/**
 * @file
 * SyscallSlot / SyscallArea implementation.
 */

#include "slot.hh"

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
    state_ = to;
    ++transitions_;
}

bool
SyscallSlot::claim()
{
    // gmc footprint: a claim (even a failed one) reads the state word.
    gmc::Probe::instance().touch(gmc::ProbeKind::Slot, gsanId_);
    if (state_ != SlotState::Free)
        return false;
    // Free->Populating is an atomic CAS on the slot line: the claimer
    // acquires whatever the previous releaser (complete/consume)
    // published, so recycled slots never look like fresh races.
    if (gsan_ && gsan_->enabled())
        gsan_->slotAcquire(gsanId_);
    transition(SlotState::Populating);
    return true;
}

void
SyscallSlot::publish(int sysno, const osk::SyscallArgs &args,
                     bool blocking, WaitMode wait_mode,
                     std::uint32_t hw_wave_slot)
{
    gmc::Probe::instance().touch(gmc::ProbeKind::Slot, gsanId_);
    GENESYS_ASSERT(state_ == SlotState::Populating,
                   "publish from state %s", slotStateName(state_));
    sysno_ = sysno;
    args_ = args;
    blocking_ = blocking;
    waitMode_ = wait_mode;
    hwWaveSlot_ = hw_wave_slot;
    if (gsan_ && gsan_->enabled()) {
        gsan_->slotWrite(gsanId_, "args");
        // Populating->Ready hands payload ownership to the CPU.
        gsan_->slotRelease(gsanId_);
    }
    transition(SlotState::Ready);
}

bool
SyscallSlot::beginProcessing()
{
    gmc::Probe::instance().touch(gmc::ProbeKind::Slot, gsanId_);
    if (state_ != SlotState::Ready)
        return false;
    if (gsan_ && gsan_->enabled()) {
        gsan_->slotAcquire(gsanId_);
        gsan_->slotRead(gsanId_, "args");
    }
    transition(SlotState::Processing);
    return true;
}

void
SyscallSlot::complete(std::int64_t result)
{
    gmc::Probe::instance().touch(gmc::ProbeKind::Slot, gsanId_);
    GENESYS_ASSERT(state_ == SlotState::Processing,
                   "complete from state %s", slotStateName(state_));
    result_ = result;
    if (gsan_ && gsan_->enabled()) {
        gsan_->slotWrite(gsanId_, "result");
        // Processing->Finished/Free hands ownership back to the GPU.
        gsan_->slotRelease(gsanId_);
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
    gmc::Probe::instance().touch(gmc::ProbeKind::Slot, gsanId_);
    GENESYS_ASSERT(state_ == SlotState::Finished,
                   "consume from state %s", slotStateName(state_));
    if (gsan_ && gsan_->enabled()) {
        gsan_->slotAcquire(gsanId_);
        gsan_->slotRead(gsanId_, "result");
        gsan_->slotConsumed(gsanId_, hwWaveSlot_);
        // Finished->Free recycles the slot; release so the next
        // claimer inherits this consumption.
        gsan_->slotRelease(gsanId_);
    }
    transition(SlotState::Free);
    return result_;
}

std::int64_t
SyscallSlot::racyPeekResult() const
{
    gmc::Probe::instance().touch(gmc::ProbeKind::Slot, gsanId_);
    if (gsan_ && gsan_->enabled())
        gsan_->slotRead(gsanId_, "result");
    return result_;
}

SyscallArea::SyscallArea(const gpu::GpuConfig &gpu_config,
                         const GenesysParams &params)
    : params_(params), wavefrontSize_(gpu_config.wavefrontSize),
      maxWavesPerCu_(gpu_config.maxWavesPerCu),
      numCus_(gpu_config.numCus),
      shardCount_(params.areaShards == 0 ? 1 : params.areaShards),
      slots_(gpu_config.activeWorkItemSlots())
{
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
    for (std::uint32_t i = 0; i < slots_.size(); ++i)
        slots_[i].attachSanitizer(gsan, i);
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
