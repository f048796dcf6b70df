#include "core/ring.hh"

#include "support/gsan.hh"
#include "support/logging.hh"

namespace genesys::core
{

SyscallRing::SyscallRing(std::uint32_t capacity)
    : capacity_(capacity), entries_(capacity, 0)
{
    GENESYS_ASSERT(capacity > 0, "ring capacity must be positive");
}

std::optional<std::uint64_t>
SyscallRing::tryClaim(std::uint32_t n, std::uint64_t head_obs)
{
    GENESYS_ASSERT(n > 0 && n <= capacity_,
                   "ring claim size out of range");
    const std::uint64_t claimed = loadClaimedRelaxed();
    // Fullness is judged against the caller's observed head: claimed
    // entries ahead of head_obs plus ours must fit. A stale head only
    // under-reports space (claims never regress), so this can refuse
    // a claim that would fit but never corrupt one that would not.
    if (claimed + n - head_obs > capacity_)
        return std::nullopt;
    storeClaimedRelaxed(claimed + n);
    return claimed;
}

void
SyscallRing::writeEntry(std::uint64_t pos, std::uint32_t value)
{
    GENESYS_ASSERT(pos >= loadTailAcquire() &&
                       pos < loadClaimedRelaxed(),
                   "ring write outside claimed range");
    entries_[indexOf(pos)] = value;
}

bool
SyscallRing::tryPublish(std::uint64_t base, std::uint32_t n)
{
    const std::uint64_t tail = loadTailAcquire();
    GENESYS_ASSERT(base >= tail, "ring publish of published range");
    if (base != tail)
        return false; // an earlier claimant has not published yet
    GENESYS_ASSERT(base + n <= loadClaimedRelaxed(),
                   "ring publish beyond claimed range");
    storeTailRelease(base + n);
    if (gsan_ != nullptr && gsan_->enabled())
        gsan_->ringPublish(key_, n);
    return true;
}

void
SyscallRing::postLossy(std::uint32_t value)
{
    auto base = tryClaim(1, loadHeadAcquire());
    if (!base) {
        // Lossy overflow: the completion signal is the monotone tail
        // counter, so dropping the oldest un-reaped payload is safe
        // (DESIGN.md §13) — waiters sweep their own slot states.
        reclaimOldest();
        base = tryClaim(1, loadHeadAcquire());
    }
    writeEntry(*base, value);
    const bool ok = tryPublish(*base, 1);
    GENESYS_ASSERT(ok, "lossy ring post raced: more than one poster");
}

std::uint32_t
SyscallRing::entryAt(std::uint64_t pos) const
{
    GENESYS_ASSERT(pos >= loadHeadAcquire() && pos < loadTailAcquire(),
                   "ring read outside published range");
    // Bounds-asserted read of the published range; the acquire loads
    // in the assertion order this read after the producer's publish.
    // The gsan annotation is the consuming caller's job.
    return entries_[indexOf(pos)];
}

std::uint32_t
SyscallRing::popHead()
{
    GENESYS_ASSERT(!empty(), "ring pop on empty ring");
    const std::uint64_t pos = loadHeadAcquire();
    if (gsan_ != nullptr && gsan_->enabled())
        gsan_->ringConsume(key_);
    // Read the entry before releasing the position: once head
    // advances, the producer may re-claim and overwrite this storage.
    const std::uint32_t value = entries_[indexOf(pos)];
    storeHeadRelease(pos + 1);
    return value;
}

void
SyscallRing::reclaimOldest()
{
    GENESYS_ASSERT(!empty(), "ring reclaim on empty ring");
    storeHeadRelease(loadHeadAcquire() + 1);
    ++reclaims_;
}

std::uint32_t
SyscallRing::racyPeekEntry() const
{
    GENESYS_ASSERT(!empty(), "ring peek on empty ring");
    // Deliberately no ringConsume() acquire: the read is not ordered
    // after the producer's publish, which gsan reports as a payload
    // race on this ring channel.
    if (gsan_ != nullptr && gsan_->enabled())
        gsan_->ringConsumeRacy(key_);
    return entries_[indexOf(loadHeadAcquire())];
}

void
SyscallRing::attachSanitizer(gsan::Sanitizer *gsan, std::uint64_t key)
{
    gsan_ = gsan;
    key_ = key;
}

} // namespace genesys::core
