/**
 * @file
 * SyscallRing: one per-shard submission or completion ring
 * (DESIGN.md §13).
 *
 * The paper's per-slot doorbell design raises one s_sendmsg per call;
 * the ring extension (ROADMAP item 1, following the SPDK/io_uring
 * polled-queue shape) lets a wavefront publish a batch of slot indices
 * into a shard's submission queue (SQ) and ring one doorbell for the
 * whole batch, while the host consumes entries in bulk and posts
 * completion events to the completion queue (CQ).
 *
 * Geometry: free-running 64-bit counters, never masked. An entry's
 * array index is counter % capacity, so capacities need not be powers
 * of two; full/empty are disambiguated by counter distance (empty when
 * tail == head, full when the in-flight distance equals capacity),
 * never by index equality.
 *
 * Counter protocol (the memory-ordering contract, DESIGN.md §13):
 *   claimed  producer-side reservation cursor (plain RMW; claims are
 *            serialized by the claiming CAS)
 *   tail     publish cursor — a RELEASE store: everything the producer
 *            wrote (the slot payload, the entry) happens-before any
 *            consumer that ACQUIRE-loads a tail covering the entry
 *   head     consume cursor — a RELEASE store by the consumer; a
 *            producer ACQUIRE-loads it to reuse entry storage
 *
 * The raw counters live in RingCounters, private behind its load/store
 * accessors; SyscallRing's own members reach them only through those
 * accessors too, so each access carries its ordering annotation in its
 * name and the compiler rejects any other (the access_ring_counter
 * ctests pin that).
 */

#ifndef GENESYS_CORE_RING_HH
#define GENESYS_CORE_RING_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace genesys::gsan
{
class Sanitizer;
}

namespace genesys::core
{

/**
 * A ring's three free-running counter words, reachable only through
 * the accessors. The simulator is single-threaded, so the
 * acquire/release names document the modeled hardware ordering rather
 * than emit fences.
 */
class RingCounters
{
  public:
    std::uint64_t loadHeadAcquire() const { return headRaw_; }
    std::uint64_t loadTailAcquire() const { return tailRaw_; }
    std::uint64_t loadClaimedRelaxed() const { return claimedRaw_; }
    void storeHeadRelease(std::uint64_t v) { headRaw_ = v; }
    void storeTailRelease(std::uint64_t v) { tailRaw_ = v; }
    void storeClaimedRelaxed(std::uint64_t v) { claimedRaw_ = v; }

  private:
    std::uint64_t headRaw_ = 0;
    std::uint64_t tailRaw_ = 0;
    std::uint64_t claimedRaw_ = 0;
};

class SyscallRing : public RingCounters
{
  public:
    explicit SyscallRing(std::uint32_t capacity);

    std::uint32_t capacity() const { return capacity_; }

    // ---- geometry --------------------------------------------------
    /** Array index of free-running position @p pos. */
    std::uint32_t
    indexOf(std::uint64_t pos) const
    {
        return static_cast<std::uint32_t>(pos % capacity_);
    }
    /** Published entries not yet consumed. */
    std::uint64_t
    size() const
    {
        return loadTailAcquire() - loadHeadAcquire();
    }
    bool empty() const { return size() == 0; }
    /** Full in the published sense: consumers are capacity behind. */
    bool full() const { return size() == capacity_; }
    /** Entries claimed (reserved or published) and not yet consumed. */
    std::uint64_t
    claimedInFlight() const
    {
        return loadClaimedRelaxed() - loadHeadAcquire();
    }

    // ---- producer protocol ----------------------------------------
    /**
     * Reserve @p n consecutive entries against the caller's observed
     * head @p head_obs (the value its timed counter-line read
     * returned). Using an observed head is conservative: a stale
     * sample can only under-report free space, never overwrite
     * unconsumed entries. @return the base position, or nullopt when
     * the ring (as observed) lacks room.
     */
    [[nodiscard]] std::optional<std::uint64_t>
    tryClaim(std::uint32_t n, std::uint64_t head_obs);

    /** Fill a claimed entry (plain store; ordered by the publish). */
    void writeEntry(std::uint64_t pos, std::uint32_t value);

    /**
     * Publish claimed range [base, base + n): release-advance tail.
     * Publishes are in claim order; @return false when an earlier
     * claimant has not published yet (caller retries).
     */
    bool tryPublish(std::uint64_t base, std::uint32_t n);

    /**
     * Lossy post by the ring's single poster (the completion queue):
     * claim one entry, reclaiming the oldest when the ring is full
     * (see reclaimOldest()), fill it with @p value and publish it. No
     * claim outlives the call.
     */
    void postLossy(std::uint32_t value);

    // ---- consumer protocol ----------------------------------------
    /** Peek a published-but-unconsumed position (bounds-asserted). */
    std::uint32_t entryAt(std::uint64_t pos) const;

    /**
     * Consume the oldest published entry: acquire it, read its value,
     * then release-advance head (the read precedes the release — once
     * head moves, the producer may reuse the storage). @return the
     * entry value.
     */
    std::uint32_t popHead();

    /**
     * Overflow reclaim for the (lossy) completion queue: drop the
     * oldest entry without consuming it. Safe only for rings whose
     * signal is the monotone tail counter rather than entry payloads
     * (DESIGN.md §13).
     */
    void reclaimOldest();

    /**
     * Seeded-bug hook: read the oldest entry WITHOUT the acquire that
     * popHead() performs, so the producer's publish is not ordered
     * before the read. gsan flags this as a payload race on the ring.
     */
    std::uint32_t racyPeekEntry() const;

    // ---- lifetime stats -------------------------------------------
    /** Entries ever published (== final tail). */
    std::uint64_t publishedTotal() const { return loadTailAcquire(); }
    /** Entries ever consumed or reclaimed (== final head). */
    std::uint64_t consumedTotal() const { return loadHeadAcquire(); }
    std::uint64_t reclaims() const { return reclaims_; }

    /**
     * Attach the happens-before sanitizer; @p key names this ring's
     * channel (the area uses 2*shard for SQs, 2*shard+1 for CQs).
     */
    void attachSanitizer(gsan::Sanitizer *gsan, std::uint64_t key);

  private:
    std::uint32_t capacity_;
    std::vector<std::uint32_t> entries_;
    std::uint64_t reclaims_ = 0;
    gsan::Sanitizer *gsan_ = nullptr;
    std::uint64_t key_ = 0;
};

} // namespace genesys::core

#endif // GENESYS_CORE_RING_HH
