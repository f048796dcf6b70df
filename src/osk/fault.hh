/**
 * @file
 * Seeded, deterministic fault injection for the syscall pipeline.
 *
 * The paper's "generic" claim (Section IV) means GENESYS forwards
 * real POSIX system calls — and real POSIX calls fail: short reads
 * and writes, transient EINTR/EAGAIN, hard errno returns, and storage
 * latency spikes. Section IX additionally worries about in-flight
 * syscalls at teardown. The FaultInjector makes all of those failure
 * modes reproducible: every decision is a pure function of
 * (seed, syscall number, per-syscall invocation index), so a fixed
 * seed gives a bit-identical fault schedule on every run, independent
 * of wall-clock effects.
 *
 * Two sources feed the decision:
 *  - a scripted plan: "on the Nth invocation of sysno S, inject D" —
 *    exact, consumed once; what the regression tests use;
 *  - probabilistic rates in parts-per-million per dispatch, hashed
 *    from the seed; what the resilience sweeps use.
 *
 * Injection happens at syscall dispatch (before the handler runs,
 * so a suppressed call has no side effects) and, for latency spikes,
 * inside BlockDevice request service. Knobs are exposed through the
 * same sysfs surface the paper uses for coalescing parameters
 * (files under /sys/genesys/fault/, registered in core::System's
 * metric table).
 */

#ifndef GENESYS_OSK_FAULT_HH
#define GENESYS_OSK_FAULT_HH

#include <cerrno>
#include <cstdint>
#include <map>
#include <utility>

#include "support/types.hh"

namespace genesys::osk
{

enum class FaultKind : std::uint8_t
{
    None,
    Errno,         ///< hard failure: return a configured -errno
    Eintr,         ///< transient: interrupted before doing any work
    Eagain,        ///< transient: resource temporarily unavailable
    ShortTransfer, ///< truncate a read/write count (partial transfer)
    DeviceDelay,   ///< block-device latency spike (no error return)
};

/** One injected fault, fully specified. */
struct FaultDecision
{
    FaultKind kind = FaultKind::None;
    /// Positive errno for FaultKind::Errno.
    int err = 0;
    /// Surviving fraction of the transfer count, in permille (1..999),
    /// for FaultKind::ShortTransfer.
    std::uint32_t keepPermille = 500;
    /// Added service latency for FaultKind::DeviceDelay.
    Tick extraLatency = 0;
};

/** Probabilistic fault plan; all rates are per-dispatch, in ppm. */
struct FaultConfig
{
    std::uint64_t seed = 1;
    std::uint32_t eintrPpm = 0;
    std::uint32_t eagainPpm = 0;
    /// Applies only to read/write/pread64/pwrite64 with count above
    /// atomicTransferBytes.
    std::uint32_t shortPpm = 0;
    /// POSIX PIPE_BUF-style atomicity: random ShortTransfer faults
    /// never split transfers of at most this many bytes, so small
    /// writes (e.g. one output line) stay atomic and concurrent
    /// writers cannot tear each other's records. Scripted planFault()
    /// entries ignore this and split anything with count > 1.
    std::uint32_t atomicTransferBytes = 512;
    std::uint32_t errnoPpm = 0;
    /// Which errno the probabilistic Errno class returns.
    int errnoValue = EIO;
    /// Per block-device request spike rate and magnitude.
    std::uint32_t deviceDelayPpm = 0;
    Tick deviceDelay = ticks::us(400);
};

class FaultInjector
{
  public:
    FaultInjector() = default;

    void configure(const FaultConfig &config) { config_ = config; }
    const FaultConfig &config() const { return config_; }
    FaultConfig &config() { return config_; }

    /** True if any fault source could fire. */
    bool
    armed() const
    {
        return !plan_.empty() || config_.eintrPpm != 0 ||
               config_.eagainPpm != 0 || config_.shortPpm != 0 ||
               config_.errnoPpm != 0 || config_.deviceDelayPpm != 0;
    }

    /**
     * Script one exact fault: the @p nth dispatch (1-based) of
     * @p sysno receives @p decision. Consumed when it fires.
     */
    void
    planFault(int sysno, std::uint64_t nth, FaultDecision decision)
    {
        plan_[{sysno, nth}] = decision;
    }

    std::size_t plannedRemaining() const { return plan_.size(); }

    /**
     * Per-dispatch decision point; advances the invocation counter of
     * @p sysno. @p transfer_bytes is the transfer count for
     * read/write-family calls and 0 otherwise; it gates the
     * ShortTransfer class (scripted faults split anything > 1 byte,
     * random rolls only transfers above atomicTransferBytes — the
     * PIPE_BUF atomicity rule).
     */
    FaultDecision decide(int sysno, std::uint64_t transfer_bytes);

    /** Per-block-device-request latency spike (0 = none). */
    Tick deviceDelay();

    /** Dispatches seen for @p sysno so far (plan indices are 1-based). */
    std::uint64_t
    invocations(int sysno) const
    {
        auto it = invocations_.find(sysno);
        return it == invocations_.end() ? 0 : it->second;
    }

    // --- stats ------------------------------------------------------
    std::uint64_t injected() const { return injected_; }
    std::uint64_t
    injectedOf(FaultKind kind) const
    {
        return injectedByKind_[static_cast<std::size_t>(kind)];
    }

    /** Forget all counters and pending scripted faults (not config). */
    void reset();

  private:
    /** Deterministic per-event draw in [0, 1'000'000). */
    std::uint64_t draw(std::uint64_t stream, std::uint64_t index) const;

    void
    count(FaultKind kind)
    {
        ++injected_;
        ++injectedByKind_[static_cast<std::size_t>(kind)];
    }

    FaultConfig config_;
    std::map<std::pair<int, std::uint64_t>, FaultDecision> plan_;
    std::map<int, std::uint64_t> invocations_;
    std::uint64_t deviceRequests_ = 0;
    std::uint64_t injected_ = 0;
    std::uint64_t injectedByKind_[6] = {};
};

} // namespace genesys::osk

#endif // GENESYS_OSK_FAULT_HH
