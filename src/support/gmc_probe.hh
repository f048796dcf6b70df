/**
 * @file
 * gmc slot probe: records which syscall slots each simulated event
 * moved through the Fig 6 FSM.
 *
 * SyscallSlot::transition() is the one call site. A reader that
 * installs itself as the EventQueue's tie-break policy drains the
 * buffer after each event callback, attributing the accumulated
 * touches to the event that just ran (perfbench's stage tracer does
 * this to timestamp each syscall's stages from outside the program).
 *
 * Disabled (the default) the probe is a single branch per transition;
 * nothing in the modeled-time path changes, so runs stay
 * bit-identical.
 */

#ifndef GENESYS_SUPPORT_GMC_PROBE_HH
#define GENESYS_SUPPORT_GMC_PROBE_HH

#include <cstdint>
#include <vector>

namespace genesys::gmc
{

/** Classes of probed objects. */
enum class ProbeKind : std::uint8_t
{
    Slot = 1, ///< one syscall-area slot (id = slot index)
};

/** Packed probe key: kind in the top byte, object id below. */
using ProbeKey = std::uint64_t;

constexpr ProbeKey
probeKey(ProbeKind kind, std::uint64_t id)
{
    return (static_cast<std::uint64_t>(kind) << 56) |
           (id & 0x00FF'FFFF'FFFF'FFFFull);
}

class Probe
{
  public:
    /** Process-global instance shared by the call site and its reader. */
    static Probe &instance();

    void setEnabled(bool on)
    {
        enabled_ = on;
        buf_.clear();
    }
    bool enabled() const { return enabled_; }

    /** Record that the currently-running event touched (kind, id). */
    void
    touch(ProbeKind kind, std::uint64_t id)
    {
        if (enabled_)
            buf_.push_back(probeKey(kind, id));
    }

    /**
     * Return the touches accumulated since the last drain (sorted,
     * deduplicated) and reset the buffer.
     */
    std::vector<ProbeKey> drain();

  private:
    Probe() = default;

    bool enabled_ = false;
    std::vector<ProbeKey> buf_;
};

} // namespace genesys::gmc

#endif // GENESYS_SUPPORT_GMC_PROBE_HH
