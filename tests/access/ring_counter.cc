// Ring counters are reached only through their ordered accessors: the
// raw words are private to RingCounters, so a SyscallRing member (here
// one of a derived class, which has the same access) cannot touch them,
// and neither can any outside caller. Compiled, never linked, by the
// access_ring_counter_* ctests (tests/access_check.cmake).

#include "core/ring.hh"

struct RingMember : genesys::core::SyscallRing
{
    using SyscallRing::SyscallRing;

    void
    advanceTail()
    {
#ifdef GENESYS_ACCESS_VIOLATION
        tailRaw_ = loadHeadAcquire() + 1;
#else
        storeTailRelease(loadHeadAcquire() + 1);
#endif
    }
};
