// Slot state moves only through the Fig 6 FSM: SyscallSlot::state_ is
// private, so code outside the slot can change it only through the
// protocol entry points. Compiled, never linked, by the
// access_slot_state_* ctests (tests/access_check.cmake).

#include "core/slot.hh"

bool
publishWithoutFsm(genesys::core::SyscallSlot &slot)
{
#ifdef GENESYS_ACCESS_VIOLATION
    slot.state_ = genesys::core::SlotState::Ready;
    return true;
#else
    return slot.claim() &&
           slot.state() == genesys::core::SlotState::Populating;
#endif
}
