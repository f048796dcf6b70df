/**
 * @file
 * sysfs-style attribute files.
 *
 * Section VI: "GENESYS uses Linux's sysfs interface to communicate
 * coalescing parameters." A SysfsFile is a character device whose
 * read() renders an integer attribute and whose write() parses one —
 * the standard /sys/<subsystem>/<attr> contract. The attributes under
 * /sys/genesys come from core::System's metric table.
 */

#ifndef GENESYS_OSK_SYSFS_HH
#define GENESYS_OSK_SYSFS_HH

#include <cstdint>

#include "osk/vfs.hh"

namespace genesys::osk
{

class SysfsFile : public CharDevice
{
  public:
    std::uint64_t
    read(std::uint64_t offset, void *dst, std::uint64_t len) override;

    /**
     * Parses a decimal integer, rejecting non-digits and values above
     * UINT64_MAX (kstrtoull's -EINVAL / -ERANGE), then store()s it.
     * @return 0 bytes, with the value unchanged, on any rejection.
     */
    std::uint64_t
    write(std::uint64_t offset, const void *src,
          std::uint64_t len) override;

  protected:
    virtual std::uint64_t value() const = 0;
    /** @return false to reject @p v (read-only or out of range). */
    virtual bool store(std::uint64_t v) = 0;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_SYSFS_HH
