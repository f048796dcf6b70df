/**
 * @file
 * SysfsFile implementation.
 */

#include "sysfs.hh"

#include <cctype>
#include <cstring>

#include "support/logging.hh"

namespace genesys::osk
{

std::uint64_t
SysfsFile::read(std::uint64_t offset, void *dst, std::uint64_t len)
{
    const std::string content =
        logging::format("%llu\n",
                        static_cast<unsigned long long>(value()));
    if (offset >= content.size())
        return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(len, content.size() - offset);
    if (dst != nullptr)
        std::memcpy(dst, content.data() + offset, n);
    return n;
}

std::uint64_t
SysfsFile::write(std::uint64_t, const void *src, std::uint64_t len)
{
    if (src == nullptr || len == 0)
        return 0;
    const auto *text = static_cast<const char *>(src);
    std::uint64_t parsed = 0;
    bool any = false;
    for (std::uint64_t i = 0; i < len; ++i) {
        const char c = text[i];
        if (c == '\n' || c == '\0')
            break;
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return 0; // reject non-numeric writes
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (parsed > (UINT64_MAX - digit) / 10)
            return 0; // reject values that overflow 64 bits
        parsed = parsed * 10 + digit;
        any = true;
    }
    if (!any || !store(parsed))
        return 0;
    return len;
}

} // namespace genesys::osk
