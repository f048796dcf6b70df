/**
 * @file
 * Device implementations.
 */

#include "devices.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace genesys::osk
{

// --------------------------------------------------------- TerminalDevice

std::uint64_t
TerminalDevice::write(std::uint64_t, const void *src, std::uint64_t len)
{
    transcript_.append(static_cast<const char *>(src), len);
    return len;
}

std::uint64_t
TerminalDevice::read(std::uint64_t, void *dst, std::uint64_t len)
{
    if (inputPos_ >= input_.size())
        return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(len, input_.size() - inputPos_);
    std::memcpy(dst, input_.data() + inputPos_, n);
    inputPos_ += n;
    return n;
}

// ------------------------------------------------------ FramebufferDevice

FramebufferDevice::FramebufferDevice(std::uint32_t xres,
                                     std::uint32_t yres,
                                     std::uint32_t bits_per_pixel)
{
    var_.xres = var_.xresVirtual = xres;
    var_.yres = var_.yresVirtual = yres;
    var_.bitsPerPixel = bits_per_pixel;
}

std::uint64_t
FramebufferDevice::size() const
{
    return std::uint64_t(var_.xresVirtual) * var_.yresVirtual *
           (var_.bitsPerPixel / 8);
}

std::vector<std::uint8_t> &
FramebufferDevice::memory()
{
    if (pixels_.empty())
        pixels_.assign(size(), 0);
    return pixels_;
}

std::int64_t
FramebufferDevice::ioctl(std::uint64_t request, void *argp)
{
    switch (request) {
      case FBIOGET_VSCREENINFO: {
        if (argp == nullptr)
            return -EFAULT;
        *static_cast<FbVarScreenInfo *>(argp) = var_;
        return 0;
      }
      case FBIOPUT_VSCREENINFO: {
        if (argp == nullptr)
            return -EFAULT;
        const auto &req = *static_cast<const FbVarScreenInfo *>(argp);
        if (req.bitsPerPixel != 16 && req.bitsPerPixel != 32)
            return -EINVAL;
        if (req.xres == 0 || req.yres == 0)
            return -EINVAL;
        var_ = req;
        var_.xresVirtual = std::max(req.xres, req.xresVirtual);
        var_.yresVirtual = std::max(req.yres, req.yresVirtual);
        // A mode change blanks the screen; memory not yet touched
        // stays unallocated until its first use.
        if (!pixels_.empty())
            pixels_.assign(size(), 0);
        return 0;
      }
      case FBIOGET_FSCREENINFO: {
        if (argp == nullptr)
            return -EFAULT;
        auto &fix = *static_cast<FbFixScreenInfo *>(argp);
        fix.smemLen = size();
        fix.lineLength = var_.xresVirtual * (var_.bitsPerPixel / 8);
        return 0;
      }
      case FBIOPAN_DISPLAY: {
        ++panCount_;
        return 0;
      }
      default:
        return -ENOTTY;
    }
}

std::uint8_t *
FramebufferDevice::mmapMemory(std::uint64_t &length)
{
    std::vector<std::uint8_t> &mem = memory();
    length = mem.size();
    return mem.data();
}

std::uint64_t
FramebufferDevice::write(std::uint64_t offset, const void *src,
                         std::uint64_t len)
{
    std::vector<std::uint8_t> &mem = memory();
    if (offset >= mem.size())
        return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(len, mem.size() - offset);
    std::memcpy(mem.data() + offset, src, n);
    return n;
}

std::uint64_t
FramebufferDevice::read(std::uint64_t offset, void *dst,
                        std::uint64_t len)
{
    const std::vector<std::uint8_t> &mem = memory();
    if (offset >= mem.size())
        return 0;
    const std::uint64_t n =
        std::min<std::uint64_t>(len, mem.size() - offset);
    std::memcpy(dst, mem.data() + offset, n);
    return n;
}

} // namespace genesys::osk
