/**
 * @file
 * Character devices: terminal, /dev/null, and the framebuffer.
 *
 * The framebuffer device implements the subset of the Linux fbdev ioctl
 * interface the paper's bmp-display case study uses (Section VIII-E):
 * FBIOGET_VSCREENINFO / FBIOPUT_VSCREENINFO to query and set the mode,
 * and mmap of the pixel memory for the raster copy (Figure 16).
 */

#ifndef GENESYS_OSK_DEVICES_HH
#define GENESYS_OSK_DEVICES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "osk/vfs.hh"

namespace genesys::osk
{

/** Console: write() appends to a captured transcript. */
class TerminalDevice : public CharDevice
{
  public:
    std::uint64_t
    write(std::uint64_t offset, const void *src,
          std::uint64_t len) override;

    std::uint64_t
    read(std::uint64_t offset, void *dst, std::uint64_t len) override;

    /** Everything written so far (what the user would see). */
    const std::string &transcript() const { return transcript_; }
    void clearTranscript() { transcript_.clear(); }

    /** Pre-load data to be returned by read() (stdin redirection). */
    void setInput(std::string input) { input_ = std::move(input); }

  private:
    std::string transcript_;
    std::string input_;
    std::uint64_t inputPos_ = 0;
};

/** Bit bucket. */
class NullDevice : public CharDevice
{
  public:
    std::uint64_t
    read(std::uint64_t, void *, std::uint64_t) override
    {
        return 0; // EOF
    }
};

// --- Linux fbdev ABI subset -------------------------------------------

inline constexpr std::uint64_t FBIOGET_VSCREENINFO = 0x4600;
inline constexpr std::uint64_t FBIOPUT_VSCREENINFO = 0x4601;
inline constexpr std::uint64_t FBIOGET_FSCREENINFO = 0x4602;
inline constexpr std::uint64_t FBIOPAN_DISPLAY = 0x4606;

struct FbVarScreenInfo
{
    std::uint32_t xres = 0;
    std::uint32_t yres = 0;
    std::uint32_t xresVirtual = 0;
    std::uint32_t yresVirtual = 0;
    std::uint32_t xoffset = 0;
    std::uint32_t yoffset = 0;
    std::uint32_t bitsPerPixel = 0;
};

struct FbFixScreenInfo
{
    std::uint64_t smemLen = 0;  ///< framebuffer size in bytes
    std::uint32_t lineLength = 0; ///< bytes per scanline
};

/**
 * Framebuffer with real pixel memory (RGBA8888 or RGB565). The mode
 * alone fixes the size; the pixel memory is allocated, zeroed, on its
 * first mmap, read, write or pixels() call, so a run that never draws
 * does not pay for a screenful of zeros.
 */
class FramebufferDevice : public CharDevice
{
  public:
    FramebufferDevice(std::uint32_t xres, std::uint32_t yres,
                      std::uint32_t bits_per_pixel);

    std::int64_t ioctl(std::uint64_t request, void *argp) override;

    std::uint8_t *mmapMemory(std::uint64_t &length) override;

    std::uint64_t
    write(std::uint64_t offset, const void *src,
          std::uint64_t len) override;

    std::uint64_t
    read(std::uint64_t offset, void *dst, std::uint64_t len) override;

    std::uint64_t size() const override;

    const FbVarScreenInfo &var() const { return var_; }
    const std::vector<std::uint8_t> &pixels() { return memory(); }
    std::uint32_t panCount() const { return panCount_; }

  private:
    /** The pixel memory at the current mode's size, allocated if absent. */
    std::vector<std::uint8_t> &memory();

    FbVarScreenInfo var_;
    std::vector<std::uint8_t> pixels_;
    std::uint32_t panCount_ = 0;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_DEVICES_HH
