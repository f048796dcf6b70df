/**
 * @file
 * PipeInode implementation.
 */

#include "pipe.hh"

#include <algorithm>
#include <cerrno>
#include <iterator>

namespace genesys::osk
{

sim::Task<std::int64_t>
PipeInode::readv(const IoVec *iov, int cnt)
{
    const std::uint64_t cap = iovTotal(iov, cnt);
    if (cap == 0)
        co_return 0;
    while (buffer_.empty()) {
        if (writers_ == 0)
            co_return 0; // EOF
        co_await readWait_->wait();
    }
    const std::uint64_t n = std::min<std::uint64_t>(cap, buffer_.size());
    IovCursor(iov).scatter(buffer_.begin(), n);
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(n));
    writeWait_->notifyAll();
    co_return static_cast<std::int64_t>(n);
}

sim::Task<std::int64_t>
PipeInode::writev(const IoVec *iov, int cnt)
{
    const std::uint64_t len = iovTotal(iov, cnt);
    // Room that must be free before any byte goes in: all of an
    // atomic write, one byte of a larger one.
    const std::uint64_t need =
        len <= std::min<std::uint64_t>(kPipeBuf, capacity_) ? len : 1;
    IovCursor from(iov);
    std::uint64_t written = 0;
    while (written < len) {
        if (readers_ == 0)
            co_return written > 0 ? static_cast<std::int64_t>(written)
                                  : -EPIPE;
        const std::uint64_t room =
            capacity_ - std::min(capacity_, buffer_.size());
        if (room < need) {
            co_await writeWait_->wait();
            continue;
        }
        const std::uint64_t n = std::min(room, len - written);
        from.gather(std::back_inserter(buffer_), n);
        written += n;
        readWait_->notifyAll();
    }
    co_return static_cast<std::int64_t>(written);
}

void
PipeInode::closeReader()
{
    if (--readers_ == 0)
        writeWait_->notifyAll(); // writers see EPIPE
}

void
PipeInode::closeWriter()
{
    if (--writers_ == 0)
        readWait_->notifyAll(); // readers see EOF
}

} // namespace genesys::osk
