/**
 * @file
 * Anonymous pipes.
 *
 * Section IV highlights that POSIX fidelity buys GENESYS "pipes
 * (including redirection of stdin, stdout, and stderr)" for free.
 * This is the kernel object behind pipe(2): a bounded byte queue with
 * blocking reads (empty) and writes (full), EOF on writer close,
 * EPIPE on reader close, and PIPE_BUF atomicity for small writes.
 */

#ifndef GENESYS_OSK_PIPE_HH
#define GENESYS_OSK_PIPE_HH

#include <cstdint>
#include <deque>
#include <memory>

#include "osk/net.hh"
#include "osk/vfs.hh"
#include "sim/event_queue.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace genesys::osk
{

class PipeInode : public Inode
{
  public:
    PipeInode(sim::EventQueue &eq, std::size_t capacity = 65536)
        : Inode(InodeType::Pipe), capacity_(capacity),
          readWait_(std::make_unique<sim::WaitQueue>(eq)),
          writeWait_(std::make_unique<sim::WaitQueue>(eq))
    {}

    /// POSIX PIPE_BUF: a write of at most this many bytes (or of the
    /// whole capacity, when that is smaller) lands contiguously.
    static constexpr std::uint64_t kPipeBuf = 4096;

    /**
     * Scatter up to the iovecs' total length into them; waits while
     * the pipe is empty and a writer exists, then takes what is
     * buffered. @return bytes read; 0 = EOF (no writers).
     */
    sim::Task<std::int64_t> readv(const IoVec *iov, int cnt);

    /**
     * Gather the iovecs into the pipe; waits while the pipe is full
     * and a reader exists. A write of at most kPipeBuf bytes waits
     * for room for all of it, so concurrent writers never interleave
     * inside it. @return bytes written or -EPIPE (no readers).
     */
    sim::Task<std::int64_t> writev(const IoVec *iov, int cnt);

    void
    addReader()
    {
        ++readers_;
    }
    void
    addWriter()
    {
        ++writers_;
    }
    void closeReader();
    void closeWriter();

    std::size_t buffered() const { return buffer_.size(); }
    std::uint64_t size() const override { return buffer_.size(); }
    int readers() const { return readers_; }
    int writers() const { return writers_; }

  private:
    std::size_t capacity_;
    std::deque<std::uint8_t> buffer_;
    int readers_ = 0;
    int writers_ = 0;
    std::unique_ptr<sim::WaitQueue> readWait_;
    std::unique_ptr<sim::WaitQueue> writeWait_;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_PIPE_HH
