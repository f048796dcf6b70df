/**
 * @file
 * Open file descriptions and per-process descriptor tables.
 *
 * Mirrors the Linux split between the descriptor (an index) and the
 * open file description (inode + file position + flags). Statefulness
 * of read/write via the shared file position is exactly the hazard the
 * paper discusses for work-item granularity invocation (Section IV),
 * so the position lives here, shared by every dup of the descriptor.
 */

#ifndef GENESYS_OSK_FILE_HH
#define GENESYS_OSK_FILE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "osk/vfs.hh"

namespace genesys::osk
{

// open(2) flag subset (values match Linux).
inline constexpr int O_RDONLY = 0;
inline constexpr int O_WRONLY = 1;
inline constexpr int O_RDWR = 2;
inline constexpr int O_CREAT = 0100;
inline constexpr int O_TRUNC = 01000;
inline constexpr int O_APPEND = 02000;

// lseek whence values.
inline constexpr int SEEK_SET_ = 0;
inline constexpr int SEEK_CUR_ = 1;
inline constexpr int SEEK_END_ = 2;

/**
 * What an open file description refers to. Set once, when the
 * descriptor is created (open, pipe, socket, accept, epoll_create, and
 * the stdio setup): every fd-taking handler, epoll and the service
 * path's may-park check switch on it. There is no Directory kind
 * because open(2) refuses directories.
 */
enum class FileKind : std::uint8_t
{
    Regular,
    CharDevice,
    Proc,
    Pipe,
    Udp,
    Tcp,
    Epoll,
};

/** Open file description (struct file). */
struct OpenFile
{
    OpenFile(FileKind file_kind, int open_flags)
        : kind(file_kind), flags(open_flags)
    {}

    const FileKind kind;
    /** The inode of a Regular, CharDevice, Proc or Pipe description. */
    Inode *inode = nullptr;
    /** The socket or epoll instance id of a Udp, Tcp or Epoll one. */
    int id = -1;
    /** Keeps path-less inodes (pipes) alive for this description. */
    std::shared_ptr<Inode> owned;
    std::uint64_t pos = 0;
    int flags = 0;
    std::string path;
    /** Snapshot for /proc files (content generated at open). */
    std::string procSnapshot;
    /**
     * Zero-copy loan generation: wire-segment buffers handed to the
     * caller by the last recvmsg(MSG_ZEROCOPY) on this description.
     * The refs keep the segments alive while the caller parses them
     * in place; the next MSG_ZEROCOPY recvmsg (or close) retires the
     * generation. One generation per description is the whole
     * contract — callers that need two batches live at once must copy.
     */
    std::vector<std::shared_ptr<std::vector<std::uint8_t>>> loanedSegs;

    bool readable() const
    {
        return (flags & O_RDWR) == O_RDWR ||
               (flags & (O_WRONLY | O_RDWR)) == 0;
    }
    bool writable() const
    {
        return (flags & (O_WRONLY | O_RDWR)) != 0;
    }
};

/** Per-process descriptor table. */
class FdTable
{
  public:
    /** Allocate the lowest free descriptor for @p file. */
    [[nodiscard]] int allocate(std::shared_ptr<OpenFile> file);

    /** @return the open file, or nullptr for a bad descriptor. */
    OpenFile *get(int fd) const;

    std::shared_ptr<OpenFile> getShared(int fd) const;

    /** Place @p file at exactly @p fd (dup2), growing the table. */
    void installAt(int fd, std::shared_ptr<OpenFile> file);

    /** Close @p fd. @return true if it was open. */
    bool close(int fd);

    std::size_t openCount() const;

  private:
    std::vector<std::shared_ptr<OpenFile>> table_;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_FILE_HH
