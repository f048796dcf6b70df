/**
 * @file
 * System call handler implementations.
 *
 * Each handler is functional (data really moves) and charges the
 * service time of its class from OskParams as plain simulated delays.
 * CPU-core occupancy is the *caller's* responsibility: GENESYS worker
 * tasks and CPU-side workload threads hold a core (run-to-completion)
 * around handler execution, releasing it only across truly-blocking
 * sections such as recvfrom on an empty socket.
 */

#include "syscalls.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "osk/block_device.hh"
#include "osk/epoll.hh"
#include "osk/fault.hh"
#include "osk/file.hh"
#include "osk/mm.hh"
#include "osk/net.hh"
#include "osk/pipe.hh"
#include "osk/tcp.hh"
#include "osk/process.hh"
#include "osk/signals.hh"
#include "osk/vfs.hh"
#include "sim/sync.hh"
#include "support/logging.hh"

namespace genesys::osk
{

namespace
{

// GPU waves hand in raw register blocks, so every count/length that
// sizes a host-side buffer or walk must be clamped here, at the
// boundary — the wave may be buggy or hostile. Bounds follow Linux:
// UIO_MAXIOV for vectored I/O, the UDP datagram payload maximum, and
// explicit ceilings where Linux uses rlimits.
constexpr int kMaxIovSegments = 1024;            // UIO_MAXIOV
constexpr std::uint64_t kMaxUdpPayload = 65507;  // 64KiB - headers
constexpr int kMaxEpollEvents = 4096;
constexpr int kMaxFds = 4096;                    // RLIMIT_NOFILE stand-in
constexpr std::uint64_t kMaxFileBytes = 1ull << 31; // RLIMIT_FSIZE stand-in

/**
 * The object behind a description, by kind: one member is set for a
 * live description (none for Proc, whose content is its own
 * snapshot), and none for a null one.
 */
struct FileObject
{
    bool open = false; ///< the descriptor names a live description
    RegularFile *regular = nullptr;
    CharDevice *device = nullptr;
    PipeInode *pipe = nullptr;
    UdpSocket *udp = nullptr;
    TcpSocket *tcp = nullptr;
    EpollInstance *epoll = nullptr;

    /**
     * What a socket call answers before it reaches the socket: -EBADF
     * for a closed descriptor, -ENOTSOCK for one that is not a socket,
     * 0 for a socket.
     */
    std::int64_t
    notSocket() const
    {
        if (!open)
            return -EBADF;
        return udp != nullptr || tcp != nullptr ? 0 : -ENOTSOCK;
    }
};

FileObject
objectOf(Kernel &k, const OpenFile *file)
{
    FileObject o;
    if (file == nullptr)
        return o;
    o.open = true;
    switch (file->kind) {
      case FileKind::Regular:
        o.regular = static_cast<RegularFile *>(file->inode);
        break;
      case FileKind::CharDevice:
        o.device = static_cast<CharDevice *>(file->inode);
        break;
      case FileKind::Proc:
        break;
      case FileKind::Pipe:
        o.pipe = static_cast<PipeInode *>(file->inode);
        break;
      case FileKind::Udp:
        o.udp = k.udp().socket(file->id);
        break;
      case FileKind::Tcp:
        o.tcp = k.tcp().socket(file->id);
        break;
      case FileKind::Epoll:
        o.epoll = k.epoll().instance(file->id);
        break;
    }
    return o;
}

} // namespace

sim::Task<std::int64_t>
sysOpen(Kernel &k, Process &p, const SyscallArgs &args)
{
    const char *path_c = args.ptr<const char>(0);
    const int flags = args.as<int>(1);
    if (path_c == nullptr)
        co_return -EFAULT;
    const std::string path(path_c);
    co_await sim::Delay(k.sim().events(),
                        k.params().pathComponent *
                            Vfs::componentCount(path));
    Inode *inode = k.vfs().resolve(path);
    if (inode == nullptr) {
        if ((flags & O_CREAT) == 0)
            co_return -ENOENT;
        inode = k.vfs().createFile(path);
        if (inode == nullptr)
            co_return -EACCES;
    } else if ((flags & O_TRUNC) != 0 &&
               inode->type() == InodeType::Regular) {
        static_cast<RegularFile *>(inode)->truncate(0);
    }
    FileKind kind = FileKind::Regular;
    switch (inode->type()) {
      case InodeType::Directory:
        co_return -EISDIR;
      case InodeType::Regular:
        kind = FileKind::Regular;
        break;
      case InodeType::CharDevice:
        kind = FileKind::CharDevice;
        break;
      case InodeType::Proc:
        kind = FileKind::Proc;
        break;
      case InodeType::Pipe:
        kind = FileKind::Pipe;
        break;
    }
    auto file = std::make_shared<OpenFile>(kind, flags);
    file->inode = inode;
    file->path = path;
    if (kind == FileKind::Proc)
        file->procSnapshot = static_cast<ProcFile *>(inode)->generate();
    co_return p.fds().allocate(std::move(file));
}

sim::Task<std::int64_t>
sysClose(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const std::shared_ptr<OpenFile> file = p.fds().getShared(fd);
    if (file == nullptr)
        co_return -EBADF;
    p.fds().close(fd);
    // dup/dup2 share the open file description: like Linux's fput(),
    // only the last descriptor on it tears its endpoint down.
    if (file.use_count() > 1)
        co_return 0;
    switch (file->kind) {
      case FileKind::Regular:
      case FileKind::CharDevice:
      case FileKind::Proc:
        break;
      case FileKind::Pipe: {
        PipeInode *pipe = objectOf(k, file.get()).pipe;
        if (file->writable())
            pipe->closeWriter();
        else
            pipe->closeReader();
        break;
      }
      case FileKind::Udp:
        k.epoll().forgetSocket(file->kind, file->id);
        k.udp().closeSocket(file->id);
        break;
      case FileKind::Tcp:
        k.epoll().forgetSocket(file->kind, file->id);
        k.tcp().closeSocket(file->id);
        break;
      case FileKind::Epoll:
        k.epoll().close(file->id);
        break;
    }
    co_return 0;
}

namespace
{

/**
 * One datagram from @p sock, scattered over @p iov; the rest of a
 * longer datagram is discarded, as in Linux.
 */
sim::Task<std::int64_t>
recvDatagram(Kernel &k, UdpSocket &sock, const IoVec *iov, int cnt,
             SockAddr *src)
{
    Datagram dgram = co_await sock.recvFrom(iovTotal(iov, cnt));
    co_await sim::Delay(k.sim().events(), k.params().udpRecvBase);
    IovCursor(iov).scatter(dgram.payload.data(), dgram.payload.size());
    if (src != nullptr)
        *src = dgram.from;
    co_return static_cast<std::int64_t>(dgram.payload.size());
}

/** Which read/write-family call a transfer serves. */
enum class Io : std::uint8_t
{
    Read,  ///< read, pread64
    Write, ///< write, pwrite64
    Readv,
    Writev,
};

bool
writes(Io io)
{
    return io == Io::Write || io == Io::Writev;
}

bool
vectored(Io io)
{
    return io == Io::Readv || io == Io::Writev;
}

/**
 * A transfer on a seekable description (Regular, CharDevice, Proc):
 * segment by segment, each charged as a read(2)/write(2) of its own.
 * readv/writev skip empty segments; a short segment ends the call. A
 * non-negative @p pos_override is pread/pwrite's offset and leaves the
 * file position alone.
 */
sim::Task<std::int64_t>
seekableIo(Kernel &k, OpenFile &file, const IoVec *iov, int cnt,
           std::int64_t pos_override, Io io)
{
    const FileObject obj = objectOf(k, &file);
    std::int64_t total = 0;
    for (int i = 0; i < cnt; ++i) {
        void *buf = iov[i].asPtr();
        const std::uint64_t len = iov[i].len;
        if (vectored(io) && len == 0)
            continue;
        std::uint64_t pos = pos_override >= 0
                                ? static_cast<std::uint64_t>(pos_override)
                                : file.pos;
        std::uint64_t n = 0;
        Tick cost = k.params().pageCacheLookup;
        if (RegularFile *reg = obj.regular) {
            if (writes(io)) {
                if (pos_override < 0 && (file.flags & O_APPEND) != 0)
                    pos = reg->size();
                n = reg->writeAt(pos, buf, len);
            } else {
                n = reg->readAt(pos, buf, len);
                if (reg->backing() != nullptr && n > 0)
                    co_await reg->backing()->read(n);
            }
            cost += transferTicks(n, k.params().tmpfsBytesPerSec);
        } else if (CharDevice *dev = obj.device) {
            n = writes(io) ? dev->write(pos, buf, len)
                           : dev->read(pos, buf, len);
        } else if (pos < file.procSnapshot.size()) {
            // Proc, read-only (doIo answers writes): the snapshot
            // taken at open.
            n = std::min<std::uint64_t>(len,
                                        file.procSnapshot.size() - pos);
            if (buf != nullptr)
                std::memcpy(buf, file.procSnapshot.data() + pos, n);
        }
        co_await sim::Delay(k.sim().events(), cost);
        if (pos_override < 0)
            file.pos = pos + n;
        total += static_cast<std::int64_t>(n);
        if (n < len)
            break;
    }
    co_return total;
}

/**
 * The read/write family's shared path at the file position. read/write
 * move one buffer, (fd, buf, count); readv/writev an iovec array, (fd,
 * iov, iovcnt). Seekable kinds go through seekableIo; every other kind
 * moves the whole vector at once: a pipe hands over what it holds and
 * takes a small write whole, a UDP socket gives exactly one datagram.
 */
sim::Task<std::int64_t>
doIo(Kernel &k, Process &p, SyscallArgs args, Io io)
{
    const bool write = writes(io);
    const IoVec one{args.a[1], args.a[2]};
    const IoVec *iov = vectored(io) ? args.ptr<const IoVec>(1) : &one;
    const int cnt = vectored(io) ? args.as<int>(2) : 1;
    if (iov == nullptr)
        co_return -EFAULT;
    if (cnt < 0 || cnt > kMaxIovSegments)
        co_return -EINVAL;
    OpenFile *file = p.fds().get(args.as<int>(0));
    if (file == nullptr || !(write ? file->writable() : file->readable()))
        co_return -EBADF;
    // Like Linux's do_iter_read/write, an empty vector reaches no file.
    if (vectored(io) && iovTotal(iov, cnt) == 0)
        co_return 0;
    switch (file->kind) {
      case FileKind::Regular:
      case FileKind::CharDevice:
        co_return co_await seekableIo(k, *file, iov, cnt, -1, io);
      case FileKind::Proc:
        if (write)
            co_return -EACCES;
        co_return co_await seekableIo(k, *file, iov, cnt, -1, io);
      case FileKind::Pipe: {
        PipeInode *pipe = objectOf(k, file).pipe;
        co_await sim::Delay(k.sim().events(), k.params().pageCacheLookup);
        if (!write)
            co_return co_await pipe->readv(iov, cnt);
        co_return co_await pipe->writev(iov, cnt);
      }
      case FileKind::Udp: {
        if (write)
            co_return -EDESTADDRREQ; // datagram sockets never connect
        co_return co_await recvDatagram(k, *objectOf(k, file).udp, iov,
                                        cnt, nullptr);
      }
      case FileKind::Tcp: {
        TcpSocket *sock = objectOf(k, file).tcp;
        if (!write) {
            co_await sim::Delay(k.sim().events(), k.params().tcpRecvBase);
            co_return co_await sock->readv(iov, cnt);
        }
        co_await sim::Delay(k.sim().events(), k.params().tcpSendBase);
        co_return co_await sock->writev(iov, cnt);
      }
      case FileKind::Epoll:
        break;
    }
    co_return -EINVAL; // an epoll instance moves no data
}

/**
 * pread64/pwrite64: one buffer, (fd, buf, count, off), at @p off,
 * leaving the file position alone. Like ksys_pread64/ksys_pwrite64,
 * the description's FMODE_PREAD/FMODE_PWRITE is tested before its
 * access mode: only seekable kinds carry them, and seq_file (proc)
 * clears FMODE_PWRITE.
 */
sim::Task<std::int64_t>
positionalIo(Kernel &k, Process &p, SyscallArgs args, Io io)
{
    const auto off = args.as<std::int64_t>(3);
    if (off < 0)
        co_return -EINVAL; // Linux rejects negative offsets up front
    OpenFile *file = p.fds().get(args.as<int>(0));
    if (file == nullptr)
        co_return -EBADF;
    const bool write = writes(io);
    const FileKind kind = file->kind;
    if (kind != FileKind::Regular && kind != FileKind::CharDevice &&
        (kind != FileKind::Proc || write))
        co_return -ESPIPE;
    if (!(write ? file->writable() : file->readable()))
        co_return -EBADF;
    const IoVec one{args.a[1], args.a[2]};
    co_return co_await seekableIo(k, *file, &one, 1, off, io);
}

} // namespace

sim::Task<std::int64_t>
sysRead(Kernel &k, Process &p, const SyscallArgs &args)
{
    return doIo(k, p, args, Io::Read);
}

// write() to a full pipe or TCP send buffer parks the service core
// indefinitely; `write`'s row has the may-block flag and the backend
// consults the fd kind (mayParkIndefinitely) to decide whether this
// particular call can actually park.
sim::Task<std::int64_t>
sysWrite(Kernel &k, Process &p, const SyscallArgs &args)
{
    return doIo(k, p, args, Io::Write);
}

sim::Task<std::int64_t>
sysPread(Kernel &k, Process &p, const SyscallArgs &args)
{
    return positionalIo(k, p, args, Io::Read);
}

sim::Task<std::int64_t>
sysPwrite(Kernel &k, Process &p, const SyscallArgs &args)
{
    return positionalIo(k, p, args, Io::Write);
}

sim::Task<std::int64_t>
sysLseek(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const auto offset = args.as<std::int64_t>(1);
    const int whence = args.as<int>(2);
    co_await sim::Delay(k.sim().events(), k.params().lseek);
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr)
        co_return -EBADF;
    switch (file->kind) {
      case FileKind::Regular:
      case FileKind::CharDevice:
      case FileKind::Proc:
        break;
      case FileKind::Epoll:
        // noop_llseek: the position stays put and is the answer, for
        // any whence ksys_lseek accepts (up to SEEK_MAX, 4).
        if (whence < 0 || whence > 4)
            co_return -EINVAL;
        co_return static_cast<std::int64_t>(file->pos);
      case FileKind::Pipe:
      case FileKind::Udp:
      case FileKind::Tcp:
        co_return -ESPIPE;
    }
    std::int64_t base = 0;
    switch (whence) {
      case SEEK_SET_:
        base = 0;
        break;
      case SEEK_CUR_:
        base = static_cast<std::int64_t>(file->pos);
        break;
      case SEEK_END_:
        // seq_lseek, behind every proc file, takes only SEEK_SET and
        // SEEK_CUR.
        if (file->kind == FileKind::Proc)
            co_return -EINVAL;
        base = static_cast<std::int64_t>(file->inode->size());
        break;
      default:
        co_return -EINVAL;
    }
    const std::int64_t target = base + offset;
    if (target < 0)
        co_return -EINVAL;
    file->pos = static_cast<std::uint64_t>(target);
    co_return target;
}

sim::Task<std::int64_t>
sysMmap(Kernel &k, Process &p, const SyscallArgs &args)
{
    const std::uint64_t length = args.a[1];
    const int fd = args.as<int>(4);
    co_await sim::Delay(k.sim().events(), k.params().mmapBase);
    if (length == 0)
        co_return -EINVAL;
    Addr base = 0;
    if (fd >= 0) {
        OpenFile *file = p.fds().get(fd);
        if (file == nullptr)
            co_return -EBADF;
        // Only devices map; file-backed mmap is not modeled.
        CharDevice *dev = objectOf(k, file).device;
        if (dev != nullptr)
            base = p.mm().mmapDevice(dev);
        if (base == 0)
            co_return -ENODEV;
    } else {
        base = p.mm().mmapAnon(length);
        if (base == 0)
            co_return -ENOMEM;
    }
    co_return static_cast<std::int64_t>(base);
}

sim::Task<std::int64_t>
sysMunmap(Kernel &k, Process &p, const SyscallArgs &args)
{
    co_await sim::Delay(k.sim().events(), k.params().munmapBase);
    co_return p.mm().munmap(args.a[0], args.a[1]) ? 0 : -EINVAL;
}

sim::Task<std::int64_t>
sysMadvise(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int ret = p.mm().madvise(args.a[0], args.a[1], args.as<int>(2));
    const Tick cost = k.params().madviseBase +
                      k.params().perPageRelease *
                          p.mm().lastReleasedPages();
    co_await sim::Delay(k.sim().events(), cost);
    co_return ret;
}

sim::Task<std::int64_t>
sysGetrusage(Kernel &k, Process &p, const SyscallArgs &args)
{
    auto *usage = args.ptr<RUsage>(1);
    co_await sim::Delay(k.sim().events(), k.params().getrusage);
    if (usage == nullptr)
        co_return -EFAULT;
    const auto &mm = p.mm();
    usage->ruMaxRssKib = mm.peakRssBytes() / 1024;
    usage->ruMinFlt = mm.stats().minorFaults;
    usage->ruMajFlt = mm.stats().majorFaults;
    usage->curRssBytes = mm.rssBytes();
    co_return 0;
}

sim::Task<std::int64_t>
sysRtSigqueueinfo(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int target_pid = args.as<int>(0);
    const int signo = args.as<int>(1);
    const auto *info = args.ptr<const SigInfo>(2);
    co_await sim::Delay(k.sim().events(), k.params().signalQueue);
    SigInfo payload;
    if (info != nullptr)
        payload = *info;
    payload.signo = signo;
    payload.senderId = static_cast<std::uint64_t>(p.pid());
    // pid 0 names the caller; a pid that names no process is -ESRCH.
    Process *target = target_pid == 0 ? &p : k.process(target_pid);
    if (target == nullptr)
        co_return -ESRCH;
    co_return target->signals().queueInfo(payload);
}

// socket(2) type values (match Linux).
inline constexpr int SOCK_STREAM_ = 1;

sim::Task<std::int64_t>
sysSocket(Kernel &k, Process &p, const SyscallArgs &args)
{
    const bool stream = args.as<int>(1) == SOCK_STREAM_;
    co_await sim::Delay(k.sim().events(), k.params().udpSendBase);
    auto file = std::make_shared<OpenFile>(
        stream ? FileKind::Tcp : FileKind::Udp, O_RDWR);
    file->id = stream ? k.tcp().createSocket()->id()
                      : k.udp().createSocket()->id();
    co_return p.fds().allocate(std::move(file));
}

sim::Task<std::int64_t>
sysBind(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const auto *addr = args.ptr<const SockAddr>(1);
    co_await sim::Delay(k.sim().events(), k.params().udpRecvBase);
    const FileObject sock = objectOf(k, p.fds().get(fd));
    if (const std::int64_t err = sock.notSocket())
        co_return err;
    if (addr == nullptr)
        co_return -EFAULT;
    co_return sock.tcp != nullptr ? sock.tcp->bind(*addr)
                                  : sock.udp->bind(*addr);
}

sim::Task<std::int64_t>
sysConnect(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const auto *addr = args.ptr<const SockAddr>(1);
    co_await sim::Delay(k.sim().events(), k.params().tcpConnectBase);
    const FileObject obj = objectOf(k, p.fds().get(fd));
    if (const std::int64_t err = obj.notSocket())
        co_return err;
    TcpSocket *sock = obj.tcp;
    if (sock == nullptr)
        co_return -EBADF; // UDP: this call is modeled for TCP only
    if (addr == nullptr)
        co_return -EFAULT;
    co_return co_await sock->connect(*addr);
}

sim::Task<std::int64_t>
sysListen(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const int backlog = args.as<int>(1);
    co_await sim::Delay(k.sim().events(), k.params().udpRecvBase);
    const FileObject obj = objectOf(k, p.fds().get(fd));
    if (const std::int64_t err = obj.notSocket())
        co_return err;
    TcpSocket *sock = obj.tcp;
    if (sock == nullptr)
        co_return -EOPNOTSUPP; // UDP: Linux's sock_no_listen
    co_return sock->listen(backlog);
}

sim::Task<std::int64_t>
sysAccept(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    auto *peer_out = args.ptr<SockAddr>(1);
    co_await sim::Delay(k.sim().events(), k.params().tcpConnectBase);
    const FileObject obj = objectOf(k, p.fds().get(fd));
    if (const std::int64_t err = obj.notSocket())
        co_return err;
    TcpSocket *sock = obj.tcp;
    if (sock == nullptr)
        co_return -EOPNOTSUPP; // UDP: Linux's sock_no_accept
    const int sid = co_await sock->accept();
    if (sid < 0)
        co_return sid;
    auto conn = std::make_shared<OpenFile>(FileKind::Tcp, O_RDWR);
    conn->id = sid;
    if (peer_out != nullptr)
        *peer_out = k.tcp().socket(sid)->peer();
    co_return p.fds().allocate(std::move(conn));
}

sim::Task<std::int64_t>
sysShutdown(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const int how = args.as<int>(1);
    co_await sim::Delay(k.sim().events(), k.params().tcpSendBase);
    const FileObject obj = objectOf(k, p.fds().get(fd));
    if (const std::int64_t err = obj.notSocket())
        co_return err;
    TcpSocket *sock = obj.tcp;
    if (sock == nullptr) {
        // UDP, as inet_shutdown answers it: `how` is checked first,
        // and a UDP socket is never connected here.
        co_return how < SHUT_RD_ || how > SHUT_RDWR_ ? -EINVAL
                                                     : -ENOTCONN;
    }
    co_return co_await sock->shutdown(how);
}

sim::Task<std::int64_t>
sysEpollCreate(Kernel &k, Process &p, const SyscallArgs &)
{
    co_await sim::Delay(k.sim().events(), k.params().epollCtlBase);
    auto file = std::make_shared<OpenFile>(FileKind::Epoll, O_RDWR);
    file->id = k.epoll().create();
    co_return p.fds().allocate(std::move(file));
}

sim::Task<std::int64_t>
sysEpollCtl(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int epfd = args.as<int>(0);
    const int op = args.as<int>(1);
    const int fd = args.as<int>(2);
    const auto *event = args.ptr<const EpollEvent>(3);
    co_await sim::Delay(k.sim().events(), k.params().epollCtlBase);
    const FileObject ep = objectOf(k, p.fds().get(epfd));
    EpollInstance *inst = ep.epoll;
    if (inst == nullptr) // epfd closed, or not an epoll descriptor
        co_return ep.open ? -EINVAL : -EBADF;
    OpenFile *target = p.fds().get(fd);
    if (target == nullptr)
        co_return -EBADF;
    const FileObject sock = objectOf(k, target);
    if (sock.udp == nullptr && sock.tcp == nullptr)
        co_return -EPERM; // only sockets are pollable here
    if (event == nullptr && op != EPOLL_CTL_DEL_)
        co_return -EFAULT;
    co_return inst->ctl(op, fd, target->kind, target->id,
                        event != nullptr ? event->events : 0,
                        event != nullptr ? event->data : 0);
}

sim::Task<std::int64_t>
sysEpollWait(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int epfd = args.as<int>(0);
    auto *events = args.ptr<EpollEvent>(1);
    const int max_events = args.as<int>(2);
    const auto timeout_ns = args.as<std::int64_t>(3);
    // Slot payload extension: the requester's hardware wave slot rides
    // in arg[4] so readiness wake-ups can be attributed to a
    // syscall-area shard (kEpollHostWaiter for CPU-side callers).
    const std::uint64_t waiter = args.a[4];
    co_await sim::Delay(k.sim().events(), k.params().epollWaitBase);
    const FileObject ep = objectOf(k, p.fds().get(epfd));
    EpollInstance *inst = ep.epoll;
    if (inst == nullptr) // epfd closed, or not an epoll descriptor
        co_return ep.open ? -EINVAL : -EBADF;
    // max_events bounds the collectReady() walk of the caller's
    // events window; a GPU wave must not pick the bound itself.
    if (max_events <= 0 || max_events > kMaxEpollEvents)
        co_return -EINVAL;
    co_return co_await inst->wait(events, max_events, timeout_ns,
                                  waiter);
}

// sendto on a connected stream falls through to TcpSocket::write,
// which parks when the send buffer is full; `sendto` is classified
// blocking and the backend's fd-aware check scopes the park to
// socket/pipe fds.
sim::Task<std::int64_t>
sysSendto(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const auto *buf = args.ptr<const std::uint8_t>(1);
    const std::uint64_t len = args.a[2];
    const auto *dest = args.ptr<const SockAddr>(4);
    const FileObject sock = objectOf(k, p.fds().get(fd));
    if (const std::int64_t err = sock.notSocket())
        co_return err;
    if (sock.tcp != nullptr) {
        // sendto on a connected stream: the address is ignored.
        co_await sim::Delay(k.sim().events(), k.params().tcpSendBase);
        co_return co_await sock.tcp->write(buf, len);
    }
    if (buf == nullptr || dest == nullptr)
        co_return -EFAULT;
    if (len > kMaxUdpPayload)
        co_return -EMSGSIZE; // GPU-supplied length sizes this buffer
    std::vector<std::uint8_t> payload(buf, buf + len);
    co_await sim::Delay(k.sim().events(), k.params().udpSendBase);
    co_return co_await sock.udp->sendTo(*dest, std::move(payload));
}

sim::Task<std::int64_t>
sysRecvfrom(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    auto *buf = args.ptr<std::uint8_t>(1);
    const std::uint64_t len = args.a[2];
    auto *src = args.ptr<SockAddr>(4);
    const FileObject sock = objectOf(k, p.fds().get(fd));
    if (const std::int64_t err = sock.notSocket())
        co_return err;
    if (sock.tcp != nullptr) {
        co_await sim::Delay(k.sim().events(), k.params().tcpRecvBase);
        if (src != nullptr)
            *src = sock.tcp->peer();
        co_return co_await sock.tcp->read(buf, len);
    }
    const IoVec one = IoVec::of(buf, len);
    co_return co_await recvDatagram(k, *sock.udp, &one, 1, src);
}

/**
 * Vectored I/O family. The msghdr of the real ABI is collapsed to the
 * only part the data path needs — the iovec array — so the register
 * block is (fd, iov*, iovcnt[, flags]). sendmsg/recvmsg add the flag
 * word; recvmsg(MSG_ZEROCOPY) is the loaned-segment protocol that
 * makes the gkv hot path copy-free (see OpenFile::loanedSegs).
 */
sim::Task<std::int64_t>
sysReadv(Kernel &k, Process &p, const SyscallArgs &args)
{
    return doIo(k, p, args, Io::Readv);
}

sim::Task<std::int64_t>
sysWritev(Kernel &k, Process &p, const SyscallArgs &args)
{
    return doIo(k, p, args, Io::Writev);
}

sim::Task<std::int64_t>
sysSendmsg(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const auto *iov = args.ptr<const IoVec>(1);
    const int cnt = args.as<int>(2);
    const FileObject obj = objectOf(k, p.fds().get(fd));
    if (const std::int64_t err = obj.notSocket())
        co_return err;
    TcpSocket *sock = obj.tcp;
    if (sock == nullptr)
        co_return -EOPNOTSUPP; // datagram msghdr routing not modeled
    if (iov == nullptr)
        co_return -EFAULT;
    if (cnt < 0 || cnt > kMaxIovSegments)
        co_return -EINVAL;
    co_await sim::Delay(k.sim().events(), k.params().tcpSendBase);
    co_return co_await sock->writev(iov, cnt);
}

sim::Task<std::int64_t>
sysRecvmsg(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    auto *iov = args.ptr<IoVec>(1);
    const int cnt = args.as<int>(2);
    const int flags = args.as<int>(3);
    OpenFile *file = p.fds().get(fd);
    const FileObject obj = objectOf(k, file);
    if (const std::int64_t err = obj.notSocket())
        co_return err;
    TcpSocket *sock = obj.tcp;
    if (sock == nullptr)
        co_return -EOPNOTSUPP;
    if (iov == nullptr)
        co_return -EFAULT;
    if (cnt <= 0 || cnt > kMaxIovSegments)
        co_return -EINVAL;
    co_await sim::Delay(k.sim().events(), k.params().tcpRecvBase);
    const bool nonblock = (flags & MSG_DONTWAIT_) != 0;
    if ((flags & MSG_ZEROCOPY_) == 0)
        co_return co_await sock->readv(iov, cnt, nonblock); // copy-out
    // Zero-copy: retire the previous loan generation on this fd (the
    // caller is done parsing those segments), then hand out whole
    // segments — each iovec entry is rewritten to point INTO the
    // refcounted segment buffer, which loanedSegs keeps alive until
    // the next MSG_ZEROCOPY recvmsg or close.
    file->loanedSegs.clear();
    std::vector<NetSeg> segs(static_cast<std::size_t>(cnt));
    const auto got =
        co_await sock->readSegments(segs.data(), cnt, nonblock);
    if (got <= 0)
        co_return got;
    std::int64_t total = 0;
    for (std::int64_t i = 0; i < got; ++i) {
        auto &seg = segs[static_cast<std::size_t>(i)];
        iov[i].base = SyscallArgs::fromPtr(seg.bytes());
        iov[i].len = seg.len;
        total += seg.len;
        file->loanedSegs.push_back(std::move(seg.data));
    }
    for (int i = static_cast<int>(got); i < cnt; ++i)
        iov[i] = IoVec{};
    co_return total;
}

sim::Task<std::int64_t>
sysIoctl(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const std::uint64_t request = args.a[1];
    void *argp = args.ptr<void>(2);
    co_await sim::Delay(k.sim().events(), k.params().ioctlBase);
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr)
        co_return -EBADF;
    CharDevice *dev = objectOf(k, file).device;
    if (dev == nullptr)
        co_return -ENOTTY;
    co_return dev->ioctl(request, argp);
}

sim::Task<std::int64_t>
sysPipe(Kernel &k, Process &p, const SyscallArgs &args)
{
    int *fds_out = args.ptr<int>(0);
    co_await sim::Delay(k.sim().events(), k.params().syscallBase);
    if (fds_out == nullptr)
        co_return -EFAULT;
    auto pipe = std::make_shared<PipeInode>(k.sim().events());
    auto rd = std::make_shared<OpenFile>(FileKind::Pipe, O_RDONLY);
    rd->inode = pipe.get();
    rd->owned = pipe;
    pipe->addReader();
    auto wr = std::make_shared<OpenFile>(FileKind::Pipe, O_WRONLY);
    wr->inode = pipe.get();
    wr->owned = pipe;
    pipe->addWriter();
    fds_out[0] = p.fds().allocate(std::move(rd));
    fds_out[1] = p.fds().allocate(std::move(wr));
    co_return 0;
}

sim::Task<std::int64_t>
sysDup(Kernel &k, Process &p, const SyscallArgs &args)
{
    co_await sim::Delay(k.sim().events(), k.params().lseek);
    auto file = p.fds().getShared(args.as<int>(0));
    if (file == nullptr)
        co_return -EBADF;
    co_return p.fds().allocate(std::move(file));
}

sim::Task<std::int64_t>
sysDup2(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int oldfd = args.as<int>(0);
    const int newfd = args.as<int>(1);
    co_await sim::Delay(k.sim().events(), k.params().lseek);
    auto file = p.fds().getShared(oldfd);
    // installAt() grows the fd table to cover newfd, so the GPU-
    // chosen slot must sit under the descriptor ceiling.
    if (file == nullptr || newfd < 0 || newfd >= kMaxFds)
        co_return -EBADF;
    if (oldfd == newfd)
        co_return newfd;
    if (p.fds().get(newfd) != nullptr) {
        // Implicitly close the old occupant (including pipe refs).
        co_await sysClose(k, p, makeArgs(newfd));
    }
    p.fds().installAt(newfd, std::move(file));
    co_return newfd;
}

sim::Task<std::int64_t>
sysFstat(Kernel &k, Process &p, const SyscallArgs &args)
{
    auto *out = args.ptr<StatLite>(1);
    co_await sim::Delay(k.sim().events(), k.params().lseek);
    OpenFile *file = p.fds().get(args.as<int>(0));
    if (file == nullptr)
        co_return -EBADF;
    if (out == nullptr)
        co_return -EFAULT;
    out->stSize = file->inode != nullptr ? file->inode->size() : 0;
    switch (file->kind) {
      case FileKind::Regular:
        out->stMode = 1;
        break;
      case FileKind::CharDevice:
        out->stMode = 3;
        break;
      case FileKind::Proc:
        out->stMode = 4;
        break;
      case FileKind::Pipe:
        out->stMode = 5;
        break;
      case FileKind::Udp:
      case FileKind::Tcp:
        out->stMode = 6;
        break;
      case FileKind::Epoll:
        out->stMode = 0; // an anonymous inode has no file type
        break;
    }
    co_return 0;
}

sim::Task<std::int64_t>
sysFtruncate(Kernel &k, Process &p, const SyscallArgs &args)
{
    co_await sim::Delay(k.sim().events(), k.params().lseek);
    // do_sys_ftruncate: a negative length fails before the fd lookup,
    // and any open fd but a writable regular file answers -EINVAL.
    if (args.as<std::int64_t>(1) < 0)
        co_return -EINVAL;
    OpenFile *file = p.fds().get(args.as<int>(0));
    if (file == nullptr)
        co_return -EBADF;
    RegularFile *reg = objectOf(k, file).regular;
    if (reg == nullptr || !file->writable())
        co_return -EINVAL;
    const std::uint64_t new_size = args.a[1];
    if (new_size > kMaxFileBytes)
        co_return -EFBIG; // truncate() eagerly allocates the backing
    reg->truncate(new_size);
    co_return 0;
}

sim::Task<std::int64_t>
sysUnlink(Kernel &k, Process &, const SyscallArgs &args)
{
    const char *path = args.ptr<const char>(0);
    if (path == nullptr)
        co_return -EFAULT;
    co_await sim::Delay(k.sim().events(),
                        k.params().pathComponent *
                            Vfs::componentCount(path));
    co_return k.vfs().unlink(path) ? 0 : -ENOENT;
}

sim::Task<std::int64_t>
sysGetpid(Kernel &k, Process &p, const SyscallArgs &)
{
    co_await sim::Delay(k.sim().events(), k.params().lseek);
    co_return p.pid();
}

sim::Task<std::int64_t>
sysNanosleep(Kernel &k, Process &, const SyscallArgs &args)
{
    const auto *req = args.ptr<const TimeSpec>(0);
    if (req == nullptr)
        co_return -EFAULT;
    if (req->tvSec < 0 || req->tvNsec < 0 || req->tvNsec >= 1000000000)
        co_return -EINVAL;
    co_await sim::Delay(k.sim().events(),
                        ticks::sec(static_cast<std::uint64_t>(
                            req->tvSec)) +
                            static_cast<Tick>(req->tvNsec));
    co_return 0;
}

std::string
syscallName(int num)
{
    const SyscallRow *row = syscallRow(num);
    return row == nullptr ? logging::format("sys_%d", num)
                          : std::string(row->name);
}

sim::Task<std::int64_t>
invokeSyscall(Kernel &kernel, Process &proc, int num,
              const SyscallArgs &args, FaultInjector *faults)
{
    co_await sim::Delay(kernel.sim().events(),
                        kernel.params().syscallBase);
    const SyscallRow *row = syscallRow(num);
    if (row == nullptr || !row->implemented())
        co_return -ENOSYS;

    if (faults != nullptr && faults->armed()) {
        // Short-transfer injection needs a count that can shrink and
        // still stay positive; everything else is count-independent.
        const std::uint64_t transfer_bytes =
            row->transfer ? args.a[2] : 0;
        const FaultDecision d = faults->decide(num, transfer_bytes);
        switch (d.kind) {
        case FaultKind::Eintr:
            co_return -EINTR;
        case FaultKind::Eagain:
            co_return -EAGAIN;
        case FaultKind::Errno:
            co_return -d.err;
        case FaultKind::ShortTransfer: {
            SyscallArgs trimmed = args;
            const std::uint64_t keep = std::max<std::uint64_t>(
                1, args.a[2] * d.keepPermille / 1000);
            trimmed.a[2] = keep;
            co_return co_await row->handler(kernel, proc, trimmed);
        }
        default:
            break;
        }
    }
    co_return co_await row->handler(kernel, proc, args);
}

bool
mayParkIndefinitely(Process &proc, int num, const SyscallArgs &args)
{
    const SyscallRow *row = syscallRow(num);
    if (row == nullptr || !row->mayBlock)
        return false;
    if (num == sysno::nanosleep)
        return true;
    const OpenFile *file = proc.fds().get(args.as<int>(0));
    if (file == nullptr)
        return true; // bad fd: resolve conservatively, in a punt task
    switch (file->kind) {
      case FileKind::Regular:
      case FileKind::CharDevice:
      case FileKind::Proc:
        return false; // bounded IO
      case FileKind::Pipe:
      case FileKind::Udp:
      case FileKind::Tcp:
      case FileKind::Epoll:
        break;
    }
    return true;
}

} // namespace genesys::osk
