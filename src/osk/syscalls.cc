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
    if (inode->type() == InodeType::Directory)
        co_return -EISDIR;
    auto file = std::make_shared<OpenFile>();
    file->inode = inode;
    file->flags = flags;
    file->path = path;
    if (inode->type() == InodeType::Proc)
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
    if (file->socketId >= 0) {
        k.epoll().forgetSocket(SockKind::Udp, file->socketId);
        k.udp().closeSocket(file->socketId);
    }
    if (file->tcpId >= 0) {
        k.epoll().forgetSocket(SockKind::Tcp, file->tcpId);
        k.tcp().closeSocket(file->tcpId);
    }
    if (file->epollId >= 0)
        k.epoll().close(file->epollId);
    if (file->inode != nullptr &&
        file->inode->type() == InodeType::Pipe) {
        auto *pipe = static_cast<PipeInode *>(file->inode);
        if (file->writable())
            pipe->closeWriter();
        else
            pipe->closeReader();
    }
    co_return 0;
}

namespace
{

/** recvfrom(2) on UDP socket @p socket_id: one datagram into @p buf. */
sim::Task<std::int64_t>
recvDatagram(Kernel &k, int socket_id, void *buf, std::uint64_t len,
             SockAddr *src)
{
    Datagram dgram = co_await k.udp().socket(socket_id)->recvFrom(len);
    co_await sim::Delay(k.sim().events(), k.params().udpRecvBase);
    if (buf != nullptr && !dgram.payload.empty())
        std::memcpy(buf, dgram.payload.data(), dgram.payload.size());
    if (src != nullptr)
        *src = dgram.from;
    co_return static_cast<std::int64_t>(dgram.payload.size());
}

/** Shared read path for read/pread64. */
sim::Task<std::int64_t>
doRead(Kernel &k, Process &p, int fd, void *buf, std::uint64_t count,
       std::int64_t pos_override)
{
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr)
        co_return -EBADF;
    if (!file->readable())
        co_return -EBADF;
    if (file->inode == nullptr) {
        // Sockets and epoll instances: no inode, no file position.
        if (file->epollId >= 0)
            co_return -EINVAL;
        if (pos_override >= 0)
            co_return -ESPIPE;
        if (file->socketId >= 0)
            co_return co_await recvDatagram(k, file->socketId, buf,
                                            count, nullptr);
        TcpSocket *sock = k.tcp().socket(file->tcpId);
        if (sock == nullptr)
            co_return -EBADF;
        co_await sim::Delay(k.sim().events(), k.params().tcpRecvBase);
        co_return co_await sock->read(buf, count);
    }
    const std::uint64_t pos =
        pos_override >= 0 ? static_cast<std::uint64_t>(pos_override)
                          : file->pos;

    std::uint64_t n = 0;
    switch (file->inode->type()) {
      case InodeType::Regular: {
        auto *reg = static_cast<RegularFile *>(file->inode);
        n = reg->readAt(pos, buf, count);
        if (reg->backing() != nullptr && n > 0)
            co_await reg->backing()->read(n);
        co_await sim::Delay(k.sim().events(),
                            k.params().pageCacheLookup +
                                transferTicks(
                                    n, k.params().tmpfsBytesPerSec));
        break;
      }
      case InodeType::CharDevice: {
        auto *dev = static_cast<CharDevice *>(file->inode);
        n = dev->read(pos, buf, count);
        co_await sim::Delay(k.sim().events(), k.params().pageCacheLookup);
        break;
      }
      case InodeType::Proc: {
        const auto &content = file->procSnapshot;
        if (pos < content.size()) {
            n = std::min<std::uint64_t>(count, content.size() - pos);
            if (buf != nullptr)
                std::memcpy(buf, content.data() + pos, n);
        }
        co_await sim::Delay(k.sim().events(), k.params().pageCacheLookup);
        break;
      }
      case InodeType::Pipe: {
        if (pos_override >= 0)
            co_return -ESPIPE; // pipes are not seekable
        auto *pipe = static_cast<PipeInode *>(file->inode);
        co_await sim::Delay(k.sim().events(), k.params().pageCacheLookup);
        co_return co_await pipe->readBlocking(buf, count);
      }
      case InodeType::Directory:
        co_return -EISDIR;
    }
    if (pos_override < 0)
        file->pos = pos + n;
    co_return static_cast<std::int64_t>(n);
}

/** Shared write path for write/pwrite64. */
sim::Task<std::int64_t>
doWrite(Kernel &k, Process &p, int fd, const void *buf,
        std::uint64_t count, std::int64_t pos_override)
{
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr)
        co_return -EBADF;
    if (!file->writable())
        co_return -EBADF;
    if (file->inode == nullptr) {
        if (file->epollId >= 0)
            co_return -EINVAL;
        if (pos_override >= 0)
            co_return -ESPIPE;
        if (file->socketId >= 0)
            co_return -EDESTADDRREQ; // datagram sockets never connect
        TcpSocket *sock = k.tcp().socket(file->tcpId);
        if (sock == nullptr)
            co_return -EBADF;
        co_await sim::Delay(k.sim().events(), k.params().tcpSendBase);
        co_return co_await sock->write(buf, count);
    }
    std::uint64_t pos =
        pos_override >= 0 ? static_cast<std::uint64_t>(pos_override)
                          : file->pos;

    std::uint64_t n = 0;
    switch (file->inode->type()) {
      case InodeType::Regular: {
        auto *reg = static_cast<RegularFile *>(file->inode);
        if (pos_override < 0 && (file->flags & O_APPEND) != 0)
            pos = reg->size();
        n = reg->writeAt(pos, buf, count);
        co_await sim::Delay(k.sim().events(),
                            k.params().pageCacheLookup +
                                transferTicks(
                                    n, k.params().tmpfsBytesPerSec));
        break;
      }
      case InodeType::CharDevice: {
        auto *dev = static_cast<CharDevice *>(file->inode);
        n = dev->write(pos, buf, count);
        co_await sim::Delay(k.sim().events(), k.params().pageCacheLookup);
        break;
      }
      case InodeType::Proc:
        co_return -EACCES;
      case InodeType::Pipe: {
        if (pos_override >= 0)
            co_return -ESPIPE;
        auto *pipe = static_cast<PipeInode *>(file->inode);
        co_await sim::Delay(k.sim().events(), k.params().pageCacheLookup);
        co_return co_await pipe->writeBlocking(buf, count);
      }
      case InodeType::Directory:
        co_return -EISDIR;
    }
    if (pos_override < 0)
        file->pos = pos + n;
    co_return static_cast<std::int64_t>(n);
}

} // namespace

sim::Task<std::int64_t>
sysRead(Kernel &k, Process &p, const SyscallArgs &args)
{
    return doRead(k, p, args.as<int>(0), args.ptr<void>(1), args.a[2], -1);
}

// write() to a full pipe or TCP send buffer parks the service core
// indefinitely; `write`'s row has the may-block flag and the backend
// consults the fd type (ServiceCore::mayParkIndefinitely) to decide
// whether this particular call can actually park.
sim::Task<std::int64_t>
sysWrite(Kernel &k, Process &p, const SyscallArgs &args)
{
    return doWrite(k, p, args.as<int>(0), args.ptr<const void>(1),
                   args.a[2], -1);
}

sim::Task<std::int64_t>
sysPread(Kernel &k, Process &p, const SyscallArgs &args)
{
    const auto off = args.as<std::int64_t>(3);
    if (off < 0)
        co_return -EINVAL; // Linux rejects negative offsets up front
    co_return co_await doRead(k, p, args.as<int>(0), args.ptr<void>(1),
                              args.a[2], off);
}

sim::Task<std::int64_t>
sysPwrite(Kernel &k, Process &p, const SyscallArgs &args)
{
    const auto off = args.as<std::int64_t>(3);
    if (off < 0)
        co_return -EINVAL; // Linux rejects negative offsets up front
    co_return co_await doWrite(k, p, args.as<int>(0),
                               args.ptr<const void>(1), args.a[2], off);
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
    if (file->inode == nullptr || file->inode->type() == InodeType::Pipe)
        co_return -ESPIPE; // sockets, epoll instances and pipes
    std::int64_t base = 0;
    switch (whence) {
      case SEEK_SET_:
        base = 0;
        break;
      case SEEK_CUR_:
        base = static_cast<std::int64_t>(file->pos);
        break;
      case SEEK_END_:
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
        if (file->inode == nullptr ||
            file->inode->type() != InodeType::CharDevice)
            co_return -ENODEV; // file-backed mmap not modeled
        base = p.mm().mmapDevice(static_cast<CharDevice *>(file->inode));
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
    const int type = args.as<int>(1);
    co_await sim::Delay(k.sim().events(), k.params().udpSendBase);
    auto file = std::make_shared<OpenFile>();
    file->flags = O_RDWR;
    if (type == SOCK_STREAM_)
        file->tcpId = k.tcp().createSocket()->id();
    else
        file->socketId = k.udp().createSocket()->id();
    co_return p.fds().allocate(std::move(file));
}

sim::Task<std::int64_t>
sysBind(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const auto *addr = args.ptr<const SockAddr>(1);
    co_await sim::Delay(k.sim().events(), k.params().udpRecvBase);
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr ||
        (file->socketId < 0 && file->tcpId < 0))
        co_return -EBADF;
    if (addr == nullptr)
        co_return -EFAULT;
    if (file->tcpId >= 0)
        co_return k.tcp().socket(file->tcpId)->bind(*addr);
    co_return k.udp().socket(file->socketId)->bind(*addr);
}

sim::Task<std::int64_t>
sysConnect(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const auto *addr = args.ptr<const SockAddr>(1);
    co_await sim::Delay(k.sim().events(), k.params().tcpConnectBase);
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr || file->tcpId < 0)
        co_return -EBADF;
    if (addr == nullptr)
        co_return -EFAULT;
    co_return co_await k.tcp().socket(file->tcpId)->connect(*addr);
}

sim::Task<std::int64_t>
sysListen(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const int backlog = args.as<int>(1);
    co_await sim::Delay(k.sim().events(), k.params().udpRecvBase);
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr || file->tcpId < 0)
        co_return -EBADF;
    co_return k.tcp().socket(file->tcpId)->listen(backlog);
}

sim::Task<std::int64_t>
sysAccept(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    auto *peer_out = args.ptr<SockAddr>(1);
    co_await sim::Delay(k.sim().events(), k.params().tcpConnectBase);
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr || file->tcpId < 0)
        co_return -EBADF;
    const int sid = co_await k.tcp().socket(file->tcpId)->accept();
    if (sid < 0)
        co_return sid;
    auto conn = std::make_shared<OpenFile>();
    conn->flags = O_RDWR;
    conn->tcpId = sid;
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
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr || file->tcpId < 0)
        co_return -EBADF;
    co_return co_await k.tcp().socket(file->tcpId)->shutdown(how);
}

sim::Task<std::int64_t>
sysEpollCreate(Kernel &k, Process &p, const SyscallArgs &)
{
    co_await sim::Delay(k.sim().events(), k.params().epollCtlBase);
    auto file = std::make_shared<OpenFile>();
    file->flags = O_RDWR;
    file->epollId = k.epoll().create();
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
    OpenFile *efile = p.fds().get(epfd);
    if (efile == nullptr || efile->epollId < 0)
        co_return -EBADF;
    EpollInstance *inst = k.epoll().instance(efile->epollId);
    if (inst == nullptr)
        co_return -EBADF;
    OpenFile *target = p.fds().get(fd);
    if (target == nullptr)
        co_return -EBADF;
    if (target->socketId < 0 && target->tcpId < 0)
        co_return -EPERM; // only sockets are pollable here
    if (event == nullptr && op != EPOLL_CTL_DEL_)
        co_return -EFAULT;
    const SockKind kind =
        target->tcpId >= 0 ? SockKind::Tcp : SockKind::Udp;
    const int sock_id =
        target->tcpId >= 0 ? target->tcpId : target->socketId;
    co_return inst->ctl(op, fd, kind, sock_id,
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
    OpenFile *efile = p.fds().get(epfd);
    if (efile == nullptr || efile->epollId < 0)
        co_return -EBADF;
    EpollInstance *inst = k.epoll().instance(efile->epollId);
    if (inst == nullptr)
        co_return -EBADF;
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
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr)
        co_return -EBADF;
    if (file->tcpId >= 0) {
        // sendto on a connected stream: the address is ignored.
        TcpSocket *sock = k.tcp().socket(file->tcpId);
        if (sock == nullptr)
            co_return -EBADF;
        co_await sim::Delay(k.sim().events(), k.params().tcpSendBase);
        co_return co_await sock->write(buf, len);
    }
    if (file->socketId < 0)
        co_return -EBADF;
    if (buf == nullptr || dest == nullptr)
        co_return -EFAULT;
    if (len > kMaxUdpPayload)
        co_return -EMSGSIZE; // GPU-supplied length sizes this buffer
    std::vector<std::uint8_t> payload(buf, buf + len);
    co_await sim::Delay(k.sim().events(), k.params().udpSendBase);
    co_return co_await k.udp().socket(file->socketId)
        ->sendTo(*dest, std::move(payload));
}

sim::Task<std::int64_t>
sysRecvfrom(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    auto *buf = args.ptr<std::uint8_t>(1);
    const std::uint64_t len = args.a[2];
    auto *src = args.ptr<SockAddr>(4);
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr)
        co_return -EBADF;
    if (file->tcpId >= 0) {
        TcpSocket *sock = k.tcp().socket(file->tcpId);
        if (sock == nullptr)
            co_return -EBADF;
        co_await sim::Delay(k.sim().events(), k.params().tcpRecvBase);
        if (src != nullptr)
            *src = sock->peer();
        co_return co_await sock->read(buf, len);
    }
    if (file->socketId < 0)
        co_return -EBADF;
    co_return co_await recvDatagram(k, file->socketId, buf, len, src);
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
    const int fd = args.as<int>(0);
    const auto *iov = args.ptr<const IoVec>(1);
    const int cnt = args.as<int>(2);
    if (iov == nullptr)
        co_return -EFAULT;
    if (cnt < 0 || cnt > kMaxIovSegments)
        co_return -EINVAL;
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr || !file->readable())
        co_return -EBADF;
    if (file->tcpId >= 0) {
        TcpSocket *sock = k.tcp().socket(file->tcpId);
        if (sock == nullptr)
            co_return -EBADF;
        co_await sim::Delay(k.sim().events(), k.params().tcpRecvBase);
        co_return co_await sock->readv(iov, cnt);
    }
    // Non-stream fds: sequential per-iovec reads; a short read stops
    // the scan, matching POSIX readv semantics.
    std::int64_t total = 0;
    for (int i = 0; i < cnt; ++i) {
        if (iov[i].len == 0)
            continue;
        const auto n =
            co_await doRead(k, p, fd, iov[i].asPtr(), iov[i].len, -1);
        if (n < 0)
            co_return total > 0 ? total : n;
        total += n;
        if (static_cast<std::uint64_t>(n) < iov[i].len)
            break;
    }
    co_return total;
}

sim::Task<std::int64_t>
sysWritev(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const auto *iov = args.ptr<const IoVec>(1);
    const int cnt = args.as<int>(2);
    if (iov == nullptr)
        co_return -EFAULT;
    if (cnt < 0 || cnt > kMaxIovSegments)
        co_return -EINVAL;
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr || !file->writable())
        co_return -EBADF;
    if (file->tcpId >= 0) {
        TcpSocket *sock = k.tcp().socket(file->tcpId);
        if (sock == nullptr)
            co_return -EBADF;
        co_await sim::Delay(k.sim().events(), k.params().tcpSendBase);
        co_return co_await sock->writev(iov, cnt);
    }
    std::int64_t total = 0;
    for (int i = 0; i < cnt; ++i) {
        if (iov[i].len == 0)
            continue;
        const auto n =
            co_await doWrite(k, p, fd, iov[i].asPtr(), iov[i].len, -1);
        if (n < 0)
            co_return total > 0 ? total : n;
        total += n;
        if (static_cast<std::uint64_t>(n) < iov[i].len)
            break;
    }
    co_return total;
}

sim::Task<std::int64_t>
sysSendmsg(Kernel &k, Process &p, const SyscallArgs &args)
{
    const int fd = args.as<int>(0);
    const auto *iov = args.ptr<const IoVec>(1);
    const int cnt = args.as<int>(2);
    OpenFile *file = p.fds().get(fd);
    if (file == nullptr)
        co_return -EBADF;
    if (file->tcpId < 0)
        co_return -EOPNOTSUPP; // datagram msghdr routing not modeled
    if (iov == nullptr)
        co_return -EFAULT;
    if (cnt < 0 || cnt > kMaxIovSegments)
        co_return -EINVAL;
    TcpSocket *sock = k.tcp().socket(file->tcpId);
    if (sock == nullptr)
        co_return -EBADF;
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
    if (file == nullptr)
        co_return -EBADF;
    if (file->tcpId < 0)
        co_return -EOPNOTSUPP;
    if (iov == nullptr)
        co_return -EFAULT;
    if (cnt <= 0 || cnt > kMaxIovSegments)
        co_return -EINVAL;
    TcpSocket *sock = k.tcp().socket(file->tcpId);
    if (sock == nullptr)
        co_return -EBADF;
    co_await sim::Delay(k.sim().events(), k.params().tcpRecvBase);
    const bool nonblock = (flags & MSG_DONTWAIT_) != 0;
    if ((flags & MSG_ZEROCOPY_) == 0) {
        // Scatter copy-out. The DONTWAIT probe is race-free here: the
        // sim is cooperatively scheduled, so nothing drains the chain
        // between the probe and readv's no-wait fast path.
        if (nonblock && sock->rxQueued() == 0 && !sock->eofPending() &&
            !sock->errorPending())
            co_return -EAGAIN;
        co_return co_await sock->readv(iov, cnt);
    }
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
    if (file->inode == nullptr ||
        file->inode->type() != InodeType::CharDevice)
        co_return -ENOTTY;
    co_return static_cast<CharDevice *>(file->inode)
        ->ioctl(request, argp);
}

sim::Task<std::int64_t>
sysPipe(Kernel &k, Process &p, const SyscallArgs &args)
{
    int *fds_out = args.ptr<int>(0);
    co_await sim::Delay(k.sim().events(), k.params().syscallBase);
    if (fds_out == nullptr)
        co_return -EFAULT;
    auto pipe = std::make_shared<PipeInode>(k.sim().events());
    auto rd = std::make_shared<OpenFile>();
    rd->inode = pipe.get();
    rd->owned = pipe;
    rd->flags = O_RDONLY;
    pipe->addReader();
    auto wr = std::make_shared<OpenFile>();
    wr->inode = pipe.get();
    wr->owned = pipe;
    wr->flags = O_WRONLY;
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
    if (file->socketId >= 0 || file->tcpId >= 0) {
        out->stMode = 6;
    } else if (file->inode == nullptr) {
        out->stMode = 0; // epoll: an anonymous inode has no file type
    } else {
        switch (file->inode->type()) {
          case InodeType::Regular:
            out->stMode = 1;
            break;
          case InodeType::Directory:
            out->stMode = 2;
            break;
          case InodeType::CharDevice:
            out->stMode = 3;
            break;
          case InodeType::Proc:
            out->stMode = 4;
            break;
          case InodeType::Pipe:
            out->stMode = 5;
            break;
        }
    }
    co_return 0;
}

sim::Task<std::int64_t>
sysFtruncate(Kernel &k, Process &p, const SyscallArgs &args)
{
    co_await sim::Delay(k.sim().events(), k.params().lseek);
    OpenFile *file = p.fds().get(args.as<int>(0));
    if (file == nullptr || !file->writable())
        co_return -EBADF;
    if (file->inode == nullptr ||
        file->inode->type() != InodeType::Regular)
        co_return -EINVAL;
    const std::uint64_t new_size = args.a[1];
    if (new_size > kMaxFileBytes)
        co_return -EFBIG; // truncate() eagerly allocates the backing
    static_cast<RegularFile *>(file->inode)->truncate(new_size);
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

} // namespace genesys::osk
