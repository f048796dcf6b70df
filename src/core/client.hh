/**
 * @file
 * GPU-side GENESYS API.
 *
 * Exposes the paper's design space as first-class invocation
 * parameters (Section V):
 *
 *  - Granularity: per work-item, per work-group, or per kernel.
 *  - Ordering: strong (barriers before and after) or relaxed; relaxed
 *    placement depends on whether the call consumes GPU-produced data
 *    (write-like: barrier before only) or produces data for the GPU
 *    (read-like: barrier after only).
 *  - Blocking: blocking waits for the CPU's result; non-blocking
 *    returns as soon as the request is published.
 *  - WaitMode: blocking waiters either poll the slot (atomic loads
 *    through the coherent L2) or halt the wavefront and wait for a
 *    CPU resume message.
 *
 * Semantics enforced from the paper:
 *  - work-item granularity implies strong ordering;
 *  - kernel granularity requires relaxed ordering (strong would
 *    deadlock a grid larger than the device's residency).
 *
 * POSIX wrappers cover the system calls GENESYS implements; each one
 * only packs its arguments, and the role comes from the call's row in
 * the syscall table (osk/syscall_table.hh).
 */

#ifndef GENESYS_CORE_CLIENT_HH
#define GENESYS_CORE_CLIENT_HH

#include <cstdint>
#include <functional>
#include <optional>

#include "core/params.hh"
#include "core/slot.hh"
#include "gpu/gpu.hh"
#include "osk/epoll.hh"
#include "osk/net.hh"
#include "osk/signals.hh"
#include "osk/syscalls.hh"

namespace genesys::core
{

enum class Granularity
{
    WorkItem,
    WorkGroup,
    Kernel,
};

enum class Ordering
{
    Strong,
    Relaxed,
};

enum class Blocking
{
    Blocking,
    NonBlocking,
};

/** Data-flow direction of the call, for relaxed barrier placement. */
using Role = osk::Role;

struct Invocation
{
    Granularity granularity = Granularity::WorkGroup;
    Ordering ordering = Ordering::Strong;
    Blocking blocking = Blocking::Blocking;
    WaitMode waitMode = WaitMode::Polling;
    Role role = Role::Consumer;
};

const char *granularityName(Granularity g);
const char *orderingName(Ordering o);
const char *blockingName(Blocking b);
const char *waitModeName(WaitMode w);

// gstat: opaque(GpuSyscalls) — device-side wrapper API whose method
// names deliberately mirror POSIX (read/write/close/...); unqualified
// calls in the host OS tree must never resolve into it.
class GpuSyscalls
{
  public:
    GpuSyscalls(gpu::GpuDevice &gpu, SyscallArea &area,
                const GenesysParams &params)
        : gpu_(gpu), area_(area), params_(params)
    {}

    /**
     * Work-group granularity invocation. Every wavefront of the group
     * must call this (the barriers span the group); the group-leader
     * lane performs the actual call.
     * @return the syscall result on the leader wave; 0 elsewhere and
     *         for non-blocking invocations.
     */
    sim::Task<std::int64_t>
    invokeWorkGroup(gpu::WavefrontCtx &ctx, Invocation inv,
                    int sysno, osk::SyscallArgs args);

    /**
     * Kernel granularity: every wavefront calls this; only work-group
     * 0's leader invokes. Requires relaxed ordering (fatal otherwise).
     */
    sim::Task<std::int64_t>
    invokeKernel(gpu::WavefrontCtx &ctx, Invocation inv,
                 int sysno, osk::SyscallArgs args);

    /**
     * Work-item granularity: each active lane of this wavefront issues
     * its own request (strong ordering is implied; requesting relaxed
     * ordering is fatal).
     *
     * @param lane_args  per-lane arguments; std::nullopt marks an
     *                   inactive (diverged) lane.
     * @param on_result  invoked per lane with the syscall result
     *                   (blocking invocations only).
     */
    sim::Task<>
    invokeWorkItems(
        gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
        std::function<std::optional<osk::SyscallArgs>(std::uint32_t)>
            lane_args,
        std::function<void(std::uint32_t, std::int64_t)> on_result = {});

    // ---- POSIX wrappers (work-group/kernel granularity) -----------
    sim::Task<std::int64_t>
    open(gpu::WavefrontCtx &ctx, Invocation inv, const char *path,
         int flags)
    {
        return call(ctx, inv, osk::sysno::open, osk::makeArgs(path, flags));
    }
    sim::Task<std::int64_t>
    close(gpu::WavefrontCtx &ctx, Invocation inv, int fd)
    {
        return call(ctx, inv, osk::sysno::close, osk::makeArgs(fd));
    }
    sim::Task<std::int64_t>
    read(gpu::WavefrontCtx &ctx, Invocation inv, int fd, void *buf,
         std::uint64_t len)
    {
        return call(ctx, inv, osk::sysno::read, osk::makeArgs(fd, buf, len));
    }
    sim::Task<std::int64_t>
    write(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
          const void *buf, std::uint64_t len)
    {
        return call(ctx, inv, osk::sysno::write,
                    osk::makeArgs(fd, buf, len));
    }
    sim::Task<std::int64_t>
    pread(gpu::WavefrontCtx &ctx, Invocation inv, int fd, void *buf,
          std::uint64_t len, std::int64_t offset)
    {
        return call(ctx, inv, osk::sysno::pread64,
                    osk::makeArgs(fd, buf, len, offset));
    }
    sim::Task<std::int64_t>
    pwrite(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
           const void *buf, std::uint64_t len, std::int64_t offset)
    {
        return call(ctx, inv, osk::sysno::pwrite64,
                    osk::makeArgs(fd, buf, len, offset));
    }
    sim::Task<std::int64_t>
    lseek(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
          std::int64_t offset, int whence)
    {
        return call(ctx, inv, osk::sysno::lseek,
                    osk::makeArgs(fd, offset, whence));
    }
    /** Anonymous-or-file mapping: PROT_READ|PROT_WRITE (3),
     *  MAP_PRIVATE|MAP_ANONYMOUS (0x22), offset 0. */
    sim::Task<std::int64_t>
    mmap(gpu::WavefrontCtx &ctx, Invocation inv, std::uint64_t length,
         int fd)
    {
        return call(ctx, inv, osk::sysno::mmap,
                    osk::makeArgs(0, length, 3, 0x22, fd, 0));
    }
    sim::Task<std::int64_t>
    munmap(gpu::WavefrontCtx &ctx, Invocation inv, std::uint64_t addr,
           std::uint64_t length)
    {
        return call(ctx, inv, osk::sysno::munmap,
                    osk::makeArgs(addr, length));
    }
    sim::Task<std::int64_t>
    madvise(gpu::WavefrontCtx &ctx, Invocation inv, std::uint64_t addr,
            std::uint64_t length, int advice)
    {
        return call(ctx, inv, osk::sysno::madvise,
                    osk::makeArgs(addr, length, advice));
    }
    sim::Task<std::int64_t>
    getrusage(gpu::WavefrontCtx &ctx, Invocation inv, osk::RUsage *usage)
    {
        return call(ctx, inv, osk::sysno::getrusage,
                    osk::makeArgs(0, usage));
    }
    sim::Task<std::int64_t>
    rtSigqueueinfo(gpu::WavefrontCtx &ctx, Invocation inv, int pid,
                   int signo, const osk::SigInfo *info)
    {
        return call(ctx, inv, osk::sysno::rt_sigqueueinfo,
                    osk::makeArgs(pid, signo, info));
    }
    /** The sockaddr length is always 8 (the collapsed SockAddr). */
    sim::Task<std::int64_t>
    sendto(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
           const void *buf, std::uint64_t len, const osk::SockAddr *dest)
    {
        return call(ctx, inv, osk::sysno::sendto,
                    osk::makeArgs(fd, buf, len, 0, dest, 8));
    }
    sim::Task<std::int64_t>
    recvfrom(gpu::WavefrontCtx &ctx, Invocation inv, int fd, void *buf,
             std::uint64_t len, osk::SockAddr *src)
    {
        return call(ctx, inv, osk::sysno::recvfrom,
                    osk::makeArgs(fd, buf, len, 0, src, 8));
    }
    sim::Task<std::int64_t>
    ioctl(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
          std::uint64_t request, void *argp)
    {
        return call(ctx, inv, osk::sysno::ioctl,
                    osk::makeArgs(fd, request, argp));
    }

    // ---- vectored I/O (work-group/kernel granularity) --------------
    sim::Task<std::int64_t>
    readv(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
          const osk::IoVec *iov, int cnt)
    {
        return call(ctx, inv, osk::sysno::readv,
                    osk::makeArgs(fd, iov, cnt));
    }
    sim::Task<std::int64_t>
    writev(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
           const osk::IoVec *iov, int cnt)
    {
        return call(ctx, inv, osk::sysno::writev,
                    osk::makeArgs(fd, iov, cnt));
    }
    sim::Task<std::int64_t>
    sendmsg(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
            const osk::IoVec *iov, int cnt, std::uint64_t flags)
    {
        return call(ctx, inv, osk::sysno::sendmsg,
                    osk::makeArgs(fd, iov, cnt, flags));
    }
    /**
     * Collapsed msghdr: (fd, iov, cnt, flags). With MSG_ZEROCOPY the
     * kernel rewrites @p iov in place to point into loaned wire
     * segments (see osk/tcp.hh); with MSG_DONTWAIT an empty receive
     * chain returns -EAGAIN — the edge-triggered drain primitive.
     */
    sim::Task<std::int64_t>
    recvmsg(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
            osk::IoVec *iov, int cnt, std::uint64_t flags)
    {
        return call(ctx, inv, osk::sysno::recvmsg,
                    osk::makeArgs(fd, iov, cnt, flags));
    }

    // ---- gnet: stream sockets + readiness ---------------------------
    sim::Task<std::int64_t>
    connect(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
            const osk::SockAddr *addr)
    {
        return call(ctx, inv, osk::sysno::connect,
                    osk::makeArgs(fd, addr, 8));
    }
    sim::Task<std::int64_t>
    listen(gpu::WavefrontCtx &ctx, Invocation inv, int fd, int backlog)
    {
        return call(ctx, inv, osk::sysno::listen,
                    osk::makeArgs(fd, backlog));
    }
    sim::Task<std::int64_t>
    accept(gpu::WavefrontCtx &ctx, Invocation inv, int fd,
           osk::SockAddr *peer)
    {
        return call(ctx, inv, osk::sysno::accept,
                    osk::makeArgs(fd, peer, 8));
    }
    sim::Task<std::int64_t>
    shutdown(gpu::WavefrontCtx &ctx, Invocation inv, int fd, int how)
    {
        return call(ctx, inv, osk::sysno::shutdown, osk::makeArgs(fd, how));
    }
    sim::Task<std::int64_t>
    epollCreate(gpu::WavefrontCtx &ctx, Invocation inv)
    {
        return call(ctx, inv, osk::sysno::epoll_create, osk::makeArgs(1));
    }
    sim::Task<std::int64_t>
    epollCtl(gpu::WavefrontCtx &ctx, Invocation inv, int epfd, int op,
             int fd, const osk::EpollEvent *event)
    {
        return call(ctx, inv, osk::sysno::epoll_ctl,
                    osk::makeArgs(epfd, op, fd, event));
    }
    /**
     * epoll_wait through a syscall slot: the slot payload carries the
     * requester's hardware wave slot (arg[4]) so readiness wake-ups
     * can be attributed per syscall-area shard. A blocked work-group
     * halts/polls exactly like any other blocking call.
     */
    sim::Task<std::int64_t>
    epollWait(gpu::WavefrontCtx &ctx, Invocation inv, int epfd,
              osk::EpollEvent *events, int max_events,
              std::int64_t timeout_ns)
    {
        return call(ctx, inv, osk::sysno::epoll_wait,
                    osk::makeArgs(epfd, events, max_events, timeout_ns,
                                  ctx.hwWaveSlot()));
    }

    /** Attach the happens-before sanitizer (may be null). */
    void setSanitizer(gsan::Sanitizer *gsan) { gsan_ = gsan; }

    // ---- stats -----------------------------------------------------
    std::uint64_t issuedRequests() const { return issued_; }
    /** Transparent EINTR restarts + EAGAIN retries performed. */
    std::uint64_t syscallRetries() const { return retries_; }
    /** Short read/write results continued with a follow-up request. */
    std::uint64_t shortTransfers() const { return shortTransfers_; }
    /** Ring mode: claim retries while the SQ looked full. */
    std::uint64_t ringFullRetries() const { return ringFullRetries_; }

  private:
    /**
     * The dispatcher behind every POSIX wrapper: takes the call's role
     * from its syscall-table row and invokes at kernel or work-group
     * granularity, as @p inv asks.
     */
    sim::Task<std::int64_t> call(gpu::WavefrontCtx &ctx, Invocation inv,
                                 int sysno, osk::SyscallArgs args);

    /** One blocking request's POSIX recovery state across rounds. */
    struct Recovery
    {
        Recovery() = default;
        Recovery(const osk::SyscallRow *row, const osk::SyscallArgs &args)
            : transfer(row != nullptr && row->transfer),
              want(transfer ? args.a[2] : 0)
        {}

        bool transfer = false; ///< the call's row has the transfer flag
        std::uint64_t want = 0; ///< bytes a transfer call asks for
        std::uint64_t done = 0;
        std::uint32_t restarts = 0;
        std::uint32_t congested = 0;
    };

    /** What a requester does after one round's recover() decision. */
    enum class Next : std::uint8_t
    {
        Finish,  ///< the (possibly rewritten) result is final
        Reissue, ///< issue again at once
        Backoff, ///< stall, then issue again
    };

    /**
     * The GPU libc layer's POSIX recovery decision for one round's
     * result @p ret of a blocking request: restart -EINTR (SA_RESTART),
     * retry -EAGAIN unless the call passed MSG_DONTWAIT (then -EAGAIN
     * is its normal "drained" return), and continue short read/write
     * transfers by advancing @p args. On Finish, @p ret holds the
     * call's result; on Backoff the round stalls before reissuing.
     */
    Next recover(int sysno, osk::SyscallArgs &args, Recovery &rec,
                 std::int64_t &ret);

    /**
     * The issue path of every granularity: rounds of claim, populate,
     * publish and one doorbell (or SQ batch) for the lanes in
     * @p pending, then, for blocking calls, wait, consume and apply
     * recover() per lane until every lane finishes. A work-group or
     * kernel leader runs it with lane 0 alone. @p args and @p rec are
     * indexed by lane; @p on_result gets each lane's final result at
     * the tick its slot is consumed.
     */
    sim::Task<> issueRounds(
        gpu::WavefrontCtx &ctx, Invocation inv, int sysno,
        std::uint64_t pending, osk::SyscallArgs *args, Recovery *rec,
        std::function<void(std::uint32_t, std::int64_t)> on_result);

    /**
     * Ring-mode batch submission (DESIGN.md §13): claim a range of SQ
     * entries on the wave's shard, write the published slot indices,
     * publish in claim order, and ring ONE doorbell for the batch.
     * Batches larger than the SQ capacity split into chunks.
     */
    sim::Task<> ringSubmit(gpu::WavefrontCtx &ctx,
                           const std::uint32_t *slots, std::uint32_t n);

    /** Poll (or halt) until every listed slot finishes; consume all. */
    sim::Task<> waitSlots(gpu::WavefrontCtx &ctx, Invocation inv,
                          std::uint32_t first_slot,
                          std::uint64_t lane_mask,
                          std::function<void(std::uint32_t,
                                             std::int64_t)> on_result);

    /** True when the sanitizer is attached and enabled. */
    bool sanOn() const;
    /** Name @p ctx's wavefront as the gsan actor for slot ops. */
    void sanActor(gpu::WavefrontCtx &ctx);

    gpu::GpuDevice &gpu_;
    SyscallArea &area_;
    GenesysParams params_;
    gsan::Sanitizer *gsan_ = nullptr;
    std::uint64_t issued_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t shortTransfers_ = 0;
    std::uint64_t ringFullRetries_ = 0;
};

} // namespace genesys::core

#endif // GENESYS_CORE_CLIENT_HH
