/**
 * @file
 * System call numbers, argument marshalling, and dispatch.
 *
 * Numbers follow the Linux x86-64 ABI so the "generic" claim of the
 * paper is structural: GENESYS forwards (number, args[6]) pairs and
 * supporting another system call is one more row in the syscall table
 * (syscall_table.hh). The fourteen calls the paper implements
 * (Section IV: filesystem, networking, memory management, resource
 * query, signals, plus ioctl) are all present.
 *
 * Following the kernel convention, handlers return a non-negative
 * result or a negative errno.
 */

#ifndef GENESYS_OSK_SYSCALLS_HH
#define GENESYS_OSK_SYSCALLS_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "osk/syscall_table.hh"
#include "sim/task.hh"

namespace genesys::osk
{

class FaultInjector;

namespace sysno
{

/**
 * The number of the implemented table row named @p name. Each constant
 * below takes its number from the table, so a constant without an
 * implemented row does not compile.
 */
consteval int
implemented(std::string_view name)
{
    for (const SyscallRow &r : kSyscallTable) {
        if (r.name == name && r.implemented())
            return r.num;
    }
    throw "sysno:: constant without an implemented syscall-table row";
}

inline constexpr int read = implemented("read");
inline constexpr int write = implemented("write");
inline constexpr int open = implemented("open");
inline constexpr int close = implemented("close");
inline constexpr int fstat = implemented("fstat");
inline constexpr int lseek = implemented("lseek");
inline constexpr int mmap = implemented("mmap");
inline constexpr int munmap = implemented("munmap");
inline constexpr int ioctl = implemented("ioctl");
inline constexpr int pread64 = implemented("pread64");
inline constexpr int pwrite64 = implemented("pwrite64");
inline constexpr int readv = implemented("readv");
inline constexpr int writev = implemented("writev");
inline constexpr int pipe = implemented("pipe");
inline constexpr int madvise = implemented("madvise");
inline constexpr int dup = implemented("dup");
inline constexpr int dup2 = implemented("dup2");
inline constexpr int nanosleep = implemented("nanosleep");
inline constexpr int getpid = implemented("getpid");
inline constexpr int socket = implemented("socket");
inline constexpr int connect = implemented("connect");
inline constexpr int accept = implemented("accept");
inline constexpr int sendto = implemented("sendto");
inline constexpr int recvfrom = implemented("recvfrom");
inline constexpr int sendmsg = implemented("sendmsg");
inline constexpr int recvmsg = implemented("recvmsg");
inline constexpr int shutdown = implemented("shutdown");
inline constexpr int bind = implemented("bind");
inline constexpr int listen = implemented("listen");
inline constexpr int ftruncate = implemented("ftruncate");
inline constexpr int unlink = implemented("unlink");
inline constexpr int getrusage = implemented("getrusage");
inline constexpr int rt_sigqueueinfo = implemented("rt_sigqueueinfo");
inline constexpr int epoll_create = implemented("epoll_create");
inline constexpr int epoll_wait = implemented("epoll_wait");
inline constexpr int epoll_ctl = implemented("epoll_ctl");

} // namespace sysno

/** The table name of @p num, or "sys_<num>" when no row has it. */
std::string syscallName(int num);

/** Raw argument block: up to six 64-bit registers, Linux-style. */
struct SyscallArgs
{
    std::array<std::uint64_t, 6> a{};

    template <typename T>
    T
    as(std::size_t i) const
    {
        static_assert(sizeof(T) <= sizeof(std::uint64_t));
        return static_cast<T>(a[i]);
    }

    template <typename T>
    T *
    ptr(std::size_t i) const
    {
        return reinterpret_cast<T *>(static_cast<std::uintptr_t>(a[i]));
    }

    static std::uint64_t
    fromPtr(const void *p)
    {
        return static_cast<std::uint64_t>(
            reinterpret_cast<std::uintptr_t>(p));
    }
};

/** Build an args block from a mixed list of integers and pointers. */
template <typename... Ts>
SyscallArgs
makeArgs(Ts... vals)
{
    static_assert(sizeof...(Ts) <= 6);
    SyscallArgs args;
    [[maybe_unused]] std::size_t i = 0;
    [[maybe_unused]] auto put = [&](auto v) {
        using V = decltype(v);
        if constexpr (std::is_null_pointer_v<V>) {
            args.a[i++] = 0;
        } else if constexpr (std::is_pointer_v<V>) {
            args.a[i++] = SyscallArgs::fromPtr(v);
        } else {
            args.a[i++] = static_cast<std::uint64_t>(v);
        }
    };
    (put(vals), ...);
    return args;
}

/**
 * Advance a transfer call's argument block past @p done bytes so the
 * same call can be reissued for the remainder (the libc readn/writen
 * convention): buffer and count always move; the positioned variants
 * also move the explicit file offset. read/write on a seekable fd
 * need no offset fixup because the fd's own offset already advanced.
 */
inline void
advanceTransferArgs(int num, SyscallArgs &args, std::uint64_t done)
{
    args.a[1] += done;
    args.a[2] -= done;
    if (num == sysno::pread64 || num == sysno::pwrite64)
        args.a[3] += done;
}

/** Minimal stat(2) result block. */
struct StatLite
{
    std::uint64_t stSize = 0;
    /// File-type nibble, simplified: 1=regular 2=dir 3=chardev
    /// 4=proc 5=pipe 6=socket; 0 for an epoll fd (anonymous inode).
    std::uint32_t stMode = 0;
};

/** nanosleep(2) request. */
struct TimeSpec
{
    std::int64_t tvSec = 0;
    std::int64_t tvNsec = 0;
};

/** getrusage result block (ru_maxrss is KiB, as in Linux). */
struct RUsage
{
    std::uint64_t ruMaxRssKib = 0;
    std::uint64_t ruMinFlt = 0;
    std::uint64_t ruMajFlt = 0;
    /// Extension: current RSS in bytes. Real deployments poll
    /// /proc/self/statm for this; we surface it here so the miniAMR
    /// watermark check is a single call (documented in DESIGN.md).
    std::uint64_t curRssBytes = 0;
};

/**
 * Dispatch: charges the base syscall cost, then runs the row's handler.
 * A negative number, a number with no row and a census-only row
 * complete with -ENOSYS.
 *
 * With @p faults armed, the injector gets a decision point before
 * the handler runs: transient (-EINTR/-EAGAIN) and hard (-errno)
 * injections return without side effects, exactly like a call
 * interrupted before doing any work; short-transfer injections run
 * the real handler with a truncated count, so the bytes that are
 * reported transferred really were.
 */
sim::Task<std::int64_t> invokeSyscall(Kernel &kernel, Process &proc,
                                      int num, const SyscallArgs &args,
                                      FaultInjector *faults = nullptr);

/**
 * Can this call block its servicing kernel thread indefinitely, not
 * just for a modeled cost? The row's may-block flag is the sysno-level
 * superset; this refines it by the kind of the fd in arg 0: only
 * pipes, sockets and epoll instances can park, while a read(2) of a
 * regular file is bounded IO. The service path releases the CPU core
 * around such calls, and ring-mode consumers punt them to their own
 * workqueue task.
 */
bool mayParkIndefinitely(Process &proc, int num, const SyscallArgs &args);

} // namespace genesys::osk

#endif // GENESYS_OSK_SYSCALLS_HH
