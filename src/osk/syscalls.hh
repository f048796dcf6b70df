/**
 * @file
 * System call numbers, argument marshalling, and the dispatch table.
 *
 * Numbers follow the Linux x86-64 ABI so the "generic" claim of the
 * paper is structural: GENESYS forwards (number, args[6]) pairs and
 * supporting another system call is one more row in this table. The
 * fourteen calls the paper implements (Section IV: filesystem,
 * networking, memory management, resource query, signals, plus ioctl)
 * are all present.
 *
 * Following the kernel convention, handlers return a non-negative
 * result or a negative errno.
 */

#ifndef GENESYS_OSK_SYSCALLS_HH
#define GENESYS_OSK_SYSCALLS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "sim/task.hh"

namespace genesys::osk
{

class FaultInjector;
class Kernel;
class Process;

namespace sysno
{

inline constexpr int read = 0;
inline constexpr int write = 1;
inline constexpr int open = 2;
inline constexpr int close = 3;
inline constexpr int fstat = 5;
inline constexpr int lseek = 8;
inline constexpr int mmap = 9;
inline constexpr int munmap = 11;
inline constexpr int ioctl = 16;
inline constexpr int pread64 = 17;
inline constexpr int pwrite64 = 18;
inline constexpr int readv = 19;
inline constexpr int writev = 20;
inline constexpr int pipe = 22;
inline constexpr int madvise = 28;
inline constexpr int dup = 32;
inline constexpr int dup2 = 33;
inline constexpr int nanosleep = 35;
inline constexpr int getpid = 39;
inline constexpr int socket = 41;
inline constexpr int connect = 42;
inline constexpr int accept = 43;
inline constexpr int sendto = 44;
inline constexpr int recvfrom = 45;
inline constexpr int sendmsg = 46;
inline constexpr int recvmsg = 47;
inline constexpr int shutdown = 48;
inline constexpr int bind = 49;
inline constexpr int listen = 50;
inline constexpr int ftruncate = 77;
inline constexpr int unlink = 87;
inline constexpr int getrusage = 98;
inline constexpr int rt_sigqueueinfo = 129;
inline constexpr int epoll_create = 213;
inline constexpr int epoll_wait = 232;
inline constexpr int epoll_ctl = 233;

} // namespace sysno

/**
 * Data-flow direction of a call, for relaxed barrier placement
 * (Section V): a Producer (read-like) call produces data the GPU
 * consumes, so relaxed ordering puts the work-group barrier after it;
 * a Consumer (write-like) call consumes data the GPU produced, so the
 * barrier, and a GPU L1 flush, go before it.
 */
enum class Role
{
    Producer,
    Consumer,
};

struct SysnoRole
{
    int num;
    Role role;
};

/** One row per declared syscall number (glint's sysno-classified). */
inline constexpr SysnoRole kSysnoRoles[] = {
    {sysno::read, Role::Producer},
    {sysno::write, Role::Consumer},
    {sysno::open, Role::Producer},
    {sysno::close, Role::Consumer},
    {sysno::fstat, Role::Producer},
    {sysno::lseek, Role::Producer},
    {sysno::mmap, Role::Producer},
    {sysno::munmap, Role::Consumer},
    {sysno::ioctl, Role::Producer},
    {sysno::pread64, Role::Producer},
    {sysno::pwrite64, Role::Consumer},
    {sysno::readv, Role::Producer},
    {sysno::writev, Role::Consumer},
    {sysno::pipe, Role::Producer},
    {sysno::madvise, Role::Consumer},
    {sysno::dup, Role::Producer},
    {sysno::dup2, Role::Producer},
    {sysno::nanosleep, Role::Producer},
    {sysno::getpid, Role::Producer},
    {sysno::socket, Role::Producer},
    {sysno::connect, Role::Consumer},
    {sysno::accept, Role::Producer},
    {sysno::sendto, Role::Consumer},
    {sysno::recvfrom, Role::Producer},
    {sysno::sendmsg, Role::Consumer},
    {sysno::recvmsg, Role::Producer},
    {sysno::shutdown, Role::Consumer},
    {sysno::bind, Role::Consumer},
    {sysno::listen, Role::Consumer},
    {sysno::ftruncate, Role::Consumer},
    {sysno::unlink, Role::Consumer},
    {sysno::getrusage, Role::Producer},
    {sysno::rt_sigqueueinfo, Role::Consumer},
    {sysno::epoll_create, Role::Producer},
    {sysno::epoll_wait, Role::Producer},
    {sysno::epoll_ctl, Role::Consumer},
};

/** The kSysnoRoles role of @p num; panics on a number with no row. */
Role sysnoRole(int num);

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
 * True for the byte-transfer calls whose return value counts bytes and
 * which POSIX allows to complete partially: read/write/pread64/pwrite64.
 * These are the calls eligible for short-transfer injection and for
 * continuation loops on the requester side.
 */
inline constexpr bool
transferSyscall(int num)
{
    return num == sysno::read || num == sysno::write ||
           num == sysno::pread64 || num == sysno::pwrite64;
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

class SyscallTable
{
  public:
    using Handler = std::function<sim::Task<std::int64_t>(
        Kernel &, Process &, const SyscallArgs &)>;

    /** Constructs the table with every supported call installed. */
    SyscallTable();

    void install(int num, std::string name, Handler handler);
    bool supported(int num) const { return handlers_.contains(num); }
    std::string name(int num) const;
    std::size_t count() const { return handlers_.size(); }

    /**
     * Dispatch: charges the base syscall cost, then runs the handler.
     * Unknown numbers complete with -ENOSYS.
     *
     * With @p faults armed, the injector gets a decision point before
     * the handler runs: transient (-EINTR/-EAGAIN) and hard (-errno)
     * injections return without side effects, exactly like a call
     * interrupted before doing any work; short-transfer injections run
     * the real handler with a truncated count, so the bytes that are
     * reported transferred really were.
     */
    sim::Task<std::int64_t> invoke(Kernel &kernel, Process &proc, int num,
                                   const SyscallArgs &args,
                                   FaultInjector *faults = nullptr) const;

  private:
    struct Entry
    {
        std::string name;
        Handler handler;
    };

    std::map<int, Entry> handlers_;
};

} // namespace genesys::osk

#endif // GENESYS_OSK_SYSCALLS_HH
