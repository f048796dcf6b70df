/**
 * @file
 * The x86-64 system-call table: one constexpr row per Linux system call
 * of the paper's Section IV census, indexed by number.
 *
 * A row carries the call's number, name and Table II classification
 * (class, type, and the reason a call is not readily implementable).
 * A row GENESYS implements also carries the GPU-side data-flow role,
 * the handler, and two service-path flags. A row without a handler is
 * census-only: dispatching its number returns -ENOSYS, as does a
 * number with no row. Numbers follow the Linux x86-64 ABI; a test
 * checks each one against the host's <asm/unistd_64.h>.
 *
 * The table is constant-initialized: no static constructor, no heap,
 * nothing built per Kernel. Lookup by number goes through a
 * compile-time number -> row index, so rows keep the census order that
 * Table II prints.
 */

#ifndef GENESYS_OSK_SYSCALL_TABLE_HH
#define GENESYS_OSK_SYSCALL_TABLE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "sim/task.hh"

namespace genesys::osk
{

class Kernel;
class Process;
struct SyscallArgs;

/** Section IV's three implementability classes. */
enum class SyscallClass : std::uint8_t
{
    ReadilyImplementable,
    NeedsHardwareChanges,
    ExtensiveModification,
};

/** Table II's "Type" column: the functional group of a call. */
enum class SyscallType : std::uint8_t
{
    Filesystem,
    AsyncIo,
    MemoryManagement,
    Ipc,
    Network,
    Identity,
    Time,
    Signals,
    ResourceControl,
    Capabilities,
    Namespace,
    Policies,
    ThreadScheduling,
    ThreadIdentitySync,
    ArchSpecific,
    ProcessLifecycle,
    SystemAdministration,
};

/** Why a call is not readily implementable (None for readily rows). */
enum class SyscallReason : std::uint8_t
{
    None,
    NeedsThreadRepr,
    NeedsScheduler,
    NeedsPcControl,
    NotAccessible,
    ClonesState,
    AdminPath,
};

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

/**
 * A syscall handler. Following the kernel convention, it returns a
 * non-negative result or a negative errno.
 */
using SyscallFn = sim::Task<std::int64_t>(Kernel &, Process &,
                                          const SyscallArgs &);

// The handlers, defined in syscalls.cc.
SyscallFn sysRead;
SyscallFn sysWrite;
SyscallFn sysOpen;
SyscallFn sysClose;
SyscallFn sysFstat;
SyscallFn sysLseek;
SyscallFn sysMmap;
SyscallFn sysMunmap;
SyscallFn sysIoctl;
SyscallFn sysPread;
SyscallFn sysPwrite;
SyscallFn sysReadv;
SyscallFn sysWritev;
SyscallFn sysPipe;
SyscallFn sysMadvise;
SyscallFn sysDup;
SyscallFn sysDup2;
SyscallFn sysNanosleep;
SyscallFn sysGetpid;
SyscallFn sysSocket;
SyscallFn sysConnect;
SyscallFn sysAccept;
SyscallFn sysSendto;
SyscallFn sysRecvfrom;
SyscallFn sysSendmsg;
SyscallFn sysRecvmsg;
SyscallFn sysShutdown;
SyscallFn sysBind;
SyscallFn sysListen;
SyscallFn sysFtruncate;
SyscallFn sysUnlink;
SyscallFn sysGetrusage;
SyscallFn sysRtSigqueueinfo;
SyscallFn sysEpollCreate;
SyscallFn sysEpollWait;
SyscallFn sysEpollCtl;

struct SyscallRow
{
    int num;
    std::string_view name;
    SyscallClass cls;
    SyscallType type;
    SyscallReason reason;

    // Implemented rows only.
    std::optional<Role> role;
    /// nullptr for a census-only row; never null on an implemented one.
    SyscallFn *handler;
    /// A byte-transfer call whose result counts bytes and which POSIX
    /// allows to complete partially (read/write/pread64/pwrite64):
    /// eligible for short-transfer injection and continuation loops.
    bool transfer;
    /// Can block its kernel thread indefinitely, not just for a modeled
    /// cost: an empty socket, pipe or stream, a full send window,
    /// nanosleep, epoll_wait on idle sockets. The service path narrows
    /// this per call by fd kind (osk::mayParkIndefinitely).
    bool mayBlock;

    /**
     * A row GENESYS implements: impl() gives it a role and a handler.
     * This reads the role, not the handler, because GCC cannot compare
     * a function's address in a constant expression under
     * -fsanitize=undefined.
     */
    constexpr bool implemented() const { return role.has_value(); }
};

namespace syscall_rows
{

using enum SyscallType;
using enum SyscallReason;
using enum Role;

inline constexpr unsigned kTransfer = 1u << 0;
inline constexpr unsigned kMayBlock = 1u << 1;

/** A readily-implementable call GENESYS does not implement. */
constexpr SyscallRow
ok(int num, std::string_view name, SyscallType type)
{
    return {num, name, SyscallClass::ReadilyImplementable, type,
            SyscallReason::None, std::nullopt, nullptr, false, false};
}

/** A call that needs GPU hardware changes first (Table II). */
constexpr SyscallRow
hw(int num, std::string_view name, SyscallType type, SyscallReason why)
{
    return {num, name, SyscallClass::NeedsHardwareChanges, type, why,
            std::nullopt, nullptr, false, false};
}

/** A call that needs extensive OS modification. */
constexpr SyscallRow
ext(int num, std::string_view name, SyscallType type, SyscallReason why)
{
    return {num, name, SyscallClass::ExtensiveModification, type, why,
            std::nullopt, nullptr, false, false};
}

/**
 * A call GENESYS implements; @p flags is kTransfer | kMayBlock. The
 * handler is taken by reference, so it cannot be null.
 */
constexpr SyscallRow
impl(int num, std::string_view name, SyscallType type, Role role,
     SyscallFn &handler, unsigned flags)
{
    return {num, name, SyscallClass::ReadilyImplementable, type,
            SyscallReason::None, role, &handler, (flags & kTransfer) != 0,
            (flags & kMayBlock) != 0};
}

// Classification rationale follows Section IV of the paper:
//  - Calls whose semantics need a kernel-side representation of an
//    individual GPU thread (capabilities, namespaces, memory policies,
//    per-thread ids) or control over the GPU's hardware scheduler /
//    per-work-item program counters (scheduling, synchronous signal
//    handling, futexes) need hardware changes first.
//  - Calls that would clone or replace the whole GPU execution state
//    (fork/exec/exit family, module/boot administration) would need
//    extensive, low-value OS modification.
//  - Everything else is readily implementable: the CPU can execute it
//    on the GPU's behalf from an OS worker thread.
inline constexpr SyscallRow kRows[] = {
    // ---- filesystem & I/O (readily) ----
    impl(0, "read", Filesystem, Producer, sysRead, kTransfer | kMayBlock),
    impl(1, "write", Filesystem, Consumer, sysWrite, kTransfer | kMayBlock),
    impl(2, "open", Filesystem, Producer, sysOpen, 0),
    impl(3, "close", Filesystem, Consumer, sysClose, 0),
    ok(4, "stat", Filesystem),
    impl(5, "fstat", Filesystem, Producer, sysFstat, 0),
    ok(6, "lstat", Filesystem),
    ok(7, "poll", Filesystem),
    impl(8, "lseek", Filesystem, Producer, sysLseek, 0),
    impl(17, "pread64", Filesystem, Producer, sysPread, kTransfer),
    impl(18, "pwrite64", Filesystem, Consumer, sysPwrite, kTransfer),
    impl(19, "readv", Filesystem, Producer, sysReadv, kMayBlock),
    impl(20, "writev", Filesystem, Consumer, sysWritev, kMayBlock),
    ok(21, "access", Filesystem),
    impl(22, "pipe", Filesystem, Producer, sysPipe, 0),
    ok(23, "select", Filesystem),
    impl(32, "dup", Filesystem, Producer, sysDup, 0),
    impl(33, "dup2", Filesystem, Producer, sysDup2, 0),
    ok(292, "dup3", Filesystem),
    ok(293, "pipe2", Filesystem),
    ok(40, "sendfile", Filesystem),
    ok(72, "fcntl", Filesystem),
    ok(73, "flock", Filesystem),
    ok(74, "fsync", Filesystem),
    ok(75, "fdatasync", Filesystem),
    ok(76, "truncate", Filesystem),
    impl(77, "ftruncate", Filesystem, Consumer, sysFtruncate, 0),
    ok(78, "getdents", Filesystem),
    ok(217, "getdents64", Filesystem),
    ok(79, "getcwd", Filesystem),
    ok(80, "chdir", Filesystem),
    ok(81, "fchdir", Filesystem),
    ok(82, "rename", Filesystem),
    ok(264, "renameat", Filesystem),
    ok(316, "renameat2", Filesystem),
    ok(83, "mkdir", Filesystem),
    ok(84, "rmdir", Filesystem),
    ok(85, "creat", Filesystem),
    ok(86, "link", Filesystem),
    impl(87, "unlink", Filesystem, Consumer, sysUnlink, 0),
    ok(88, "symlink", Filesystem),
    ok(89, "readlink", Filesystem),
    ok(90, "chmod", Filesystem),
    ok(91, "fchmod", Filesystem),
    ok(92, "chown", Filesystem),
    ok(93, "fchown", Filesystem),
    ok(94, "lchown", Filesystem),
    ok(95, "umask", Filesystem),
    ok(133, "mknod", Filesystem),
    ok(258, "mkdirat", Filesystem),
    ok(259, "mknodat", Filesystem),
    ok(260, "fchownat", Filesystem),
    ok(261, "futimesat", Filesystem),
    ok(262, "newfstatat", Filesystem),
    ok(263, "unlinkat", Filesystem),
    ok(265, "linkat", Filesystem),
    ok(266, "symlinkat", Filesystem),
    ok(267, "readlinkat", Filesystem),
    ok(268, "fchmodat", Filesystem),
    ok(269, "faccessat", Filesystem),
    ok(257, "openat", Filesystem),
    ok(132, "utime", Filesystem),
    ok(235, "utimes", Filesystem),
    ok(280, "utimensat", Filesystem),
    ok(137, "statfs", Filesystem),
    ok(138, "fstatfs", Filesystem),
    ok(162, "sync", Filesystem),
    ok(306, "syncfs", Filesystem),
    ok(277, "sync_file_range", Filesystem),
    ok(285, "fallocate", Filesystem),
    ok(187, "readahead", Filesystem),
    ok(275, "splice", Filesystem),
    ok(276, "tee", Filesystem),
    ok(278, "vmsplice", Filesystem),
    ok(326, "copy_file_range", Filesystem),
    ok(295, "preadv", Filesystem),
    ok(296, "pwritev", Filesystem),
    ok(327, "preadv2", Filesystem),
    ok(328, "pwritev2", Filesystem),
    ok(332, "statx", Filesystem),
    ok(212, "lookup_dcookie", Filesystem),
    ok(179, "quotactl", Filesystem),
    ok(136, "ustat", Filesystem),
    ok(139, "sysfs", Filesystem),
    ok(221, "fadvise64", Filesystem),
    ok(188, "setxattr", Filesystem),
    ok(189, "lsetxattr", Filesystem),
    ok(190, "fsetxattr", Filesystem),
    ok(191, "getxattr", Filesystem),
    ok(192, "lgetxattr", Filesystem),
    ok(193, "fgetxattr", Filesystem),
    ok(194, "listxattr", Filesystem),
    ok(195, "llistxattr", Filesystem),
    ok(196, "flistxattr", Filesystem),
    ok(197, "removexattr", Filesystem),
    ok(198, "lremovexattr", Filesystem),
    ok(199, "fremovexattr", Filesystem),
    ok(206, "io_setup", AsyncIo),
    ok(207, "io_destroy", AsyncIo),
    ok(208, "io_getevents", AsyncIo),
    ok(209, "io_submit", AsyncIo),
    ok(210, "io_cancel", AsyncIo),
    ok(253, "inotify_init", AsyncIo),
    ok(254, "inotify_add_watch", AsyncIo),
    ok(255, "inotify_rm_watch", AsyncIo),
    ok(294, "inotify_init1", AsyncIo),
    ok(300, "fanotify_init", AsyncIo),
    ok(301, "fanotify_mark", AsyncIo),
    ok(303, "name_to_handle_at", AsyncIo),
    ok(304, "open_by_handle_at", AsyncIo),
    impl(213, "epoll_create", AsyncIo, Producer, sysEpollCreate, 0),
    impl(233, "epoll_ctl", AsyncIo, Consumer, sysEpollCtl, 0),
    impl(232, "epoll_wait", AsyncIo, Producer, sysEpollWait, kMayBlock),
    ok(281, "epoll_pwait", AsyncIo),
    ok(291, "epoll_create1", AsyncIo),
    ok(284, "eventfd", AsyncIo),
    ok(290, "eventfd2", AsyncIo),
    ok(282, "signalfd", AsyncIo),
    ok(289, "signalfd4", AsyncIo),
    ok(283, "timerfd_create", AsyncIo),
    ok(286, "timerfd_settime", AsyncIo),
    ok(287, "timerfd_gettime", AsyncIo),
    ok(271, "ppoll", AsyncIo),
    ok(270, "pselect6", AsyncIo),

    // ---- memory management (readily) ----
    impl(9, "mmap", MemoryManagement, Producer, sysMmap, 0),
    ok(10, "mprotect", MemoryManagement),
    impl(11, "munmap", MemoryManagement, Consumer, sysMunmap, 0),
    ok(12, "brk", MemoryManagement),
    ok(25, "mremap", MemoryManagement),
    ok(26, "msync", MemoryManagement),
    ok(27, "mincore", MemoryManagement),
    impl(28, "madvise", MemoryManagement, Consumer, sysMadvise, 0),
    ok(149, "mlock", MemoryManagement),
    ok(150, "munlock", MemoryManagement),
    ok(151, "mlockall", MemoryManagement),
    ok(152, "munlockall", MemoryManagement),
    ok(325, "mlock2", MemoryManagement),
    ok(216, "remap_file_pages", MemoryManagement),
    ok(319, "memfd_create", MemoryManagement),
    ok(330, "pkey_alloc", MemoryManagement),
    ok(331, "pkey_free", MemoryManagement),
    ok(329, "pkey_mprotect", MemoryManagement),
    ok(310, "process_vm_readv", MemoryManagement),
    ok(311, "process_vm_writev", MemoryManagement),

    // ---- System V / POSIX IPC (readily) ----
    ok(29, "shmget", Ipc),
    ok(30, "shmat", Ipc),
    ok(31, "shmctl", Ipc),
    ok(67, "shmdt", Ipc),
    ok(64, "semget", Ipc),
    ok(65, "semop", Ipc),
    ok(66, "semctl", Ipc),
    ok(220, "semtimedop", Ipc),
    ok(68, "msgget", Ipc),
    ok(69, "msgsnd", Ipc),
    ok(70, "msgrcv", Ipc),
    ok(71, "msgctl", Ipc),
    ok(240, "mq_open", Ipc),
    ok(241, "mq_unlink", Ipc),
    ok(242, "mq_timedsend", Ipc),
    ok(243, "mq_timedreceive", Ipc),
    ok(244, "mq_notify", Ipc),
    ok(245, "mq_getsetattr", Ipc),

    // ---- networking (readily) ----
    impl(41, "socket", Network, Producer, sysSocket, 0),
    impl(42, "connect", Network, Consumer, sysConnect, kMayBlock),
    impl(43, "accept", Network, Producer, sysAccept, kMayBlock),
    ok(288, "accept4", Network),
    impl(44, "sendto", Network, Consumer, sysSendto, kMayBlock),
    impl(45, "recvfrom", Network, Producer, sysRecvfrom, kMayBlock),
    impl(46, "sendmsg", Network, Consumer, sysSendmsg, kMayBlock),
    impl(47, "recvmsg", Network, Producer, sysRecvmsg, kMayBlock),
    ok(307, "sendmmsg", Network),
    ok(299, "recvmmsg", Network),
    impl(48, "shutdown", Network, Consumer, sysShutdown, 0),
    impl(49, "bind", Network, Consumer, sysBind, 0),
    impl(50, "listen", Network, Consumer, sysListen, 0),
    ok(51, "getsockname", Network),
    ok(52, "getpeername", Network),
    ok(53, "socketpair", Network),
    ok(54, "setsockopt", Network),
    ok(55, "getsockopt", Network),

    // ---- identity & credentials (readily: CPU process context) ----
    impl(39, "getpid", Identity, Producer, sysGetpid, 0),
    ok(110, "getppid", Identity),
    ok(102, "getuid", Identity),
    ok(107, "geteuid", Identity),
    ok(104, "getgid", Identity),
    ok(108, "getegid", Identity),
    ok(105, "setuid", Identity),
    ok(106, "setgid", Identity),
    ok(109, "setpgid", Identity),
    ok(111, "getpgrp", Identity),
    ok(121, "getpgid", Identity),
    ok(112, "setsid", Identity),
    ok(124, "getsid", Identity),
    ok(113, "setreuid", Identity),
    ok(114, "setregid", Identity),
    ok(115, "getgroups", Identity),
    ok(116, "setgroups", Identity),
    ok(117, "setresuid", Identity),
    ok(118, "getresuid", Identity),
    ok(119, "setresgid", Identity),
    ok(120, "getresgid", Identity),
    ok(122, "setfsuid", Identity),
    ok(123, "setfsgid", Identity),

    // ---- time (readily) ----
    ok(96, "gettimeofday", Time),
    ok(164, "settimeofday", Time),
    ok(201, "time", Time),
    ok(100, "times", Time),
    ok(228, "clock_gettime", Time),
    ok(227, "clock_settime", Time),
    ok(229, "clock_getres", Time),
    ok(230, "clock_nanosleep", Time),
    impl(35, "nanosleep", Time, Producer, sysNanosleep, kMayBlock),
    ok(37, "alarm", Time),
    ok(36, "getitimer", Time),
    ok(38, "setitimer", Time),
    ok(222, "timer_create", Time),
    ok(223, "timer_settime", Time),
    ok(224, "timer_gettime", Time),
    ok(225, "timer_getoverrun", Time),
    ok(226, "timer_delete", Time),
    ok(159, "adjtimex", Time),
    ok(305, "clock_adjtime", Time),

    // ---- signals: asynchronous queueing is readily; synchronous
    //      delivery/handling needs PC control (Table II) ----
    ok(62, "kill", Signals),
    impl(129, "rt_sigqueueinfo", Signals, Consumer, sysRtSigqueueinfo, 0),
    ok(297, "rt_tgsigqueueinfo", Signals),
    hw(13, "rt_sigaction", Signals, NeedsPcControl),
    hw(14, "rt_sigprocmask", Signals, NeedsPcControl),
    hw(130, "rt_sigsuspend", Signals, NeedsPcControl),
    hw(15, "rt_sigreturn", Signals, NeedsPcControl),
    hw(127, "rt_sigpending", Signals, NeedsPcControl),
    hw(128, "rt_sigtimedwait", Signals, NeedsPcControl),
    hw(131, "sigaltstack", Signals, NeedsPcControl),
    hw(34, "pause", Signals, NeedsPcControl),

    // ---- resource query & control (readily) ----
    impl(98, "getrusage", ResourceControl, Producer, sysGetrusage, 0),
    ok(99, "sysinfo", ResourceControl),
    ok(103, "syslog", ResourceControl),
    ok(97, "getrlimit", ResourceControl),
    ok(160, "setrlimit", ResourceControl),
    ok(302, "prlimit64", ResourceControl),
    ok(140, "getpriority", ResourceControl),
    ok(141, "setpriority", ResourceControl),
    ok(63, "uname", ResourceControl),
    ok(318, "getrandom", ResourceControl),
    ok(312, "kcmp", ResourceControl),
    impl(16, "ioctl", ResourceControl, Producer, sysIoctl, 0),
    ok(157, "prctl", ResourceControl),
    ok(321, "bpf", ResourceControl),
    ok(298, "perf_event_open", ResourceControl),
    ok(248, "add_key", ResourceControl),
    ok(249, "request_key", ResourceControl),
    ok(250, "keyctl", ResourceControl),
    ok(219, "restart_syscall", ResourceControl),
    ok(165, "mount", ResourceControl),
    ok(166, "umount2", ResourceControl),
    ok(170, "sethostname", ResourceControl),
    ok(171, "setdomainname", ResourceControl),

    // ---- capabilities & namespaces (Table II rows) ----
    hw(125, "capget", Capabilities, NeedsThreadRepr),
    hw(126, "capset", Capabilities, NeedsThreadRepr),
    hw(308, "setns", Namespace, NeedsThreadRepr),
    hw(238, "set_mempolicy", Policies, NeedsThreadRepr),
    hw(239, "get_mempolicy", Policies, NeedsThreadRepr),
    hw(237, "mbind", Policies, NeedsThreadRepr),
    hw(256, "migrate_pages", Policies, NeedsThreadRepr),
    hw(279, "move_pages", Policies, NeedsThreadRepr),

    // ---- thread scheduling (Table II rows) ----
    hw(24, "sched_yield", ThreadScheduling, NeedsScheduler),
    hw(203, "sched_setaffinity", ThreadScheduling, NeedsScheduler),
    hw(204, "sched_getaffinity", ThreadScheduling, NeedsScheduler),
    hw(142, "sched_setparam", ThreadScheduling, NeedsScheduler),
    hw(143, "sched_getparam", ThreadScheduling, NeedsScheduler),
    hw(144, "sched_setscheduler", ThreadScheduling, NeedsScheduler),
    hw(145, "sched_getscheduler", ThreadScheduling, NeedsScheduler),
    hw(146, "sched_get_priority_max", ThreadScheduling, NeedsScheduler),
    hw(147, "sched_get_priority_min", ThreadScheduling, NeedsScheduler),
    hw(148, "sched_rr_get_interval", ThreadScheduling, NeedsScheduler),
    hw(314, "sched_setattr", ThreadScheduling, NeedsScheduler),
    hw(315, "sched_getattr", ThreadScheduling, NeedsScheduler),
    hw(251, "ioprio_set", ThreadScheduling, NeedsScheduler),
    hw(252, "ioprio_get", ThreadScheduling, NeedsScheduler),
    hw(309, "getcpu", ThreadScheduling, NeedsScheduler),

    // ---- thread identity & synchronization ----
    hw(186, "gettid", ThreadIdentitySync, NeedsThreadRepr),
    hw(202, "futex", ThreadIdentitySync, NeedsThreadRepr),
    hw(218, "set_tid_address", ThreadIdentitySync, NeedsThreadRepr),
    hw(273, "set_robust_list", ThreadIdentitySync, NeedsThreadRepr),
    hw(274, "get_robust_list", ThreadIdentitySync, NeedsThreadRepr),
    hw(200, "tkill", ThreadIdentitySync, NeedsThreadRepr),
    hw(234, "tgkill", ThreadIdentitySync, NeedsThreadRepr),
    hw(324, "membarrier", ThreadIdentitySync, NeedsThreadRepr),

    // ---- architecture specific (Table II rows) ----
    hw(173, "ioperm", ArchSpecific, NotAccessible),
    hw(172, "iopl", ArchSpecific, NotAccessible),
    hw(158, "arch_prctl", ArchSpecific, NotAccessible),
    hw(154, "modify_ldt", ArchSpecific, NotAccessible),
    hw(135, "personality", ArchSpecific, NotAccessible),

    // ---- process lifecycle: extensive modification ----
    ext(57, "fork", ProcessLifecycle, ClonesState),
    ext(58, "vfork", ProcessLifecycle, ClonesState),
    ext(56, "clone", ProcessLifecycle, ClonesState),
    ext(59, "execve", ProcessLifecycle, ClonesState),
    ext(322, "execveat", ProcessLifecycle, ClonesState),
    ext(60, "exit", ProcessLifecycle, ClonesState),
    ext(231, "exit_group", ProcessLifecycle, ClonesState),
    ext(61, "wait4", ProcessLifecycle, ClonesState),
    ext(247, "waitid", ProcessLifecycle, ClonesState),
    ext(101, "ptrace", ProcessLifecycle, ClonesState),
    ext(317, "seccomp", ProcessLifecycle, ClonesState),
    ext(272, "unshare", ProcessLifecycle, ClonesState),
    ext(323, "userfaultfd", ProcessLifecycle, ClonesState),

    // ---- system administration: extensive modification ----
    ext(246, "kexec_load", SystemAdministration, AdminPath),
    ext(320, "kexec_file_load", SystemAdministration, AdminPath),
    ext(169, "reboot", SystemAdministration, AdminPath),
    ext(175, "init_module", SystemAdministration, AdminPath),
    ext(176, "delete_module", SystemAdministration, AdminPath),
    ext(313, "finit_module", SystemAdministration, AdminPath),
    ext(155, "pivot_root", SystemAdministration, AdminPath),
    ext(167, "swapon", SystemAdministration, AdminPath),
    ext(168, "swapoff", SystemAdministration, AdminPath),
    ext(163, "acct", SystemAdministration, AdminPath),
    ext(153, "vhangup", SystemAdministration, AdminPath),
    ext(180, "nfsservctl", SystemAdministration, AdminPath),
    ext(156, "_sysctl", SystemAdministration, AdminPath),
};

/** Row position by number, -1 where no row has that number. */
constexpr auto
buildIndex()
{
    constexpr int top = std::ranges::max(kRows, {}, &SyscallRow::num).num;
    std::array<std::int16_t, top + 1> index{};
    index.fill(-1);
    for (std::size_t i = 0; i < std::size(kRows); ++i)
        index[static_cast<std::size_t>(kRows[i].num)] =
            static_cast<std::int16_t>(i);
    return index;
}

inline constexpr auto kIndex = buildIndex();

/** Every number is non-negative and names exactly one row. */
constexpr bool
numbersUnique()
{
    for (std::size_t i = 0; i < std::size(kRows); ++i) {
        if (kRows[i].num < 0 ||
            kIndex[static_cast<std::size_t>(kRows[i].num)] !=
                static_cast<std::int16_t>(i))
            return false;
    }
    return true;
}

/**
 * An implemented row is readily implementable; a census-only row
 * carries no service-path flags.
 */
constexpr bool
implementedRowsWellFormed()
{
    for (const SyscallRow &r : kRows) {
        const bool ok_row =
            r.implemented() ? r.cls == SyscallClass::ReadilyImplementable
                            : !r.transfer && !r.mayBlock;
        if (!ok_row)
            return false;
    }
    return true;
}

static_assert(numbersUnique(), "two syscall-table rows share a number");
static_assert(implementedRowsWellFormed(),
              "an implemented syscall-table row is not readily "
              "implementable, or a census-only row has flags");

} // namespace syscall_rows

/** Every row, in census order. */
inline constexpr std::span<const SyscallRow> kSyscallTable{
    syscall_rows::kRows};

/** The row numbered @p num, or nullptr when no row has that number. */
constexpr const SyscallRow *
syscallRow(int num)
{
    if (num < 0 || static_cast<std::size_t>(num) >=
                       syscall_rows::kIndex.size())
        return nullptr;
    const int i = syscall_rows::kIndex[static_cast<std::size_t>(num)];
    return i < 0 ? nullptr : &kSyscallTable[static_cast<std::size_t>(i)];
}

} // namespace genesys::osk

#endif // GENESYS_OSK_SYSCALL_TABLE_HH
