#!/usr/bin/env python3
"""glint: static invariant linter for the GENESYS tree (DESIGN.md §11).

Greps src/ for violations of protocol invariants the type system cannot
express. Comments and string literals are scrubbed before matching, so
prose mentioning a banned identifier never trips a rule. A finding on a
line carrying `glint: allow(<rule>)` (in a comment) is suppressed.

Rules
  slot-state            slot state words are mutated only by the FSM
                        transition methods in src/core/slot.{hh,cc}
  doorbell-callers      the doorbell (GpuDevice::sendInterrupt) is rung
                        only from the device and the client issue path
  unordered-iteration   no iteration over std::unordered_* containers
                        on modeled-time paths (iteration order is
                        implementation-defined: nondeterminism)
  wall-clock            no wall-clock time sources in simulated code
                        (modeled time comes from sim::EventQueue)
  raw-rand              no rand()/srand()/std::random_device; use the
                        seeded support/random.hh PRNG
  coawait-owning-lambda no lambda with owning (by-value) captures as a
                        temporary inside a co_await full-expression:
                        GCC 12's coroutine lowering makes an uncounted
                        bitwise copy of the closure and destroys both
                        slots (observed shared_ptr refcount underflow,
                        found by gmc's divergence oracle). Hoist the
                        lambda into a named local and std::move it.
  sysno-classified      bidirectional consistency between the sysno
                        namespace (src/osk/syscalls.hh) and the
                        Table II census (src/osk/classification.cc):
                        every declared syscall number must have a
                        classification row, and every single-word row
                        literal must either name a declared sysno or
                        belong to the frozen census baseline below
                        (catches typo'd rows that would silently fail
                        to classify a new syscall); every declared
                        syscall number must also have a
                        {sysno::x, Role::...} row in kSysnoRoles, the
                        Producer/Consumer table the GPU wrappers'
                        relaxed barrier placement reads
  ring-raw-counter      SQ/CQ ring head/tail/claimed counters are
                        touched only through the acquire/release
                        accessor helpers in src/core/ring.hh
                        (loadHeadAcquire / storeTailRelease / ...); a
                        raw load or store elsewhere silently drops the
                        DESIGN.md §13 memory-ordering contract
  segment-loan          TcpSocket::readSegments transfers NetSeg
                        ownership whose loan lifetime the caller must
                        manage by hand (a recvmsg(MSG_ZEROCOPY) loan
                        dies at the next recvmsg on the same fd); only
                        the audited zero-copy paths may call it —
                        everything else goes through the recvmsg
                        syscall, whose loan retirement is automatic

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIRS = ["src"]
EXTS = {".cc", ".hh"}

ALLOW_RE = re.compile(r"glint:\s*allow\(([a-z-]+)\)")

SLOT_FSM_FILES = {"src/core/slot.cc", "src/core/slot.hh"}
DOORBELL_FILES = {"src/gpu/gpu.cc", "src/gpu/gpu.hh",
                  "src/core/client.cc"}

UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}()]*>\s*"
    r"(\w+)\s*[;={(]")
FOR_RANGE_RE = re.compile(r"\bfor\s*\([^;()]*:\s*(?:\w+(?:\.|->))?"
                          r"(\w+)\s*\)")
BEGIN_RE = re.compile(r"\b(\w+)\s*\.\s*c?begin\s*\(")

WALL_CLOCK_RE = re.compile(
    r"std::chrono|\bclock_gettime\s*\(|\bgettimeofday\s*\(|"
    r"\bsteady_clock\b|\bsystem_clock\b|"
    r"\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)")
RAW_RAND_RE = re.compile(r"\brand\s*\(\s*\)|\bsrand\s*\(|"
                         r"\brandom_device\b")
STATE_WRITE_RE = re.compile(r"\bstate_\s*=(?!=)")
SEND_INTERRUPT_RE = re.compile(r"\bsendInterrupt\s*\(")

RING_ACCESSOR_FILES = {"src/core/ring.hh"}
RING_RAW_COUNTER_RE = re.compile(
    r"\b(headRaw_|tailRaw_|claimedRaw_)\b")

# The audited direct consumers of the zero-copy segment loan: the
# implementation itself, the recvmsg(MSG_ZEROCOPY) syscall layer that
# parks loans on the OpenFile and retires them on the next call, and
# the gkv load generator whose client-side parse is the reference
# loan-discipline example (parse completes before the next drain).
SEGMENT_LOAN_FILES = {"src/osk/tcp.hh", "src/osk/tcp.cc",
                      "src/osk/syscalls.cc", "src/workloads/gkv.cc"}
READ_SEGMENTS_RE = re.compile(r"\breadSegments\s*\(")

SYSNO_FILE = "src/osk/syscalls.hh"
CLASSIFICATION_FILE = "src/osk/classification.cc"
SYSNO_DECL_RE = re.compile(
    r"\binline\s+constexpr\s+int\s+(\w+)\s*=\s*\d+\s*;")
STRING_LITERAL_RE = re.compile(r'"(\w+)"')
ROLE_ROW_RE = re.compile(
    r"\{\s*sysno::(\w+)\s*,\s*Role::(?:Producer|Consumer)\s*\}")

# Frozen baseline for the reverse direction of sysno-classified: the
# single-word literals in classification.cc at the time the rule was
# made bidirectional that do NOT correspond to a sysno declaration —
# the Table II census of unimplemented Linux syscalls plus the census
# type tags ("filesystem", "network", ...). Any single-word row
# literal added later must name a declared sysno; growing this set by
# hand is the escape hatch for genuinely new census-only rows.
KNOWN_CENSUS_ROWS = frozenset("""
    IPC _sysctl accept4 access acct add_key adjtimex alarm arch_prctl
    bpf brk capabilities capget capset chdir chmod chown clock_adjtime
    clock_getres clock_gettime clock_nanosleep clock_settime clone
    copy_file_range creat delete_module dup3 epoll_create1 epoll_pwait
    eventfd eventfd2 execve execveat exit exit_group faccessat
    fadvise64 fallocate fanotify_init fanotify_mark fchdir fchmod
    fchmodat fchown fchownat fcntl fdatasync fgetxattr filesystem
    finit_module flistxattr flock fork fremovexattr fsetxattr fstatfs
    fsync futex futimesat get_mempolicy get_robust_list getcpu getcwd
    getdents getdents64 getegid geteuid getgid getgroups getitimer
    getpeername getpgid getpgrp getppid getpriority getrandom
    getresgid getresuid getrlimit getsid getsockname getsockopt gettid
    gettimeofday getuid getxattr identity init_module
    inotify_add_watch inotify_init inotify_init1 inotify_rm_watch
    io_cancel io_destroy io_getevents io_setup io_submit ioperm iopl
    ioprio_get ioprio_set kcmp kexec_file_load kexec_load keyctl kill
    lchown lgetxattr link linkat listxattr llistxattr lookup_dcookie
    lremovexattr lsetxattr lstat mbind membarrier memfd_create
    migrate_pages mincore mkdir mkdirat mknod mknodat mlock mlock2
    mlockall modify_ldt mount move_pages mprotect mq_getsetattr
    mq_notify mq_open mq_timedreceive mq_timedsend mq_unlink mremap
    msgctl msgget msgrcv msgsnd msync munlock munlockall
    name_to_handle_at namespace network newfstatat nfsservctl
    open_by_handle_at openat pause perf_event_open personality pipe2
    pivot_root pkey_alloc pkey_free pkey_mprotect policies poll ppoll
    prctl preadv preadv2 prlimit64 process_vm_readv process_vm_writev
    pselect6 ptrace pwritev pwritev2 quotactl readahead readlink
    readlinkat readv reboot recvmmsg recvmsg remap_file_pages
    removexattr rename renameat renameat2 request_key restart_syscall
    rmdir rt_sigaction rt_sigpending rt_sigprocmask rt_sigreturn
    rt_sigsuspend rt_sigtimedwait rt_tgsigqueueinfo
    sched_get_priority_max sched_get_priority_min sched_getaffinity
    sched_getattr sched_getparam sched_getscheduler
    sched_rr_get_interval sched_setaffinity sched_setattr
    sched_setparam sched_setscheduler sched_yield seccomp select
    semctl semget semop semtimedop sendfile sendmmsg sendmsg
    set_mempolicy set_robust_list set_tid_address setdomainname
    setfsgid setfsuid setgid setgroups sethostname setitimer setns
    setpgid setpriority setregid setresgid setresuid setreuid
    setrlimit setsid setsockopt settimeofday setuid setxattr shmat
    shmctl shmdt shmget sigaltstack signalfd signalfd4 signals
    socketpair splice stat statfs statx swapoff swapon symlink
    symlinkat sync sync_file_range syncfs sysfs sysinfo syslog tee
    tgkill time timer_create timer_delete timer_getoverrun
    timer_gettime timer_settime timerfd_create timerfd_gettime
    timerfd_settime times tkill truncate umask umount2 uname unlinkat
    unshare userfaultfd ustat utime utimensat utimes vfork vhangup
    vmsplice wait4 waitid writev
""".split())


def raw_string_prefix(text, quote_at):
    """True when the '"' at `quote_at` opens a raw string literal: it
    is directly preceded by R with an optional encoding prefix (u8R,
    uR, UR, LR) that is not part of a longer identifier."""
    k = quote_at - 1
    if k < 0 or text[k] != "R":
        return False
    k -= 1
    if k >= 1 and text[k - 1] == "u" and text[k] == "8":
        k -= 2
    elif k >= 0 and text[k] in "uUL":
        k -= 1
    return k < 0 or not (text[k].isalnum() or text[k] == "_")


def scrub(text):
    """Blank comments and string/char literals, preserving newlines and
    column positions so line/offset arithmetic stays valid. Raw string
    literals R"delim(...)delim" terminate only at their matching
    )delim" — an unescaped '"' in the body must not end the scrub, or
    everything after it desynchronizes."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i
            while j < n - 1 and not (text[j] == "*"
                                     and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n - 1:
                out[j] = out[j + 1] = " "
                j += 2
            i = j
        elif c == '"' and raw_string_prefix(text, i):
            j = i + 1
            while j < n and text[j] != "(":
                j += 1
            close = ")" + text[i + 1:j] + '"'
            end = text.find(close, j + 1)
            end = n if end == -1 else end + len(close)
            for k in range(i, end):
                if text[k] != "\n":
                    out[k] = " "
            i = end
        elif c in "\"'":
            quote = c
            out[i] = " "
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    out[j] = " "
                    if text[j + 1] != "\n":
                        out[j + 1] = " "
                    j += 2
                    continue
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j < n:
                out[j] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def lambda_captures(intro):
    """Split a lambda capture list into top-level comma-separated
    captures. `intro` is the text between '[' and ']'."""
    captures, depth, cur = [], 0, ""
    for c in intro:
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        if c == "," and depth == 0:
            captures.append(cur.strip())
            cur = ""
        else:
            cur += c
    if cur.strip():
        captures.append(cur.strip())
    return captures


def owning_captures(intro):
    """Captures that copy state into the closure (anything that is not
    a reference capture or `this`)."""
    owning = []
    for cap in lambda_captures(intro):
        if not cap or cap.startswith("&") or cap == "this":
            continue
        owning.append(cap)
    return owning


def find_lambda_intros(span):
    """Yield (offset, capture_text) for each lambda introducer in
    `span`. A '[' is a lambda introducer when it is not a subscript,
    i.e. not preceded by an identifier char, ')', ']', or '>'."""
    for m in re.finditer(r"\[([^][]*)\]\s*[({]", span):
        at = m.start()
        prev = span[at - 1] if at > 0 else " "
        if prev.isalnum() or prev in "_)]>":
            continue
        yield at, m.group(1)


def coawait_spans(text):
    """Yield (offset, span) for each co_await full-expression: from the
    keyword to the first ';' at the keyword's own nesting depth (or a
    closing bracket below it)."""
    for m in re.finditer(r"\bco_await\b", text):
        start = m.end()
        depth = 0
        j = start
        while j < len(text):
            c = text[j]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                depth -= 1
                if depth < 0:
                    break
            elif c in ";," and depth == 0:
                break
            j += 1
        yield m.start(), text[start:j]


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return "%s:%d: %s: %s" % (self.path, self.line, self.rule,
                                  self.message)


def collect_unordered_names(scrubbed_by_path):
    """Map each file to the unordered-container names visible in it: a
    name declared in a file applies there and in its paired
    header/source (same stem), so `slots_` being a vector in
    src/core/slot.hh does not poison gsan.hh's unordered `slots_`."""
    declared = {}
    for rel, body in scrubbed_by_path.items():
        declared[rel] = {m.group(1)
                         for m in UNORDERED_DECL_RE.finditer(body)}
    visible = {}
    for rel in scrubbed_by_path:
        stem = rel.rsplit(".", 1)[0]
        pair = stem + (".cc" if rel.endswith(".hh") else ".hh")
        visible[rel] = declared.get(rel, set()) | \
            declared.get(pair, set())
    return visible


def check_file(relpath, scrubbed, unordered_names):
    findings = []

    def add(offset, rule, message):
        findings.append(
            Finding(relpath, line_of(scrubbed, offset), rule, message))

    if relpath not in SLOT_FSM_FILES:
        for m in STATE_WRITE_RE.finditer(scrubbed):
            add(m.start(), "slot-state",
                "slot state words may be mutated only via the FSM "
                "transition API in src/core/slot.cc")

    if relpath not in DOORBELL_FILES:
        for m in SEND_INTERRUPT_RE.finditer(scrubbed):
            add(m.start(), "doorbell-callers",
                "the doorbell is rung only by the device and the "
                "client issue path (src/gpu/gpu.*, src/core/client.cc)")

    if relpath not in RING_ACCESSOR_FILES:
        for m in RING_RAW_COUNTER_RE.finditer(scrubbed):
            add(m.start(), "ring-raw-counter",
                "raw access to ring counter '%s'; go through the "
                "acquire/release accessors in src/core/ring.hh "
                "(loadHeadAcquire / storeTailRelease / ...)"
                % m.group(1))

    if relpath not in SEGMENT_LOAN_FILES:
        for m in READ_SEGMENTS_RE.finditer(scrubbed):
            add(m.start(), "segment-loan",
                "readSegments hands out loaned NetSegs whose lifetime "
                "the caller must manage by hand; only the audited "
                "zero-copy paths (src/osk/tcp.*, src/osk/syscalls.cc, "
                "src/workloads/gkv.cc) may call it — use "
                "recvmsg(MSG_ZEROCOPY), which retires its loans "
                "automatically on the next call")

    file_unordered = unordered_names.get(relpath, set())
    for regex in (FOR_RANGE_RE, BEGIN_RE):
        for m in regex.finditer(scrubbed):
            if m.group(1) in file_unordered:
                add(m.start(), "unordered-iteration",
                    "iterating '%s' (std::unordered_*): order is "
                    "implementation-defined; use an ordered container "
                    "or sort first" % m.group(1))

    for m in WALL_CLOCK_RE.finditer(scrubbed):
        add(m.start(), "wall-clock",
            "wall-clock time source in simulated code; modeled time "
            "comes from sim::EventQueue::now()")

    for m in RAW_RAND_RE.finditer(scrubbed):
        add(m.start(), "raw-rand",
            "unseeded randomness; use the seeded support/random.hh "
            "PRNG")

    for offset, span in coawait_spans(scrubbed):
        for at, intro in find_lambda_intros(span):
            owning = owning_captures(intro)
            if owning:
                add(offset + len("co_await") + at,
                    "coawait-owning-lambda",
                    "lambda with owning capture(s) %s inside a "
                    "co_await full-expression is double-destroyed by "
                    "GCC 12's coroutine lowering; hoist it into a "
                    "named local and std::move it" % owning)

    return findings


def check_sysno_classified(raw_by_path, scrubbed_by_path,
                           baseline=KNOWN_CENSUS_ROWS):
    """Cross-file rule, both directions: every syscall number in the
    sysno namespace needs a classification row, and every single-word
    row literal must name a declared sysno or sit in the frozen census
    baseline. Declarations are matched against the scrubbed header (so
    commented-out numbers don't count); the rows live in string
    literals, so classification.cc is searched raw."""
    findings = []
    syscalls = scrubbed_by_path.get(SYSNO_FILE)
    classification = raw_by_path.get(CLASSIFICATION_FILE)
    if syscalls is None or classification is None:
        return findings
    classified = set(STRING_LITERAL_RE.findall(classification))
    declared = set()
    for m in SYSNO_DECL_RE.finditer(syscalls):
        name = m.group(1)
        declared.add(name)
        if name not in classified:
            findings.append(Finding(
                SYSNO_FILE, line_of(syscalls, m.start()),
                "sysno-classified",
                "syscall 'sysno::%s' has no classification row; add "
                'its "%s" entry to %s'
                % (name, name, CLASSIFICATION_FILE)))
    for m in STRING_LITERAL_RE.finditer(classification):
        name = m.group(1)
        if name not in declared and name not in baseline:
            findings.append(Finding(
                CLASSIFICATION_FILE,
                line_of(classification, m.start()),
                "sysno-classified",
                "classification row '%s' names no declared sysno and "
                "is not in the frozen census baseline; typo, a "
                "missing sysno:: declaration in %s, or — for a "
                "genuinely new census-only row — add it to "
                "KNOWN_CENSUS_ROWS or mark the row's line with "
                "'glint: allow(sysno-classified)'"
                % (name, SYSNO_FILE)))
    return findings


def check_sysno_roles(scrubbed_by_path):
    """Every syscall number in the sysno namespace needs a role row in
    kSysnoRoles (same file); a missing one would panic the first GPU
    wrapper that dispatches it. Both are matched in the scrubbed
    header, so commented-out rows don't count."""
    findings = []
    syscalls = scrubbed_by_path.get(SYSNO_FILE)
    if syscalls is None:
        return findings
    roles = set(ROLE_ROW_RE.findall(syscalls))
    for m in SYSNO_DECL_RE.finditer(syscalls):
        name = m.group(1)
        if name not in roles:
            findings.append(Finding(
                SYSNO_FILE, line_of(syscalls, m.start()),
                "sysno-classified",
                "syscall 'sysno::%s' has no role row; add "
                "{sysno::%s, Role::Producer} (read-like) or "
                "{sysno::%s, Role::Consumer} (write-like) to "
                "kSysnoRoles" % (name, name, name)))
    return findings


def apply_allows(findings, raw_by_path):
    kept = []
    for f in findings:
        lines = raw_by_path[f.path].splitlines()
        line = lines[f.line - 1] if f.line - 1 < len(lines) else ""
        allows = set(ALLOW_RE.findall(line))
        if f.rule not in allows:
            kept.append(f)
    return kept


def run_lint():
    raw_by_path = {}
    for d in SRC_DIRS:
        for p in sorted((REPO_ROOT / d).rglob("*")):
            if p.suffix in EXTS and p.is_file():
                rel = p.relative_to(REPO_ROOT).as_posix()
                raw_by_path[rel] = p.read_text(errors="replace")
    scrubbed_by_path = {k: scrub(v) for k, v in raw_by_path.items()}
    unordered_names = collect_unordered_names(scrubbed_by_path)

    findings = []
    for rel, body in scrubbed_by_path.items():
        findings.extend(check_file(rel, body, unordered_names))
    findings.extend(
        check_sysno_classified(raw_by_path, scrubbed_by_path))
    findings.extend(check_sysno_roles(scrubbed_by_path))
    findings = apply_allows(findings, raw_by_path)

    for f in findings:
        print(f.render())
    print("glint: %d file(s), %d finding(s)"
          % (len(raw_by_path), len(findings)))
    return 1 if findings else 0


# --------------------------------------------------------------- self-test

SELF_TEST_CASES = [
    # (name, relpath, snippet, expected rule or None)
    ("slot write outside fsm", "src/core/client.cc",
     "void f() { slot.state_ = SlotState::Ready; }", "slot-state"),
    ("slot write inside fsm", "src/core/slot.cc",
     "void f() { state_ = to; }", None),
    ("state compare ok", "src/core/client.cc",
     "bool f() { return state_ == SlotState::Ready; }", None),
    ("doorbell outside issue path", "src/osk/workqueue.cc",
     "void f() { gpu.sendInterrupt(3); }", "doorbell-callers"),
    ("doorbell from client", "src/core/client.cc",
     "void f() { gpu_.sendInterrupt(3); }", None),
    ("unordered iteration", "src/core/x.cc",
     "std::unordered_map<int, int> seen_;\n"
     "void f() { for (auto &kv : seen_) { use(kv); } }",
     "unordered-iteration"),
    ("unordered lookup ok", "src/core/x.cc",
     "std::unordered_map<int, int> seen_;\n"
     "bool f() { return seen_.contains(3); }", None),
    ("vector iteration ok", "src/core/x.cc",
     "std::vector<int> v_;\nvoid f() { for (int x : v_) use(x); }",
     None),
    ("chrono", "src/sim/x.cc",
     "auto t = std::chrono::steady_clock::now();", "wall-clock"),
    ("time(nullptr)", "src/sim/x.cc",
     "auto t = time(nullptr);", "wall-clock"),
    ("modeled accessor ok", "src/sim/x.cc",
     "auto t = resumeTime(3);", None),
    ("rand", "src/osk/x.cc", "int r = rand();", "raw-rand"),
    ("random_device", "src/osk/x.cc",
     "std::random_device rd;", "raw-rand"),
    ("seeded prng ok", "src/osk/x.cc",
     "support::Xoshiro rng(seed); auto r = rng.next();", None),
    ("owning lambda in co_await", "src/core/x.cc",
     "sim::Task<> f() { co_await g([shared](int x) "
     "{ shared->v = x; }); }", "coawait-owning-lambda"),
    ("init-capture in co_await", "src/core/x.cc",
     "sim::Task<> f() { co_await g([p = std::move(q)](int x) "
     "{ p->v = x; }); }", "coawait-owning-lambda"),
    ("ref lambda in co_await ok", "src/core/x.cc",
     "sim::Task<> f() { co_await g([&](int x) { use(x); }); }", None),
    ("named hoist ok", "src/core/x.cc",
     "sim::Task<> f() { std::function<void(int)> cb = "
     "[shared](int x) { shared->v = x; };\n"
     "co_await g(std::move(cb)); }", None),
    ("subscript not a lambda", "src/core/x.cc",
     "sim::Task<> f() { co_await g(table[idx](3)); }", None),
    ("banned name in comment ok", "src/core/x.cc",
     "// calls sendInterrupt() and rand() at time(nullptr)\n"
     "void f();", None),
    ("banned name in string ok", "src/osk/classification.cc",
     'const char *names[] = {"gettimeofday", "clock_gettime"};', None),
    ("allow escape", "src/core/x.cc",
     "int r = rand(); // glint: allow(raw-rand)", None),
    ("raw ring counter store outside ring.hh", "src/core/client.cc",
     "void f(SyscallRing &r) { r.tailRaw_ = 7; }",
     "ring-raw-counter"),
    ("raw ring counter load outside ring.hh",
     "src/core/backend/service_core.cc",
     "bool f(const SyscallRing &r) "
     "{ return r.headRaw_ == r.claimedRaw_; }",
     "ring-raw-counter"),
    ("raw counter inside the accessor header ok", "src/core/ring.hh",
     "std::uint64_t loadHeadAcquire() const { return headRaw_; }",
     None),
    ("accessor call sites ok", "src/core/client.cc",
     "void f(SyscallRing &r) "
     "{ r.storeTailRelease(r.loadHeadAcquire() + 1); }", None),
    ("ring counter in comment ok", "src/core/client.cc",
     "// reads headRaw_ via loadHeadAcquire()\nvoid f();", None),
    ("ring counter allow escape", "src/core/x.cc",
     "auto h = r.headRaw_; // glint: allow(ring-raw-counter)", None),
    ("readSegments outside the audited loan paths", "src/core/x.cc",
     "sim::Task<> f(osk::TcpSocket *s, osk::NetSeg *o) "
     "{ co_await s->readSegments(o, 8, false); }", "segment-loan"),
    ("readSegments in the syscall layer ok", "src/osk/syscalls.cc",
     "sim::Task<> f(osk::TcpSocket *s, osk::NetSeg *o) "
     "{ co_await s->readSegments(o, 8, true); }", None),
    ("readSegments in gkv ok", "src/workloads/gkv.cc",
     "sim::Task<> f(osk::TcpSocket *s, osk::NetSeg *o) "
     "{ co_await s->readSegments(o, 8, false); }", None),
    ("readSegments in a comment ok", "src/core/x.cc",
     "// drained via readSegments(out, 8, false)\nvoid f();", None),
    ("readSegments allow escape", "src/core/x.cc",
     "co_await s->readSegments(o, 8, false); "
     "// glint: allow(segment-loan)", None),
    ("banned name in raw string ok", "src/core/x.cc",
     'const char *s = R"(calls rand() at time(nullptr))";\n'
     "void f();", None),
    ("raw string with inner quote stays synced", "src/core/x.cc",
     'const char *s = R"(a "quoted" word)"; int r = rand();',
     "raw-rand"),
    ("raw string custom delimiter", "src/core/x.cc",
     'const char *s = R"x(ends with )" but not here)x";\n'
     "int r = rand();", "raw-rand"),
    ("prefixed raw string", "src/core/x.cc",
     'auto s = u8R"(state_ = "fake")"; auto t = LR"(srand(7))";\n'
     "void f();", None),
    ("identifier ending in R is not a raw prefix", "src/core/x.cc",
     'void f() { LOG_ERROR"tag"; int r = rand(); }', "raw-rand"),
]


# (name, syscalls.hh text, classification.cc text, census baseline for
# the reverse direction, expected finding count for the
# sysno-classified cross-file rule)
SYSNO_SELF_TEST_CASES = [
    ("all classified",
     "inline constexpr int read = 0;\n"
     "inline constexpr int socket = 41;",
     'Row rows[] = {{"read"}, {"socket"}};', frozenset(), 0),
    ("missing row",
     "inline constexpr int read = 0;\n"
     "inline constexpr int frobnicate = 99;",
     'Row rows[] = {{"read"}};', frozenset(), 1),
    ("commented-out number ignored",
     "// inline constexpr int ghost = 7;\n"
     "inline constexpr int read = 0;",
     'Row rows[] = {{"read"}};', frozenset(), 0),
    ("row anywhere in the table counts",
     "inline constexpr int epoll_wait = 232;",
     'groups[] = {{"epoll_create", "epoll_ctl", "epoll_wait"}};',
     frozenset({"epoll_create", "epoll_ctl"}), 0),
    ("two missing rows flagged individually",
     "inline constexpr int a_call = 1;\n"
     "inline constexpr int b_call = 2;",
     'Row rows[] = {{"read"}};', frozenset({"read"}), 2),
    ("typo'd row flagged (reverse direction)",
     "inline constexpr int read = 0;",
     'Row rows[] = {{"read"}, {"raed"}};', frozenset(), 1),
    ("census baseline row ok",
     "inline constexpr int read = 0;",
     'Row rows[] = {{"read"}, {"fork"}};', frozenset({"fork"}), 0),
    ("hand-added census-only row allowed on its line",
     "inline constexpr int read = 0;",
     'Row rows[] = {{"read"},\n'
     '              {"io_uring_enter"}};'
     '  // glint: allow(sysno-classified)', frozenset(), 0),
    ("both directions at once",
     "inline constexpr int read = 0;\n"
     "inline constexpr int new_call = 5;",
     'Row rows[] = {{"read"}, {"stale_row"}};', frozenset(), 2),
    ("real baseline covers the current census",
     "inline constexpr int read = 0;",
     'Row rows[] = {{"read"}, {"fork"}, {"execve"}, {"filesystem"}};',
     KNOWN_CENSUS_ROWS, 0),
]


# (name, syscalls.hh text, expected finding count for the role-row
# half of sysno-classified)
SYSNO_ROLE_SELF_TEST_CASES = [
    ("every sysno has a role",
     "inline constexpr int read = 0;\n"
     "inline constexpr int write = 1;\n"
     "inline constexpr SysnoRole kSysnoRoles[] = {\n"
     "    {sysno::read, Role::Producer},\n"
     "    {sysno::write, Role::Consumer},\n"
     "};", 0),
    ("missing role",
     "inline constexpr int read = 0;\n"
     "inline constexpr int frobnicate = 99;\n"
     "inline constexpr SysnoRole kSysnoRoles[] = {\n"
     "    {sysno::read, Role::Producer},\n"
     "};", 1),
    ("commented-out role row does not count",
     "inline constexpr int read = 0;\n"
     "// {sysno::read, Role::Producer},", 1),
    ("no table at all flags every sysno",
     "inline constexpr int read = 0;\n"
     "inline constexpr int write = 1;", 2),
]


def run_self_test():
    failures = 0
    for name, rel, snippet, expected in SELF_TEST_CASES:
        scrubbed = scrub(snippet)
        names = collect_unordered_names({rel: scrubbed})
        findings = check_file(rel, scrubbed, names)
        findings = apply_allows(findings, {rel: snippet})
        rules = sorted({f.rule for f in findings})
        if expected is None:
            ok = not rules
            want = "clean"
        else:
            ok = rules == [expected]
            want = expected
        if not ok:
            print("self-test FAIL: %s: want %s, got %s"
                  % (name, want, rules or "clean"))
            failures += 1
    for name, sys_text, cls_text, baseline, expected in \
            SYSNO_SELF_TEST_CASES:
        raw = {SYSNO_FILE: sys_text, CLASSIFICATION_FILE: cls_text}
        scrubbed = {k: scrub(v) for k, v in raw.items()}
        findings = check_sysno_classified(raw, scrubbed, baseline)
        findings = apply_allows(findings, raw)
        if len(findings) != expected:
            print("self-test FAIL: %s: want %d finding(s), got %s"
                  % (name, expected,
                     sorted(f.render() for f in findings) or "clean"))
            failures += 1
    for name, sys_text, expected in SYSNO_ROLE_SELF_TEST_CASES:
        raw = {SYSNO_FILE: sys_text}
        findings = check_sysno_roles({SYSNO_FILE: scrub(sys_text)})
        findings = apply_allows(findings, raw)
        if len(findings) != expected:
            print("self-test FAIL: %s: want %d finding(s), got %s"
                  % (name, expected,
                     sorted(f.render() for f in findings) or "clean"))
            failures += 1
    total = (len(SELF_TEST_CASES) + len(SYSNO_SELF_TEST_CASES) +
             len(SYSNO_ROLE_SELF_TEST_CASES))
    print("glint self-test: %d case(s), %d failure(s)"
          % (total, failures))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule test suite")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_lint()


if __name__ == "__main__":
    sys.exit(main())
