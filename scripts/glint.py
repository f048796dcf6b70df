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
    print("glint self-test: %d case(s), %d failure(s)"
          % (len(SELF_TEST_CASES), failures))
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
