#include "support/gsan.hh"

#include <algorithm>

#include "support/logging.hh"

namespace genesys::gsan
{

using logging::format;

const char *
reportKindName(ReportKind kind)
{
    switch (kind) {
    case ReportKind::PayloadRace: return "payload-race";
    case ReportKind::OrderingViolation: return "ordering-violation";
    case ReportKind::LostWakeup: return "lost-wakeup";
    case ReportKind::LostEdge: return "lost-edge";
    }
    return "?";
}

std::string
Report::render() const
{
    return format("gsan#%llu @%llu [%s] %s",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(tick),
                  reportKindName(kind), what.c_str());
}

// ---- thread management -------------------------------------------------

Sanitizer::ThreadId
Sanitizer::makeThread(std::string name)
{
    const ThreadId t = static_cast<ThreadId>(threads_.size());
    ThreadState ts;
    ts.name = std::move(name);
    ts.clock.resize(t + 1, 0);
    ts.clock[t] = 1; // the thread's own epoch starts at 1
    threads_.push_back(std::move(ts));
    return t;
}

Sanitizer::ThreadState &
Sanitizer::thread(ThreadId t)
{
    GENESYS_ASSERT(t < threads_.size(), "gsan: bad thread id %u", t);
    return threads_[t];
}

Sanitizer::ThreadId
Sanitizer::waveThread(std::uint32_t hw_wave_slot)
{
    auto it = waveThreads_.find(hw_wave_slot);
    if (it != waveThreads_.end())
        return it->second;
    const ThreadId t = makeThread(format("wave%u", hw_wave_slot));
    waveThreads_.emplace(hw_wave_slot, t);
    return t;
}

Sanitizer::ThreadId
Sanitizer::workerThread(std::uint32_t worker)
{
    auto it = workerThreads_.find(worker);
    if (it != workerThreads_.end())
        return it->second;
    const ThreadId t = makeThread(format("cpu-worker%u", worker));
    workerThreads_.emplace(worker, t);
    return t;
}

Sanitizer::ThreadId
Sanitizer::namedThread(const std::string &name)
{
    auto it = namedThreads_.find(name);
    if (it != namedThreads_.end())
        return it->second;
    const ThreadId t = makeThread(name);
    namedThreads_.emplace(name, t);
    return t;
}

Sanitizer::ThreadId
Sanitizer::findWaveThread(std::uint32_t hw_wave_slot) const
{
    auto it = waveThreads_.find(hw_wave_slot);
    return it == waveThreads_.end() ? kNoThread : it->second;
}

const std::string &
Sanitizer::threadName(ThreadId t) const
{
    GENESYS_ASSERT(t < threads_.size(), "gsan: bad thread id %u", t);
    return threads_[t].name;
}

// ---- clock algebra -----------------------------------------------------

void
Sanitizer::tick(ThreadId t)
{
    ++thread(t).clock[t];
}

void
Sanitizer::join(Clock &dst, const Clock &src)
{
    if (dst.size() < src.size())
        dst.resize(src.size(), 0);
    // Branch-free max: which entries grow is data-dependent, and a
    // mispredicted branch per entry made this the costliest hook.
    for (std::size_t i = 0; i < src.size(); ++i)
        dst[i] = std::max(dst[i], src[i]);
}

bool
Sanitizer::ordered(const Epoch &e, const Clock &by)
{
    if (e.tid == kNoThread)
        return true; // no prior access
    return e.tid < by.size() && e.clk <= by[e.tid];
}

void
Sanitizer::edge(ThreadId from, ThreadId to)
{
    if (!enabled_ || from == kNoThread || to == kNoThread)
        return;
    const Clock src = thread(from).clock; // copy: self-edges are no-ops
    join(thread(to).clock, src);
    tick(from);
}

// ---- reporting ---------------------------------------------------------

void
Sanitizer::report(ReportKind kind, std::string what)
{
    const std::uint64_t seq = totalReports_++;
    ++byKind_[static_cast<std::size_t>(kind)];
    if (reports_.size() >= maxStored_)
        return;
    Report r;
    r.kind = kind;
    r.seq = seq;
    r.tick = now_ ? now_() : 0;
    r.what = std::move(what);
    reports_.push_back(std::move(r));
}

std::string
Sanitizer::renderReports() const
{
    std::string out;
    for (const Report &r : reports_) {
        out += r.render();
        out += '\n';
    }
    if (totalReports_ > reports_.size()) {
        out += format("gsan: ... and %llu more report(s) beyond the "
                      "storage cap of %u\n",
                      static_cast<unsigned long long>(
                          totalReports_ - reports_.size()),
                      maxStored_);
    }
    return out;
}

void
Sanitizer::reset()
{
    threads_.clear();
    waveThreads_.clear();
    workerThreads_.clear();
    namedThreads_.clear();
    actor_ = kNoThread;
    slots_.clear();
    barriers_.clear();
    interruptChannel_.clear();
    wakeChannel_.clear();
    droppedWakes_.clear();
    epollChannels_.clear();
    edgeChannels_.clear();
    ringChannels_.clear();
    reports_.clear();
    totalReports_ = 0;
    for (auto &n : byKind_)
        n = 0;
}

// ---- slot protocol -----------------------------------------------------

void
Sanitizer::slotAcquire(std::uint32_t slot)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    join(thread(actor_).clock, slots_[slot].release);
}

void
Sanitizer::slotRelease(std::uint32_t slot)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    ThreadState &ts = thread(actor_);
    join(slots_[slot].release, ts.clock);
    tick(actor_);
}

void
Sanitizer::slotWrite(std::uint32_t slot, const char *field)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    SlotSync &s = slots_[slot];
    const ThreadState &ts = thread(actor_);
    if (s.lastWrite.tid != actor_ && !ordered(s.lastWrite, ts.clock)) {
        report(ReportKind::PayloadRace,
               format("slot %u: %s writes '%s' with no happens-before "
                      "edge from %s's write of '%s'",
                      slot, ts.name.c_str(), field,
                      threadName(s.lastWrite.tid).c_str(),
                      s.lastWriteField.c_str()));
    }
    for (const auto &[rt, rclk] : s.reads) {
        if (rt == actor_)
            continue;
        const Epoch re{rt, rclk};
        if (!ordered(re, ts.clock)) {
            report(ReportKind::PayloadRace,
                   format("slot %u: %s writes '%s' with no "
                          "happens-before edge from %s's read",
                          slot, ts.name.c_str(), field,
                          threadName(rt).c_str()));
        }
    }
    s.lastWrite = {actor_, ts.clock[actor_]};
    s.lastWriteField = field;
    s.reads.clear();
}

void
Sanitizer::slotRead(std::uint32_t slot, const char *field)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    SlotSync &s = slots_[slot];
    const ThreadState &ts = thread(actor_);
    if (s.lastWrite.tid != actor_ && !ordered(s.lastWrite, ts.clock)) {
        report(ReportKind::PayloadRace,
               format("slot %u: %s reads '%s' with no happens-before "
                      "edge from %s's write of '%s' (payload consumed "
                      "before the Finished transition was observed)",
                      slot, ts.name.c_str(), field,
                      threadName(s.lastWrite.tid).c_str(),
                      s.lastWriteField.c_str()));
    }
    s.reads[actor_] = ts.clock[actor_];
}

void
Sanitizer::slotConsumed(std::uint32_t slot, std::uint32_t hw_wave_slot)
{
    (void)slot;
    if (!enabled_)
        return;
    // The wave drained this finished slot before any halt: whatever
    // wake messages were dropped while it polled are now harmless.
    auto it = droppedWakes_.find(hw_wave_slot);
    if (it != droppedWakes_.end())
        it->second.count = 0;
}

// ---- work-group barriers ----------------------------------------------

void
Sanitizer::barrierArrive(std::uint64_t key, ThreadId t)
{
    if (!enabled_ || t == kNoThread)
        return;
    join(barriers_[key], thread(t).clock);
    tick(t);
}

void
Sanitizer::barrierLeave(std::uint64_t key, ThreadId t)
{
    if (!enabled_ || t == kNoThread)
        return;
    ThreadState &ts = thread(t);
    join(ts.clock, barriers_[key]);
    ts.lastBarrierEvent = ++ts.events;
    // A barrier after a producer/strong invocation discharges the
    // pending post-invocation obligation.
    ts.pendingPostBarrier = false;
}

// ---- interrupt channel -------------------------------------------------

void
Sanitizer::interruptSend(std::uint32_t hw_wave_slot)
{
    if (!enabled_)
        return;
    const ThreadId t = waveThread(hw_wave_slot);
    join(interruptChannel_[hw_wave_slot], thread(t).clock);
    tick(t);
}

void
Sanitizer::interruptReceive(std::uint32_t hw_wave_slot, ThreadId t)
{
    if (!enabled_ || t == kNoThread)
        return;
    join(thread(t).clock, interruptChannel_[hw_wave_slot]);
}

// ---- halt / resume -----------------------------------------------------

void
Sanitizer::waveHalt(std::uint32_t hw_wave_slot)
{
    if (!enabled_)
        return;
    auto it = droppedWakes_.find(hw_wave_slot);
    if (it != droppedWakes_.end() && it->second.count > 0) {
        report(ReportKind::LostWakeup,
               format("wave slot %u halts after %u wake message(s) "
                      "(last from %s) already fired and were dropped; "
                      "on hardware the wavefront would sleep forever",
                      hw_wave_slot, it->second.count,
                      it->second.lastSender.c_str()));
        it->second.count = 0;
    }
}

void
Sanitizer::waveWake(std::uint32_t hw_wave_slot)
{
    if (!enabled_)
        return;
    const ThreadId t = waveThread(hw_wave_slot);
    join(thread(t).clock, wakeChannel_[hw_wave_slot]);
}

void
Sanitizer::resumeDelivered(std::uint32_t hw_wave_slot)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    join(wakeChannel_[hw_wave_slot], thread(actor_).clock);
    tick(actor_);
}

void
Sanitizer::resumeDropped(std::uint32_t hw_wave_slot)
{
    if (!enabled_)
        return;
    DroppedWake &d = droppedWakes_[hw_wave_slot];
    ++d.count;
    d.lastSender =
        actor_ == kNoThread ? std::string("?") : threadName(actor_);
    // The wake still releases its clock: if the wave later *does*
    // observe the result (by polling), the edge is real.
    if (actor_ != kNoThread) {
        join(wakeChannel_[hw_wave_slot], thread(actor_).clock);
        tick(actor_);
    }
}

// ---- epoll readiness channel -------------------------------------------

void
Sanitizer::epollCheck(std::uint64_t key, std::uint64_t waiter)
{
    if (!enabled_)
        return;
    EpollChannel &ch = epollChannels_[key];
    ch.seen[waiter] = ch.seq;
}

void
Sanitizer::epollSleep(std::uint64_t key, std::uint64_t waiter)
{
    if (!enabled_)
        return;
    EpollChannel &ch = epollChannels_[key];
    auto it = ch.seen.find(waiter);
    if (it == ch.seen.end())
        return; // sleep without a recorded check: nothing to compare
    if (ch.seq != it->second) {
        report(ReportKind::LostWakeup,
               format("epoll instance %llu: waiter %llu sleeps after "
                      "%llu readiness notification(s) (last from %s) "
                      "fired inside its check-then-sleep window; the "
                      "level-triggered wait would block forever",
                      static_cast<unsigned long long>(key),
                      static_cast<unsigned long long>(waiter),
                      static_cast<unsigned long long>(ch.seq -
                                                      it->second),
                      ch.lastNotifier.empty() ? "?"
                                              : ch.lastNotifier.c_str()));
        it->second = ch.seq; // one report per missed window
    }
}

void
Sanitizer::epollWake(std::uint64_t key, std::uint64_t waiter)
{
    if (!enabled_)
        return;
    EpollChannel &ch = epollChannels_[key];
    ch.seen.erase(waiter);
    if (actor_ != kNoThread)
        join(thread(actor_).clock, ch.clock);
}

void
Sanitizer::epollNotify(std::uint64_t key)
{
    if (!enabled_)
        return;
    EpollChannel &ch = epollChannels_[key];
    ++ch.seq;
    ch.lastNotifier =
        actor_ == kNoThread ? std::string("?") : threadName(actor_);
    if (actor_ != kNoThread) {
        join(ch.clock, thread(actor_).clock);
        tick(actor_);
    }
}

// ---- epoll edge-event channel ------------------------------------------

void
Sanitizer::epollEdgeSeen(std::uint64_t key)
{
    if (!enabled_)
        return;
    EdgeChannel &ch = edgeChannels_[key];
    if (ch.seen > ch.recorded) {
        // A previously-observed transition was never latched. The
        // probe state advanced past it, so no later notification can
        // re-derive the edge: the consumer on the other end sleeps
        // until the level drops and rises again — possibly forever.
        report(ReportKind::LostEdge,
               format("epoll instance %llu: %llu readiness edge(s) "
                      "(last observed by %s) were seen but never "
                      "recorded as pending; an edge-triggered waiter "
                      "relying on replayed edges blocks forever",
                      static_cast<unsigned long long>(key),
                      static_cast<unsigned long long>(ch.seen -
                                                      ch.recorded),
                      ch.lastSeer.empty() ? "?" : ch.lastSeer.c_str()));
        ch.seen = ch.recorded; // one report per loss
    }
    ++ch.seen;
    ch.lastSeer =
        actor_ == kNoThread ? std::string("?") : threadName(actor_);
}

void
Sanitizer::epollEdgeRecord(std::uint64_t key)
{
    if (!enabled_)
        return;
    EdgeChannel &ch = edgeChannels_[key];
    ++ch.recorded;
    if (actor_ != kNoThread) {
        join(ch.clock, thread(actor_).clock);
        tick(actor_);
    }
}

void
Sanitizer::epollEdgeDeliver(std::uint64_t key)
{
    if (!enabled_)
        return;
    EdgeChannel &ch = edgeChannels_[key];
    ++ch.delivered;
    if (actor_ != kNoThread)
        join(thread(actor_).clock, ch.clock);
}

// ---- SQ/CQ ring channel ------------------------------------------------

void
Sanitizer::ringPublish(std::uint64_t key, std::uint64_t entries)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    RingChannel &ch = ringChannels_[key];
    ThreadState &ts = thread(actor_);
    join(ch.clock, ts.clock);
    ch.lastPublish = {actor_, ts.clock[actor_]};
    ch.lastPublisher = ts.name;
    ch.published += entries;
    tick(actor_);
}

void
Sanitizer::ringDoorbell(std::uint64_t key)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    // The doorbell releases too: a consumer woken by it must observe
    // everything published before it rang.
    RingChannel &ch = ringChannels_[key];
    join(ch.clock, thread(actor_).clock);
    tick(actor_);
}

void
Sanitizer::ringConsume(std::uint64_t key)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    RingChannel &ch = ringChannels_[key];
    if (ch.consumed + 1 > ch.published) {
        report(ReportKind::OrderingViolation,
               format("ring %llu: %s consumes entry %llu but only "
                      "%llu publish(es) happened; the consume "
                      "overtakes the publish",
                      static_cast<unsigned long long>(key),
                      threadName(actor_).c_str(),
                      static_cast<unsigned long long>(ch.consumed),
                      static_cast<unsigned long long>(ch.published)));
    }
    ++ch.consumed;
    join(thread(actor_).clock, ch.clock);
    tick(actor_);
}

void
Sanitizer::ringObserve(std::uint64_t key)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    // Pure acquire: a waiter's baseline tail read legitimately
    // precedes the first publish, so no overtake check here.
    RingChannel &ch = ringChannels_[key];
    join(thread(actor_).clock, ch.clock);
    tick(actor_);
}

void
Sanitizer::ringConsumeRacy(std::uint64_t key)
{
    if (!enabled_ || actor_ == kNoThread)
        return;
    RingChannel &ch = ringChannels_[key];
    const ThreadState &ts = thread(actor_);
    if (ch.lastPublish.tid != actor_ &&
        !ordered(ch.lastPublish, ts.clock)) {
        report(ReportKind::PayloadRace,
               format("ring %llu: %s reads an entry with no "
                      "happens-before edge from %s's publish (entry "
                      "consumed without the ring acquire)",
                      static_cast<unsigned long long>(key),
                      ts.name.c_str(),
                      ch.lastPublisher.empty()
                          ? "?"
                          : ch.lastPublisher.c_str()));
    }
}

// ---- ordering contract -------------------------------------------------

void
Sanitizer::invocationBegin(ThreadId t, bool need_pre_barrier, int sysno,
                           const char *ordering)
{
    if (!enabled_ || t == kNoThread)
        return;
    ThreadState &ts = thread(t);
    if (ts.pendingPostBarrier) {
        report(ReportKind::OrderingViolation,
               format("%s: new invocation (sysno %d) begins before the "
                      "post-invocation work-group barrier required by "
                      "the previous %s",
                      ts.name.c_str(), sysno,
                      ts.pendingPostWhat.c_str()));
        ts.pendingPostBarrier = false;
    }
    if (need_pre_barrier && ts.lastBarrierEvent <= ts.lastInvocationEvent) {
        report(ReportKind::OrderingViolation,
               format("%s: %s invocation of sysno %d is missing its "
                      "pre-invocation work-group barrier",
                      ts.name.c_str(), ordering, sysno));
    }
    ++ts.events;
}

void
Sanitizer::invocationEnd(ThreadId t, bool need_post_barrier, int sysno,
                         const char *ordering)
{
    if (!enabled_ || t == kNoThread)
        return;
    ThreadState &ts = thread(t);
    ts.lastInvocationEvent = ++ts.events;
    if (need_post_barrier) {
        ts.pendingPostBarrier = true;
        ts.pendingPostWhat = format("%s invocation of sysno %d",
                                    ordering, sysno);
    }
}

void
Sanitizer::waveRetire(std::uint32_t hw_wave_slot)
{
    if (!enabled_)
        return;
    const ThreadId t = findWaveThread(hw_wave_slot);
    if (t == kNoThread)
        return;
    ThreadState &ts = thread(t);
    if (ts.pendingPostBarrier) {
        report(ReportKind::OrderingViolation,
               format("%s: wavefront retires without the "
                      "post-invocation work-group barrier required by "
                      "its %s",
                      ts.name.c_str(), ts.pendingPostWhat.c_str()));
        ts.pendingPostBarrier = false;
    }
    // Hardware wave slots are recycled: the next wavefront occupying
    // this slot must earn its own barrier credit, not inherit the
    // retiring wave's.
    ts.lastBarrierEvent = 0;
    ts.lastInvocationEvent = ts.events;
}

} // namespace genesys::gsan
