#include "sim_lock.hh"

#include <algorithm>
#include <array>
#include <limits>

namespace v3sim::osmodel
{

SimLock::SimLock(sim::Simulation &sim, const HostCosts &costs,
                 std::string name)
    : sim::TickArbiter(sim.queue(),
                       [](sim::TickArbiter &self) {
                           static_cast<SimLock &>(self).exitDue();
                       }),
      sim_(sim), costs_(costs), name_(std::move(name))
{}

sim::Task<>
SimLock::syncPair(CpuLease lease, CpuCat hold_cat, sim::Tick hold,
                  Charges before, Charge after)
{
    assert(lease.valid());
    if (hold < 0)
        hold = costs_.lock_hold;

    acquisitions_.increment();
    // Every piece of the pair is its own busy interval on our
    // still-held CPU, opened now even where it starts later, so the
    // accounting at any instant and across any window reset is that
    // of running the pieces one after another. The before charges
    // run back to back from now, then the acquire op (always paid,
    // contended or not); the lock is reached when it ends.
    CpuPool &pool = *lease.pool();
    std::array<CpuPool::Run *, 2> lead{};
    sim::Tick at = sim_.now();
    for (uint8_t i = 0; i < before.count; ++i) {
        const Charge &charge = before.items[i];
        if (charge.ticks > 0) {
            lead[i] = pool.beginRun(charge.cat, at, at + charge.ticks);
            at += charge.ticks;
        }
    }
    const sim::Tick arrival = at + costs_.lock_acquire;
    // One Lock interval covers the acquire op, the spin, the critical
    // section and the release op. It ends when our batch does, and
    // from then on the critical section counts to hold_cat: a window
    // reset clips the acquire op before the stay, and the stay is at
    // least hold + release, so min(hold, clipped) is the critical
    // section's share. The after charge starts when the batch ends.
    // place() ties both to the batch end.
    Member self;
    self.lock_run = pool.beginRun(CpuCat::Lock, at, arrival);
    self.lock_run->hold = hold;
    self.lock_run->hold_cat = hold_cat;
    if (after.ticks > 0) {
        self.after = after.ticks;
        self.after_run = pool.beginRun(after.cat, arrival, arrival);
    }

    // Park in our batch and resume when we exit. Local awaiter: it
    // has access to the enclosing class's private members.
    struct BatchJoin
    {
        SimLock *lock;
        Member *member;
        sim::Tick arrival;
        sim::Tick stay;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            member->handle = h;
            lock->place(member, arrival, stay);
        }

        void await_resume() const {}
    };
    co_await BatchJoin{this, &self, arrival,
                       hold + costs_.lock_release};

    // Now is our batch's end plus the after charge. Spin time beyond
    // the member's own hold+release means the batch had company (or
    // queued behind another batch).
    const sim::Tick spin = sim_.now() - self.after - arrival - hold -
                           costs_.lock_release;
    for (CpuPool::Run *run : lead) {
        if (run != nullptr)
            pool.endRun(run);
    }
    pool.endRun(self.lock_run);
    if (self.after_run != nullptr)
        pool.endRun(self.after_run);
    if (spin > 0) {
        contended_.increment();
        total_wait_ += spin;
    }
}

void
SimLock::place(Member *member, sim::Tick arrival, sim::Tick stay)
{
    // Arrivals never lie in the past, so everything this moves is a
    // batch that has not started.
    assert(arrival >= sim_.now());
    // Search from the tail: most contenders arrive after every batch.
    size_t i = batches_.size();
    while (i > 0 && batches_[i - 1].arrival > arrival)
        --i;
    if (i > 0 && batches_[i - 1].arrival == arrival) {
        // The batch serializes inside the lock but ends as one: its
        // end is a function of the batch *set*, with no per-member
        // assignment an arrival order could perturb.
        Batch &batch = batches_[i - 1];
        batch.tail->next = member;
        batch.tail = member;
        batch.end += stay;
        for (Member *m = batch.head; m != nullptr; m = m->next)
            tie(batch, m);
        armExit(batch);
    } else {
        const sim::Tick start =
            i > 0 ? std::max(arrival, batches_[i - 1].end) : arrival;
        const auto it = batches_.insert(
            batches_.begin() + static_cast<std::ptrdiff_t>(i),
            Batch{next_id_++, arrival, start, start + stay, -1, member,
                  member});
        tie(*it, member);
        armExit(*it);
        ++i;
    }
    // Push back the batches behind it, up to the first that keeps its
    // start.
    for (; i < batches_.size(); ++i) {
        const sim::Tick start =
            std::max(batches_[i].arrival, batches_[i - 1].end);
        if (start == batches_[i].start)
            break;
        moveTo(batches_[i], start);
    }
}

void
SimLock::moveTo(Batch &batch, sim::Tick start)
{
    batch.end += start - batch.start;
    batch.start = start;
    for (Member *m = batch.head; m != nullptr; m = m->next)
        tie(batch, m);
}

void
SimLock::tie(const Batch &batch, Member *member)
{
    member->lock_run->end = batch.end;
    if (member->after_run != nullptr) {
        member->after_run->start = batch.end;
        member->after_run->end = batch.end + member->after;
    }
}

void
SimLock::armExit(Batch &batch)
{
    sim::Tick first = std::numeric_limits<sim::Tick>::max();
    for (const Member *m = batch.head; m != nullptr; m = m->next)
        first = std::min(first, batch.end + m->after);
    // Exits only move out, so a live event that fires no later than
    // the first exit re-arms when it fires early.
    if (batch.armed >= 0 && batch.armed <= first)
        return;
    batch.armed = first;
    const uint64_t id = batch.id;
    // An exit on the current tick happens in the arbiter dispatch,
    // so the batch stays open to every same-tick contender
    // (DESIGN.md §8.3).
    if (first > sim_.now()) {
        sim_.queue().scheduleAt(
            first, [this, id] { onExit(id); },
            sim::EventCategory::LockExit);
    } else {
        if (due_.empty())
            markDirty();
        due_.push_back(id);
    }
}

void
SimLock::exitDue()
{
    // By index: a resumed member may call back into the lock and
    // arm another exit on this tick, which appends here.
    for (size_t i = 0; i < due_.size(); ++i)
        onExit(due_[i]);
    due_.clear();
}

void
SimLock::onExit(uint64_t id)
{
    const sim::Tick now = sim_.now();
    const auto it =
        std::find_if(batches_.begin(), batches_.end(),
                     [id](const Batch &b) { return b.id == id; });
    // An event superseded by an earlier arming does nothing.
    if (it == batches_.end() || it->armed != now)
        return;
    Batch &batch = *it;
    batch.armed = -1;
    // Unlink the members that exit now, keeping join order in both
    // lists.
    Member *due = nullptr;
    Member **due_end = &due;
    Member **link = &batch.head;
    batch.tail = nullptr;
    while (Member *m = *link) {
        if (batch.end + m->after == now) {
            *link = m->next;
            m->next = nullptr;
            *due_end = m;
            due_end = &m->next;
        } else {
            batch.tail = m;
            link = &m->next;
        }
    }
    if (batch.head == nullptr)
        batches_.erase(it);
    else
        armExit(batch);
    // Resumed members may call back into the lock; nothing above is
    // touched after the first resume.
    for (Member *m = due; m != nullptr;) {
        Member *next = m->next;
        m->handle.resume();
        m = next;
    }
}

} // namespace v3sim::osmodel
