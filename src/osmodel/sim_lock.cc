#include "sim_lock.hh"

#include <algorithm>
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
SimLock::syncChain(CpuLease lease, SyncChain &chain)
{
    // Most chains are one or two pairs long; their frame holds two
    // steps, not kCapacity.
    constexpr size_t kShort = 2;
    const uint8_t count = chain.count;
    chain.count = 0;
    if (count <= kShort) {
        std::array<SyncStep, kShort> steps;
        std::copy_n(chain.steps, count, steps.begin());
        return runChain(lease, steps, count);
    }
    std::array<SyncStep, SyncChain::kCapacity> steps;
    std::copy_n(chain.steps, count, steps.begin());
    return runChain(lease, steps, count);
}

template <size_t N>
sim::Task<>
SimLock::runChain(CpuLease lease, std::array<SyncStep, N> steps,
                  uint8_t count)
{
    assert(lease.valid());
    assert(count > 0);
    // Every piece of every pair is its own busy interval on our
    // still-held CPU, opened now even where it starts later, so the
    // accounting at any instant and across any window reset is that
    // of running the pieces one after another. Placement sets their
    // bounds and moves them with their step: the before charges back
    // to back up to the acquire op (always paid, contended or not);
    // one Lock interval over the acquire op, the spin, the critical
    // section and the release op, ending with the batch, from when on
    // the critical section counts to hold_cat (a window reset clips
    // the acquire op before the stay, and the stay is at least
    // hold + release, so min(hold, clipped) is its share); the after
    // charge from the batch end on.
    CpuPool &pool = *lease.pool();
    Member members[N];
    for (uint8_t k = 0; k < count; ++k) {
        const SyncStep &step = steps[k];
        SimLock &lock = *step.lock;
        Member &m = members[k];
        const sim::Tick hold =
            step.hold < 0 ? lock.costs_.lock_hold : step.hold;
        lock.acquisitions_.increment();
        m.lock = &lock;
        m.stay = hold + lock.costs_.lock_release;
        for (uint8_t i = 0; i < step.before.count; ++i) {
            const Charge &charge = step.before.items[i];
            if (charge.ticks > 0) {
                m.lead[i] = pool.beginRun(charge.cat, 0, charge.ticks);
                m.lead_ticks += charge.ticks;
            }
        }
        m.lock_run = pool.beginRun(CpuCat::Lock, 0, 0);
        m.lock_run->hold = hold;
        m.lock_run->hold_cat = step.hold_cat;
        if (step.after.ticks > 0) {
            m.after = step.after.ticks;
            m.after_run = pool.beginRun(step.after.cat, 0, 0);
        }
        if (k > 0)
            members[k - 1].succ = &m;
    }

    // Park every step and resume when the last one exits. Local
    // awaiter: it has access to the enclosing class's private
    // members.
    struct ChainJoin
    {
        Member *first;
        Member *last;
        sim::Tick arrival;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            last->handle = h;
            placeChain(first, arrival);
        }

        void await_resume() const {}
    };
    const SimLock &head = *members[0].lock;
    const sim::Tick arrival = head.sim_.now() + members[0].lead_ticks +
                              head.costs_.lock_acquire;
    co_await ChainJoin{&members[0], &members[count - 1], arrival};

    // Now is the last batch's end plus its after charge; every
    // earlier step's batch has ended. Spin time beyond a member's own
    // hold+release means its batch had company (or queued behind
    // another batch).
    for (uint8_t k = 0; k < count; ++k) {
        Member &m = members[k];
        const sim::Tick spin = m.lock_run->end - m.arrival - m.stay;
        for (CpuPool::Run *run : m.lead) {
            if (run != nullptr)
                pool.endRun(run);
        }
        pool.endRun(m.lock_run);
        if (m.after_run != nullptr)
            pool.endRun(m.after_run);
        if (spin > 0) {
            m.lock->contended_.increment();
            m.lock->total_wait_ += spin;
        }
        if (m.succ != nullptr)
            m.lock->leave(&m);
    }
}

void
SimLock::placeChain(Member *first, sim::Tick arrival)
{
    Worklist work;
    first->lock->retime(first, arrival);
    first->lock->place(first, arrival, work);
    // A member on the list has a batch end its successor's arrival
    // may no longer match. Every re-placement lies strictly later
    // than the batch that caused it, so the list runs dry.
    while (Member *m = work.head) {
        work.head = m->queued;
        m->in_work = false;
        Member *succ = m->succ;
        SimLock &lock = *succ->lock;
        const sim::Tick at = m->lock_run->end + m->after +
                             succ->lead_ticks + lock.costs_.lock_acquire;
        if (at == succ->arrival)
            continue;
        if (succ->arrival >= 0)
            lock.withdraw(succ, work);
        lock.retime(succ, at);
        lock.place(succ, at, work);
    }
}

void
SimLock::place(Member *member, sim::Tick arrival, Worklist &work)
{
    // Arrivals never lie in the past, so everything this moves is a
    // batch that has not started.
    assert(arrival >= sim_.now());
    member->arrival = arrival;
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
        batch.end += member->stay;
        member->batch = batch.id;
        moved(batch, work);
    } else {
        const sim::Tick start =
            i > 0 ? std::max(arrival, batches_[i - 1].end) : arrival;
        member->batch = next_id_++;
        const auto it = batches_.insert(
            batches_.begin() + static_cast<std::ptrdiff_t>(i),
            Batch{member->batch, arrival, start, start + member->stay,
                  -1, {}, member, member});
        moved(*it, work);
        ++i;
    }
    settle(i, work);
}

void
SimLock::withdraw(Member *member, Worklist &work)
{
    assert(member->arrival > sim_.now());
    const size_t i = indexOf(member->batch);
    Batch &batch = batches_[i];
    unlink(batch, member);
    member->arrival = -1;
    if (batch.head == nullptr) {
        batch.exit.cancel();
        batches_.erase(batches_.begin() + static_cast<std::ptrdiff_t>(i));
        settle(i, work);
    } else {
        batch.end -= member->stay;
        moved(batch, work);
        settle(i + 1, work);
    }
}

void
SimLock::leave(Member *member)
{
    const size_t i = indexOf(member->batch);
    Batch &batch = batches_[i];
    unlink(batch, member);
    // An ended batch moves nothing behind it: every batch there
    // starts at or after its end.
    if (batch.head == nullptr)
        batches_.erase(batches_.begin() + static_cast<std::ptrdiff_t>(i));
}

void
SimLock::unlink(Batch &batch, Member *member)
{
    Member **link = &batch.head;
    Member *prev = nullptr;
    while (*link != member) {
        prev = *link;
        link = &prev->next;
    }
    *link = member->next;
    member->next = nullptr;
    if (batch.tail == member)
        batch.tail = prev;
}

size_t
SimLock::indexOf(uint64_t id) const
{
    const auto it =
        std::find_if(batches_.begin(), batches_.end(),
                     [id](const Batch &b) { return b.id == id; });
    return static_cast<size_t>(it - batches_.begin());
}

void
SimLock::settle(size_t i, Worklist &work)
{
    for (; i < batches_.size(); ++i) {
        Batch &batch = batches_[i];
        const sim::Tick start =
            i > 0 ? std::max(batch.arrival, batches_[i - 1].end)
                  : batch.arrival;
        if (start == batch.start)
            break;
        batch.end += start - batch.start;
        batch.start = start;
        moved(batch, work);
    }
}

void
SimLock::moved(Batch &batch, Worklist &work)
{
    for (Member *m = batch.head; m != nullptr; m = m->next) {
        tie(batch, m);
        work.push(m);
    }
    armExit(batch);
}

void
SimLock::retime(Member *member, sim::Tick arrival) const
{
    sim::Tick at = arrival - costs_.lock_acquire;
    member->lock_run->start = at;
    at -= member->lead_ticks;
    for (CpuPool::Run *run : member->lead) {
        if (run != nullptr) {
            const sim::Tick len = run->end - run->start;
            run->start = at;
            run->end = at + len;
            at += len;
        }
    }
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
    // Only a chain's last step resumes anyone.
    sim::Tick first = std::numeric_limits<sim::Tick>::max();
    for (const Member *m = batch.head; m != nullptr; m = m->next) {
        if (m->handle)
            first = std::min(first, batch.end + m->after);
    }
    if (first == batch.armed)
        return;
    batch.exit.cancel();
    batch.armed = -1;
    if (first == std::numeric_limits<sim::Tick>::max())
        return;
    batch.armed = first;
    const uint64_t id = batch.id;
    // An exit on the current tick happens in the arbiter dispatch,
    // so the batch stays open to every same-tick contender
    // (DESIGN.md §8.3).
    if (first > sim_.now()) {
        batch.exit = sim_.queue().scheduleAtCancelable(
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
    const size_t i = indexOf(id);
    // A due exit whose batch was re-armed since does nothing.
    if (i == batches_.size() || batches_[i].armed != now)
        return;
    Batch &batch = batches_[i];
    batch.armed = -1;
    // Unlink the last steps that exit now, keeping join order in
    // both lists. Earlier steps stay until their chain resumes.
    Member *due = nullptr;
    Member **due_end = &due;
    Member **link = &batch.head;
    batch.tail = nullptr;
    while (Member *m = *link) {
        if (m->handle && batch.end + m->after == now) {
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
        batches_.erase(batches_.begin() + static_cast<std::ptrdiff_t>(i));
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
