#include "sim_lock.hh"

#include <algorithm>
#include <cassert>

namespace v3sim::osmodel
{

SimLock::SimLock(sim::Simulation &sim, const HostCosts &costs,
                 std::string name)
    : sim_(sim), costs_(costs), name_(std::move(name))
{}

sim::Task<>
SimLock::syncPair(CpuLease lease, CpuCat hold_cat, sim::Tick hold)
{
    assert(lease.valid());
    if (hold < 0)
        hold = costs_.lock_hold;

    // The acquire atomic op always costs, contended or not.
    co_await lease.run(costs_.lock_acquire, CpuCat::Lock);

    acquisitions_.increment();
    const sim::Tick start = sim_.now();
    // The stay is an open busy interval on our still-held CPU, so a
    // measurement-window reset mid-stay clips it correctly instead of
    // attributing the whole stay to whichever window it ends in.
    CpuPool::Run *stay = lease.pool()->beginRun(CpuCat::Lock);

    // Park in this tick's batch and resume when that batch's turn
    // completes. Local awaiter: it has access to the enclosing
    // class's private members.
    struct BatchJoin
    {
        SimLock *lock;
        sim::Tick hold;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            lock->join(h, hold);
        }

        void await_resume() const {}
    };
    co_await BatchJoin{this, hold};

    // The whole stay — spin + critical section + release op — just
    // elapsed on our (still-held) CPU. Close the interval (charged to
    // Lock, clipped to the current window) and re-attribute the
    // critical section to the caller's category. Spin time beyond the
    // member's own hold+release means the batch had company (or
    // queued behind another batch).
    const sim::Tick elapsed = sim_.now() - start;
    const sim::Tick spin = elapsed - hold - costs_.lock_release;
    const sim::Tick charged = lease.pool()->endRun(stay);
    const sim::Tick hold_part = std::min(hold, charged);
    lease.pool()->addBusy(hold_cat, hold_part);
    lease.pool()->addBusy(CpuCat::Lock, -hold_part);
    if (spin > 0) {
        contended_.increment();
        total_wait_ += spin;
    }
}

void
SimLock::join(std::coroutine_handle<> member, sim::Tick hold)
{
    const sim::Tick now = sim_.now();
    if (!busy_) {
        // A free lock has no waiters: open a batch and grant it now.
        serve(Batch{now, hold, {member}});
        return;
    }
    // A batch that arrived this tick is still open to the tick's
    // other contenders, serving or not; its end moves out with each.
    Batch *batch = &serving_;
    if (serving_.arrived != now) {
        if (waiting_.empty() || waiting_.back().arrived != now)
            waiting_.push_back(Batch{now, 0, {}});
        batch = &waiting_.back();
    }
    batch->total_hold += hold;
    batch->members.push_back(member);
}

void
SimLock::serve(Batch batch)
{
    busy_ = true;
    serving_ = std::move(batch);
    serving_start_ = sim_.now();
    armCompletion();
}

sim::Tick
SimLock::servingEnd() const
{
    // The batch serializes inside the lock — the sum of the members'
    // critical sections plus one release op each — but exits as one:
    // per-member exit times are a function of the batch *set*, with
    // no per-member assignment an arrival order could perturb.
    return serving_start_ + serving_.total_hold +
           static_cast<sim::Tick>(serving_.members.size()) *
               costs_.lock_release;
}

void
SimLock::armCompletion()
{
    const sim::Tick delay = servingEnd() - sim_.now();
    // A zero-length batch completes in the final band, so it stays
    // open to every same-tick contender (DESIGN.md §8.3).
    if (delay > 0)
        sim_.queue().schedule(delay, [this] { onComplete(); });
    else
        sim_.queue().scheduleFinal([this] { onComplete(); });
}

void
SimLock::onComplete()
{
    // Same-tick joiners moved the end out after this event was armed.
    if (sim_.now() < servingEnd()) {
        armCompletion();
        return;
    }
    const std::vector<std::coroutine_handle<>> members =
        std::move(serving_.members);
    busy_ = false;
    if (!waiting_.empty()) {
        // The front batch's membership is fixed unless it arrived this
        // tick, in which case it keeps absorbing same-tick joiners.
        Batch next = std::move(waiting_.front());
        waiting_.pop_front();
        serve(std::move(next));
    }
    for (const auto &member : members)
        member.resume();
}

} // namespace v3sim::osmodel
