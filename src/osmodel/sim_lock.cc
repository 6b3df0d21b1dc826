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

    acquisitions_.increment();
    // The acquire atomic op always costs, contended or not; the lock
    // is reached when it ends.
    const sim::Tick arrival = sim_.now() + costs_.lock_acquire;
    // One open busy interval on our still-held CPU covers the acquire
    // op, the spin, the critical section and the release op, so a
    // measurement-window reset anywhere inside clips it correctly.
    CpuPool::Run *run = lease.pool()->beginRun(CpuCat::Lock);

    // Park in our batch and resume when it completes. Local awaiter:
    // it has access to the enclosing class's private members.
    struct BatchJoin
    {
        SimLock *lock;
        sim::Tick arrival;
        sim::Tick hold;

        bool await_ready() const { return false; }

        void
        await_suspend(std::coroutine_handle<> h) const
        {
            lock->join(h, arrival, hold);
        }

        void await_resume() const {}
    };
    co_await BatchJoin{this, arrival, hold};

    // Close the interval (charged to Lock, clipped to the current
    // window) and re-attribute the critical section to the caller's
    // category. A window reset clips the acquire op before the stay,
    // and the stay is at least hold + release, so min(hold, charged)
    // is the critical section's share of the clipped stay. Spin time
    // beyond the member's own hold+release means the batch had
    // company (or queued behind another batch).
    const sim::Tick spin =
        sim_.now() - arrival - hold - costs_.lock_release;
    const sim::Tick charged = lease.pool()->endRun(run);
    const sim::Tick hold_part = std::min(hold, charged);
    lease.pool()->addBusy(hold_cat, hold_part);
    lease.pool()->addBusy(CpuCat::Lock, -hold_part);
    if (spin > 0) {
        contended_.increment();
        total_wait_ += spin;
    }
}

void
SimLock::join(std::coroutine_handle<> member, sim::Tick arrival,
              sim::Tick hold)
{
    // The closed form below relies on arrivals in call order.
    assert(batches_.empty() || arrival >= batches_.back().arrival);
    const sim::Tick stay = hold + costs_.lock_release;
    if (!batches_.empty() && batches_.back().arrival == arrival) {
        // The batch serializes inside the lock but exits as one: its
        // end is a function of the batch *set*, with no per-member
        // assignment an arrival order could perturb.
        Batch &tail = batches_.back();
        tail.end += stay;
        tail.members.push_back(member);
    } else {
        const sim::Tick start = std::max(arrival, free_at_);
        batches_.push_back(Batch{arrival, start + stay, {member}});
        armCompletion(start + stay);
    }
    free_at_ = batches_.back().end;
}

void
SimLock::armCompletion(sim::Tick end)
{
    // A batch that ends now completes in the final band, so it stays
    // open to every same-tick contender (DESIGN.md §8.3).
    if (end > sim_.now())
        sim_.queue().scheduleAt(end, [this] { onComplete(); });
    else
        sim_.queue().scheduleFinal([this] { onComplete(); });
}

void
SimLock::onComplete()
{
    // Completions fire in FIFO order whichever batch's event this is;
    // same-tick joiners may have moved the front's end out after its
    // event was armed.
    Batch &front = batches_.front();
    if (sim_.now() < front.end) {
        armCompletion(front.end);
        return;
    }
    const std::vector<std::coroutine_handle<>> members =
        std::move(front.members);
    batches_.pop_front();
    for (const auto &member : members)
        member.resume();
}

} // namespace v3sim::osmodel
