#include "service_stage.hh"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace v3sim::sim
{

ServiceStage::ServiceStage(EventQueue &queue, Tick service,
                           EventCategory cat)
    : queue_(queue), service_(service), cat_(cat)
{
    assert(service >= 0);
}

void
ServiceStage::place(Tick arrival, uint64_t key, EventFn done)
{
    // Arrivals never lie in the past, so everything this moves is a
    // job that has not started, or started this tick and sorts after
    // the new one.
    assert(arrival >= queue_.now());
    // Search from the tail: most jobs arrive after every queued one.
    // The new seq is the largest, so it goes after its equals.
    size_t i = jobs_.size();
    while (i > 0 && (jobs_[i - 1].arrival > arrival ||
                     (jobs_[i - 1].arrival == arrival &&
                      jobs_[i - 1].key > key)))
        --i;
    const Tick start =
        i > 0 ? std::max(arrival, jobs_[i - 1].end) : arrival;
    const auto it = jobs_.insert(
        jobs_.begin() + static_cast<std::ptrdiff_t>(i),
        Job{arrival, key, next_seq_++, start + service_, {},
            std::move(done)});
    ++placed_;
    arm(*it);
    // Push back the jobs behind it, up to the first that keeps its
    // end.
    for (++i; i < jobs_.size(); ++i) {
        const Tick end =
            std::max(jobs_[i].arrival, jobs_[i - 1].end) + service_;
        if (end == jobs_[i].end)
            break;
        jobs_[i].end = end;
        jobs_[i].event.cancel();
        arm(jobs_[i]);
    }
}

std::vector<ServiceStage::Withdrawn>
ServiceStage::withdrawUnarrived()
{
    // Sorted by arrival, so the unarrived jobs are a tail, and the
    // jobs before it keep their times.
    const Tick now = queue_.now();
    auto first = jobs_.end();
    while (first != jobs_.begin() && std::prev(first)->arrival > now)
        --first;
    std::vector<Withdrawn> out;
    out.reserve(static_cast<size_t>(jobs_.end() - first));
    for (auto it = first; it != jobs_.end(); ++it) {
        it->event.cancel();
        out.push_back(Withdrawn{it->arrival, it->key, std::move(it->done)});
    }
    placed_ -= out.size();
    jobs_.erase(first, jobs_.end());
    return out;
}

uint64_t
ServiceStage::arrived() const
{
    const Tick now = queue_.now();
    uint64_t pending = 0;
    for (auto it = jobs_.rbegin(); it != jobs_.rend() && it->arrival > now;
         ++it)
        ++pending;
    return placed_ - pending;
}

void
ServiceStage::arm(Job &job)
{
    job.event = queue_.scheduleAtCancelable(
        job.end, [this, seq = job.seq] { finish(seq); }, cat_);
}

void
ServiceStage::finish(uint64_t seq)
{
    // The finishing job is the first unless zero-service jobs share
    // the tick.
    const auto it =
        std::find_if(jobs_.begin(), jobs_.end(),
                     [seq](const Job &job) { return job.seq == seq; });
    assert(it != jobs_.end());
    EventFn done = std::move(it->done);
    jobs_.erase(it);
    done();
}

} // namespace v3sim::sim
