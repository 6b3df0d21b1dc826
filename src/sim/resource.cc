#include "resource.hh"

#include <algorithm>
#include <utility>

namespace v3sim::sim
{

ServerPool::ServerPool(EventQueue &queue, int servers, std::string name)
    : TickArbiter(queue,
                  [](TickArbiter &self) {
                      static_cast<ServerPool &>(self).completeDue();
                  }),
      queue_(queue), servers_(servers), name_(std::move(name))
{
    assert(servers >= 1);
    busy_integral_.reset(queue_.now(), 0.0);
}

ServerPool::Job *
ServerPool::allocJob()
{
    if (free_jobs_ != nullptr) {
        Job *job = free_jobs_;
        free_jobs_ = job->next_free;
        job->next_free = nullptr;
        return job;
    }
    slab_.emplace_back();
    return &slab_.back();
}

void
ServerPool::releaseJob(Job *job)
{
    job->done.reset();
    job->next_free = free_jobs_;
    free_jobs_ = job;
}

bool
ServerPool::before(const Job *a, const Job *b)
{
    if (a->enqueued != b->enqueued)
        return a->enqueued < b->enqueued;
    if (a->order_key != b->order_key)
        return a->order_key < b->order_key;
    return a->seq < b->seq;
}

std::vector<ServerPool::Job *> &
ServerPool::provisional()
{
    if (provisional_tick_ != queue_.now()) {
        provisional_tick_ = queue_.now();
        provisional_.clear();
    }
    return provisional_;
}

void
ServerPool::submit(Tick service, EventFn done, uint64_t order_key)
{
    Job *job = allocJob();
    job->service = service;
    job->enqueued = queue_.now();
    job->order_key = order_key;
    job->seq = next_seq_++;
    job->done = std::move(done);
    if (busy_ < servers_) {
        startJob(job);
        return;
    }
    // Never start in submission order: same-tick submissions race
    // (DESIGN.md §8.3). A job that sorts before the latest-sorting job
    // started this tick takes that job's server, as if the tick's jobs
    // had all arrived in queue order.
    std::vector<Job *> &running = provisional();
    const auto last = std::max_element(running.begin(), running.end(),
                                       before);
    if (last != running.end() && before(job, *last)) {
        Job *displaced = *last;
        running.erase(last);
        ++displaced->gen;
        enqueue(displaced);
        runJob(job);
        return;
    }
    enqueue(job);
}

void
ServerPool::enqueue(Job *job)
{
    auto it = waiting_.end();
    while (it != waiting_.begin() && before(job, *(it - 1)))
        --it;
    waiting_.insert(it, job);
}

void
ServerPool::startJob(Job *job)
{
    ++busy_;
    busy_integral_.set(queue_.now(), static_cast<double>(busy_));
    runJob(job);
}

void
ServerPool::runJob(Job *job)
{
    job->started = queue_.now();
    if (job->enqueued == job->started)
        provisional().push_back(job);
    // A zero-service job completes in the arbiter dispatch, so it
    // stays displaceable until every same-tick job has been
    // submitted. A job due while completeDue() runs joins its pass.
    if (job->service > 0) {
        queue_.schedule(
            job->service,
            [this, job, gen = job->gen] { onJobDone(job, gen); },
            EventCategory::PoolDone);
    } else {
        if (due_.empty())
            markDirty();
        due_.push_back(Due{job, job->gen});
    }
}

void
ServerPool::completeDue()
{
    // By index: a completion may start or submit zero-service jobs,
    // which append here.
    for (size_t i = 0; i < due_.size(); ++i)
        onJobDone(due_[i].job, due_[i].gen);
    due_.clear();
}

void
ServerPool::onJobDone(Job *job, uint32_t gen)
{
    if (job->gen != gen)
        return; // this start was displaced by a same-tick job
    if (job->started == queue_.now())
        std::erase(provisional(), job);
    --busy_;
    busy_integral_.set(queue_.now(), static_cast<double>(busy_));
    ++completed_;
    wait_stats_.add(static_cast<double>(job->started - job->enqueued));
    EventFn done = std::move(job->done);
    releaseJob(job);
    if (!waiting_.empty()) {
        Job *next = waiting_.front();
        waiting_.pop_front();
        startJob(next);
    }
    done();
}

double
ServerPool::utilization() const
{
    return busy_integral_.average(queue_.now()) /
           static_cast<double>(servers_);
}

void
ServerPool::resetStats()
{
    busy_integral_.reset(queue_.now(), static_cast<double>(busy_));
    wait_stats_.reset();
    completed_ = 0;
}

} // namespace v3sim::sim
