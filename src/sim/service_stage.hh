/**
 * @file
 * ServiceStage: one server whose jobs are placed in closed form.
 *
 * A stage serves jobs one at a time, each for the stage's fixed
 * service time, first come first served by arrival tick. It models
 * the per-packet engines of a NIC: the transmit engine, whose jobs
 * arrive when they are submitted, and a fabric port's receive
 * engine, whose packets arrive one link serialization plus one
 * propagation delay after they were sent.
 *
 * A job's arrival is known when it is submitted, so the stage places
 * it then (DESIGN.md §8.3, the same placement-by-arrival SimLock
 * uses). Unfinished jobs are kept sorted by (arrival, key, seq): key
 * is the caller's content-derived arbitration key, seq the placement
 * order among equal keys. A job starts at max(arrival, end of the job
 * before it) and its one event fires at start + service, where its
 * done callback runs. A later placement that sorts before queued jobs
 * pushes them back; its arrival is never in the past, so only jobs
 * that have not arrived yet, or arrived this tick and sort after it,
 * move. A moved job's event is cancelled and re-armed, so a push-back
 * fires no event. Same-tick jobs are therefore served in key order
 * whatever order they were placed in, jobs from distinct arrival
 * ticks keep strict FIFO, and every start and end is that of placing
 * the jobs in (arrival, key, seq) order.
 *
 * With zero service a job finishes on its arrival tick and nothing
 * ever moves; same-tick jobs then finish in event order, which the
 * tie shuffle permutes, so a zero-service stage orders nothing.
 */

#ifndef V3SIM_SIM_SERVICE_STAGE_HH
#define V3SIM_SIM_SERVICE_STAGE_HH

#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace v3sim::sim
{

/** One FIFO server with jobs placed by arrival at submission. */
class ServiceStage
{
  public:
    /** @param cat the category of every job's completion event. */
    ServiceStage(EventQueue &queue, Tick service, EventCategory cat);

    ServiceStage(const ServiceStage &) = delete;
    ServiceStage &operator=(const ServiceStage &) = delete;

    /** Places a job arriving at @p arrival (>= now); @p done fires
     *  when its service ends. Same-tick arrivals are served in @p key
     *  order, then placement order. */
    void place(Tick arrival, uint64_t key, EventFn done);

    /** A job taken back before its arrival. */
    struct Withdrawn
    {
        Tick arrival;
        uint64_t key;
        EventFn done;
    };

    /** Takes back every job that arrives after now, in arrival
     *  order; they never occupy the server. */
    std::vector<Withdrawn> withdrawUnarrived();

    /** Jobs whose arrival tick has come, finished or not (withdrawn
     *  jobs excluded). */
    uint64_t arrived() const;

  private:
    struct Job
    {
        Tick arrival;
        uint64_t key;
        uint64_t seq;
        Tick end;
        EventQueue::Handle event;
        EventFn done;
    };

    /** Schedules @p job's completion event at its end. */
    void arm(Job &job);
    /** Completion event of the job placed as @p seq. */
    void finish(uint64_t seq);

    EventQueue &queue_;
    Tick service_;
    EventCategory cat_;
    /** Unfinished jobs, sorted by (arrival, key, seq). */
    std::vector<Job> jobs_;
    uint64_t next_seq_ = 0;
    /** Jobs placed, less those withdrawn. */
    uint64_t placed_ = 0;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_SERVICE_STAGE_HH
