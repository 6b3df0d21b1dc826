/**
 * @file
 * The tick arbiter: one final-band decision point per tick.
 *
 * Every contention point whose grant cannot be undone (CPU grant,
 * disk pick, semaphore count, admission decision, TCP sequencing)
 * must decide after every same-tick contender has arrived, in the
 * tick's final band (DESIGN.md §8.3). A component that needs such a
 * decision embeds a TickArbiter and calls markDirty(); it never
 * schedules final-band events itself. The first mark in a tick
 * schedules that tick's single dispatch event, which runs every dirty
 * arbiter in registration-id order, lowest first, until none is
 * dirty. The dispatch opens the tick's final band: it fires after
 * every normal and zero-delay event of the tick but before any other
 * final event (the finalBand() checks), whenever those were
 * scheduled. So one tick costs one event however many arbiters decide in
 * it, and which arbiter decides first is fixed by construction order
 * — never by which one became dirty first, an arrival order the
 * tie-shuffle cannot permute.
 *
 * Inside the dispatch, an arbiter marked again (by its own grants or
 * by a later arbiter's) runs again in the same event. Zero-delay
 * events spawned by the dispatch fire after it; a mark they make
 * schedules one more dispatch in the same tick.
 *
 * Register while building the model, never from an event: ids handed
 * out inside same-tick events would follow their tie-shuffled order.
 * Debug builds assert this in EventQueue::enroll. Ids are never
 * reused.
 *
 * Components inherit privately and pass a plain function as the hook
 * (no virtual call: a virtual decision hook on sim::Semaphore made
 * GCC 12's debug-info pass crash in coroutine TUs).
 */

#ifndef V3SIM_SIM_TICK_ARBITER_HH
#define V3SIM_SIM_TICK_ARBITER_HH

#include <cstdint>

#include "sim/event_queue.hh"

namespace v3sim::sim
{

/** One registered final-band decision point of an EventQueue. */
class TickArbiter
{
  public:
    /** The decision pass; receives the arbiter it was registered
     *  with (components static_cast it back to themselves). */
    using Hook = void (*)(TickArbiter &);

    /** Registers with @p queue; the id is the registration order. */
    TickArbiter(EventQueue &queue, Hook hook)
        : queue_(queue), hook_(hook), id_(queue.enroll(this))
    {}

    ~TickArbiter() { queue_.withdraw(id_); }

    TickArbiter(const TickArbiter &) = delete;
    TickArbiter &operator=(const TickArbiter &) = delete;

    /** Requests a decision pass in this tick's dispatch. Idempotent
     *  until the pass runs. */
    void
    markDirty()
    {
        if (!dirty_)
            queue_.markDirty(*this);
    }

    /** Registration order within the queue; the dispatch order. */
    uint32_t arbiterId() const { return id_; }

  private:
    friend class EventQueue;

    EventQueue &queue_;
    Hook hook_;
    uint32_t id_;
    bool dirty_ = false;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_TICK_ARBITER_HH
