#include "event_queue.hh"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "sim/tick_arbiter.hh"

namespace v3sim::sim
{

namespace
{

/** SplitMix64 finalizer: the same-tick rank under tie-shuffle. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

} // namespace

const char *
eventCategoryName(EventCategory cat)
{
    switch (cat) {
      case EventCategory::Other: return "other";
      case EventCategory::CpuRun: return "cpu_run";
      case EventCategory::LockExit: return "lock_exit";
      case EventCategory::PoolDone: return "server_pool";
      case EventCategory::TickDispatch: return "tick_dispatch";
      case EventCategory::Fabric: return "fabric";
      case EventCategory::Disk: return "disk";
      case EventCategory::Sleep: return "sleep";
      case EventCategory::FinalBand: return "final_band";
    }
    return "?";
}

uint64_t
EventQueue::tieRank(Tick when, uint64_t seq) const
{
    // Hashed ranks live below 2^63; zero-delay events keep FIFO
    // order above it, after every already-queued same-tick event
    // (see the class comment's tie-shuffle model).
    if (!tie_shuffle_)
        return seq;
    if (when <= now_)
        return kSequencedBase | seq;
    return mix64(tie_seed_ ^ seq) >> 1;
}

EventQueue::Event *
EventQueue::allocEvent()
{
    if (free_events_ == nullptr) {
        pool_.emplace_back(new Event[kPoolChunk]);
        Event *chunk = pool_.back().get();
        for (size_t i = 0; i < kPoolChunk; ++i) {
            chunk[i].next = free_events_;
            free_events_ = &chunk[i];
        }
    }
    Event *event = free_events_;
    free_events_ = event->next;
    return event;
}

void
EventQueue::releaseEvent(Event *event)
{
    event->fn.reset();
    event->next = free_events_;
    free_events_ = event;
}

uint32_t
EventQueue::allocControl()
{
    if (free_control_ != kNoControl) {
        const uint32_t slot = free_control_;
        free_control_ = controls_[slot].next_free;
        controls_[slot].next_free = kNoControl;
        return slot;
    }
    controls_.push_back(ControlSlot{});
    return static_cast<uint32_t>(controls_.size() - 1);
}

bool
EventQueue::releaseControl(uint32_t slot)
{
    ControlSlot &ctl = controls_[slot];
    const bool cancelled = ctl.cancelled;
    // The generation bump is what retires outstanding handles.
    ++ctl.gen;
    ctl.cancelled = false;
    ctl.next_free = free_control_;
    free_control_ = slot;
    return cancelled;
}

void
EventQueue::place(Event *event)
{
    const uint64_t bucket =
        static_cast<uint64_t>(event->when) >> kBucketShift;
    if (event->when < bottomLimit()) {
        // Sorted insert (descending; earliest at the back). New
        // arrivals here are same-tick or near-past events, which land
        // close to the back — short memmoves on a flat key array beat
        // a heap sift's scattered dereferences.
        const BottomItem item{event->when, event->tie, event->seq,
                              event};
        bottom_.insert(std::lower_bound(bottom_.begin(),
                                        bottom_.end(), item,
                                        LaterItem{}),
                       item);
    } else if (bucket < windowEnd()) {
        Event *&head = buckets_[bucket & (kBucketCount - 1)];
        event->next = head;
        head = event;
        ++in_buckets_;
    } else {
        overflow_.push_back(
            BottomItem{event->when, event->tie, event->seq, event});
        std::push_heap(overflow_.begin(), overflow_.end(),
                       LaterItem{});
    }
}

void
EventQueue::insertNew(Tick when, uint64_t tie, uint64_t seq,
                      EventFn fn, uint32_t control, EventCategory cat)
{
    Event *event = allocEvent();
    event->when = when;
    event->tie = tie;
    event->seq = seq;
    event->next = nullptr;
    event->control = control;
    event->category = cat;
    event->fn = std::move(fn);
    place(event);
    ++pending_;
}

void
EventQueue::schedule(Tick delay, EventFn fn, EventCategory cat)
{
    if (delay < 0)
        delay = 0;
    scheduleAt(now_ + delay, std::move(fn), cat);
}

void
EventQueue::scheduleAt(Tick when, EventFn fn, EventCategory cat)
{
    if (when < now_)
        when = now_;
    const uint64_t seq = next_seq_++;
    insertNew(when, tieRank(when, seq), seq, std::move(fn), kNoControl,
              cat);
}

void
EventQueue::scheduleFinal(EventFn fn, EventCategory cat)
{
    const uint64_t seq = next_seq_++;
    // The final band tops both the hashed ranks (< 2^63) and the
    // zero-delay sequenced band (2^63 | seq), in shuffle and FIFO
    // modes alike, so final events always close out their tick.
    // kFinalBase itself is the dispatch's rank.
    insertNew(now_, kFinalBase + 1 + seq, seq, std::move(fn),
              kNoControl, cat);
}

uint32_t
EventQueue::enroll(TickArbiter *arbiter)
{
    // Ids are handed out in registration order and drive the dispatch
    // order; registrations from events would take the tie-shuffled
    // order of those events, so arbiters are built with the model.
    assert(!firing_ && "TickArbiter registered from an event");
    arbiters_.push_back(arbiter);
    return static_cast<uint32_t>(arbiters_.size() - 1);
}

void
EventQueue::withdraw(uint32_t id)
{
    // A dirty id left in the heap finds the empty slot and is skipped.
    arbiters_[id] = nullptr;
}

void
EventQueue::markDirty(TickArbiter &arbiter)
{
    arbiter.dirty_ = true;
    dirty_ids_.push_back(arbiter.id_);
    std::push_heap(dirty_ids_.begin(), dirty_ids_.end(),
                   std::greater<>{});
    if (!dispatch_pending_) {
        dispatch_pending_ = true;
        // Ahead of the tick's other final events (finalBand()
        // awaiters), however early those were scheduled: which came
        // first is a same-tick arrival order, and the checks they
        // make should see the tick's grants.
        const uint64_t seq = next_seq_++;
        insertNew(now_, kFinalBase, seq, [this] { dispatch(); },
                  kNoControl, EventCategory::TickDispatch);
    }
}

void
EventQueue::dispatch()
{
    if (now_ != last_dispatch_at_) {
        last_dispatch_at_ = now_;
        ++dispatch_ticks_;
    }
    // Lowest id first, re-reading the heap after every pass: an
    // arbiter marked by a pass (itself included) runs again in this
    // event, in id order among whatever else is dirty.
    while (!dirty_ids_.empty()) {
        std::pop_heap(dirty_ids_.begin(), dirty_ids_.end(),
                      std::greater<>{});
        const uint32_t id = dirty_ids_.back();
        dirty_ids_.pop_back();
        TickArbiter *arbiter = arbiters_[id];
        if (arbiter == nullptr)
            continue;
        // Cleared first, so the pass may mark itself again.
        arbiter->dirty_ = false;
        arbiter->hook_(*arbiter);
    }
    // Marks from this event's zero-delay spawns need a new dispatch.
    dispatch_pending_ = false;
}

EventQueue::Handle
EventQueue::scheduleCancelable(Tick delay, EventFn fn, EventCategory cat)
{
    if (delay < 0)
        delay = 0;
    return scheduleAtCancelable(now_ + delay, std::move(fn), cat);
}

EventQueue::Handle
EventQueue::scheduleAtCancelable(Tick when, EventFn fn, EventCategory cat)
{
    if (when < now_)
        when = now_;
    const uint32_t slot = allocControl();
    const uint64_t seq = next_seq_++;
    insertNew(when, tieRank(when, seq), seq, std::move(fn), slot, cat);
    return Handle(this, slot, controls_[slot].gen);
}

void
EventQueue::pullFromOverflow(uint64_t limit)
{
    // Adopt the overflow events whose bucket the melt has reached.
    // Pulling lazily — only when `limit` catches up with an event's
    // bucket — keeps far-future timers in the compact heap instead of
    // spreading them across the ring, while advance()'s scan cap
    // guarantees a bucket is never melted past an unpulled event.
    while (!overflow_.empty() &&
           (static_cast<uint64_t>(overflow_.front().when) >>
            kBucketShift) <= limit) {
        Event *event = overflow_.front().event;
        std::pop_heap(overflow_.begin(), overflow_.end(),
                      LaterItem{});
        overflow_.pop_back();
        const uint64_t bucket =
            static_cast<uint64_t>(event->when) >> kBucketShift;
        Event *&head = buckets_[bucket & (kBucketCount - 1)];
        event->next = head;
        head = event;
        ++in_buckets_;
    }
}

bool
EventQueue::advance()
{
    if (!bottom_.empty())
        return true;
    if (in_buckets_ == 0 && overflow_.empty())
        return false;
    const uint64_t overflow_min =
        overflow_.empty()
            ? UINT64_MAX
            : static_cast<uint64_t>(overflow_.front().when) >>
                  kBucketShift;
    // Pick the next bucket to melt: the first non-empty ring bucket,
    // but never past the earliest overflow event — overflow events
    // always sit at or after next_bucket_ (the window never rebases
    // backward), so capping the scan preserves global order.
    uint64_t index;
    if (in_buckets_ == 0) {
        // Ring empty: jump the window straight to the overflow
        // minimum, no scan.
        index = overflow_min;
        next_bucket_ = overflow_min;
    } else {
        index = next_bucket_;
        while (index < overflow_min &&
               buckets_[index & (kBucketCount - 1)] == nullptr)
            ++index;
    }
    if (index >= overflow_min)
        pullFromOverflow(index);
    Event *head = buckets_[index & (kBucketCount - 1)];
    buckets_[index & (kBucketCount - 1)] = nullptr;
    next_bucket_ = index + 1;
    // Melt: bottom_ is empty here, so one sort of the bucket's chain
    // replaces per-event heap maintenance; fireNext then pops from
    // the back for free. Keys are copied into the flat array once so
    // the sort never touches the events again.
    while (head != nullptr) {
        Event *next = head->next;
        bottom_.push_back(
            BottomItem{head->when, head->tie, head->seq, head});
        --in_buckets_;
        head = next;
    }
    if (bottom_.size() > 1)
        std::sort(bottom_.begin(), bottom_.end(), LaterItem{});
    return true;
}

void
EventQueue::fireNext()
{
    Event *event = bottom_.back().event;
    bottom_.pop_back();
    --pending_;
    // Counted before the cancellation check so the tally is a pure
    // function of the scheduled ticks, unperturbed by within-tick
    // cancellation order.
    if (event->when == last_fired_at_)
        ++same_tick_fired_;
    last_fired_at_ = event->when;
    bool cancelled = false;
    if (event->control != kNoControl)
        cancelled = releaseControl(event->control);
    if (!cancelled) {
        // Only a live event moves the clock: a run that drains on
        // cancelled events ends at the last event that fired. Later
        // schedules below the drained window land in the sorted
        // bottom region like any near-past event.
        now_ = event->when;
        ++fired_by_cat_[static_cast<size_t>(event->category)];
        // The event is already detached from every structure, so the
        // callback may freely schedule (and pool-allocate) more
        // events; its storage is recycled only after it returns.
#ifndef NDEBUG
        firing_ = true;
        event->fn();
        firing_ = false;
#else
        event->fn();
#endif
    }
    releaseEvent(event);
}

size_t
EventQueue::run(size_t max_events)
{
    size_t fired = 0;
    while (fired < max_events && advance()) {
        fireNext();
        ++fired;
    }
    return fired;
}

size_t
EventQueue::runUntil(Tick until)
{
    size_t fired = 0;
    while (advance() && bottom_.back().when <= until) {
        fireNext();
        ++fired;
    }
    if (now_ < until)
        now_ = until;
    return fired;
}

} // namespace v3sim::sim
