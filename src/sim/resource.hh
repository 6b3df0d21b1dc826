/**
 * @file
 * Semaphore: a counted, FIFO-fair gate used for flow-control credits
 * and bounded queues.
 */

#ifndef V3SIM_SIM_RESOURCE_HH
#define V3SIM_SIM_RESOURCE_HH

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/tick_arbiter.hh"

namespace v3sim::sim
{

/**
 * Counted semaphore with coroutine acquire and dispatch-time granting.
 *
 * Determinism (DESIGN.md §8.3): an inline fast path would hand the
 * last count to whichever same-tick acquirer happened to run first —
 * arrival order, which the tie-shuffle permutes. Every acquire
 * therefore parks, and counts are granted by the semaphore's pass in
 * the tick's arbiter dispatch (TickArbiter), ordered by (order_key,
 * park order). Acquirers pass a content-derived key (buffer address,
 * request offset); distinct ticks keep strict FIFO because earlier
 * parks carry smaller seqs.
 */
class Semaphore : private TickArbiter
{
  public:
    Semaphore(EventQueue &queue, int64_t initial)
        : TickArbiter(queue,
                      [](TickArbiter &self) {
                          static_cast<Semaphore &>(self).grant();
                      }),
          count_(initial)
    {
        assert(initial >= 0);
    }

    Semaphore(const Semaphore &) = delete;
    Semaphore &operator=(const Semaphore &) = delete;

    int64_t available() const { return count_; }
    size_t waiterCount() const { return waiters_.size(); }

    /**
     * Awaitable acquire of one count. Grants happen in this tick's
     * arbiter dispatch at the earliest; same-tick acquirers are
     * ordered by @p order_key (content, never arrival order), then
     * park order.
     */
    auto
    acquire(uint64_t order_key = 0)
    {
        struct Awaiter
        {
            Semaphore *sem;
            uint64_t order_key;

            bool await_ready() const { return false; }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                sem->park(h, order_key);
            }

            void await_resume() const {}
        };
        return Awaiter{this, order_key};
    }

    /** Returns @p n counts; waiters are granted in the dispatch. */
    void
    release(int64_t n = 1)
    {
        count_ += n;
        if (!waiters_.empty())
            markDirty();
    }

  private:
    struct Waiter
    {
        std::coroutine_handle<> handle;
        uint64_t order_key = 0;
        uint64_t seq = 0; ///< park-order tiebreak among equal keys

        bool
        operator<(const Waiter &other) const
        {
            if (order_key != other.order_key)
                return order_key < other.order_key;
            return seq < other.seq;
        }
    };

    void
    park(std::coroutine_handle<> h, uint64_t order_key)
    {
        const Waiter w{h, order_key, next_seq_++};
        waiters_.insert(
            std::upper_bound(waiters_.begin(), waiters_.end(), w), w);
        markDirty();
    }

    /** Grant pass (the arbiter hook). A resumed waiter may release()
     *  and re-park; that marks the semaphore for another pass. */
    void
    grant()
    {
        while (count_ > 0 && !waiters_.empty()) {
            const Waiter w = waiters_.front();
            waiters_.erase(waiters_.begin());
            --count_;
            w.handle.resume();
        }
    }

    int64_t count_;
    std::vector<Waiter> waiters_;
    uint64_t next_seq_ = 0;
};

} // namespace v3sim::sim

#endif // V3SIM_SIM_RESOURCE_HH
