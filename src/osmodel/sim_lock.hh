/**
 * @file
 * Spin-lock model with emergent contention.
 *
 * The paper counts I/O-path cost in "synchronization pairs" — one
 * lock/unlock around a short critical section (section 3.3: "a total
 * of about 8-10 synchronization pairs involved in the path of
 * processing a single I/O request"). A SimLock models one such lock.
 * syncPair() performs the full pair: the acquire atomic op, a spin
 * wait while the lock is held elsewhere, the critical section, and
 * the release op. Spin time burns the waiter's CPU and is charged to
 * the Lock accounting category, so lock contention *emerges* from
 * I/O rate and CPU count instead of being a dialed-in constant —
 * the mechanism behind Figures 9, 11, 12 and 14.
 *
 * Determinism (DESIGN.md §8.3): contenders whose acquire ops land on
 * the same tick are a *race* — their relative order is unspecified
 * and tie-shuffled. The lock therefore never arbitrates by arrival
 * order. Same-tick contenders form one *batch* that occupies the lock
 * for the sum of its members' critical sections (plus one release op
 * each), and all members exit together when the batch completes.
 * Every contender pays the same acquire op, so a contender arrives at
 * the lock a fixed time after it calls and arrivals come in call
 * order: the lock places each contender at call time, in a FIFO of
 * batches whose starts and ends are closed-form (a batch starts when
 * both its arrival tick and the lock's free tick are reached). A
 * batch arms its completion when it is created; later contenders of
 * the same call tick join it, moving its end out (a completion that
 * fires early re-arms at the true end). Members stay suspended until
 * completion, so every observable — exit times, spin accounting,
 * contention counts — is a function of the batch *set*, invariant
 * under the tie-shuffle seed. Contenders arriving on distinct ticks
 * keep strict FIFO order, and an uncontended pair costs exactly
 * acquire + hold + release in one event.
 */

#ifndef V3SIM_OSMODEL_SIM_LOCK_HH
#define V3SIM_OSMODEL_SIM_LOCK_HH

#include <coroutine>
#include <deque>
#include <string>
#include <vector>

#include "osmodel/cpu_pool.hh"
#include "osmodel/host_costs.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace v3sim::osmodel
{

/** One kernel/library lock; batch-fair, spin-wait semantics. */
class SimLock
{
  public:
    SimLock(sim::Simulation &sim, const HostCosts &costs,
            std::string name = "");

    SimLock(const SimLock &) = delete;
    SimLock &operator=(const SimLock &) = delete;

    const std::string &name() const { return name_; }

    /**
     * Executes one synchronization pair on the caller's CPU:
     * acquire op + spin wait + critical section + release op.
     * The critical section is charged to @p hold_cat; lock ops and
     * spin time to CpuCat::Lock.
     *
     * @param hold critical-section length; negative means "use the
     *        platform default" (costs.lock_hold).
     */
    sim::Task<> syncPair(CpuLease lease, CpuCat hold_cat,
                         sim::Tick hold = -1);

    uint64_t acquisitionCount() const { return acquisitions_.value(); }

    /** Acquisitions that spun (exited later than an uncontended pair
     *  would have). Every member of a multi-member batch spins. */
    uint64_t contendedCount() const { return contended_.value(); }

    /** Total spin time across all waiters (ns). */
    sim::Tick totalWait() const { return total_wait_; }

  private:
    /** Same-tick arrivals, granted and released as one unit. */
    struct Batch
    {
        sim::Tick arrival;
        sim::Tick end; ///< start + Σhold + n·release
        std::vector<std::coroutine_handle<>> members;
    };

    /** Places a contender arriving at @p arrival: in the tail batch
     *  if that batch arrives on the same tick, else in a new batch. */
    void join(std::coroutine_handle<> member, sim::Tick arrival,
              sim::Tick hold);
    void armCompletion(sim::Tick end);
    /** Completes the front batch, or re-arms at its moved-out end. */
    void onComplete();

    sim::Simulation &sim_;
    const HostCosts &costs_;
    std::string name_;
    std::deque<Batch> batches_; ///< not yet completed, in FIFO order
    sim::Tick free_at_ = 0;     ///< end of the last batch placed
    sim::Counter acquisitions_;
    sim::Counter contended_;
    sim::Tick total_wait_ = 0;
};

} // namespace v3sim::osmodel

#endif // V3SIM_OSMODEL_SIM_LOCK_HH
