/**
 * @file
 * Spin-lock model with emergent contention.
 *
 * The paper counts I/O-path cost in "synchronization pairs" — one
 * lock/unlock around a short critical section (section 3.3: "a total
 * of about 8-10 synchronization pairs involved in the path of
 * processing a single I/O request"), with short CPU charges between
 * them. A SimLock models one such lock. syncPair() performs the full
 * pair: up to two CPU charges just before it, the acquire atomic op,
 * a spin wait while the lock is held elsewhere, the critical section,
 * the release op, and one CPU charge just after it. Spin time burns
 * the waiter's CPU and is charged to the Lock accounting category, so
 * lock contention *emerges* from I/O rate and CPU count instead of
 * being a dialed-in constant — the mechanism behind Figures 9, 11, 12
 * and 14.
 *
 * Determinism (DESIGN.md §8.3): contenders whose acquire ops land on
 * the same tick are a *race* — their relative order is unspecified
 * and tie-shuffled. The lock therefore never arbitrates by arrival
 * order. Same-tick contenders form one *batch* that occupies the lock
 * for the sum of its members' critical sections (plus one release op
 * each), and every member leaves the lock when the batch ends. A
 * contender's arrival (its call tick plus its before charges plus the
 * acquire op) is known when it calls, so the lock places it at call
 * time, in batches kept sorted by arrival whose starts and ends are
 * closed-form: a contender joins the batch of its arrival tick
 * (moving that batch's end out) or inserts a new one starting at
 * max(arrival, previous batch's end), and the batches behind it are
 * pushed back. A later caller with shorter charges may so overtake
 * an earlier one; arrivals never lie in the past, so only batches
 * that have not started move. A member resumes at its batch's end
 * plus its after charge, one event per batch and exit tick (an event
 * that fires before a moved-out exit re-arms). Members stay suspended
 * until then, so every observable — exit times, spin accounting,
 * contention counts — is a function of the batch *set*, invariant
 * under the tie-shuffle seed. An uncontended pair with its charges
 * costs exactly before + acquire + hold + release + after in one
 * event.
 */

#ifndef V3SIM_OSMODEL_SIM_LOCK_HH
#define V3SIM_OSMODEL_SIM_LOCK_HH

#include <cassert>
#include <coroutine>
#include <iterator>
#include <cstdint>
#include <string>
#include <vector>

#include "osmodel/cpu_pool.hh"
#include "osmodel/host_costs.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "sim/tick_arbiter.hh"

namespace v3sim::osmodel
{

/** One CPU charge run on a lease beside a sync pair. */
struct Charge
{
    sim::Tick ticks = 0;
    CpuCat cat = CpuCat::Other;
};

/** Up to two charges run back to back before a sync pair. A plain
 *  value (fixed array plus count): build it in a named local and
 *  pass it by value. */
struct Charges
{
    Charge items[2]{};
    uint8_t count = 0;

    void
    add(sim::Tick ticks, CpuCat cat)
    {
        assert(count < std::size(items));
        items[count++] = Charge{ticks, cat};
    }
};

/** One kernel/library lock; batch-fair, spin-wait semantics. */
class SimLock : private sim::TickArbiter
{
  public:
    SimLock(sim::Simulation &sim, const HostCosts &costs,
            std::string name = "");

    SimLock(const SimLock &) = delete;
    SimLock &operator=(const SimLock &) = delete;

    const std::string &name() const { return name_; }

    /**
     * Executes one synchronization pair on the caller's CPU, with the
     * CPU charges beside it: @p before (in order), acquire op + spin
     * wait + critical section + release op, then @p after. Each
     * charge counts to its own category; the critical section to
     * @p hold_cat; lock ops and spin time to CpuCat::Lock. The same
     * as running the charges with `lease.run` around the pair, in one
     * event.
     *
     * @param hold critical-section length; negative means "use the
     *        platform default" (costs.lock_hold).
     */
    sim::Task<> syncPair(CpuLease lease, CpuCat hold_cat, sim::Tick hold,
                         Charges before, Charge after);

    /** A pair with no charges beside it. */
    sim::Task<>
    syncPair(CpuLease lease, CpuCat hold_cat, sim::Tick hold = -1)
    {
        const Charges none;
        const Charge no_after;
        return syncPair(lease, hold_cat, hold, none, no_after);
    }

    uint64_t acquisitionCount() const { return acquisitions_.value(); }

    /** Acquisitions that spun (exited later than an uncontended pair
     *  would have). Every member of a multi-member batch spins. */
    uint64_t contendedCount() const { return contended_.value(); }

    /** Total spin time across all waiters (ns). */
    sim::Tick totalWait() const { return total_wait_; }

  private:
    /** A suspended contender; lives in its syncPair frame. */
    struct Member
    {
        std::coroutine_handle<> handle;
        sim::Tick after = 0;              ///< exit = batch end + after
        CpuPool::Run *lock_run = nullptr;  ///< ends at the batch end
        CpuPool::Run *after_run = nullptr; ///< starts at the batch end
        Member *next = nullptr;            ///< join order
    };

    /** Same-tick arrivals, granted and released as one unit. */
    struct Batch
    {
        uint64_t id;
        sim::Tick arrival;
        sim::Tick start;
        sim::Tick end;      ///< start + Σhold + n·release
        sim::Tick armed;    ///< tick of the live exit event, or -1
        Member *head;
        Member *tail;
    };

    /** Places @p member arriving at @p arrival: in the batch of that
     *  tick, else in a new batch at its sorted place; pushes back the
     *  batches behind it. */
    void place(Member *member, sim::Tick arrival, sim::Tick stay);
    /** Moves @p batch to @p start, keeping its length, and drags its
     *  members' tied intervals along. */
    void moveTo(Batch &batch, sim::Tick start);
    static void tie(const Batch &batch, Member *member);
    /** Arms an exit event at the batch's first member exit unless a
     *  live one already fires no later. */
    void armExit(Batch &batch);
    /** Resumes the members of batch @p id that exit now, or re-arms
     *  at the first moved-out exit. */
    void onExit(uint64_t id);
    /** Arbiter hook: runs the exits armed on the current tick. */
    void exitDue();

    sim::Simulation &sim_;
    const HostCosts &costs_;
    std::string name_;
    /** Batches with members still inside, sorted by arrival. */
    std::vector<Batch> batches_;
    /** Ids of batches whose exit falls on the current tick, run by
     *  exitDue() so the batch stays open to every same-tick
     *  contender. */
    std::vector<uint64_t> due_;
    uint64_t next_id_ = 0;
    sim::Counter acquisitions_;
    sim::Counter contended_;
    sim::Tick total_wait_ = 0;
};

} // namespace v3sim::osmodel

#endif // V3SIM_OSMODEL_SIM_LOCK_HH
