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
 * and 14. syncChain() runs several such pairs back to back on one
 * lease, on one lock or many; syncPair() is the one-step chain.
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
 * that have not started move.
 *
 * In a chain, the exit of one pair plus its after charge and the next
 * pair's before charges fix the next pair's arrival, so every step is
 * placed when the chain is called. Whenever a batch's end moves (a
 * push-back, a joiner, or a member withdrawn), each member with a
 * successor re-places it: withdrawn from its lock (which may pull the
 * batches behind it earlier) and placed again at its new arrival.
 * Every move only affects strictly later arrivals, so the repair
 * ends, and the arrangement is the closed form of the arrival set:
 * that of running the pairs one after another. Only the last step
 * resumes the caller: each batch arms one cancelable event at its
 * first final-step exit (batch end plus after charge), and a moved
 * batch cancels and re-arms it, so a push-back fires nothing.
 * Members stay suspended until then, so every observable — exit
 * times, spin accounting, contention counts — is a function of the
 * batch *set*, invariant under the tie-shuffle seed. An uncontended
 * chain with its charges costs exactly the sum of its pieces in one
 * event.
 */

#ifndef V3SIM_OSMODEL_SIM_LOCK_HH
#define V3SIM_OSMODEL_SIM_LOCK_HH

#include <array>
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

class SimLock;

/** One sync pair of a chain, with the CPU charges beside it. */
struct SyncStep
{
    SimLock *lock = nullptr;
    CpuCat hold_cat = CpuCat::Other;
    sim::Tick hold = -1; ///< negative: the platform's lock_hold
    Charges before;
    Charge after;
};

/** Sync pairs run back to back on one lease, with nothing between
 *  them but their charges. A plain value with a fixed capacity, like
 *  Charges: build it in a named local; a longer run is several chains
 *  one after another. */
struct SyncChain
{
    static constexpr size_t kCapacity = 8;

    SyncStep steps[kCapacity]{};
    uint8_t count = 0;

    bool full() const { return count == kCapacity; }

    void
    add(SimLock &lock, CpuCat hold_cat, sim::Tick hold = -1,
        Charges before = Charges(), Charge after = Charge())
    {
        assert(!full());
        steps[count++] = SyncStep{&lock, hold_cat, hold, before, after};
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
     * Executes @p chain's sync pairs one after another on the
     * caller's CPU, each with the CPU charges beside it: its before
     * charges (in order), acquire op + spin wait + critical section +
     * release op, then its after charge. Each charge counts to its own
     * category; a critical section to its step's hold_cat; lock ops
     * and spin time to CpuCat::Lock. The same as running the pairs
     * and charges one after another, in one event. Takes the steps
     * out of @p chain at the call, leaving it empty for the next run
     * of pairs.
     */
    static sim::Task<> syncChain(CpuLease lease, SyncChain &chain);

    /**
     * One synchronization pair with the charges beside it: the
     * one-step chain.
     *
     * @param hold critical-section length; negative means "use the
     *        platform default" (costs.lock_hold).
     */
    sim::Task<>
    syncPair(CpuLease lease, CpuCat hold_cat, sim::Tick hold,
             Charges before, Charge after)
    {
        SyncChain chain;
        chain.add(*this, hold_cat, hold, before, after);
        return syncChain(lease, chain);
    }

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
    /** The chain's coroutine, its frame sized for @p N steps, so a
     *  short chain pays for no unused ones. */
    template <size_t N>
    static sim::Task<> runChain(CpuLease lease,
                                std::array<SyncStep, N> steps,
                                uint8_t count);

    /** One step of a suspended chain; lives in its runChain frame. */
    struct Member
    {
        SimLock *lock = nullptr;
        /** The chain's, on its last step only: the one that resumes. */
        std::coroutine_handle<> handle;
        sim::Tick stay = 0;    ///< hold + release
        sim::Tick after = 0;   ///< exit = batch end + after
        sim::Tick arrival = -1; ///< -1 until placed
        uint64_t batch = 0;     ///< id of the batch it sits in
        /** The before charges, back to back up to the acquire op. */
        CpuPool::Run *lead[2]{};
        sim::Tick lead_ticks = 0;
        CpuPool::Run *lock_run = nullptr;  ///< ends at the batch end
        CpuPool::Run *after_run = nullptr; ///< starts at the batch end
        Member *next = nullptr;   ///< join order in the batch
        Member *succ = nullptr;   ///< the chain's next step
        Member *queued = nullptr; ///< repair worklist link
        bool in_work = false;
    };

    /** Same-tick arrivals, granted and released as one unit. */
    struct Batch
    {
        uint64_t id;
        sim::Tick arrival;
        sim::Tick start;
        sim::Tick end;   ///< start + Σhold + n·release
        sim::Tick armed; ///< tick of the live exit, or -1
        sim::EventQueue::Handle exit;
        Member *head;
        Member *tail;
    };

    /** Members whose batch end moved, so their successors must be
     *  placed again; an intrusive stack. */
    struct Worklist
    {
        Member *head = nullptr;

        void
        push(Member *member)
        {
            if (member->succ == nullptr || member->in_work)
                return;
            member->in_work = true;
            member->queued = head;
            head = member;
        }
    };

    /** Places @p first at @p arrival and every later step of its
     *  chain behind it, repairing what the placements move until
     *  nothing is left to move. */
    static void placeChain(Member *first, sim::Tick arrival);
    /** Places @p member arriving at @p arrival: in the batch of that
     *  tick, else in a new batch at its sorted place; moves the
     *  batches behind it. */
    void place(Member *member, sim::Tick arrival, Worklist &work);
    /** Takes @p member, not yet arrived, out of its batch and moves
     *  the batches behind it. */
    void withdraw(Member *member, Worklist &work);
    /** Unlinks @p member, whose batch has ended, from it. */
    void leave(Member *member);
    static void unlink(Batch &batch, Member *member);
    /** Index of batch @p id, or batches_.size() if it is gone. */
    size_t indexOf(uint64_t id) const;
    /** Re-derives the starts of the batches from index @p i on, up
     *  to the first that keeps its start. */
    void settle(size_t i, Worklist &work);
    /** After @p batch's end moved: re-ties its members, re-arms its
     *  exit and queues their successors. */
    void moved(Batch &batch, Worklist &work);
    /** Sets the before charges and the acquire op of @p member to
     *  end at @p arrival. */
    void retime(Member *member, sim::Tick arrival) const;
    static void tie(const Batch &batch, Member *member);
    /** Arms the batch's exit event at its first final-step exit,
     *  cancelling one armed elsewhere. */
    void armExit(Batch &batch);
    /** Resumes the chains whose last step in batch @p id exits now. */
    void onExit(uint64_t id);
    /** Arbiter hook: runs the exits armed on the current tick. */
    void exitDue();

    sim::Simulation &sim_;
    const HostCosts &costs_;
    std::string name_;
    /** Batches with members still inside, sorted by arrival (an
     *  ended batch stays until the chains of its earlier steps
     *  resume). */
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
