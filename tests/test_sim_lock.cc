/**
 * @file
 * Unit tests for SimLock: sync-pair costs, closed-form batches kept
 * in arrival order, the CPU charges beside a pair, chains of pairs
 * placed at their first call (against sequential pairs), spin-time
 * and window-reset accounting (in flight and at exit), emergent
 * contention, and tie-shuffle invariance of the same-tick arbitration
 * (DESIGN.md §8.3).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "osmodel/cpu_pool.hh"
#include "osmodel/host_costs.hh"
#include "osmodel/sim_lock.hh"
#include "sim/simulation.hh"

namespace v3sim::osmodel
{
namespace
{

using sim::Task;
using sim::Tick;
using sim::usecs;

/** One Dsa sync pair holding @p hold, called at tick @p call on a CPU
 *  leased at tick 0; stores the exit tick in @p exit if given. */
Task<>
timedPair(sim::Simulation &s, CpuPool &p, SimLock &l, Tick call,
          Tick hold, Tick *exit = nullptr)
{
    CpuLease lease = co_await p.acquire();
    co_await s.sleep(call);
    co_await l.syncPair(lease, CpuCat::Dsa, hold);
    if (exit != nullptr)
        *exit = s.now();
    p.release();
}

/** Like timedPair, with @p before and @p after charges beside the
 *  pair and the critical section charged to @p hold_cat. */
Task<>
chargedPair(sim::Simulation &s, CpuPool &p, SimLock &l, Tick call,
            Tick hold, Charges before, Charge after,
            Tick *exit = nullptr, CpuCat hold_cat = CpuCat::Dsa)
{
    CpuLease lease = co_await p.acquire();
    co_await s.sleep(call);
    co_await l.syncPair(lease, hold_cat, hold, before, after);
    if (exit != nullptr)
        *exit = s.now();
    p.release();
}

/** Runs @p chain on a CPU leased at tick 0, called at tick @p call;
 *  stores the exit tick in @p exit if given. */
Task<>
timedChain(sim::Simulation &s, CpuPool &p, SyncChain chain, Tick call,
           Tick *exit = nullptr)
{
    CpuLease lease = co_await p.acquire();
    co_await s.sleep(call);
    co_await SimLock::syncChain(lease, chain);
    if (exit != nullptr)
        *exit = s.now();
    p.release();
}

/** The same steps as timedChain, as one syncPair after another;
 *  stores each pair's exit tick in @p exits. */
Task<>
sequentialPairs(sim::Simulation &s, CpuPool &p, SyncChain chain,
                Tick call, std::vector<Tick> *exits = nullptr)
{
    CpuLease lease = co_await p.acquire();
    co_await s.sleep(call);
    for (uint8_t k = 0; k < chain.count; ++k) {
        const SyncStep &step = chain.steps[k];
        co_await step.lock->syncPair(lease, step.hold_cat, step.hold,
                                     step.before, step.after);
        if (exits != nullptr)
            exits->push_back(s.now());
    }
    p.release();
}

class SimLockTest : public ::testing::Test
{
  protected:
    SimLockTest()
        : costs_(HostCosts::midSize()),
          pool_(sim_, 8, "cpu"),
          lock_(sim_, costs_, "test")
    {}

    sim::Simulation sim_;
    HostCosts costs_;
    CpuPool pool_;
    SimLock lock_;
};

TEST_F(SimLockTest, UncontendedPairCostsOpsPlusHold)
{
    Tick finished = -1;
    sim::spawn([](CpuPool &p, SimLock &l, sim::Simulation &s,
                  Tick &out) -> Task<> {
        CpuLease lease = co_await p.acquire();
        co_await l.syncPair(lease, CpuCat::Dsa);
        p.release();
        out = s.now();
    }(pool_, lock_, sim_, finished));
    sim_.run();
    EXPECT_EQ(finished, costs_.lock_acquire + costs_.lock_hold +
                            costs_.lock_release);
    EXPECT_EQ(lock_.acquisitionCount(), 1u);
    EXPECT_EQ(lock_.contendedCount(), 0u);
    // Ops charged to Lock, the critical section to the caller's
    // category.
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock),
              costs_.lock_acquire + costs_.lock_release);
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), costs_.lock_hold);
}

TEST_F(SimLockTest, UncontendedPairFiresOneEvent)
{
    // The contender is placed at call time: the batch completion is
    // the only event of an uncontended pair.
    uint64_t events = 0;
    sim::spawn([](CpuPool &p, SimLock &l, sim::Simulation &s,
                  uint64_t &out) -> Task<> {
        CpuLease lease = co_await p.acquire();
        const uint64_t before = s.queue().firedCount();
        co_await l.syncPair(lease, CpuCat::Dsa);
        out = s.queue().firedCount() - before;
        p.release();
    }(pool_, lock_, sim_, events));
    sim_.run();
    EXPECT_EQ(events, 1u);
}

TEST_F(SimLockTest, OverlappingContendersFollowClosedFormFifo)
{
    // Three contenders call 1 us apart, each while the lock is held,
    // and each pays the acquire op before reaching the lock. Each
    // batch starts when the previous one ends: the exits are the
    // running sums of hold + release from the first arrival.
    ASSERT_GT(costs_.lock_acquire, 0);
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    std::vector<Tick> exits(3, -1);
    sim::spawn(timedPair(sim_, pool_, lock_, 0, usecs(10), &exits[0]));
    sim::spawn(timedPair(sim_, pool_, lock_, usecs(1), usecs(3),
                         &exits[1]));
    sim::spawn(timedPair(sim_, pool_, lock_, usecs(2), usecs(5),
                         &exits[2]));
    sim_.run();
    const Tick a_exit = acquire + usecs(10) + release;
    const Tick b_exit = a_exit + usecs(3) + release;
    const Tick c_exit = b_exit + usecs(5) + release;
    EXPECT_EQ(exits, (std::vector<Tick>{a_exit, b_exit, c_exit}));
    EXPECT_EQ(lock_.contendedCount(), 2u);
    EXPECT_EQ(lock_.totalWait(), (a_exit - (usecs(1) + acquire)) +
                                     (b_exit - (usecs(2) + acquire)));
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), usecs(18));
}

TEST_F(SimLockTest, SameTickCallersWithAcquireOpAreOrderInvariant)
{
    // Four contenders call on one tick (independent sleeps, so the
    // tie-shuffle permutes their calls) while D, which called 1 us
    // earlier, holds the lock. They form one batch that starts when
    // D's ends; exits and contention must not depend on the seed.
    ASSERT_GT(costs_.lock_acquire, 0);
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    const Tick call = usecs(5);
    auto measure = [&](uint64_t tie_seed) {
        sim::Simulation s;
        s.queue().setTieShuffle(tie_seed);
        CpuPool pool(s, 8, "cpu");
        SimLock lock(s, costs_, "shuffled");
        std::vector<Tick> exits(5, -1);
        for (int i = 0; i < 4; ++i) {
            sim::spawn(timedPair(s, pool, lock, call, usecs(1) * (i + 1),
                                 &exits[static_cast<size_t>(i)]));
        }
        sim::spawn(timedPair(s, pool, lock, call - usecs(1), usecs(3),
                             &exits[4]));
        s.run();
        return std::make_pair(exits, lock.contendedCount());
    };
    const Tick d_exit = call - usecs(1) + acquire + usecs(3) + release;
    const Tick batch_exit = d_exit + usecs(10) + 4 * release;
    const std::vector<Tick> expected = {batch_exit, batch_exit,
                                        batch_exit, batch_exit, d_exit};
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        const auto [exits, contended] = measure(seed);
        EXPECT_EQ(exits, expected) << "tie seed " << seed;
        EXPECT_EQ(contended, 4u) << "tie seed " << seed;
    }
}

TEST_F(SimLockTest, WindowResetInsideAcquireOpClipsOnlyTheLockOps)
{
    // A holds the lock for 10 us; B calls at 5 us and the window is
    // reset halfway through B's acquire op. What is left of A's pair
    // lies inside its critical section, so all of it is Dsa. B's half
    // acquire op, spin and release op count to Lock, its hold to Dsa.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    ASSERT_GT(acquire, 1);
    const Tick reset = usecs(5) + acquire / 2;
    sim::spawn(timedPair(sim_, pool_, lock_, 0, usecs(10)));
    sim::spawn(timedPair(sim_, pool_, lock_, usecs(5), usecs(4)));
    sim_.queue().schedule(reset, [this] { pool_.resetStats(); });
    sim_.run();
    const Tick a_exit = acquire + usecs(10) + release;
    const Tick b_exit = a_exit + usecs(4) + release;
    const Tick b_lock = (acquire - acquire / 2) +
                        (b_exit - (usecs(5) + acquire)) - usecs(4);
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), (a_exit - reset) + usecs(4));
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock), b_lock);
}

TEST_F(SimLockTest, WindowResetInsideStayClipsHoldLast)
{
    // A holds 10 us; B calls at 1 us and spins behind A. The window
    // resets at 8 us: inside A's critical section and B's spin.
    // What remains of each charge goes to the critical section first.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    const Tick reset = usecs(8);
    sim::spawn(timedPair(sim_, pool_, lock_, 0, usecs(10)));
    sim::spawn(timedPair(sim_, pool_, lock_, usecs(1), usecs(6)));
    sim_.queue().schedule(reset, [this] { pool_.resetStats(); });
    sim_.run();
    const Tick a_exit = acquire + usecs(10) + release;
    const Tick b_exit = a_exit + usecs(6) + release;
    ASSERT_LT(a_exit - reset, usecs(10));
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), (a_exit - reset) + usecs(6));
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock),
              (b_exit - reset) - usecs(6));
}

TEST_F(SimLockTest, ArrivalAtTailBatchEndStartsWithoutSpin)
{
    // B's acquire op ends exactly when A's batch does: B starts on
    // that tick without spinning, in a batch of its own.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    const Tick a_exit = acquire + usecs(2) + release;
    std::vector<Tick> exits(2, -1);
    sim::spawn(timedPair(sim_, pool_, lock_, 0, usecs(2), &exits[0]));
    sim::spawn(timedPair(sim_, pool_, lock_, a_exit - acquire, usecs(3),
                         &exits[1]));
    sim_.run();
    EXPECT_EQ(exits,
              (std::vector<Tick>{a_exit, a_exit + usecs(3) + release}));
    EXPECT_EQ(lock_.contendedCount(), 0u);
    EXPECT_EQ(lock_.totalWait(), 0);
}

TEST_F(SimLockTest, ChargesBesidePairRunInOneEvent)
{
    // Two before charges, the pair, and an after charge: the exit is
    // the sum of all of them, each charge counts to its own category,
    // and the whole sequence fires one event.
    Charges before;
    before.add(usecs(2), CpuCat::Kernel);
    before.add(usecs(3), CpuCat::Other);
    const Charge after{usecs(4), CpuCat::Vi};
    Tick exit = -1;
    sim::spawn(chargedPair(sim_, pool_, lock_, 0, usecs(1), before,
                           after, &exit));
    sim_.run();
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    EXPECT_EQ(exit, usecs(5) + acquire + usecs(1) + release + usecs(4));
    EXPECT_EQ(pool_.busyTime(CpuCat::Kernel), usecs(2));
    EXPECT_EQ(pool_.busyTime(CpuCat::Other), usecs(3));
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock), acquire + release);
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), usecs(1));
    EXPECT_EQ(pool_.busyTime(CpuCat::Vi), usecs(4));
    // The acquire arbitration, the sleep, and the pair.
    EXPECT_EQ(sim_.queue().firedCount(), 3u);
}

TEST_F(SimLockTest, AfterChargeRunsOutsideTheLock)
{
    // A's after charge runs once A's batch has left the lock: B, who
    // arrived during A's hold, starts at A's batch end, not at A's
    // exit. The after charge is A's own category, not Lock.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    const Charges none;
    const Charge after{usecs(20), CpuCat::Vi};
    const Charge no_after;
    std::vector<Tick> exits(2, -1);
    sim::spawn(chargedPair(sim_, pool_, lock_, 0, usecs(10), none, after,
                           &exits[0]));
    sim::spawn(chargedPair(sim_, pool_, lock_, usecs(1), usecs(3), none,
                           no_after, &exits[1]));
    sim_.run();
    const Tick a_end = acquire + usecs(10) + release;
    const Tick b_exit = a_end + usecs(3) + release;
    EXPECT_EQ(exits, (std::vector<Tick>{a_end + usecs(20), b_exit}));
    EXPECT_EQ(pool_.busyTime(CpuCat::Vi), usecs(20));
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), usecs(13));
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock),
              (acquire + release) + (b_exit - usecs(1) - usecs(3)));
    EXPECT_EQ(lock_.contendedCount(), 1u);
}

TEST_F(SimLockTest, LaterCallerThatArrivesEarlierOvertakes)
{
    // A calls first but runs a long before charge; B calls 1 us later
    // with none and reaches the lock first. B's batch goes ahead and
    // A's, placed when A called, is pushed back to start at B's end.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    Charges slow;
    slow.add(usecs(5), CpuCat::Kernel);
    const Charges none;
    const Charge no_after;
    std::vector<Tick> exits(2, -1);
    sim::spawn(chargedPair(sim_, pool_, lock_, 0, usecs(2), slow,
                           no_after, &exits[0]));
    sim::spawn(chargedPair(sim_, pool_, lock_, usecs(1), usecs(10), none,
                           no_after, &exits[1]));
    sim_.run();
    const Tick b_exit = usecs(1) + acquire + usecs(10) + release;
    const Tick a_exit = b_exit + usecs(2) + release;
    ASSERT_LT(usecs(5) + acquire, b_exit);
    EXPECT_EQ(exits, (std::vector<Tick>{a_exit, b_exit}));
    EXPECT_EQ(lock_.contendedCount(), 1u);
    EXPECT_EQ(lock_.totalWait(), b_exit - (usecs(5) + acquire));
}

TEST_F(SimLockTest, PushBackStopsAtFirstBatchThatKeepsItsStart)
{
    // Three contenders placed at tick 0 with before charges of 4, 6
    // and 30 us, so their arrivals are 4, 6 and 30 us out (plus the
    // acquire op). Then D, calling at 1 us with no charge, arrives
    // first: the 4 us and 6 us batches are pushed back behind it, but
    // the 30 us batch still starts at its own arrival.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    const Charge no_after;
    const Charges none;
    std::vector<Charges> leads(3);
    leads[0].add(usecs(4), CpuCat::Kernel);
    leads[1].add(usecs(6), CpuCat::Kernel);
    leads[2].add(usecs(30), CpuCat::Kernel);
    std::vector<Tick> exits(4, -1);
    for (size_t i = 0; i < 3; ++i) {
        sim::spawn(chargedPair(sim_, pool_, lock_, 0, usecs(2), leads[i],
                               no_after, &exits[i]));
    }
    sim::spawn(chargedPair(sim_, pool_, lock_, usecs(1), usecs(5), none,
                           no_after, &exits[3]));
    sim_.run();
    const Tick stay = usecs(2) + release;
    const Tick d_exit = usecs(1) + acquire + usecs(5) + release;
    ASSERT_LT(d_exit + 2 * stay, usecs(30) + acquire);
    EXPECT_EQ(exits, (std::vector<Tick>{d_exit + stay, d_exit + 2 * stay,
                                        usecs(30) + acquire + stay,
                                        d_exit}));
    EXPECT_EQ(lock_.contendedCount(), 2u);
}

TEST_F(SimLockTest, DifferentCallTicksSameArrivalShareOneBatch)
{
    // A calls at 0 with a 2 us before charge, B at 2 us with none:
    // both reach the lock on one tick and form one batch.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    Charges lead;
    lead.add(usecs(2), CpuCat::Other);
    const Charges none;
    const Charge no_after;
    std::vector<Tick> exits(2, -1);
    sim::spawn(chargedPair(sim_, pool_, lock_, 0, usecs(3), lead,
                           no_after, &exits[0]));
    sim::spawn(chargedPair(sim_, pool_, lock_, usecs(2), usecs(4), none,
                           no_after, &exits[1]));
    sim_.run();
    const Tick batch_exit = usecs(2) + acquire + usecs(7) + 2 * release;
    EXPECT_EQ(exits, (std::vector<Tick>{batch_exit, batch_exit}));
    EXPECT_EQ(lock_.contendedCount(), 2u);
}

TEST_F(SimLockTest, InsertionAheadOfArmedBatchReArmsOnce)
{
    // A is placed (and its exit armed) at tick 0 behind a 5 us before
    // charge; B, calling at 1 us, is inserted ahead of it and pushes
    // it back. A's armed event is cancelled and re-armed once, so
    // nothing fires early: five events in all (the acquire
    // arbitration, the two sleeps, B's exit, A's exit).
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    Charges slow;
    slow.add(usecs(5), CpuCat::Kernel);
    const Charges none;
    const Charge no_after;
    std::vector<Tick> exits(2, -1);
    sim::spawn(chargedPair(sim_, pool_, lock_, 0, usecs(1), slow,
                           no_after, &exits[0]));
    sim::spawn(chargedPair(sim_, pool_, lock_, usecs(1), usecs(8), none,
                           no_after, &exits[1]));
    sim_.run();
    const Tick b_exit = usecs(1) + acquire + usecs(8) + release;
    EXPECT_EQ(exits,
              (std::vector<Tick>{b_exit + usecs(1) + release, b_exit}));
    EXPECT_EQ(sim_.queue().firedCount(), 5u);
}

TEST_F(SimLockTest, InFlightAccountingMatchesUnfusedSequence)
{
    // H holds the lock from tick 0. S calls at 0 with a Kernel and an
    // Other charge before its pair, spins behind H, holds (Sql), and
    // runs a Vi charge after. busyTime of every category, sampled one
    // tick before, on and after each segment boundary, must be what
    // the unfused sequence of intervals gives: each charge in its
    // own category over its own interval; one Lock interval from the
    // end of the before charges to the lock exit, of which
    // min(hold, clipped) moves to Sql once the exit is reached; the
    // Vi charge from the exit on. Repeated with a window reset inside
    // each of S's segments (and with none).
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    const Tick h_hold = usecs(10);
    const Tick s_hold = usecs(4);
    const Tick k_end = usecs(1);
    const Tick o_end = usecs(3);
    const Tick h_end = acquire + h_hold + release;
    ASSERT_LT(o_end + acquire, h_end); // S spins behind H
    const Tick s_lock_end = h_end + s_hold + release;
    const Tick s_exit = s_lock_end + usecs(5);

    struct Interval
    {
        CpuCat cat;
        Tick start;
        Tick end;
        Tick hold;  ///< moved to hold_cat once time reaches end
        CpuCat hold_cat;
    };
    const std::vector<Interval> intervals = {
        {CpuCat::Lock, 0, h_end, h_hold, CpuCat::Dsa},        // H
        {CpuCat::Kernel, 0, k_end, 0, CpuCat::Kernel},        // S
        {CpuCat::Other, k_end, o_end, 0, CpuCat::Other},      // S
        {CpuCat::Lock, o_end, s_lock_end, s_hold, CpuCat::Sql}, // S
        {CpuCat::Vi, s_lock_end, s_exit, 0, CpuCat::Vi},      // S
    };
    auto expected = [&](CpuCat cat, Tick t, Tick window) {
        Tick total = 0;
        for (const Interval &iv : intervals) {
            const Tick elapsed = std::max<Tick>(
                0, std::min(t, iv.end) - std::max(iv.start, window));
            const Tick held =
                t >= iv.end ? std::min(iv.hold, elapsed) : 0;
            if (iv.cat == cat)
                total += elapsed - held;
            if (iv.hold_cat == cat)
                total += held;
        }
        return total;
    };

    std::vector<Tick> samples;
    for (const Tick b : {k_end, o_end, h_end, s_lock_end, s_exit}) {
        for (const Tick d : {Tick{-1}, Tick{0}, Tick{1}})
            samples.push_back(b + d);
    }
    const std::vector<Tick> resets = {
        -1,
        k_end / 2,                  // Kernel charge
        (k_end + o_end) / 2,        // Other charge
        (o_end + h_end) / 2,        // acquire op and spin
        (h_end + s_lock_end) / 2,   // critical section
        s_lock_end + usecs(2)};     // Vi charge
    for (const Tick reset : resets) {
        sim::Simulation s;
        CpuPool pool(s, 8, "cpu");
        SimLock lock(s, costs_, "inflight");
        Charges before;
        before.add(k_end, CpuCat::Kernel);
        before.add(o_end - k_end, CpuCat::Other);
        const Charges none;
        const Charge after{s_exit - s_lock_end, CpuCat::Vi};
        const Charge no_after;
        sim::spawn(chargedPair(s, pool, lock, 0, h_hold, none, no_after));
        sim::spawn(chargedPair(s, pool, lock, 0, s_hold, before, after,
                               nullptr, CpuCat::Sql));
        if (reset >= 0)
            s.queue().scheduleAt(reset, [&pool] { pool.resetStats(); });
        for (const Tick t : samples) {
            ASSERT_NE(t, reset);
            s.queue().scheduleAt(t, [&, t, reset] {
                const Tick window = reset >= 0 && t > reset ? reset : 0;
                Tick sum = 0;
                for (size_t c = 0; c < kCpuCatCount; ++c) {
                    const auto cat = static_cast<CpuCat>(c);
                    EXPECT_EQ(pool.busyTime(cat), expected(cat, t, window))
                        << cpuCatName(cat) << " at " << t << ", reset "
                        << reset;
                    sum += pool.busyTime(cat);
                }
                EXPECT_EQ(pool.totalBusyTime(), sum) << "at " << t;
            });
        }
        s.run();
    }
}

TEST_F(SimLockTest, SameTickFreeAndArrivalsAreOrderInvariant)
{
    // The lock frees on the very tick two new contenders B and C
    // arrive. Under tie-shuffle the completion fires before, between
    // or after their arrivals; B and C must form one batch either way.
    // With no waiter that batch starts at the free tick. With a waiter
    // D that arrived mid-hold, D's batch is served at the free tick
    // and B and C queue behind it as their own batch. Zero-cost
    // acquire ops make each arrival its own shuffled wake-up event.
    HostCosts costs = costs_;
    costs.lock_acquire = 0;
    const Tick release = costs.lock_release;
    const Tick free_at = usecs(2) + release;
    struct Contender
    {
        Tick hold;
        Tick wake;
    };
    struct Outcome
    {
        std::vector<Tick> exits;
        uint64_t contended;
        size_t free_position; ///< completion's place among 3 events
    };
    auto measure = [&](const std::vector<Contender> &contenders,
                       uint64_t tie_seed) {
        sim::Simulation s;
        s.queue().setTieShuffle(tie_seed);
        CpuPool pool(s, 8, "cpu");
        SimLock lock(s, costs, "shuffled");
        std::vector<Tick> exits(contenders.size(), -1);
        std::vector<int> fired; // A's exit and B's, C's arrivals
        for (size_t id = 0; id < contenders.size(); ++id) {
            sim::spawn([](sim::Simulation &ss, CpuPool &p, SimLock &l,
                          std::vector<Tick> &when, std::vector<int> &log,
                          int me, Contender c, Tick free) -> Task<> {
                CpuLease lease = co_await p.acquire();
                co_await ss.sleep(c.wake);
                if (c.wake == free)
                    log.push_back(me);
                co_await l.syncPair(lease, CpuCat::Dsa, c.hold);
                if (me == 0)
                    log.push_back(me);
                when[static_cast<size_t>(me)] = ss.now();
                p.release();
            }(s, pool, lock, exits, fired, static_cast<int>(id),
              contenders[id], free_at));
        }
        s.run();
        const auto pos = std::find(fired.begin(), fired.end(), 0);
        return Outcome{exits, lock.contendedCount(),
                       static_cast<size_t>(pos - fired.begin())};
    };
    const std::vector<Contender> abc = {
        {usecs(2), 0}, {usecs(3), free_at}, {usecs(4), free_at}};
    std::vector<Contender> abcd = abc;
    abcd.push_back({usecs(1), usecs(1)});
    const Tick d_exit = free_at + usecs(1) + release;
    const Tick bc_hold = usecs(7) + 2 * release;
    const struct
    {
        std::vector<Contender> contenders;
        std::vector<Tick> exits;
        uint64_t contended;
    } cases[] = {
        {abc, {free_at, free_at + bc_hold, free_at + bc_hold}, 2},
        {abcd, {free_at, d_exit + bc_hold, d_exit + bc_hold, d_exit}, 3},
    };
    for (const auto &c : cases) {
        std::set<size_t> positions;
        for (uint64_t seed = 1; seed <= 24; ++seed) {
            const Outcome o = measure(c.contenders, seed);
            EXPECT_EQ(o.exits, c.exits) << "tie seed " << seed;
            EXPECT_EQ(o.contended, c.contended) << "tie seed " << seed;
            positions.insert(o.free_position);
        }
        // The seeds cover the completion before, between and after.
        EXPECT_EQ(positions, (std::set<size_t>{0, 1, 2}));
    }
}

TEST_F(SimLockTest, SameTickContendersShareOneBatch)
{
    // All three acquire ops land on the same tick: a race whose order
    // the determinism contract leaves unspecified. The lock serves
    // them as one batch — serialized inside (sum of holds + one
    // release each) but exiting together, so no observable depends on
    // which contender "came first".
    std::vector<int> order;
    std::vector<Tick> finished;
    for (int i = 0; i < 3; ++i) {
        sim::spawn([](CpuPool &p, SimLock &l, sim::Simulation &s,
                      std::vector<int> &out, std::vector<Tick> &when,
                      int id) -> Task<> {
            CpuLease lease = co_await p.acquire();
            co_await l.syncPair(lease, CpuCat::Dsa, usecs(10));
            out.push_back(id);
            when.push_back(s.now());
            p.release();
        }(pool_, lock_, sim_, order, finished, i));
    }
    sim_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    ASSERT_EQ(finished.size(), 3u);
    const Tick batch_exit = costs_.lock_acquire + 3 * usecs(10) +
                            3 * costs_.lock_release;
    for (const Tick t : finished)
        EXPECT_EQ(t, batch_exit);
    // Every member of a multi-member batch spun.
    EXPECT_EQ(lock_.contendedCount(), 3u);
    EXPECT_GT(lock_.totalWait(), 0);
}

TEST_F(SimLockTest, DistinctTickWaitersServeFifoByArrival)
{
    // Contenders arriving on different ticks keep strict FIFO order:
    // the second arrives mid-hold of the first and exits exactly one
    // hold+release later.
    std::vector<Tick> finished;
    auto worker = [](CpuPool &p, SimLock &l, sim::Simulation &s,
                     std::vector<Tick> &when, Tick start) -> Task<> {
        co_await s.sleep(start);
        CpuLease lease = co_await p.acquire();
        co_await l.syncPair(lease, CpuCat::Dsa, usecs(10));
        when.push_back(s.now());
        p.release();
    };
    sim::spawn(worker(pool_, lock_, sim_, finished, 0));
    sim::spawn(worker(pool_, lock_, sim_, finished, usecs(1)));
    sim_.run();
    ASSERT_EQ(finished.size(), 2u);
    const Tick first = costs_.lock_acquire + usecs(10) +
                       costs_.lock_release;
    EXPECT_EQ(finished[0], first);
    EXPECT_EQ(finished[1], first + usecs(10) + costs_.lock_release);
    EXPECT_EQ(lock_.contendedCount(), 1u);
}

TEST_F(SimLockTest, BatchExitIsInvariantUnderTieShuffle)
{
    // The arbitration contract, end to end: with tie-shuffle
    // permuting the order in which same-tick acquire ops fire, every
    // contender's exit time must come out the same for any seed.
    auto measure = [&](uint64_t tie_seed) {
        sim::Simulation s;
        s.queue().setTieShuffle(tie_seed);
        CpuPool pool(s, 8, "cpu");
        SimLock lock(s, costs_, "shuffled");
        std::vector<Tick> finished(4, -1);
        for (int i = 0; i < 4; ++i) {
            sim::spawn([](sim::Simulation &ss, CpuPool &p, SimLock &l,
                          std::vector<Tick> &when, int id) -> Task<> {
                // Four independent sleeps converging on one tick:
                // each wake-up is its own future-tick (hashed,
                // shuffled) event.
                co_await ss.sleep(usecs(5));
                CpuLease lease = co_await p.acquire();
                co_await l.syncPair(lease, CpuCat::Dsa,
                                    usecs(1) * (id + 1));
                when[static_cast<size_t>(id)] = ss.now();
                p.release();
            }(s, pool, lock, finished, i));
        }
        s.run();
        return finished;
    };
    const auto a = measure(1);
    const auto b = measure(0xfeedface);
    EXPECT_EQ(a, b);
    for (const Tick t : a)
        EXPECT_GT(t, 0);
}

TEST_F(SimLockTest, SpinTimeChargedToLockCategory)
{
    for (int i = 0; i < 2; ++i) {
        sim::spawn([](CpuPool &p, SimLock &l) -> Task<> {
            CpuLease lease = co_await p.acquire();
            co_await l.syncPair(lease, CpuCat::Dsa, usecs(10));
            p.release();
        }(pool_, lock_));
    }
    sim_.run();
    // Second worker spun while the first held the lock for ~10us
    // (plus release op). All spin time is Lock-category CPU.
    EXPECT_GE(pool_.busyTime(CpuCat::Lock),
              2 * (costs_.lock_acquire + costs_.lock_release) +
                  usecs(10));
    // Both critical sections charged to Dsa.
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), usecs(20));
}

TEST_F(SimLockTest, ContentionGrowsWithConcurrency)
{
    // Run the same per-worker workload at two concurrency levels and
    // observe superlinear total wait growth — the emergent mechanism
    // behind the paper's lock-synchronization findings.
    auto measure = [&](int workers) {
        sim::Simulation s;
        CpuPool pool(s, 32, "cpu");
        SimLock lock(s, costs_, "hot");
        for (int w = 0; w < workers; ++w) {
            sim::spawn([](sim::Simulation &ss, CpuPool &p,
                          SimLock &l) -> Task<> {
                for (int i = 0; i < 50; ++i) {
                    CpuLease lease = co_await p.acquire();
                    co_await l.syncPair(lease, CpuCat::Dsa);
                    p.release();
                    co_await ss.sleep(usecs(5));
                }
            }(s, pool, lock));
        }
        s.run();
        return lock.totalWait();
    };
    const Tick wait_low = measure(2);
    const Tick wait_high = measure(16);
    EXPECT_GT(wait_high, 8 * std::max<Tick>(wait_low, 1));
}

TEST_F(SimLockTest, ChainFiresOneEvent)
{
    // Three pairs over two locks, with charges between them, back to
    // back: one event resumes the caller, and its exit is the sum of
    // every piece.
    SimLock other(sim_, costs_, "other");
    SyncChain chain;
    Charges lead;
    lead.add(usecs(2), CpuCat::Kernel);
    chain.add(lock_, CpuCat::Dsa, usecs(1), lead);
    chain.add(other, CpuCat::Vi, usecs(3), lead, Charge{usecs(4),
                                                          CpuCat::Other});
    chain.add(lock_, CpuCat::Dsa, usecs(5));
    uint64_t events = 0;
    Tick exit = -1;
    sim::spawn([](CpuPool &p, sim::Simulation &s, SyncChain c,
                  uint64_t &out, Tick &when) -> Task<> {
        CpuLease lease = co_await p.acquire();
        const uint64_t before = s.queue().firedCount();
        co_await SimLock::syncChain(lease, c);
        out = s.queue().firedCount() - before;
        when = s.now();
        p.release();
    }(pool_, sim_, chain, events, exit));
    sim_.run();
    const Tick ops = costs_.lock_acquire + costs_.lock_release;
    EXPECT_EQ(events, 1u);
    EXPECT_EQ(exit, usecs(2 + 1 + 2 + 3 + 4 + 5) + 3 * ops);
    EXPECT_EQ(lock_.acquisitionCount(), 2u);
    EXPECT_EQ(other.acquisitionCount(), 1u);
    EXPECT_EQ(lock_.contendedCount() + other.contendedCount(), 0u);
    EXPECT_EQ(pool_.busyTime(CpuCat::Lock), 3 * ops);
    EXPECT_EQ(pool_.busyTime(CpuCat::Dsa), usecs(6));
}

TEST_F(SimLockTest, ChainMatchesSequentialPairsUnderContention)
{
    // A three-step chain over locks A and B, each step with charges
    // beside it, runs against holders that make its first two steps
    // spin. Its exit, spin time, contention counts and busyTime of
    // every category, sampled one tick before, on and after every
    // step boundary, must equal those of the same steps run as one
    // syncPair after another. Repeated with a window reset inside
    // each step (and with none).
    struct Outcome
    {
        Tick exit;
        Tick wait_a, wait_b;
        uint64_t contended_a, contended_b;
        std::vector<Tick> busy; ///< per sample, per category
        std::vector<Tick> exits; ///< per step (sequential run only)
    };
    auto run = [&](bool chained, Tick reset,
                   const std::vector<Tick> &samples) {
        sim::Simulation s;
        CpuPool pool(s, 8, "cpu");
        SimLock a(s, costs_, "a");
        SimLock b(s, costs_, "b");
        SyncChain chain;
        Charges lead0;
        lead0.add(usecs(1), CpuCat::Kernel);
        lead0.add(usecs(2), CpuCat::Other);
        chain.add(a, CpuCat::Sql, usecs(3), lead0);
        Charges lead1;
        lead1.add(usecs(1), CpuCat::Vi);
        chain.add(b, CpuCat::Vi, usecs(2), lead1,
                  Charge{usecs(2), CpuCat::Dsa});
        chain.add(a, CpuCat::Dsa, usecs(1), Charges(),
                  Charge{usecs(3), CpuCat::Kernel});
        // H holds A from tick 0; G reaches B while step 1 would run.
        sim::spawn(timedPair(s, pool, a, 0, usecs(10)));
        sim::spawn(timedPair(s, pool, b, usecs(13), usecs(8)));
        Outcome out{};
        if (chained)
            sim::spawn(timedChain(s, pool, chain, 0, &out.exit));
        else
            sim::spawn(sequentialPairs(s, pool, chain, 0, &out.exits));
        if (reset >= 0)
            s.queue().scheduleAt(reset, [&pool] { pool.resetStats(); });
        out.busy.resize(samples.size() * kCpuCatCount);
        for (size_t i = 0; i < samples.size(); ++i) {
            s.queue().scheduleAt(samples[i], [&out, &pool, i] {
                for (size_t c = 0; c < kCpuCatCount; ++c) {
                    out.busy[i * kCpuCatCount + c] =
                        pool.busyTime(static_cast<CpuCat>(c));
                }
            });
        }
        s.run();
        if (!chained)
            out.exit = out.exits.back();
        out.wait_a = a.totalWait();
        out.wait_b = b.totalWait();
        out.contended_a = a.contendedCount();
        out.contended_b = b.contendedCount();
        return out;
    };
    // Step boundaries from the sequential run: each step's call, the
    // end of its before charges, its arrival, batch end and exit.
    const Outcome probe = run(false, -1, {});
    ASSERT_EQ(probe.exits.size(), 3u);
    const Tick acquire = costs_.lock_acquire;
    const std::vector<Tick> calls = {0, probe.exits[0], probe.exits[1]};
    const std::vector<Tick> leads = {usecs(3), usecs(1), 0};
    const std::vector<Tick> afters = {0, usecs(2), usecs(3)};
    std::vector<Tick> samples;
    for (size_t k = 0; k < 3; ++k) {
        for (const Tick b : {calls[k], calls[k] + leads[k],
                             calls[k] + leads[k] + acquire,
                             probe.exits[k] - afters[k], probe.exits[k]}) {
            for (const Tick d : {Tick{-1}, Tick{0}, Tick{1}}) {
                if (b + d >= 0)
                    samples.push_back(b + d);
            }
        }
    }
    std::vector<Tick> resets = {-1};
    for (size_t k = 0; k < 3; ++k)
        resets.push_back(calls[k] + (probe.exits[k] - calls[k]) / 2 + 7);
    ASSERT_GT(probe.wait_a, 0);
    ASSERT_GT(probe.wait_b, 0);
    for (const Tick reset : resets) {
        std::vector<Tick> kept;
        for (const Tick t : samples) {
            if (t != reset)
                kept.push_back(t);
        }
        const Outcome seq = run(false, reset, kept);
        const Outcome chain = run(true, reset, kept);
        EXPECT_EQ(chain.exit, seq.exit) << "reset " << reset;
        EXPECT_EQ(chain.wait_a, seq.wait_a) << "reset " << reset;
        EXPECT_EQ(chain.wait_b, seq.wait_b) << "reset " << reset;
        EXPECT_EQ(chain.contended_a, seq.contended_a);
        EXPECT_EQ(chain.contended_b, seq.contended_b);
        for (size_t i = 0; i < chain.busy.size(); ++i) {
            EXPECT_EQ(chain.busy[i], seq.busy[i])
                << cpuCatName(static_cast<CpuCat>(i % kCpuCatCount))
                << " at " << kept[i / kCpuCatCount] << ", reset "
                << reset;
        }
    }
}

TEST_F(SimLockTest, OvertakingContenderRePlacesLaterSteps)
{
    // C's chain (A, then B) is placed at tick 0 with step 0 behind a
    // 5 us before charge. X calls A at 1 us with none and overtakes
    // it: step 0 is pushed back behind X, and step 1 on B is placed
    // again behind it. C exits as the sequential pairs would, and
    // nothing fires early: the acquire arbitration, two sleeps, X's
    // exit and C's.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    SimLock b(sim_, costs_, "b");
    SyncChain chain;
    Charges slow;
    slow.add(usecs(5), CpuCat::Kernel);
    chain.add(lock_, CpuCat::Dsa, usecs(2), slow);
    chain.add(b, CpuCat::Dsa, usecs(3));
    std::vector<Tick> exits(2, -1);
    sim::spawn(timedChain(sim_, pool_, chain, 0, &exits[0]));
    sim::spawn(timedPair(sim_, pool_, lock_, usecs(1), usecs(8),
                         &exits[1]));
    sim_.run();
    const Tick x_exit = usecs(1) + acquire + usecs(8) + release;
    ASSERT_LT(usecs(5) + acquire, x_exit);
    const Tick step0_end = x_exit + usecs(2) + release;
    const Tick c_exit = step0_end + acquire + usecs(3) + release;
    EXPECT_EQ(exits, (std::vector<Tick>{c_exit, x_exit}));
    EXPECT_EQ(lock_.totalWait(), x_exit - (usecs(5) + acquire));
    EXPECT_EQ(b.contendedCount(), 0u);
    EXPECT_EQ(sim_.queue().firedCount(), 5u);
}

TEST_F(SimLockTest, WithdrawnStepPullsLaterBatchEarlier)
{
    // C's chain (A, then B) is placed at tick 0; Y, calling B at 0
    // behind an 8 us before charge, arrives while C's step 1 would
    // hold B and queues behind it. X then overtakes C's step 0 on A:
    // step 1 is withdrawn from B, Y's batch moves *earlier* to its own
    // arrival (its exit re-armed there), and step 1 is placed again
    // behind it. Everyone exits as the sequential pairs would, with
    // no spin on B and one event per exit.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    ASSERT_LT(acquire + release, usecs(1));
    SimLock b(sim_, costs_, "b");
    SyncChain chain;
    Charges slow;
    slow.add(usecs(5), CpuCat::Kernel);
    chain.add(lock_, CpuCat::Dsa, usecs(2), slow);
    chain.add(b, CpuCat::Dsa, usecs(4));
    Charges later;
    later.add(usecs(8), CpuCat::Kernel);
    const Charge no_after;
    std::vector<Tick> exits(3, -1);
    sim::spawn(timedChain(sim_, pool_, chain, 0, &exits[0]));
    sim::spawn(chargedPair(sim_, pool_, b, 0, usecs(1), later, no_after,
                           &exits[1]));
    sim::spawn(timedPair(sim_, pool_, lock_, usecs(1), usecs(10),
                         &exits[2]));
    sim_.run();
    const Tick x_exit = usecs(1) + acquire + usecs(10) + release;
    const Tick y_arrival = usecs(8) + acquire;
    // Placed at tick 0, step 1 would have held B across Y's arrival.
    const Tick first_step1 = usecs(5) + acquire + usecs(2) + release +
                             acquire;
    ASSERT_LT(first_step1, y_arrival);
    ASSERT_GT(first_step1 + usecs(4) + release, y_arrival);
    const Tick y_exit = y_arrival + usecs(1) + release;
    const Tick step1_arrival = x_exit + usecs(2) + release + acquire;
    ASSERT_GT(step1_arrival, y_exit);
    const Tick c_exit = step1_arrival + usecs(4) + release;
    EXPECT_EQ(exits, (std::vector<Tick>{c_exit, y_exit, x_exit}));
    EXPECT_EQ(b.totalWait(), 0);
    EXPECT_EQ(b.contendedCount(), 0u);
    // The acquire arbitration, three sleeps, three exits.
    EXPECT_EQ(sim_.queue().firedCount(), 7u);
}

TEST_F(SimLockTest, StepWithdrawnFromSharedBatchPullsLaterBatchEarlier)
{
    // As above, but C's step 1 first lands on the tick Y reaches B,
    // so the two share a batch, and Z queues behind it. When X pushes
    // C's step 0 back, step 1 leaves the shared batch: Y's batch ends
    // sooner and Z's batch moves earlier, to its own arrival.
    const Tick acquire = costs_.lock_acquire;
    const Tick release = costs_.lock_release;
    ASSERT_LT(acquire + release, usecs(1));
    SimLock b(sim_, costs_, "b");
    SyncChain chain;
    Charges slow;
    slow.add(usecs(5), CpuCat::Kernel);
    chain.add(lock_, CpuCat::Dsa, usecs(2), slow);
    chain.add(b, CpuCat::Dsa, usecs(4));
    const Tick first_step1 = usecs(7) + 2 * acquire + release;
    const Tick z_arrival = first_step1 + usecs(2);
    Charges y_lead;
    y_lead.add(first_step1 - acquire, CpuCat::Kernel);
    Charges z_lead;
    z_lead.add(z_arrival - acquire, CpuCat::Kernel);
    const Charge no_after;
    std::vector<Tick> exits(4, -1);
    sim::spawn(timedChain(sim_, pool_, chain, 0, &exits[0]));
    sim::spawn(chargedPair(sim_, pool_, b, 0, usecs(1), y_lead, no_after,
                           &exits[1]));
    sim::spawn(chargedPair(sim_, pool_, b, 0, usecs(1), z_lead, no_after,
                           &exits[2]));
    sim::spawn(timedPair(sim_, pool_, lock_, usecs(1), usecs(10),
                         &exits[3]));
    sim_.run();
    const Tick x_exit = usecs(1) + acquire + usecs(10) + release;
    const Tick y_exit = first_step1 + usecs(1) + release;
    const Tick z_exit = z_arrival + usecs(1) + release;
    // Shared with step 1, Y's batch would have run past Z's arrival.
    ASSERT_GT(y_exit + usecs(4) + release, z_arrival);
    const Tick step1_arrival = x_exit + usecs(2) + release + acquire;
    ASSERT_GT(step1_arrival, z_exit);
    const Tick c_exit = step1_arrival + usecs(4) + release;
    EXPECT_EQ(exits, (std::vector<Tick>{c_exit, y_exit, z_exit, x_exit}));
    EXPECT_EQ(b.totalWait(), 0);
    // The acquire arbitration, four sleeps, four exits.
    EXPECT_EQ(sim_.queue().firedCount(), 9u);
}

TEST_F(SimLockTest, SameTickChainsAcrossTwoLocksAreOrderInvariant)
{
    // Four chains call on one tick (independent sleeps, permuted by
    // the tie shuffle), two taking A then B and two B then A, while D
    // holds A. Exits, spin and contention must not depend on the seed
    // and must equal those of the same steps run as sequential pairs.
    struct Outcome
    {
        std::vector<Tick> exits;
        Tick wait;
        uint64_t contended;

        bool
        operator==(const Outcome &o) const
        {
            return exits == o.exits && wait == o.wait &&
                   contended == o.contended;
        }
    };
    auto measure = [&](uint64_t tie_seed, bool chained) {
        sim::Simulation s;
        s.queue().setTieShuffle(tie_seed);
        CpuPool pool(s, 8, "cpu");
        SimLock a(s, costs_, "a");
        SimLock b(s, costs_, "b");
        std::vector<Tick> exits(5, -1);
        std::vector<std::vector<Tick>> steps(4);
        for (int i = 0; i < 4; ++i) {
            SyncChain chain;
            SimLock &first = i < 2 ? a : b;
            SimLock &second = i < 2 ? b : a;
            Charges lead;
            lead.add(usecs(1) * i, CpuCat::Other);
            chain.add(first, CpuCat::Dsa, usecs(1) * (i + 1));
            chain.add(second, CpuCat::Vi, usecs(2), lead);
            if (chained) {
                sim::spawn(timedChain(s, pool, chain, usecs(5),
                                      &exits[static_cast<size_t>(i)]));
            } else {
                sim::spawn(sequentialPairs(s, pool, chain, usecs(5),
                                           &steps[static_cast<size_t>(i)]));
            }
        }
        sim::spawn(timedPair(s, pool, a, usecs(4), usecs(3), &exits[4]));
        s.run();
        if (!chained) {
            for (size_t i = 0; i < 4; ++i)
                exits[i] = steps[i].back();
        }
        return Outcome{exits, a.totalWait() + b.totalWait(),
                       a.contendedCount() + b.contendedCount()};
    };
    const Outcome expected = measure(1, false);
    EXPECT_GT(expected.contended, 0u);
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        EXPECT_EQ(measure(seed, true), expected) << "tie seed " << seed;
        EXPECT_EQ(measure(seed, false), expected) << "tie seed " << seed;
    }
}

TEST_F(SimLockTest, LargePlatformPairsCostMore)
{
    const HostCosts mid = HostCosts::midSize();
    const HostCosts large = HostCosts::large();
    EXPECT_GT(large.lock_acquire, mid.lock_acquire);
    EXPECT_GT(large.lock_release, mid.lock_release);
    EXPECT_GT(large.probe_lock_page, mid.probe_lock_page);
}

} // namespace
} // namespace v3sim::osmodel
