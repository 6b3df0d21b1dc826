/**
 * @file
 * Unit tests for the discrete-event queue: ordering, determinism,
 * cancellation, time-bounded execution, the tick arbiter dispatch and
 * per-category event counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/tick_arbiter.hh"

namespace v3sim::sim
{
namespace
{

TEST(EventQueue, StartsAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(usecs(30), [&] { order.push_back(3); });
    q.schedule(usecs(10), [&] { order.push_back(1); });
    q.schedule(usecs(20), [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), usecs(30));
}

TEST(EventQueue, SameTimeEventsFireFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(usecs(5), [&, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NegativeDelayClampsToNow)
{
    EventQueue q;
    q.schedule(usecs(10), [] {});
    q.run();
    Tick fired_at = -1;
    q.schedule(-usecs(5), [&] { fired_at = q.now(); });
    q.run();
    EXPECT_EQ(fired_at, usecs(10));
}

TEST(EventQueue, ScheduleAtAbsoluteTime)
{
    EventQueue q;
    Tick fired_at = -1;
    q.scheduleAt(msecs(2), [&] { fired_at = q.now(); });
    q.run();
    EXPECT_EQ(fired_at, msecs(2));
}

TEST(EventQueue, ScheduleAtPastClampsToNow)
{
    EventQueue q;
    q.schedule(usecs(100), [] {});
    q.run();
    Tick fired_at = -1;
    q.scheduleAt(usecs(50), [&] { fired_at = q.now(); });
    q.run();
    EXPECT_EQ(fired_at, usecs(100));
}

TEST(EventQueue, EventsScheduledDuringRunAreProcessed)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.schedule(usecs(1), chain);
    };
    q.schedule(usecs(1), chain);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), usecs(5));
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive)
{
    EventQueue q;
    int fired = 0;
    q.schedule(usecs(10), [&] { ++fired; });
    q.schedule(usecs(20), [&] { ++fired; });
    q.schedule(usecs(21), [&] { ++fired; });
    q.runUntil(usecs(20));
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), usecs(20));
    q.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenEmpty)
{
    EventQueue q;
    q.runUntil(secs(1));
    EXPECT_EQ(q.now(), secs(1));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    bool fired = false;
    auto handle = q.scheduleCancelable(usecs(10), [&] { fired = true; });
    EXPECT_TRUE(handle.pending());
    handle.cancel();
    EXPECT_FALSE(handle.pending());
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelledEventIsNotCountedAsFired)
{
    // A cancelled event still pops at its tick, but counts in no
    // category; the live one counts in the category it was given.
    EventQueue q;
    auto cancelled = q.scheduleAtCancelable(usecs(10), [] {},
                                            EventCategory::Fabric);
    q.scheduleAtCancelable(usecs(20), [] {}, EventCategory::Fabric);
    cancelled.cancel();
    q.run();
    EXPECT_EQ(q.firedCount(EventCategory::Fabric), 1u);
    EXPECT_EQ(q.firedCount(), 1u);
}

TEST(EventQueue, CancelledEventDoesNotMoveTheClock)
{
    // A run that drains on a cancelled event ends at the last live
    // one, and an event scheduled afterwards below the drained
    // window (the cancelled events sat in later buckets and in the
    // overflow heap) still fires at its own tick, in order.
    EventQueue q;
    std::vector<Tick> fired;
    q.scheduleAt(usecs(3), [&] { fired.push_back(q.now()); });
    auto near = q.scheduleAtCancelable(usecs(40), [] {});
    auto far = q.scheduleAtCancelable(msecs(500), [] {});
    near.cancel();
    far.cancel();
    q.run();
    EXPECT_EQ(q.now(), usecs(3));
    for (const Tick at : {usecs(9), usecs(5), msecs(200)})
        q.scheduleAt(at, [&] { fired.push_back(q.now()); });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{usecs(3), usecs(5), usecs(9),
                                        msecs(200)}));
    EXPECT_EQ(q.now(), msecs(200));
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    bool fired = false;
    auto handle = q.scheduleCancelable(usecs(10), [&] { fired = true; });
    q.run();
    EXPECT_TRUE(fired);
    EXPECT_FALSE(handle.pending());
    handle.cancel(); // must not crash or alter anything
}

TEST(EventQueue, DefaultHandleIsInert)
{
    EventQueue::Handle handle;
    EXPECT_FALSE(handle.pending());
    handle.cancel();
}

TEST(EventQueue, RunWithMaxEventsStopsEarly)
{
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        q.schedule(usecs(i), [&] { ++fired; });
    q.run(4);
    EXPECT_EQ(fired, 4);
    q.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, FiredCountSkipsCancelled)
{
    EventQueue q;
    auto h1 = q.scheduleCancelable(usecs(1), [] {});
    q.schedule(usecs(2), [] {});
    h1.cancel();
    q.run();
    EXPECT_EQ(q.firedCount(), 1u);
}

// --- Cancellation handles (generation-counted slots) -----------------

TEST(EventQueue, HandleDestructionDoesNotCancel)
{
    EventQueue q;
    bool fired = false;
    {
        auto h = q.scheduleCancelable(usecs(1), [&] { fired = true; });
        EXPECT_TRUE(h.pending());
    } // Handle destroyed: the event must stay scheduled.
    q.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, HandleCopiesShareTheEvent)
{
    EventQueue q;
    bool fired = false;
    auto h = q.scheduleCancelable(usecs(1), [&] { fired = true; });
    auto copy = h;
    h.cancel();
    EXPECT_FALSE(copy.pending());
    q.run();
    EXPECT_FALSE(fired);
    copy.cancel(); // Stale after the pop: harmless no-op.
}

TEST(EventQueue, PendingTracksFireAndCancel)
{
    EventQueue q;
    auto fires = q.scheduleCancelable(usecs(1), [] {});
    auto cancelled = q.scheduleCancelable(usecs(2), [] {});
    EXPECT_TRUE(fires.pending());
    EXPECT_TRUE(cancelled.pending());
    cancelled.cancel();
    EXPECT_FALSE(cancelled.pending());
    q.run();
    EXPECT_FALSE(fires.pending());
    EXPECT_FALSE(cancelled.pending());
}

TEST(EventQueue, StaleHandleIsInertAfterSlotReuse)
{
    EventQueue q;
    auto h1 = q.scheduleCancelable(usecs(1), [] {});
    q.run(); // Frees the slot and bumps its generation.
    bool fired = false;
    auto h2 = q.scheduleCancelable(usecs(1), [&] { fired = true; });
    ASSERT_EQ(q.controlSlotCount(), 1u); // Same slot, new generation.
    EXPECT_FALSE(h1.pending());
    h1.cancel(); // Must not cancel the slot's new occupant.
    EXPECT_TRUE(h2.pending());
    q.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, FastPathAllocatesNoControlSlots)
{
    EventQueue q;
    for (int i = 0; i < 1000; ++i)
        q.schedule(usecs(i), [] {});
    q.scheduleAt(msecs(2), [] {});
    q.scheduleFinal([] {});
    q.run();
    // The acceptance guarantee: fire-and-forget scheduling never
    // touches a control slot.
    EXPECT_EQ(q.controlSlotCount(), 0u);

    // Cancelable events recycle one slot rather than growing the pool.
    for (int i = 0; i < 100; ++i) {
        auto h = q.scheduleCancelable(usecs(1), [] {});
        EXPECT_TRUE(h.pending());
        q.run();
    }
    EXPECT_EQ(q.controlSlotCount(), 1u);
}

// --- Ladder regions: bucket window and overflow migration ------------

namespace
{

/** Absolute tick width of the bucket window from a fresh queue:
 *  8192 buckets x 8192 ns (see EventQueue's geometry constants). */
constexpr Tick kWindow = Tick(8192) * 8192;

} // namespace

TEST(EventQueue, OverflowStartsAtTheWindowBoundary)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.scheduleAt(kWindow - 1, [&] { fired.push_back(q.now()); });
    EXPECT_EQ(q.overflowCount(), 0u); // Last in-window tick.
    q.scheduleAt(kWindow, [&] { fired.push_back(q.now()); });
    EXPECT_EQ(q.overflowCount(), 1u); // First out-of-window tick.
    q.scheduleAt(kWindow + 1, [&] { fired.push_back(q.now()); });
    EXPECT_EQ(q.overflowCount(), 2u);
    q.scheduleAt(1, [&] { fired.push_back(q.now()); });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{1, kWindow - 1, kWindow,
                                        kWindow + 1}));
    EXPECT_EQ(q.overflowCount(), 0u);
}

TEST(EventQueue, OverflowIsNotOvertakenByTheAdvancingWindow)
{
    // Regression: an overflow event whose bucket the advancing window
    // catches up with must still fire before any later bucket event.
    EventQueue q;
    std::vector<Tick> fired;
    const Tick far = kWindow;           // Just past the initial window.
    const Tick later = kWindow + msecs(1); // In-window once it grows.
    q.scheduleAt(far, [&] { fired.push_back(q.now()); });
    ASSERT_EQ(q.overflowCount(), 1u);
    // Fire an event near the window's end so melting it slides the
    // window past `far` and `later`.
    q.scheduleAt(kWindow - 1, [&] { fired.push_back(q.now()); });
    q.runUntil(kWindow - 1);
    // runUntil's stop-check peeked at the next event, which already
    // migrated `far` out of the overflow heap (via the bucket ring)
    // into the sorted bottom region.
    EXPECT_EQ(q.overflowCount(), 0u);
    q.scheduleAt(later, [&] { fired.push_back(q.now()); });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{kWindow - 1, far, later}));
}

TEST(EventQueue, ManyWindowRebasesKeepGlobalOrder)
{
    // Pseudorandom times across ~10 windows force repeated
    // bucket-ring wraps, overflow migrations and rebases; the firing
    // sequence must still be (when, seq)-sorted.
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    uint64_t x = 12345;
    for (int i = 0; i < 2000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Tick when = static_cast<Tick>(x % (10 * kWindow));
        q.scheduleAt(when, [&fired, &q, i] {
            fired.emplace_back(q.now(), i);
        });
    }
    q.run();
    ASSERT_EQ(fired.size(), 2000u);
    for (size_t i = 1; i < fired.size(); ++i) {
        ASSERT_LE(fired[i - 1].first, fired[i].first);
        if (fired[i - 1].first == fired[i].first) {
            ASSERT_LT(fired[i - 1].second, fired[i].second);
        }
    }
}

// --- Tie-shuffle mode (DESIGN.md §8) ---------------------------------

namespace
{

/** Schedules @p n same-tick events from distinct sources and returns
 *  the order they fired in. */
std::vector<int>
shuffledOrder(uint64_t seed, int n)
{
    EventQueue q;
    q.setTieShuffle(seed);
    std::vector<int> order;
    for (int i = 0; i < n; ++i)
        q.schedule(usecs(5), [&order, i] { order.push_back(i); });
    q.run();
    return order;
}

} // namespace

TEST(EventQueueTieShuffle, SameSeedSameOrder)
{
    const auto a = shuffledOrder(42, 32);
    const auto b = shuffledOrder(42, 32);
    EXPECT_EQ(a, b);
}

TEST(EventQueueTieShuffle, RankIsIndependentOfStorageRegion)
{
    // The shuffled rank is a pure function of (seed, seq): events
    // that migrate through the overflow heap (far-future tick) must
    // fire in the same permutation as bucket-resident ones.
    auto orderAt = [](Tick when, uint64_t seed) {
        EventQueue q;
        q.setTieShuffle(seed);
        std::vector<int> order;
        for (int i = 0; i < 16; ++i)
            q.scheduleAt(when, [&order, i] { order.push_back(i); });
        return (q.run(), order);
    };
    const auto near = orderAt(usecs(5), 99);     // Bucket region.
    const auto far = orderAt(msecs(500), 99);    // Overflow region.
    EXPECT_EQ(near, far);
    EXPECT_NE(near, orderAt(usecs(5), 100)); // ... and is a shuffle.
}

TEST(EventQueueTieShuffle, DifferentSeedsPermute)
{
    const auto a = shuffledOrder(1, 32);
    const auto b = shuffledOrder(2, 32);
    // Both are permutations of 0..31 ...
    auto sorted_a = a;
    auto sorted_b = b;
    std::sort(sorted_a.begin(), sorted_a.end());
    std::sort(sorted_b.begin(), sorted_b.end());
    std::vector<int> expect(32);
    for (int i = 0; i < 32; ++i)
        expect[static_cast<size_t>(i)] = i;
    EXPECT_EQ(sorted_a, expect);
    EXPECT_EQ(sorted_b, expect);
    // ... but different ones (32! orderings; a collision would mean
    // the seed is not reaching the rank hash).
    EXPECT_NE(a, b);
    // And neither is plain FIFO.
    EXPECT_NE(a, expect);
}

TEST(EventQueueTieShuffle, TimeOrderStillRespected)
{
    EventQueue q;
    q.setTieShuffle(7);
    Tick last = -1;
    bool monotone = true;
    for (int i = 0; i < 1000; ++i) {
        const Tick when = usecs((i * 7919) % 50);
        q.scheduleAt(when, [&, when] {
            monotone = monotone && when >= last;
            last = when;
        });
    }
    q.run();
    EXPECT_TRUE(monotone);
}

TEST(EventQueueTieShuffle, ZeroDelayKeepsDocumentedOrdering)
{
    // The schedule(0) contract — "fires this tick, after
    // already-queued same-time events" — must hold under shuffle:
    // zero-delay events are continuations, not races.
    EventQueue q;
    q.setTieShuffle(99);
    std::vector<int> order;
    q.schedule(usecs(5), [&] {
        order.push_back(0);
        q.schedule(0, [&] { order.push_back(2); });
        q.schedule(0, [&] { order.push_back(3); });
    });
    q.schedule(usecs(5), [&] { order.push_back(1); });
    q.run();
    // The two top-level events may fire in either order, but both
    // precede the zero-delay continuations, which stay FIFO.
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[2], 2);
    EXPECT_EQ(order[3], 3);
    EXPECT_TRUE((order[0] == 0 && order[1] == 1) ||
                (order[0] == 1 && order[1] == 0));
}

TEST(EventQueueTieShuffle, FinalBandClosesOutTheTick)
{
    // scheduleFinal: fires after every other event of the tick —
    // shuffled future-tick arrivals AND their zero-delay continuation
    // chains — with FIFO order among final events themselves. This is
    // the arbitration hook (disk pick, lock grant): by the time a
    // final event runs, the full same-tick contender set is visible.
    EventQueue q;
    q.setTieShuffle(7);
    std::vector<int> order;
    q.schedule(usecs(5), [&] {
        order.push_back(0);
        q.scheduleFinal([&] { order.push_back(10); });
        q.schedule(0, [&] { order.push_back(2); });
    });
    q.schedule(usecs(5), [&] {
        order.push_back(1);
        q.schedule(0, [&] { order.push_back(3); });
        q.scheduleFinal([&] { order.push_back(11); });
    });
    q.run();
    ASSERT_EQ(order.size(), 6u);
    // Final events last, FIFO among themselves by creation order.
    EXPECT_TRUE((order[4] == 10 && order[5] == 11) ||
                (order[4] == 11 && order[5] == 10));
    // Zero-delay continuations still precede the final band.
    EXPECT_TRUE(order[2] == 2 || order[2] == 3);
    EXPECT_TRUE(order[3] == 2 || order[3] == 3);
}

TEST(EventQueueTieShuffle, ZeroDelaySpawnedByFinalPrecedesNextFinal)
{
    // A final event's own zero-delay chains complete before the next
    // final event of the tick: one arbitration point sees the effects
    // of chains another arbitration kicked off.
    EventQueue q;
    q.setTieShuffle(5);
    std::vector<int> order;
    q.schedule(usecs(1), [&] {
        q.scheduleFinal([&] {
            order.push_back(0);
            q.schedule(0, [&] { order.push_back(1); });
        });
        q.scheduleFinal([&] { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, FinalBandWorksWithoutShuffle)
{
    // Same semantics in plain FIFO mode: the band, not the shuffle,
    // defines "end of tick".
    EventQueue q;
    std::vector<int> order;
    q.schedule(usecs(1), [&] {
        q.scheduleFinal([&] { order.push_back(2); });
        q.schedule(0, [&] { order.push_back(1); });
        order.push_back(0);
    });
    q.schedule(usecs(2), [&] { order.push_back(3); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueTieShuffle, ClearRestoresFifo)
{
    EventQueue q;
    q.setTieShuffle(13);
    EXPECT_TRUE(q.tieShuffleEnabled());
    q.clearTieShuffle();
    EXPECT_FALSE(q.tieShuffleEnabled());
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(usecs(5), [&, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Tick last = -1;
    bool monotone = true;
    for (int i = 0; i < 10000; ++i) {
        const Tick when = usecs((i * 7919) % 1000);
        q.scheduleAt(when, [&, when] {
            if (when < last)
                monotone = false;
            last = when;
        });
    }
    q.run();
    EXPECT_TRUE(monotone);
}

/** A tick arbiter whose pass logs its id and runs an optional
 *  action. */
struct LoggingArbiter : TickArbiter
{
    LoggingArbiter(EventQueue &queue, std::vector<uint32_t> &log)
        : TickArbiter(queue,
                      [](TickArbiter &self) {
                          auto &me = static_cast<LoggingArbiter &>(self);
                          me.log.push_back(me.arbiterId());
                          if (me.onPass)
                              me.onPass();
                      }),
          log(log)
    {}

    std::vector<uint32_t> &log;
    std::function<void()> onPass;
};

TEST(TickArbiter, ManyMarksInOneTickCostOneEvent)
{
    EventQueue q;
    std::vector<uint32_t> log;
    std::vector<std::unique_ptr<LoggingArbiter>> arbiters;
    for (int i = 0; i < 6; ++i)
        arbiters.push_back(std::make_unique<LoggingArbiter>(q, log));
    // Marks from three same-tick events, each arbiter marked twice.
    for (int e = 0; e < 3; ++e) {
        q.schedule(usecs(1), [&, e] {
            for (int i = e; i < 6; i += 3) {
                arbiters[i]->markDirty();
                arbiters[i]->markDirty();
            }
        });
        q.schedule(usecs(1), [] {});
    }
    EXPECT_EQ(q.run(), 7u); // six plain events plus one dispatch
    EXPECT_EQ(q.firedCount(EventCategory::TickDispatch), 1u);
    EXPECT_EQ(q.dispatchTicks(), 1u);
    EXPECT_EQ(log, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(TickArbiter, DispatchOrderIsRegistrationIdWhateverTheMarkOrder)
{
    // Marks arrive from separate same-tick events (a race the tie
    // shuffle permutes) and in a scrambled order; the passes always
    // run lowest registration id first.
    const std::vector<int> mark_order = {3, 0, 4, 1, 2};
    for (uint64_t seed = 0; seed < 6; ++seed) {
        EventQueue q;
        if (seed != 0)
            q.setTieShuffle(seed);
        std::vector<uint32_t> log;
        std::vector<std::unique_ptr<LoggingArbiter>> arbiters;
        for (int i = 0; i < 5; ++i)
            arbiters.push_back(std::make_unique<LoggingArbiter>(q, log));
        for (int i : mark_order)
            q.schedule(usecs(2), [&, i] { arbiters[i]->markDirty(); });
        q.run();
        EXPECT_EQ(log, (std::vector<uint32_t>{0, 1, 2, 3, 4}))
            << "tie seed " << seed;
        EXPECT_EQ(q.firedCount(EventCategory::TickDispatch), 1u);
    }
}

TEST(TickArbiter, MarkDuringDispatchRunsAgainInSameEvent)
{
    EventQueue q;
    std::vector<uint32_t> log;
    LoggingArbiter low(q, log);
    LoggingArbiter high(q, log);
    int high_passes = 0;
    high.onPass = [&] {
        // The first pass marks a lower id and itself: both run again
        // inside this dispatch, lower id first.
        if (++high_passes == 1) {
            low.markDirty();
            high.markDirty();
        }
    };
    q.schedule(usecs(1), [&] { high.markDirty(); });
    q.run();
    EXPECT_EQ(log, (std::vector<uint32_t>{1, 0, 1}));
    EXPECT_EQ(q.firedCount(EventCategory::TickDispatch), 1u);
}

TEST(TickArbiter, ZeroDelaySpawnFromDispatchCostsOneMoreDispatch)
{
    EventQueue q;
    std::vector<uint32_t> log;
    LoggingArbiter first(q, log);
    LoggingArbiter second(q, log);
    bool spawned = false;
    first.onPass = [&] {
        if (spawned)
            return;
        spawned = true;
        // Fires after the dispatch, same tick; its marks need (and
        // get) exactly one more dispatch.
        q.schedule(0, [&] {
            second.markDirty();
            first.markDirty();
        });
    };
    q.schedule(usecs(3), [&] { first.markDirty(); });
    q.run();
    EXPECT_EQ(log, (std::vector<uint32_t>{0, 0, 1}));
    EXPECT_EQ(q.firedCount(EventCategory::TickDispatch), 2u);
    EXPECT_EQ(q.dispatchTicks(), 1u);
    EXPECT_EQ(q.now(), usecs(3));
}

TEST(TickArbiter, DispatchFollowsTheTicksOtherEvents)
{
    // The dispatch is a final-band event: a same-tick event scheduled
    // after the mark, and its zero-delay chain, still run first.
    EventQueue q;
    std::vector<uint32_t> log;
    LoggingArbiter arbiter(q, log);
    std::vector<int> order;
    arbiter.onPass = [&] { order.push_back(9); };
    q.schedule(usecs(1), [&] {
        arbiter.markDirty();
        q.schedule(0, [&] { order.push_back(1); });
    });
    q.schedule(usecs(1), [&] { order.push_back(0); });
    q.schedule(usecs(2), [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 2}));
}

TEST(TickArbiter, DispatchOpensTheFinalBand)
{
    // A finalBand() check queued before the tick's first mark still
    // runs after the dispatch, under any tie seed; a mark made by
    // that check gets a dispatch ahead of the next check.
    for (uint64_t seed = 0; seed < 4; ++seed) {
        EventQueue q;
        if (seed != 0)
            q.setTieShuffle(seed);
        std::vector<uint32_t> log;
        LoggingArbiter arbiter(q, log);
        std::vector<int> order;
        arbiter.onPass = [&] { order.push_back(0); };
        q.schedule(usecs(1), [&] {
            q.scheduleFinal([&] {
                order.push_back(1);
                arbiter.markDirty();
            });
            q.scheduleFinal([&] { order.push_back(2); });
        });
        q.schedule(usecs(1), [&] { arbiter.markDirty(); });
        q.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 2}))
            << "tie seed " << seed;
    }
}

TEST(TickArbiter, WithdrawnArbiterIsSkipped)
{
    EventQueue q;
    std::vector<uint32_t> log;
    LoggingArbiter kept(q, log);
    auto gone = std::make_unique<LoggingArbiter>(q, log);
    q.schedule(usecs(1), [&] {
        gone->markDirty();
        kept.markDirty();
        gone.reset();
    });
    q.run();
    EXPECT_EQ(log, (std::vector<uint32_t>{0}));
}

TEST(TickArbiterDeathTest, RegistrationFromAnEventAsserts)
{
    // Debug builds check the registration rule; release builds let
    // the late arbiter register.
    EXPECT_DEBUG_DEATH(
        {
            EventQueue q;
            std::vector<uint32_t> log;
            std::unique_ptr<LoggingArbiter> late;
            q.schedule(usecs(1), [&] {
                late = std::make_unique<LoggingArbiter>(q, log);
            });
            q.run();
        },
        "registered from an event");
}

TEST(EventQueue, CountsFiredEventsPerCategory)
{
    EventQueue q;
    q.schedule(usecs(1), [] {}, EventCategory::Disk);
    q.schedule(usecs(1), [] {}, EventCategory::Disk);
    q.scheduleAt(usecs(2), [] {}, EventCategory::Fabric);
    q.schedule(usecs(3), [] {});
    EventQueue::Handle h = q.scheduleCancelable(usecs(4), [] {});
    h.cancel();
    q.run();
    EXPECT_EQ(q.firedCount(EventCategory::Disk), 2u);
    EXPECT_EQ(q.firedCount(EventCategory::Fabric), 1u);
    EXPECT_EQ(q.firedCount(EventCategory::Other), 1u);
    EXPECT_EQ(q.firedCount(), 4u);
    EXPECT_STREQ(eventCategoryName(EventCategory::TickDispatch),
                 "tick_dispatch");
}

} // namespace
} // namespace v3sim::sim
