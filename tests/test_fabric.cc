/**
 * @file
 * Unit tests for the network fabric: latency, serialization,
 * ordering, the receive engine's placement, port failure, drop
 * filter, statistics, and the events a packet costs.
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "net/fabric.hh"
#include "sim/memory.hh"
#include "sim/simulation.hh"
#include "vi/vi_nic.hh"

namespace v3sim::net
{
namespace
{

using sim::Tick;
using sim::usecs;

struct TestMsg
{
    int value;
};

/** Sends a packet of @p bytes carrying @p value from @p src to
 *  @p dst. */
void
sendMsg(Fabric &fabric, PortId src, PortId dst, uint64_t bytes,
        int value)
{
    Packet packet;
    packet.src = src;
    packet.dst = dst;
    packet.wire_bytes = bytes;
    packet.payload = std::make_shared<TestMsg>(TestMsg{value});
    fabric.send(std::move(packet));
}

int
valueOf(const Packet &packet)
{
    return std::static_pointer_cast<TestMsg>(packet.payload)->value;
}

class FabricTest : public ::testing::Test
{
  protected:
    sim::Simulation sim_;
};

TEST_F(FabricTest, DeliversWithPropagationAndSerialization)
{
    FabricConfig config;
    config.bandwidth_bps = 100e6; // 100 bytes / us
    config.propagation = usecs(2);
    Fabric fabric(sim_.queue(), config);

    Tick delivered_at = -1;
    const PortId a = fabric.attach([](Packet) {}, "a");
    const PortId b = fabric.attach(
        [&](Packet) { delivered_at = sim_.now(); }, "b");

    Packet packet;
    packet.src = a;
    packet.dst = b;
    packet.wire_bytes = 1000; // 10 us serialization
    fabric.send(std::move(packet));
    sim_.run();
    EXPECT_EQ(delivered_at, usecs(12));
}

TEST_F(FabricTest, PayloadArrivesIntact)
{
    Fabric fabric(sim_.queue());
    int got = 0;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([&](Packet p) {
        got = std::static_pointer_cast<TestMsg>(p.payload)->value;
    });

    Packet packet;
    packet.src = a;
    packet.dst = b;
    packet.wire_bytes = 64;
    packet.payload = std::make_shared<TestMsg>(TestMsg{99});
    fabric.send(std::move(packet));
    sim_.run();
    EXPECT_EQ(got, 99);
}

TEST_F(FabricTest, PerSourceFifoOrdering)
{
    Fabric fabric(sim_.queue());
    std::vector<int> order;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([&](Packet p) {
        order.push_back(
            std::static_pointer_cast<TestMsg>(p.payload)->value);
    });
    for (int i = 0; i < 5; ++i) {
        Packet packet;
        packet.src = a;
        packet.dst = b;
        packet.wire_bytes = 5000;
        packet.payload = std::make_shared<TestMsg>(TestMsg{i});
        fabric.send(std::move(packet));
    }
    sim_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(FabricTest, TransmitSerializationQueues)
{
    FabricConfig config;
    config.bandwidth_bps = 100e6;
    config.propagation = 0;
    Fabric fabric(sim_.queue(), config);
    std::vector<Tick> arrivals;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach(
        [&](Packet) { arrivals.push_back(sim_.now()); });
    for (int i = 0; i < 3; ++i) {
        Packet packet;
        packet.src = a;
        packet.dst = b;
        packet.wire_bytes = 1000; // 10 us each
        fabric.send(std::move(packet));
    }
    sim_.run();
    ASSERT_EQ(arrivals.size(), 3u);
    EXPECT_EQ(arrivals[0], usecs(10));
    EXPECT_EQ(arrivals[1], usecs(20));
    EXPECT_EQ(arrivals[2], usecs(30));
}

TEST_F(FabricTest, OnWireFiresAtSerializationEnd)
{
    FabricConfig config;
    config.bandwidth_bps = 100e6;
    config.propagation = usecs(5);
    Fabric fabric(sim_.queue(), config);
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([](Packet) {});
    Tick wired_at = -1;
    Packet packet;
    packet.src = a;
    packet.dst = b;
    packet.wire_bytes = 1000;
    fabric.send(std::move(packet), [&] { wired_at = sim_.now(); });
    sim_.run();
    EXPECT_EQ(wired_at, usecs(10)); // excludes propagation
}

TEST_F(FabricTest, DropFilterDiscardsButCountsWire)
{
    Fabric fabric(sim_.queue());
    int delivered = 0;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([&](Packet) { ++delivered; });
    fabric.setDropFilter(
        [&](const Packet &p) { return p.dst == b; });

    bool on_wire_fired = false;
    Packet packet;
    packet.src = a;
    packet.dst = b;
    packet.wire_bytes = 64;
    fabric.send(std::move(packet), [&] { on_wire_fired = true; });
    sim_.run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(fabric.packetsDropped(), 1u);
    EXPECT_TRUE(on_wire_fired); // sender cannot tell
}

TEST_F(FabricTest, InvalidPortDrops)
{
    Fabric fabric(sim_.queue());
    const PortId a = fabric.attach([](Packet) {});
    Packet packet;
    packet.src = a;
    packet.dst = 42; // never attached
    packet.wire_bytes = 64;
    fabric.send(std::move(packet));
    sim_.run();
    EXPECT_EQ(fabric.packetsDropped(), 1u);
}

TEST_F(FabricTest, StatisticsAccumulate)
{
    Fabric fabric(sim_.queue());
    const PortId a = fabric.attach([](Packet) {}, "client");
    const PortId b = fabric.attach([](Packet) {}, "server");
    for (int i = 0; i < 4; ++i) {
        Packet packet;
        packet.src = a;
        packet.dst = b;
        packet.wire_bytes = 256;
        fabric.send(std::move(packet));
    }
    sim_.run();
    EXPECT_EQ(fabric.bytesSent(a), 1024u);
    EXPECT_EQ(fabric.packetsDelivered(b), 4u);
    EXPECT_EQ(fabric.portName(a), "client");
    EXPECT_GT(fabric.txUtilization(a), 0.0);
}

TEST_F(FabricTest, TxUtilizationReadsBusyFraction)
{
    FabricConfig config;
    config.bandwidth_bps = 100e6; // 100 bytes / us
    Fabric fabric(sim_.queue(), config);
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([](Packet) {});
    sendMsg(fabric, a, b, 1000, 0); // 10 us on the wire
    sendMsg(fabric, a, b, 1000, 1); // queued behind it
    sim_.runUntil(usecs(5));
    EXPECT_DOUBLE_EQ(fabric.txUtilization(a), 1.0);
    sim_.runUntil(usecs(40));
    EXPECT_DOUBLE_EQ(fabric.txUtilization(a), 0.5);
    EXPECT_DOUBLE_EQ(fabric.txUtilization(b), 0.0);
}

TEST_F(FabricTest, ZeroReceiveServicePacketCostsOneEvent)
{
    Fabric fabric(sim_.queue());
    int delivered = 0;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach([&](Packet) { ++delivered; });
    for (int i = 0; i < 5; ++i)
        sendMsg(fabric, a, b, 512, i);
    sim_.run();
    EXPECT_EQ(delivered, 5);
    EXPECT_EQ(sim_.queue().firedCount(), 5u);
    EXPECT_EQ(sim_.queue().firedCount(sim::EventCategory::Fabric), 5u);
}

TEST_F(FabricTest, ViNicPacketCostsTwoEvents)
{
    // A connect request to a NIC that refuses it: two packets, each
    // one transmit-engine event and one delivery event.
    sim::MemorySpace client_mem(true, "client");
    sim::MemorySpace server_mem(true, "server");
    Fabric fabric(sim_.queue());
    vi::ViNic client(sim_, fabric, client_mem, "cnic");
    vi::ViNic server(sim_, fabric, server_mem, "snic");
    vi::ViEndpoint &ep = client.createEndpoint(nullptr, nullptr);
    client.connect(ep, server.port());
    sim_.run();
    EXPECT_EQ(ep.state(), vi::EndpointState::Error);
    EXPECT_EQ(client.packetsSent() + server.packetsSent(), 2u);
    EXPECT_EQ(sim_.queue().firedCount(), 4u);
    EXPECT_EQ(sim_.queue().firedCount(sim::EventCategory::PoolDone), 2u);
    EXPECT_EQ(sim_.queue().firedCount(sim::EventCategory::Fabric), 2u);
}

TEST_F(FabricTest, ViNicCountsPacketOnArrivalTick)
{
    // The arrival fires no event, yet packets_received counts it on
    // its arrival tick, in snapshots and across an epoch reset.
    sim::MemorySpace client_mem(true, "client");
    sim::MemorySpace server_mem(true, "server");
    Fabric fabric(sim_.queue());
    vi::ViNic client(sim_, fabric, client_mem, "cnic");
    vi::ViNic server(sim_, fabric, server_mem, "snic");
    vi::ViEndpoint &ep = client.createEndpoint(nullptr, nullptr);
    const vi::ViCosts costs;
    const Tick arrival =
        costs.nic_tx_processing +
        sim::transferTime(costs.packet_header_bytes,
                          fabric.config().bandwidth_bps) +
        fabric.config().propagation;
    auto received = [this] {
        return sim_.metrics()
            .snapshot()
            .at("nic.snic.packets_received")
            .count;
    };
    client.connect(ep, server.port());
    sim_.runUntil(arrival - 1);
    EXPECT_EQ(server.packetsReceived(), 0u);
    EXPECT_EQ(received(), 0u);
    sim_.runUntil(arrival);
    EXPECT_EQ(server.packetsReceived(), 1u);
    EXPECT_EQ(received(), 1u);
    EXPECT_EQ(fabric.packetsDelivered(server.port()), 1u);
    EXPECT_EQ(ep.state(), vi::EndpointState::Connecting);
    // The request arrived before the new epoch, the refusal after.
    sim_.metrics().resetEpoch();
    sim_.run();
    EXPECT_EQ(ep.state(), vi::EndpointState::Error);
    EXPECT_EQ(received(), 0u);
    EXPECT_EQ(server.packetsReceived(), 0u);
    EXPECT_EQ(client.packetsReceived(), 1u);
}

TEST_F(FabricTest, SameTickArrivalsHandledInSourcePortOrder)
{
    // Two sources' packets arrive on one tick: the receive engine
    // serves them by source port, whatever the send order and tie
    // seed.
    for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
        for (const bool low_first : {true, false}) {
            sim::Simulation sim;
            sim.queue().setTieShuffle(seed);
            FabricConfig config;
            config.bandwidth_bps = 100e6;
            Fabric fabric(sim.queue(), config);
            std::vector<std::pair<int, Tick>> handled;
            const PortId low = fabric.attach([](Packet) {});
            const PortId high = fabric.attach([](Packet) {});
            const PortId dst = fabric.attach(
                [&](Packet p) {
                    handled.emplace_back(valueOf(p), sim.now());
                },
                "dst", usecs(3));
            // Each send runs in its own event at 1 us, so the
            // shuffle decides which goes first too.
            for (const PortId src : low_first
                                        ? std::vector<PortId>{low, high}
                                        : std::vector<PortId>{high, low}) {
                sim.queue().schedule(usecs(1), [&fabric, src, dst] {
                    sendMsg(fabric, src, dst, 100,
                            static_cast<int>(src));
                });
            }
            sim.run();
            // Arrival at 1 + 1 + 2 us; 3 us of receive service each.
            EXPECT_EQ(handled,
                      (std::vector<std::pair<int, Tick>>{
                          {static_cast<int>(low), usecs(7)},
                          {static_cast<int>(high), usecs(10)}}))
                << "seed " << seed;
            EXPECT_EQ(sim.queue().firedCount(sim::EventCategory::Fabric),
                      2u);
        }
    }
}

TEST_F(FabricTest, EarlierArrivalOvertakesQueuedPacket)
{
    // A big packet sent first arrives after a small one sent later
    // (different sources), while a third packet holds the receive
    // engine: the small one is served first and the big one moves
    // back by exactly one receive service, with no extra event.
    FabricConfig config;
    config.bandwidth_bps = 100e6;
    config.propagation = 0;
    Fabric fabric(sim_.queue(), config);
    std::vector<std::pair<int, Tick>> handled;
    const PortId p0 = fabric.attach([](Packet) {});
    const PortId p1 = fabric.attach([](Packet) {});
    const PortId p2 = fabric.attach([](Packet) {});
    const PortId dst = fabric.attach(
        [&](Packet p) { handled.emplace_back(valueOf(p), sim_.now()); },
        "dst", usecs(10));
    sendMsg(fabric, p0, dst, 100, 0);  // arrives 1 us, served 1-11
    sendMsg(fabric, p1, dst, 1000, 1); // arrives 10 us, would be 11-21
    sim_.queue().schedule(usecs(2), [&] {
        sendMsg(fabric, p2, dst, 500, 2); // arrives 7 us: 11-21
    });
    sim_.run();
    EXPECT_EQ(handled, (std::vector<std::pair<int, Tick>>{
                           {0, usecs(11)}, {2, usecs(21)}, {1, usecs(31)}}));
    EXPECT_EQ(sim_.queue().firedCount(sim::EventCategory::Fabric), 3u);
    // The three deliveries plus the event that sent packet 2.
    EXPECT_EQ(sim_.queue().firedCount(), 4u);
}

TEST_F(FabricTest, PortDownLosesPropagatingPackets)
{
    FabricConfig config;
    config.bandwidth_bps = 100e6;
    config.propagation = usecs(10);
    Fabric fabric(sim_.queue(), config);
    std::vector<std::pair<int, Tick>> handled;
    const PortId a = fabric.attach([](Packet) {});
    const PortId b = fabric.attach(
        [&](Packet p) { handled.emplace_back(valueOf(p), sim_.now()); },
        "b", usecs(20));
    sendMsg(fabric, a, b, 100, 1);  // wire 0-1, arrives 11: served 11-31
    sendMsg(fabric, a, b, 100, 2);  // wire 1-2, arrives 12: lost
    sendMsg(fabric, a, b, 2300, 3); // wire 2-25, arrives 35: after up
    sim_.queue().schedule(usecs(11.5), [&] { fabric.setPortUp(b, false); });
    sim_.queue().schedule(usecs(30), [&] { fabric.setPortUp(b, true); });
    sim_.runUntil(usecs(20));
    EXPECT_EQ(fabric.packetsDelivered(b), 1u);
    EXPECT_EQ(fabric.packetsDropped(), 1u);
    sim_.run();
    // Packet 1 had arrived and still finishes; packet 2 never held
    // the engine, so packet 3 starts on its arrival.
    EXPECT_EQ(handled, (std::vector<std::pair<int, Tick>>{
                           {1, usecs(31)}, {3, usecs(55)}}));
    EXPECT_EQ(fabric.packetsDelivered(b), 2u);
    EXPECT_EQ(fabric.packetsDropped(), 1u);
    EXPECT_EQ(sim_.queue().firedCount(sim::EventCategory::Fabric), 2u);
}

} // namespace
} // namespace v3sim::net
