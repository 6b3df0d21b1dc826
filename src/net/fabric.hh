/**
 * @file
 * Point-to-point system-area-network fabric model.
 *
 * Models a Giganet-class switched SAN at the level the paper's
 * results depend on: per-port transmit serialization at link
 * bandwidth, a fixed propagation/switching delay, in-order delivery
 * per (src, dst) pair, and a per-port receive engine. The VI layer on
 * top adds NIC transmit processing and enforces the cLan
 * 64K-64-byte maximum packet size by fragmenting transfers.
 *
 * Once a packet is handed to the fabric its whole path is known, so
 * send() places it in closed form (DESIGN.md §8.3) and the packet
 * costs one event, when its port's handler runs:
 *
 *  - link: each port's link is a strict FIFO in send order (its one
 *    feeder, a NIC transmit engine or a TcpStream, already orders
 *    its packets), so wire_end = max(now, link free) + serialization
 *    and arrival = wire_end + propagation;
 *  - receive: the destination port's receive engine is a
 *    sim::ServiceStage with the port's receive service. Packets are
 *    served by (arrival tick, source port, send order): same-tick
 *    arrivals from different sources in source-port order, whatever
 *    order they were sent in, and a later send with an earlier
 *    arrival pushes back only packets that have not arrived yet. The
 *    handler runs when the receive service ends (at arrival for a
 *    port with zero receive service).
 *
 * Payloads are opaque shared pointers: the fabric moves simulation
 * objects, while the modelled *wire size* is carried separately so
 * control headers and RDMA data can weigh what the real wire would.
 *
 * A drop filter supports fault injection (lost packets, severed
 * links) used to exercise DSA retransmission and reconnection. Ports
 * can additionally be marked down (setPortUp), modelling a whole
 * node/NIC leaving the fabric: packets to or from a down port vanish
 * silently, and so do packets already propagating towards it when
 * it goes down, unless it is back up by their arrival tick. A tick's
 * arrivals precede a port state change on that tick. Packets that
 * arrived before the port went down still finish their receive
 * service — exactly what a powered-off node looks like to its peers.
 */

#ifndef V3SIM_NET_FABRIC_HH
#define V3SIM_NET_FABRIC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/service_stage.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace v3sim::net
{

/** Identifies an attached port (NIC) on the fabric. */
using PortId = uint32_t;

constexpr PortId kInvalidPort = UINT32_MAX;

/** One message in flight: routing metadata plus an opaque payload. */
struct Packet
{
    PortId src = kInvalidPort;
    PortId dst = kInvalidPort;
    uint64_t wire_bytes = 0;
    /**
     * Fault injection: the packet's payload was damaged in flight.
     * The fabric delivers it anyway — the link-level CRC that would
     * catch a clean wire flip is a hop-local defence, and the
     * corruption classes the integrity work targets (bad NIC
     * buffers, DMA errors) get past it — so the receiving NIC model
     * applies the damage and end-to-end digests must detect it.
     */
    bool corrupted = false;
    /**
     * Determinism arbitration key (DESIGN.md §8.3): orders this
     * packet against others submitted to the same transmit queue on
     * the same tick. Senders derive it from message content (request
     * offset, transfer tag), never from arrival order; equal keys
     * keep submission order, so fragments of one transfer stay
     * sequential.
     */
    uint64_t order_key = 0;
    std::shared_ptr<void> payload;
};

/** Static fabric parameters. */
struct FabricConfig
{
    /** Link bandwidth in bytes/second. Giganet cLan end-to-end user
     *  bandwidth is ~110 MB/s (paper section 4). */
    double bandwidth_bps = 110e6;

    /** Fixed propagation + switch latency per packet. Chosen so that
     *  a 64-byte message plus VI send/receive processing lands at the
     *  paper's 7 us one-way figure. */
    sim::Tick propagation = sim::usecs(2);
};

/**
 * The switched fabric. Attach ports, then send packets between them.
 * Delivery calls the destination port's handler after transmit
 * serialization, propagation and the port's receive service.
 */
class Fabric
{
  public:
    using Handler = std::function<void(Packet)>;

    /** Returns true to drop the packet (fault injection hook). */
    using DropFilter = std::function<bool(const Packet &)>;

    /** Returns true to corrupt the packet's payload in flight
     *  (fault injection hook; see Packet::corrupted). */
    using CorruptFilter = std::function<bool(const Packet &)>;

    Fabric(sim::EventQueue &queue, FabricConfig config = {});

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /**
     * Attaches a port; @p handler receives delivered packets once
     * each has had @p rx_service of the port's receive engine (a NIC
     * matching it to a descriptor and DMAing it).
     */
    PortId attach(Handler handler, std::string name = "",
                  sim::Tick rx_service = 0);

    /**
     * Sends @p packet.wire_bytes from packet.src to packet.dst.
     * The source port's link serializes packets FIFO at link
     * bandwidth; they arrive one propagation delay later and queue
     * for the destination's receive engine. Sending to a detached or
     * invalid port drops the packet.
     *
     * @param on_wire optional; fires in its own event when the
     *        packet has finished serializing onto the link (the
     *        moment a NIC would retire the send descriptor). Fires
     *        even for packets the drop filter will discard (the
     *        sender cannot tell).
     */
    void send(Packet packet, sim::EventFn on_wire = {});

    /** Installs (or clears, with nullptr) the drop filter. */
    void setDropFilter(DropFilter filter) { drop_filter_ = std::move(filter); }

    /** Installs (or clears, with nullptr) the corrupt filter. It is
     *  consulted only for packets that are not dropped. */
    void
    setCorruptFilter(CorruptFilter filter)
    {
        corrupt_filter_ = std::move(filter);
    }

    /**
     * Marks a port down (node crash) or back up (restart). While a
     * port is down every packet to or from it is dropped silently —
     * peers get no notification, matching a real node failure. Down
     * ports also swallow packets that were already propagating
     * towards them when the port went down and arrive while it is
     * down; those never occupy its receive engine.
     */
    void setPortUp(PortId id, bool up);

    /** True when the port is attached and up. */
    bool portUp(PortId id) const;

    const FabricConfig &config() const { return config_; }

    size_t portCount() const { return ports_.size(); }
    const std::string &portName(PortId id) const;

    /** Bytes handed to the wire by @p port (excludes dropped). */
    uint64_t bytesSent(PortId port) const;

    /** Packets that have arrived at @p port, counted on their
     *  arrival tick (their receive service may still be running). */
    uint64_t packetsDelivered(PortId port) const;

    /** Packets dropped: by the drop filter, at a down port, or to an
     *  invalid one. */
    uint64_t packetsDropped() const;

    /** Packets damaged by the corrupt filter. */
    uint64_t packetsCorrupted() const { return corrupted_.value(); }

    /** Busy fraction of @p port's link since it was attached. */
    double txUtilization(PortId port) const;

  private:
    struct PortState
    {
        PortState(sim::EventQueue &queue, sim::Tick rx_service)
            : rx(queue, rx_service, sim::EventCategory::Fabric)
        {}

        Handler handler;
        std::string name;
        bool up = true;
        sim::Tick attached_at = 0;
        /** When the link finishes serializing its last packet. */
        sim::Tick link_free = 0;
        /** Serialization time placed on the link so far. */
        sim::Tick link_busy = 0;
        /** Receive engine; a job is a packet's handler call. */
        sim::ServiceStage rx;
        /** Packets withdrawn from rx when the port went down; those
         *  arriving after it comes back up are placed again. */
        std::vector<sim::ServiceStage::Withdrawn> lost;
        sim::Counter bytes_sent;
    };

    void deliver(Packet packet);

    sim::EventQueue &queue_;
    FabricConfig config_;
    std::vector<std::unique_ptr<PortState>> ports_;
    DropFilter drop_filter_;
    CorruptFilter corrupt_filter_;
    sim::Counter dropped_;
    sim::Counter corrupted_;
};

} // namespace v3sim::net

#endif // V3SIM_NET_FABRIC_HH
