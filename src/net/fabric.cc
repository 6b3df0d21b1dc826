#include "fabric.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/logging.hh"

namespace v3sim::net
{

Fabric::Fabric(sim::EventQueue &queue, FabricConfig config)
    : queue_(queue), config_(config)
{
    assert(config_.bandwidth_bps > 0);
}

PortId
Fabric::attach(Handler handler, std::string name, sim::Tick rx_service)
{
    auto state = std::make_unique<PortState>(queue_, rx_service);
    state->handler = std::move(handler);
    state->name = std::move(name);
    state->attached_at = queue_.now();
    state->link_free = queue_.now();
    ports_.push_back(std::move(state));
    return static_cast<PortId>(ports_.size() - 1);
}

const std::string &
Fabric::portName(PortId id) const
{
    static const std::string empty;
    if (id >= ports_.size())
        return empty;
    return ports_[id]->name;
}

void
Fabric::send(Packet packet, sim::EventFn on_wire)
{
    if (packet.src >= ports_.size() || packet.dst >= ports_.size()) {
        V3LOG(Warn, "fabric") << "dropping packet with invalid port";
        dropped_.increment();
        if (on_wire)
            on_wire();
        return;
    }
    const bool down =
        !ports_[packet.src]->up || !ports_[packet.dst]->up;
    const bool drop = down || (drop_filter_ && drop_filter_(packet));
    if (drop)
        dropped_.increment();
    if (!drop && corrupt_filter_ && corrupt_filter_(packet)) {
        packet.corrupted = true;
        corrupted_.increment();
    }

    // The link is a FIFO in send order, so its timing is closed-form.
    // Dropped packets burn serialization time but never propagate.
    PortState &src = *ports_[packet.src];
    src.bytes_sent.increment(packet.wire_bytes);
    const sim::Tick serialization =
        sim::transferTime(packet.wire_bytes, config_.bandwidth_bps);
    const sim::Tick wire_end =
        std::max(queue_.now(), src.link_free) + serialization;
    src.link_free = wire_end;
    src.link_busy += serialization;
    if (on_wire)
        queue_.scheduleAt(wire_end, std::move(on_wire));
    if (drop)
        return;
    const PortId from = packet.src;
    ports_[packet.dst]->rx.place(
        wire_end + config_.propagation, from,
        [this, packet = std::move(packet)]() mutable {
            deliver(std::move(packet));
        });
}

void
Fabric::deliver(Packet packet)
{
    PortState &dst = *ports_[packet.dst];
    dst.handler(std::move(packet));
}

void
Fabric::setPortUp(PortId id, bool up)
{
    assert(id < ports_.size());
    PortState &port = *ports_[id];
    if (port.up == up)
        return;
    port.up = up;
    if (!up) {
        // A crashed node cannot receive: what is still propagating
        // towards it is lost unless it is back up by the arrival.
        port.lost = port.rx.withdrawUnarrived();
        return;
    }
    for (sim::ServiceStage::Withdrawn &packet : port.lost) {
        if (packet.arrival > queue_.now())
            port.rx.place(packet.arrival, packet.key,
                          std::move(packet.done));
        else
            dropped_.increment();
    }
    port.lost.clear();
}

bool
Fabric::portUp(PortId id) const
{
    return id < ports_.size() && ports_[id]->up;
}

uint64_t
Fabric::bytesSent(PortId port) const
{
    assert(port < ports_.size());
    return ports_[port]->bytes_sent.value();
}

uint64_t
Fabric::packetsDelivered(PortId port) const
{
    assert(port < ports_.size());
    return ports_[port]->rx.arrived();
}

uint64_t
Fabric::packetsDropped() const
{
    // Packets lost at a port that is still down count from their
    // arrival tick, as if dropped on arrival.
    uint64_t lost = 0;
    for (const auto &port : ports_) {
        lost += static_cast<uint64_t>(std::count_if(
            port->lost.begin(), port->lost.end(),
            [this](const sim::ServiceStage::Withdrawn &packet) {
                return packet.arrival <= queue_.now();
            }));
    }
    return dropped_.value() + lost;
}

double
Fabric::txUtilization(PortId port) const
{
    assert(port < ports_.size());
    const PortState &state = *ports_[port];
    const sim::Tick now = queue_.now();
    // The link's busy time after now is one contiguous stretch that
    // ends when the link frees up.
    const sim::Tick ahead = std::max<sim::Tick>(state.link_free - now, 0);
    const sim::Tick span = now - state.attached_at;
    if (span <= 0)
        return ahead > 0 ? 1.0 : 0.0;
    return static_cast<double>(state.link_busy - ahead) /
           static_cast<double>(span);
}

} // namespace v3sim::net
