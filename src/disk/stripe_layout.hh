/**
 * @file
 * RAID-0 geometry: the one place that maps a striped byte range onto
 * its children.
 *
 * Stripe units of `stripe_unit` bytes are dealt round-robin across
 * `width` children: unit k lives on child k % width at child offset
 * (k / width) * stripe_unit. Both striped layers use it —
 * disk::StripeVolume across a node's spindles and dsa::StripedDevice
 * across V3 nodes — so the layout every layer above depends on is
 * stated once.
 */

#ifndef V3SIM_DISK_STRIPE_LAYOUT_HH
#define V3SIM_DISK_STRIPE_LAYOUT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace v3sim::disk
{

/** The piece of a striped range that lands on one child. */
struct StripeChunk
{
    size_t child;
    uint64_t child_offset;
    /** Bytes, clipped to the end of the stripe unit. */
    uint64_t len;
};

/** Round-robin stripe geometry over @p width children. */
struct StripeLayout
{
    uint64_t stripe_unit;
    size_t width;

    /** The chunk starting at volume byte @p pos, at most
     *  @p remaining bytes long. */
    StripeChunk
    chunkAt(uint64_t pos, uint64_t remaining) const
    {
        const uint64_t unit = pos / stripe_unit;
        const uint64_t within = pos % stripe_unit;
        return {static_cast<size_t>(unit % width),
                (unit / width) * stripe_unit + within,
                std::min(remaining, stripe_unit - within)};
    }

    /** Volume size: the whole stripes that fit when the smallest
     *  child holds @p min_child bytes. */
    uint64_t
    capacity(uint64_t min_child) const
    {
        return (min_child / stripe_unit) * stripe_unit * width;
    }
};

} // namespace v3sim::disk

#endif // V3SIM_DISK_STRIPE_LAYOUT_HH
