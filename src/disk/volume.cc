#include "volume.hh"

#include <algorithm>
#include <cassert>

namespace v3sim::disk
{

sim::Task<bool>
SingleDiskVolume::read(uint64_t offset, uint64_t len,
                       sim::MemorySpace &mem, sim::Addr addr)
{
    if (offset + len > capacity())
        co_return false;
    co_await disk_.read(offset, len);
    co_return disk_.store().readInto(offset, len, mem, addr);
}

sim::Task<bool>
SingleDiskVolume::write(uint64_t offset, uint64_t len,
                        const sim::MemorySpace &mem, sim::Addr addr)
{
    if (offset + len > capacity())
        co_return false;
    co_await disk_.write(offset, len);
    // commitWrite rather than store().writeFrom: the disk applies the
    // torn-write fault (if armed) at the moment data hits the platter.
    co_return disk_.commitWrite(offset, len, mem, addr);
}

StripeVolume::StripeVolume(const std::vector<Disk *> &disks,
                           uint64_t stripe_unit)
    : layout_{stripe_unit, disks.size()}
{
    assert(!disks.empty());
    assert(stripe_unit > 0);
    uint64_t min_child = UINT64_MAX;
    children_.reserve(disks.size());
    for (Disk *disk : disks) {
        children_.emplace_back(*disk);
        min_child = std::min(min_child, children_.back().capacity());
    }
    // Child capacities never change, so the per-I/O bounds check
    // reads a cached value.
    capacity_ = layout_.capacity(min_child);
}

sim::Task<bool>
StripeVolume::run(uint64_t offset, uint64_t len, sim::MemorySpace *mem,
                  sim::Addr addr, bool is_write)
{
    if (offset + len > capacity())
        co_return false;

    sim::WaitGroup group;
    bool all_ok = true;

    // Split into per-stripe-unit chunks and issue them all at once;
    // chunks on different children proceed in parallel.
    uint64_t done = 0;
    while (done < len) {
        const StripeChunk chunk =
            layout_.chunkAt(offset + done, len - done);
        group.add();
        sim::spawn([](SingleDiskVolume *target, uint64_t off,
                      uint64_t n, sim::MemorySpace *space, sim::Addr a,
                      bool write_op, sim::WaitGroup &g,
                      bool &ok) -> sim::Task<> {
            const bool result =
                write_op ? co_await target->write(off, n, *space, a)
                         : co_await target->read(off, n, *space, a);
            if (!result)
                ok = false;
            g.done();
        }(&children_[chunk.child], chunk.child_offset, chunk.len, mem,
          addr + done, is_write, group, all_ok));
        done += chunk.len;
    }

    co_await group.wait();
    co_return all_ok;
}

sim::Task<bool>
StripeVolume::read(uint64_t offset, uint64_t len, sim::MemorySpace &mem,
                   sim::Addr addr)
{
    return run(offset, len, &mem, addr, false);
}

sim::Task<bool>
StripeVolume::write(uint64_t offset, uint64_t len,
                    const sim::MemorySpace &mem, sim::Addr addr)
{
    // The const_cast is confined here: write paths only read from
    // @p mem, but the shared fan-out helper uses one pointer type.
    return run(offset, len, const_cast<sim::MemorySpace *>(&mem), addr,
               true);
}

bool
StripeVolume::corrupt(uint64_t offset, uint64_t len) const
{
    if (offset + len > capacity())
        return false;
    uint64_t done = 0;
    while (done < len) {
        const StripeChunk chunk =
            layout_.chunkAt(offset + done, len - done);
        if (children_[chunk.child].corrupt(chunk.child_offset,
                                           chunk.len))
            return true;
        done += chunk.len;
    }
    return false;
}

} // namespace v3sim::disk
