/**
 * @file
 * Block-volume abstraction over disks.
 *
 * Section 2.1: "Each V3 volume consists of one or more physical
 * disks attached to V3 storage nodes. V3 volumes can span multiple
 * V3 nodes using combinations of RAID, such as concatenation and
 * other disk organizations."
 *
 * A Volume serves byte-addressed reads/writes and moves data to or
 * from host memory. Implementations: a single disk, and RAID-0
 * striping across a node's disks (geometry in disk/stripe_layout.hh).
 * The experiments' RAID-1 is node-level, not disk-level: see
 * dsa::MirroredDevice, which adds failover, resync and repair.
 */

#ifndef V3SIM_DISK_VOLUME_HH
#define V3SIM_DISK_VOLUME_HH

#include <cstdint>
#include <vector>

#include "disk/disk.hh"
#include "disk/stripe_layout.hh"
#include "sim/memory.hh"
#include "sim/task.hh"

namespace v3sim::disk
{

/** Byte-addressed block volume with real data movement. */
class Volume
{
  public:
    virtual ~Volume() = default;

    virtual uint64_t capacity() const = 0;

    /**
     * Reads [offset, offset+len) into host memory at @p addr.
     * Resolves (true on success) once data is in memory.
     */
    virtual sim::Task<bool> read(uint64_t offset, uint64_t len,
                                 sim::MemorySpace &mem,
                                 sim::Addr addr) = 0;

    /** Writes host memory into [offset, offset+len); durable when it
     *  resolves. */
    virtual sim::Task<bool> write(uint64_t offset, uint64_t len,
                                  const sim::MemorySpace &mem,
                                  sim::Addr addr) = 0;

    /**
     * Oracle view of latent corruption: true when any sector backing
     * [offset, offset+len) carries an injected corruption mark. The
     * server's verify-on-read uses this as the phantom-memory stand-in
     * for "the block's CRC32C did not match" — with real memory the
     * damaged bytes are also actually delivered by read().
     */
    virtual bool corrupt(uint64_t offset, uint64_t len) const
    {
        (void)offset;
        (void)len;
        return false;
    }
};

/** Volume over one physical disk. */
class SingleDiskVolume : public Volume
{
  public:
    explicit SingleDiskVolume(Disk &disk) : disk_(disk) {}

    uint64_t
    capacity() const override
    {
        return disk_.spec().capacity_bytes;
    }

    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::MemorySpace &mem,
                         sim::Addr addr) override;

    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          const sim::MemorySpace &mem,
                          sim::Addr addr) override;

    bool
    corrupt(uint64_t offset, uint64_t len) const override
    {
        return disk_.store().rangeCorrupt(offset, len);
    }

  private:
    Disk &disk_;
};

/** RAID-0: fixed stripe unit round-robined across disks. */
class StripeVolume : public Volume
{
  public:
    StripeVolume(const std::vector<Disk *> &disks,
                 uint64_t stripe_unit);

    uint64_t capacity() const override { return capacity_; }

    sim::Task<bool> read(uint64_t offset, uint64_t len,
                         sim::MemorySpace &mem,
                         sim::Addr addr) override;

    sim::Task<bool> write(uint64_t offset, uint64_t len,
                          const sim::MemorySpace &mem,
                          sim::Addr addr) override;

    bool corrupt(uint64_t offset, uint64_t len) const override;

  private:
    /** Runs one striped operation fan-out. */
    sim::Task<bool> run(uint64_t offset, uint64_t len,
                        sim::MemorySpace *mem, sim::Addr addr,
                        bool is_write);

    std::vector<SingleDiskVolume> children_;
    StripeLayout layout_;
    uint64_t capacity_;
};

} // namespace v3sim::disk

#endif // V3SIM_DISK_VOLUME_HH
