/**
 * @file
 * Unit tests for disk volumes: the RAID-0 stripe geometry against a
 * byte-at-a-time reference, and parallelism and data integrity
 * through single-disk and striped volumes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "disk/stripe_layout.hh"
#include "disk/volume.hh"
#include "sim/simulation.hh"

namespace v3sim::disk
{
namespace
{

using sim::Task;
using sim::Tick;

/** Where the reference layout put one volume byte. */
struct RefByte
{
    size_t child;
    uint64_t child_offset;
    /** First byte of a stripe unit. */
    bool unit_start;
};

/**
 * The RAID-0 layout built one byte at a time, sharing no arithmetic
 * with StripeLayout: fill the current child for @p unit bytes, then
 * move to the next child, wrapping after the last.
 */
std::vector<RefByte>
referenceLayout(uint64_t unit, size_t width, uint64_t bytes)
{
    std::vector<RefByte> out;
    std::vector<uint64_t> next(width, 0);
    size_t child = 0;
    uint64_t filled = 0;
    for (uint64_t pos = 0; pos < bytes; ++pos) {
        out.push_back({child, next[child]++, filled == 0});
        if (++filled == unit) {
            filled = 0;
            child = (child + 1) % width;
        }
    }
    return out;
}

TEST(StripeLayout, MatchesByteAtATimeReference)
{
    for (const uint64_t unit : {1ull, 3ull, 8ull}) {
        for (size_t width = 1; width <= 5; ++width) {
            SCOPED_TRACE(testing::Message()
                         << "unit " << unit << " width " << width);
            const StripeLayout layout{unit, width};
            // Two full stripes: ranges start and end on, just
            // before and just after every unit and stripe boundary.
            const uint64_t span = 2 * unit * width;
            const std::vector<RefByte> ref =
                referenceLayout(unit, width, span);
            for (uint64_t offset = 0; offset < span; ++offset) {
                for (uint64_t len = 1; offset + len <= span; ++len) {
                    uint64_t done = 0;
                    while (done < len) {
                        const uint64_t pos = offset + done;
                        const StripeChunk chunk =
                            layout.chunkAt(pos, len - done);
                        ASSERT_GE(chunk.len, 1u);
                        ASSERT_LE(chunk.len, len - done);
                        for (uint64_t i = 0; i < chunk.len; ++i) {
                            const RefByte &want = ref[pos + i];
                            // Chunks never straddle a unit boundary.
                            if (want.child != chunk.child ||
                                want.child_offset !=
                                    chunk.child_offset + i ||
                                (i > 0 && want.unit_start)) {
                                FAIL() << "offset " << offset << " len "
                                       << len << " byte " << pos + i;
                            }
                        }
                        // ...and end at one unless the range ends.
                        done += chunk.len;
                        if (done < len) {
                            ASSERT_TRUE(ref[offset + done].unit_start)
                                << "offset " << offset << " len "
                                << len << " split early at "
                                << offset + done;
                        }
                    }
                }
            }

            // Capacity: whole stripes only, sized by the smallest
            // child.
            for (uint64_t min_child = 0; min_child <= 3 * unit;
                 ++min_child) {
                uint64_t whole_units = 0;
                while ((whole_units + 1) * unit <= min_child)
                    ++whole_units;
                EXPECT_EQ(layout.capacity(min_child),
                          whole_units * unit * width)
                    << "min_child " << min_child;
            }
        }
    }
}

class VolumeTest : public ::testing::Test
{
  protected:
    VolumeTest() : sim_(17)
    {
        for (int i = 0; i < 4; ++i) {
            disks_.push_back(std::make_unique<Disk>(
                sim_, DiskSpec::scsi10k(), sim_.forkRng(),
                std::string("d").append(std::to_string(i))));
        }
        buf_ = mem_.allocate(kBufLen);
        out_ = mem_.allocate(kBufLen);
        pattern_.resize(kBufLen);
        for (size_t i = 0; i < kBufLen; ++i)
            pattern_[i] = static_cast<uint8_t>((i * 7) & 0xFF);
        mem_.write(buf_, pattern_.data(), kBufLen);
    }

    std::vector<Disk *>
    disks(int n)
    {
        std::vector<Disk *> v;
        for (int i = 0; i < n; ++i)
            v.push_back(disks_[static_cast<size_t>(i)].get());
        return v;
    }

    /** Writes then reads back through @p volume; checks the data. */
    void
    roundTrip(Volume &volume, uint64_t offset, uint64_t len)
    {
        bool write_ok = false, read_ok = false;
        sim::spawn([](Volume &v, uint64_t off, uint64_t n,
                      sim::MemorySpace &mem, sim::Addr src,
                      sim::Addr dst, bool &wok, bool &rok) -> Task<> {
            wok = co_await v.write(off, n, mem, src);
            rok = co_await v.read(off, n, mem, dst);
        }(volume, offset, len, mem_, buf_, out_, write_ok, read_ok));
        sim_.run();
        ASSERT_TRUE(write_ok);
        ASSERT_TRUE(read_ok);
        std::vector<uint8_t> out(len);
        mem_.read(out_, out.data(), len);
        for (uint64_t i = 0; i < len; ++i)
            ASSERT_EQ(out[i], pattern_[i]) << "mismatch at " << i;
    }

    static constexpr uint64_t kBufLen = 256 * 1024;

    sim::Simulation sim_;
    sim::MemorySpace mem_;
    std::vector<std::unique_ptr<Disk>> disks_;
    sim::Addr buf_, out_;
    std::vector<uint8_t> pattern_;
};

TEST_F(VolumeTest, SingleDiskRoundTrip)
{
    SingleDiskVolume single(*disks_[0]);
    roundTrip(single, 8192, 8192);
}

TEST_F(VolumeTest, SingleDiskRejectsOutOfRange)
{
    SingleDiskVolume single(*disks_[0]);
    bool ok = true;
    sim::spawn([](Volume &v, sim::MemorySpace &mem, sim::Addr buf,
                  bool &result) -> Task<> {
        result = co_await v.read(v.capacity() - 512, 1024, mem, buf);
    }(single, mem_, out_, ok));
    sim_.run();
    EXPECT_FALSE(ok);
}

TEST_F(VolumeTest, StripeDistributesAcrossDisks)
{
    StripeVolume stripe(disks(4), 64 * 1024);
    roundTrip(stripe, 0, 256 * 1024); // exactly one unit per disk
    for (const auto &disk : disks_)
        EXPECT_EQ(disk->completedCount(), 2u); // 1 write + 1 read
}

TEST_F(VolumeTest, StripeParallelismBeatsSingleDisk)
{
    // 256K across 4 disks in parallel vs 256K on one disk.
    StripeVolume stripe(disks(4), 64 * 1024);
    SingleDiskVolume single(*disks_[3]);
    Tick striped_time = 0, single_time = 0;

    sim::spawn([](Volume &v, sim::MemorySpace &mem, sim::Addr buf,
                  sim::Simulation &s, Tick &out) -> Task<> {
        const Tick start = s.now();
        co_await v.write(0, 256 * 1024, mem, buf);
        out = s.now() - start;
    }(stripe, mem_, buf_, sim_, striped_time));
    sim_.run();

    sim::spawn([](Volume &v, sim::MemorySpace &mem, sim::Addr buf,
                  sim::Simulation &s, Tick &out) -> Task<> {
        const Tick start = s.now();
        co_await v.write(0, 256 * 1024, mem, buf);
        out = s.now() - start;
    }(single, mem_, buf_, sim_, single_time));
    sim_.run();

    EXPECT_LT(striped_time, single_time);
}

TEST_F(VolumeTest, StripeUnalignedSpanRoundTrip)
{
    StripeVolume stripe(disks(3), 64 * 1024);
    // Start mid-unit, cross several units.
    roundTrip(stripe, 32 * 1024 + 512, 150 * 1024);
}

} // namespace
} // namespace v3sim::disk
