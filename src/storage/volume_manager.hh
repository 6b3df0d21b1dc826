/**
 * @file
 * The V3 server's volume manager: assembles RAID-0 volumes over the
 * disk manager's spindles and exposes them by id (section 2.1: "Each
 * V3 server provides a virtualized view of a disk (V3 volume) ...
 * using combinations of RAID, such as concatenation and other disk
 * organizations").
 */

#ifndef V3SIM_STORAGE_VOLUME_MANAGER_HH
#define V3SIM_STORAGE_VOLUME_MANAGER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "disk/volume.hh"
#include "storage/disk_manager.hh"

namespace v3sim::storage
{

/** Owns the node's volumes; hands out ids the wire protocol uses. */
class VolumeManager
{
  public:
    VolumeManager() = default;

    VolumeManager(const VolumeManager &) = delete;
    VolumeManager &operator=(const VolumeManager &) = delete;

    /** Builds a striped (RAID-0) volume over @p disks; returns its
     *  id. */
    uint32_t
    addStripedVolume(const std::vector<disk::Disk *> &disks,
                     uint64_t stripe_unit)
    {
        volumes_.push_back(
            std::make_unique<disk::StripeVolume>(disks, stripe_unit));
        return static_cast<uint32_t>(volumes_.size() - 1);
    }

    disk::Volume *
    volume(uint32_t id)
    {
        return id < volumes_.size() ? volumes_[id].get() : nullptr;
    }

  private:
    std::vector<std::unique_ptr<disk::Volume>> volumes_;
};

} // namespace v3sim::storage

#endif // V3SIM_STORAGE_VOLUME_MANAGER_HH
