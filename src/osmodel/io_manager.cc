#include "io_manager.hh"

namespace v3sim::osmodel
{

IoManager::IoManager(sim::Simulation &sim, const HostCosts &costs)
    : costs_(costs),
      queue_lock_(sim, costs, "iomgr.queue"),
      dispatch_lock_(sim, costs, "iomgr.dispatch")
{}

sim::Task<>
IoManager::issueRequest(CpuLease lease, uint64_t buffer_pages,
                        bool pin_buffer)
{
    requests_.increment();
    // The CPU charges before each pair ride it.
    const Charge none;
    Charges enter;
    enter.add(costs_.syscall, CpuCat::Kernel);
    co_await queue_lock_.syncPair(lease, CpuCat::Kernel, -1, enter, none);
    sim::Tick irp_ticks = costs_.irp_issue;
    if (pin_buffer) {
        irp_ticks += static_cast<sim::Tick>(buffer_pages) *
                     costs_.probe_lock_page;
    }
    Charges irp;
    irp.add(irp_ticks, CpuCat::Kernel);
    co_await dispatch_lock_.syncPair(lease, CpuCat::Kernel, -1, irp,
                                     none);
}

sim::Task<>
IoManager::completeRequest(CpuLease lease, uint64_t buffer_pages,
                           bool unpin_buffer)
{
    co_await queue_lock_.syncPair(lease, CpuCat::Kernel);
    sim::Tick irp_ticks = costs_.irp_complete;
    if (unpin_buffer) {
        irp_ticks += static_cast<sim::Tick>(buffer_pages) *
                     costs_.probe_lock_page;
    }
    Charges irp;
    irp.add(irp_ticks, CpuCat::Kernel);
    // Then wake the thread that blocked in the I/O system call.
    const Charge wake{costs_.context_switch, CpuCat::Kernel};
    co_await dispatch_lock_.syncPair(lease, CpuCat::Kernel, -1, irp,
                                     wake);
}

} // namespace v3sim::osmodel
