#include "io_manager.hh"

namespace v3sim::osmodel
{

IoManager::IoManager(sim::Simulation &sim, const HostCosts &costs)
    : costs_(costs),
      queue_lock_(sim, costs, "iomgr.queue"),
      dispatch_lock_(sim, costs, "iomgr.dispatch")
{}

void
IoManager::appendIssue(SyncChain &chain, uint64_t buffer_pages,
                       bool pin_buffer)
{
    requests_.increment();
    Charges enter;
    enter.add(costs_.syscall, CpuCat::Kernel);
    chain.add(queue_lock_, CpuCat::Kernel, -1, enter);
    sim::Tick irp_ticks = costs_.irp_issue;
    if (pin_buffer) {
        irp_ticks += static_cast<sim::Tick>(buffer_pages) *
                     costs_.probe_lock_page;
    }
    Charges irp;
    irp.add(irp_ticks, CpuCat::Kernel);
    chain.add(dispatch_lock_, CpuCat::Kernel, -1, irp);
}

void
IoManager::appendCompletion(SyncChain &chain, uint64_t buffer_pages,
                            bool unpin_buffer)
{
    chain.add(queue_lock_, CpuCat::Kernel);
    sim::Tick irp_ticks = costs_.irp_complete;
    if (unpin_buffer) {
        irp_ticks += static_cast<sim::Tick>(buffer_pages) *
                     costs_.probe_lock_page;
    }
    Charges irp;
    irp.add(irp_ticks, CpuCat::Kernel);
    // Then wake the thread that blocked in the I/O system call.
    const Charge wake{costs_.context_switch, CpuCat::Kernel};
    chain.add(dispatch_lock_, CpuCat::Kernel, -1, irp, wake);
}

} // namespace v3sim::osmodel
