#include "guest/vm.hh"

#include "sim/logging.hh"

namespace cg::guest {

Vm::Vm(hw::Machine& machine, VmConfig cfg, sim::DomainId domain)
    : machine_(machine), cfg_(cfg), domain_(domain)
{
    if (cfg_.numVcpus <= 0)
        sim::fatal("VM '%s' needs at least one vCPU", cfg_.name.c_str());
    for (int i = 0; i < cfg_.numVcpus; ++i)
        vcpus_.push_back(std::make_unique<VCpu>(*this, i));
}

bool
Vm::hasLiveTask() const
{
    for (const auto& v : vcpus_) {
        if (!v->stopped() && v->hasGuestTasks())
            return true;
    }
    return false;
}

void
Vm::registerStats(sim::StatRegistry& reg)
{
    statGroup_.attach(reg, "guest." + cfg_.name);
    for (int i = 0; i < numVcpus(); ++i) {
        VCpu& v = vcpu(i);
        const std::string leaf = "vcpu" + std::to_string(i);
        statGroup_.add(leaf + ".ticksHandled", v.ticksHandled);
        statGroup_.add(leaf + ".virqsHandled", v.virqsHandled);
        statGroup_.add(leaf + ".exitsGenerated", v.exitsGenerated);
        statGroup_.addValue(leaf + ".guestCpuTime", v.guestCpuTime);
    }
}

} // namespace cg::guest
