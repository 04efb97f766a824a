#include "apps/stencil/driver.h"

#include "sim/device_memory.h"
#include "sim/program.h"
#include "support/strings.h"

namespace gevo::stencil {

StencilDriver::StencilDriver(StencilConfig config, bool tightArena)
    : config_(config), tightArena_(tightArena),
      initial_(initialGrid(config)), expected_(runCpuStencil(config))
{
}

StencilRunOutput
StencilDriver::run(const ir::Module& module, const sim::DeviceConfig& dev,
                   bool profile) const
{
    return run(sim::ProgramSet::decodeModule(module), dev, profile);
}

StencilRunOutput
StencilDriver::run(const sim::ProgramSet& programs,
                   const sim::DeviceConfig& dev, bool profile) const
{
    StencilRunOutput out;
    const std::int64_t gridBytes = 4ll * config_.cells();

    // Allocation plan: two ping-pong grids. The arena is sized to the
    // plan (capacity has no fault semantics — OOB keys on the
    // page-rounded allocated extent), so the per-evaluation zeroing cost
    // tracks the problem, not a fixed floor.
    const std::int64_t total = 2 * ((gridBytes + 255) / 256) * 256;
    sim::DeviceMemory mem(tightArena_ ? total : total + (1 << 18));
    const auto bufA = mem.alloc(gridBytes);
    const auto bufB = mem.alloc(gridBytes);
    mem.copyIn(bufA, initial_.data(), gridBytes);

    const auto* prog = programs.find("st_jacobi");
    if (prog == nullptr) {
        out.fault = {sim::FaultKind::InvalidProgram,
                     "st_jacobi missing from module"};
        return out;
    }
    const auto blocks = static_cast<std::uint32_t>(
        config_.cells() / static_cast<std::int32_t>(config_.blockDim));
    const sim::LaunchDims dims{blocks, config_.blockDim, kOversubscribe};

    sim::DevPtr src = bufA;
    sim::DevPtr dst = bufB;
    for (std::int32_t step = 0; step < config_.steps; ++step) {
        if (!out.add(sim::launchKernel(dev, mem, *prog, dims,
                                       {static_cast<std::uint64_t>(src),
                                        static_cast<std::uint64_t>(dst)},
                                       profile)))
            return out;
        std::swap(src, dst);
    }

    out.grid.resize(static_cast<std::size_t>(config_.cells()));
    mem.copyOut(out.grid.data(), src, gridBytes);
    return out;
}

std::string
StencilDriver::check(const StencilRunOutput& out) const
{
    for (std::size_t i = 0; i < expected_.size(); ++i) {
        if (out.grid[i] != expected_[i]) {
            const auto W = config_.gridW;
            return strformat("cell (%d,%d): got %.9g, want %.9g",
                             static_cast<int>(i) % W,
                             static_cast<int>(i) / W,
                             static_cast<double>(out.grid[i]),
                             static_cast<double>(expected_[i]));
        }
    }
    return {};
}

std::string
StencilDriver::label(const sim::DeviceConfig& dev) const
{
    return strformat("stencil(%dx%d, %d steps, %s)", config_.gridW,
                     config_.gridW, config_.steps, dev.name.c_str());
}

} // namespace gevo::stencil
