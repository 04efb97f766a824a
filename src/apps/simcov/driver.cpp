#include "apps/simcov/driver.h"

#include <array>

#include "apps/simcov/cpu_model.h"
#include "sim/device_memory.h"
#include "sim/program.h"
#include "support/logging.h"
#include "support/strings.h"

namespace gevo::simcov {

SimcovDriver::SimcovDriver(SimcovConfig config, bool padded,
                           bool tightArena)
    : config_(config), padded_(padded), tightArena_(tightArena),
      expected_(runCpuModel(config))
{
}

SimcovRunOutput
SimcovDriver::run(const ir::Module& module, const sim::DeviceConfig& dev,
                  bool profile) const
{
    return run(sim::ProgramSet::decodeModule(module), dev, profile);
}

SimcovRunOutput
SimcovDriver::run(const sim::ProgramSet& programs,
                  const sim::DeviceConfig& dev, bool profile) const
{
    SimcovRunOutput out;
    const std::int32_t w = config_.gridW;
    const std::int32_t side = padded_ ? w + 2 : w;
    const std::int64_t gridBytes = 4ll * side * side;

    // Allocation plan: stats + rng/epistate/timer/tcell/tcell_next +
    // virions_next/chem_next + virions + CHEMOKINE LAST (see header).
    const std::int64_t statsBytes = 256;
    const std::int64_t total = statsBytes + 9 * ((gridBytes + 255) / 256)
                                   * 256;
    // Arena sized to the allocation plan plus fixed slack (zeroed once
    // per evaluation — see the ADEPT driver note); capacity never
    // affects the OOB mapping rule, only page rounding of used() does.
    sim::DeviceMemory mem(tightArena_ ? total : total + (1 << 20));

    const auto stats = mem.alloc(statsBytes);
    const auto rng = mem.alloc(gridBytes);
    const auto epistate = mem.alloc(gridBytes);
    const auto timer = mem.alloc(gridBytes);
    const auto tcell = mem.alloc(gridBytes);
    const auto tcellNext = mem.alloc(gridBytes);
    const auto virionsNext = mem.alloc(gridBytes);
    const auto chemNext = mem.alloc(gridBytes);
    const auto virions = mem.alloc(gridBytes);
    const auto chemokine = mem.alloc(gridBytes);

    const auto blocks = static_cast<std::uint32_t>(
        config_.cells() / static_cast<std::int32_t>(config_.blockDim));
    const sim::LaunchDims dims{blocks, config_.blockDim, kOversubscribe};

    // Look up all pre-decoded kernels up front.
    std::vector<const sim::Program*> kernels;
    for (const char* name :
         {"sc_setup", "sc_vdiff", "sc_cdiff", "sc_epicell", "sc_tgen",
          "sc_tmove", "sc_tbind", "sc_stats"}) {
        const auto* prog = programs.find(name);
        if (prog == nullptr) {
            out.fault = {sim::FaultKind::InvalidProgram,
                         std::string(name) + " missing from module"};
            return out;
        }
        kernels.push_back(prog);
    }
    auto launch = [&](std::size_t idx,
                      const std::vector<std::uint64_t>& args) {
        return out.add(sim::launchKernel(dev, mem, *kernels[idx], dims,
                                         args, profile));
    };
    auto u64 = [](sim::DevPtr p) { return static_cast<std::uint64_t>(p); };

    // Setup.
    if (!launch(0, {u64(epistate), u64(timer), u64(virions),
                    u64(virionsNext), u64(chemokine), u64(chemNext),
                    u64(tcell), u64(tcellNext), u64(rng), config_.seed}))
        return out;

    sim::DevPtr vCur = virions;
    sim::DevPtr vNext = virionsNext;
    sim::DevPtr cCur = chemokine;
    sim::DevPtr cNext = chemNext;
    sim::DevPtr tCur = tcell;
    sim::DevPtr tNext = tcellNext;

    const auto wArg = static_cast<std::uint64_t>(w);
    for (std::int32_t step = 0; step < config_.steps; ++step) {
        for (int i = 0; i < 5; ++i)
            mem.write<std::uint32_t>(stats + 4ll * i, 0);

        const std::array<std::vector<std::uint64_t>, 7> argSets = {{
            {u64(vCur), u64(vNext), wArg},                      // vdiff
            {u64(cCur), u64(cNext), wArg},                      // cdiff
            {u64(epistate), u64(timer), u64(vNext), u64(cNext),
             u64(rng)},                                         // epicell
            {u64(tCur), u64(tNext), u64(cNext), u64(rng)},      // tgen
            {u64(tCur), u64(tNext), u64(rng), wArg},            // tmove
            {u64(tNext), u64(epistate), u64(timer), wArg},      // tbind
            {u64(vNext), u64(cNext), u64(tNext), u64(epistate),
             u64(stats)},                                       // stats
        }};
        for (std::size_t k = 0; k < argSets.size(); ++k) {
            if (!launch(k + 1, argSets[k]))
                return out;
        }

        StepStats s;
        s.totalVirions = mem.read<float>(stats);
        s.totalChemokine = mem.read<float>(stats + 4);
        s.tcells = mem.read<std::int32_t>(stats + 8);
        s.infected = mem.read<std::int32_t>(stats + 12);
        s.dead = mem.read<std::int32_t>(stats + 16);
        out.series.push_back(s);

        std::swap(vCur, vNext);
        std::swap(cCur, cNext);
        std::swap(tCur, tNext);
    }
    return out;
}

std::string
SimcovDriver::check(const SimcovRunOutput& out) const
{
    return compareSeries(expected_, out.series, kSeriesTolerance);
}

std::string
SimcovDriver::label(const sim::DeviceConfig& dev) const
{
    return strformat("simcov(%dx%d, %s)", config_.gridW, config_.gridW,
                     dev.name.c_str());
}

} // namespace gevo::simcov
