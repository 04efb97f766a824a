#include "apps/bfs/driver.h"

#include "sim/device_memory.h"
#include "sim/program.h"
#include "support/strings.h"

namespace gevo::bfs {

BfsDriver::BfsDriver(BfsConfig config, bool tightArena)
    : config_(config), tightArena_(tightArena), graph_(makeGraph(config)),
      expected_(runCpuBfs(config, graph_))
{
}

BfsRunOutput
BfsDriver::run(const ir::Module& module, const sim::DeviceConfig& dev,
               bool profile) const
{
    return run(sim::ProgramSet::decodeModule(module), dev, profile);
}

BfsRunOutput
BfsDriver::run(const sim::ProgramSet& programs,
               const sim::DeviceConfig& dev, bool profile) const
{
    BfsRunOutput out;
    const std::int64_t rowBytes = 4ll * (config_.nodes + 1);
    const std::int64_t colBytes = 4ll * config_.edges();
    const std::int64_t distBytes = 4ll * config_.nodes;

    // Allocation plan: rowPtr + colIdx + dist + the discovery counter,
    // with `dist` LAST before the counter so an unguarded neighbour
    // access from a mutated kernel runs off the mapped end on a tight
    // arena instead of landing in slack.
    const auto round = [](std::int64_t b) { return (b + 255) / 256 * 256; };
    const std::int64_t total = round(rowBytes) + round(colBytes) +
                               round(distBytes) + round(4);
    sim::DeviceMemory mem(tightArena_ ? total : total + (1 << 18));
    const auto rowPtr = mem.alloc(rowBytes);
    const auto colIdx = mem.alloc(colBytes);
    const auto dist = mem.alloc(distBytes);
    const auto changed = mem.alloc(4);
    mem.copyIn(rowPtr, graph_.rowPtr.data(), rowBytes);
    mem.copyIn(colIdx, graph_.colIdx.data(), colBytes);

    const auto* initProg = programs.find("bfs_init");
    const auto* levelProg = programs.find("bfs_level");
    if (initProg == nullptr || levelProg == nullptr) {
        out.fault = {sim::FaultKind::InvalidProgram,
                     "bfs_init/bfs_level missing from module"};
        return out;
    }

    const auto blocks = static_cast<std::uint32_t>(
        config_.nodes / static_cast<std::int32_t>(config_.blockDim));
    const sim::LaunchDims dims{blocks, config_.blockDim, kOversubscribe};
    auto u64 = [](sim::DevPtr p) { return static_cast<std::uint64_t>(p); };

    if (!out.add(sim::launchKernel(
            dev, mem, *initProg, dims,
            {u64(dist), static_cast<std::uint64_t>(config_.source)},
            profile)))
        return out;

    // Level-synchronous loop, capped at the node count (the longest
    // possible shortest path) so mutants cannot spin the host.
    for (std::int32_t level = 0; level < config_.nodes; ++level) {
        mem.write<std::int32_t>(changed, 0);
        if (!out.add(sim::launchKernel(
                dev, mem, *levelProg, dims,
                {u64(rowPtr), u64(colIdx), u64(dist), u64(changed),
                 static_cast<std::uint64_t>(level)},
                profile)))
            return out;
        ++out.levels;
        if (mem.read<std::int32_t>(changed) == 0)
            break;
    }

    out.dist.resize(static_cast<std::size_t>(config_.nodes));
    mem.copyOut(out.dist.data(), dist, distBytes);
    return out;
}

std::string
BfsDriver::check(const BfsRunOutput& out) const
{
    for (std::size_t v = 0; v < expected_.size(); ++v) {
        if (out.dist[v] != expected_[v])
            return strformat("node %zu: got distance %d, want %d", v,
                             out.dist[v], expected_[v]);
    }
    return {};
}

std::string
BfsDriver::label(const sim::DeviceConfig& dev) const
{
    return strformat("bfs(%d nodes, degree %d, %s)", config_.nodes,
                     config_.degree, dev.name.c_str());
}

} // namespace gevo::bfs
