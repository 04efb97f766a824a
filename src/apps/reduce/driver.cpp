#include "apps/reduce/driver.h"

#include "sim/device_memory.h"
#include "sim/program.h"
#include "support/strings.h"

namespace gevo::reduce {

ReduceDriver::ReduceDriver(ReduceConfig config, bool tightArena)
    : config_(config), tightArena_(tightArena)
{
    for (std::int32_t d = 0; d < config_.inputs; ++d) {
        inputs_.push_back(makeInput(config_, d));
        expectedPartials_.push_back(cpuPartials(config_, inputs_.back()));
        expectedTotals_.push_back(cpuTotal(inputs_.back()));
    }
}

ReduceRunOutput
ReduceDriver::run(const ir::Module& module, const sim::DeviceConfig& dev,
                  bool profile) const
{
    return run(sim::ProgramSet::decodeModule(module), dev, profile);
}

ReduceRunOutput
ReduceDriver::run(const sim::ProgramSet& programs,
                  const sim::DeviceConfig& dev, bool profile) const
{
    ReduceRunOutput out;
    const std::int64_t inBytes = 4ll * config_.elems;
    const std::int64_t partialBytes = 4ll * config_.finalSlots();

    // Allocation plan: input + zero-padded partials + one result slot.
    const auto round = [](std::int64_t b) { return (b + 255) / 256 * 256; };
    const std::int64_t total =
        round(inBytes) + round(partialBytes) + round(4);
    sim::DeviceMemory mem(tightArena_ ? total : total + (1 << 18));
    const auto in = mem.alloc(inBytes);
    const auto partials = mem.alloc(partialBytes);
    const auto result = mem.alloc(4);

    const auto* partialProg = programs.find("rd_partial");
    const auto* finalProg = programs.find("rd_final");
    if (partialProg == nullptr || finalProg == nullptr) {
        out.fault = {sim::FaultKind::InvalidProgram,
                     "rd_partial/rd_final missing from module"};
        return out;
    }

    const auto blocks = static_cast<std::uint32_t>(config_.numBlocks());
    const sim::LaunchDims partialDims{blocks, config_.blockDim,
                                      kOversubscribe};
    const sim::LaunchDims finalDims{1, config_.blockDim, kOversubscribe};

    for (std::size_t d = 0; d < inputs_.size(); ++d) {
        mem.copyIn(in, inputs_[d].data(), inBytes);
        // Unwritten partial slots must read as zero for every dataset —
        // a mutant may have scribbled over the pad on the previous one.
        for (std::int32_t p = config_.numBlocks();
             p < config_.finalSlots(); ++p)
            mem.write<std::uint32_t>(partials + 4ll * p, 0);

        for (const auto& [prog, dims, src, dst] :
             {std::tuple{partialProg, partialDims, in, partials},
              std::tuple{finalProg, finalDims, partials, result}}) {
            if (!out.add(sim::launchKernel(
                    dev, mem, *prog, dims,
                    {static_cast<std::uint64_t>(src),
                     static_cast<std::uint64_t>(dst)},
                    profile)))
                return out;
        }

        auto& p = out.partials.emplace_back();
        p.resize(static_cast<std::size_t>(config_.numBlocks()));
        mem.copyOut(p.data(), partials, 4ll * config_.numBlocks());
        out.totals.push_back(mem.read<std::uint32_t>(result));
    }
    return out;
}

std::string
ReduceDriver::check(const ReduceRunOutput& out) const
{
    for (std::size_t d = 0; d < out.totals.size(); ++d) {
        if (out.partials[d] != expectedPartials_[d])
            return strformat("dataset %zu: partial sums diverge from the "
                             "CPU reference",
                             d);
        if (out.totals[d] != expectedTotals_[d])
            return strformat("dataset %zu: got total %u, want %u", d,
                             out.totals[d], expectedTotals_[d]);
    }
    return {};
}

std::string
ReduceDriver::label(const sim::DeviceConfig& dev) const
{
    return strformat("reduce(%d elems x %d inputs, %s)", config_.elems,
                     config_.inputs, dev.name.c_str());
}

} // namespace gevo::reduce
