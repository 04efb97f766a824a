#include "apps/adept/driver.h"

#include <algorithm>

#include "apps/adept/cpu_reference.h"
#include "sim/device_memory.h"
#include "sim/program.h"
#include "support/logging.h"
#include "support/strings.h"

namespace gevo::adept {

AdeptDriver::AdeptDriver(std::vector<SequencePair> pairs,
                         ScoringParams scoring, int version,
                         std::uint32_t maxThreads)
    : pairs_(std::move(pairs)), scoring_(scoring), version_(version),
      maxThreads_(maxThreads)
{
    GEVO_ASSERT(!pairs_.empty(), "empty dataset");
    std::size_t maxLen = 0;
    for (const auto& p : pairs_)
        maxLen = std::max({maxLen, p.a.size(), p.b.size()});
    maxLen_ = static_cast<std::uint32_t>(maxLen);
    GEVO_ASSERT(maxLen_ <= maxThreads_,
                "sequences longer than the kernel's thread block");
    expected_ = alignAllCpu(pairs_, scoring_, version_ == 1);
}

AdeptRunOutput
AdeptDriver::run(const ir::Module& module, const sim::DeviceConfig& dev,
                 bool profile) const
{
    return run(sim::ProgramSet::decodeModule(module), dev, profile);
}

AdeptRunOutput
AdeptDriver::run(const sim::ProgramSet& programs,
                 const sim::DeviceConfig& dev, bool profile) const
{
    AdeptRunOutput out;
    const auto n = static_cast<std::uint32_t>(pairs_.size());
    const std::int64_t stride = maxThreads_;

    // Size the arena to the actual allocation plan (sequences, lengths,
    // outputs, plus page-rounding slack): the arena is zeroed on
    // construction once per evaluation, so an oversized fixed floor is
    // pure memset overhead on the hot path. Capacity has no fault
    // semantics — OOB detection keys on the page-rounded allocated
    // extent, not the arena size.
    sim::DeviceMemory mem(std::max<std::int64_t>(
        1 << 20, 16ll * stride * n + (1 << 17)));
    const auto seqA = mem.alloc(stride * n);
    const auto seqB = mem.alloc(stride * n);
    const auto lenA = mem.alloc(4ll * n);
    const auto lenB = mem.alloc(4ll * n);
    const auto outScore = mem.alloc(4ll * n);
    const auto outEndA = mem.alloc(4ll * n);
    const auto outEndB = mem.alloc(4ll * n);
    sim::DevPtr outStartA = 0;
    sim::DevPtr outStartB = 0;
    if (version_ == 1) {
        outStartA = mem.alloc(4ll * n);
        outStartB = mem.alloc(4ll * n);
    }

    for (std::uint32_t p = 0; p < n; ++p) {
        const auto& pair = pairs_[p];
        mem.copyIn(seqA + stride * p, pair.a.data(),
                   static_cast<std::int64_t>(pair.a.size()));
        mem.copyIn(seqB + stride * p, pair.b.data(),
                   static_cast<std::int64_t>(pair.b.size()));
        mem.write<std::int32_t>(lenA + 4ll * p,
                                static_cast<std::int32_t>(pair.a.size()));
        mem.write<std::int32_t>(lenB + 4ll * p,
                                static_cast<std::int32_t>(pair.b.size()));
    }

    const auto* fwdProg =
        programs.find(version_ == 0 ? "sw_fwd_v0" : "sw_fwd_v1");
    if (fwdProg == nullptr) {
        out.fault = {sim::FaultKind::InvalidProgram,
                     "forward kernel missing from module"};
        return out;
    }
    const sim::LaunchDims dims{n, maxThreads_, oversubscribe_,
                               blockThreads_};
    const std::vector<std::uint64_t> fwdArgs = {
        static_cast<std::uint64_t>(seqA),
        static_cast<std::uint64_t>(seqB),
        static_cast<std::uint64_t>(lenA),
        static_cast<std::uint64_t>(lenB),
        static_cast<std::uint64_t>(outScore),
        static_cast<std::uint64_t>(outEndA),
        static_cast<std::uint64_t>(outEndB),
        static_cast<std::uint64_t>(stride),
    };
    const auto fwdRes =
        sim::launchKernel(dev, mem, *fwdProg, dims, fwdArgs, profile);
    out.fwdStats = fwdRes.stats;
    if (!out.add(fwdRes))
        return out;

    if (version_ == 1) {
        const auto* revProg = programs.find("sw_rev_v1");
        if (revProg == nullptr) {
            out.fault = {sim::FaultKind::InvalidProgram,
                         "reverse kernel missing from module"};
            return out;
        }
        const std::vector<std::uint64_t> revArgs = {
            static_cast<std::uint64_t>(seqA),
            static_cast<std::uint64_t>(seqB),
            static_cast<std::uint64_t>(outEndA),
            static_cast<std::uint64_t>(outEndB),
            static_cast<std::uint64_t>(outStartA),
            static_cast<std::uint64_t>(outStartB),
            static_cast<std::uint64_t>(stride),
        };
        const auto revRes =
            sim::launchKernel(dev, mem, *revProg, dims, revArgs, profile);
        out.revStats = revRes.stats;
        if (!out.add(revRes))
            return out;
    }

    out.results.resize(n);
    for (std::uint32_t p = 0; p < n; ++p) {
        auto& r = out.results[p];
        r.score = mem.read<std::int32_t>(outScore + 4ll * p);
        r.endA = mem.read<std::int32_t>(outEndA + 4ll * p);
        r.endB = mem.read<std::int32_t>(outEndB + 4ll * p);
        if (version_ == 1) {
            r.startA = mem.read<std::int32_t>(outStartA + 4ll * p);
            r.startB = mem.read<std::int32_t>(outStartB + 4ll * p);
        }
    }
    return out;
}

std::string
AdeptDriver::check(const AdeptRunOutput& out) const
{
    for (std::size_t p = 0; p < expected_.size(); ++p) {
        const auto& got = out.results[p];
        const auto& want = expected_[p];
        if (!(got == want)) {
            return strformat(
                "pair %zu: got score %d end (%d,%d) start (%d,%d), want "
                "score %d end (%d,%d) start (%d,%d)",
                p, got.score, got.endA, got.endB, got.startA, got.startB,
                want.score, want.endA, want.endB, want.startA,
                want.startB);
        }
    }
    return {};
}

std::string
AdeptDriver::label(const sim::DeviceConfig& dev) const
{
    return strformat("adept(%zu pairs, %s)", pairs_.size(),
                     dev.name.c_str());
}

} // namespace gevo::adept
