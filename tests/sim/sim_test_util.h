/// \file
/// Helpers shared by the simulator test suites: parse a kernel, run it on a
/// device, and inspect memory.

#ifndef GEVO_TESTS_SIM_TEST_UTIL_H
#define GEVO_TESTS_SIM_TEST_UTIL_H

#include <gtest/gtest.h>

#include <vector>

#include "ir/parser.h"
#include "ir/verifier.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"

namespace gevo::sim::testutil {

/// RAII interpreter-mode override; restores the previous mode on exit
/// (so a GEVO_SIM_REFPATH=1 suite run keeps its selection outside the
/// guarded regions). Shared by the differential suites.
class InterpModeGuard {
  public:
    explicit InterpModeGuard(InterpMode mode) : previous_(interpreterMode())
    {
        setInterpreterMode(mode);
    }
    ~InterpModeGuard() { setInterpreterMode(previous_); }

    InterpModeGuard(const InterpModeGuard&) = delete;
    InterpModeGuard& operator=(const InterpModeGuard&) = delete;

  private:
    InterpMode previous_;
};

/// RAII dense-lane-mode override; restores the previous setting on exit
/// (so a GEVO_SIM_DENSE=0 suite run keeps its selection outside the
/// guarded regions).
class DenseLaneGuard {
  public:
    explicit DenseLaneGuard(bool on) : previous_(denseLaneMode())
    {
        setDenseLaneMode(on);
    }
    ~DenseLaneGuard() { setDenseLaneMode(previous_); }

    DenseLaneGuard(const DenseLaneGuard&) = delete;
    DenseLaneGuard& operator=(const DenseLaneGuard&) = delete;

  private:
    bool previous_;
};

/// RAII fast-forward override; restores the previous setting on exit.
class FastForwardGuard {
  public:
    explicit FastForwardGuard(bool on) : previous_(fastForwardMode())
    {
        setFastForwardMode(on);
    }
    ~FastForwardGuard() { setFastForwardMode(previous_); }

    FastForwardGuard(const FastForwardGuard&) = delete;
    FastForwardGuard& operator=(const FastForwardGuard&) = delete;

  private:
    bool previous_;
};

/// Bit-identical LaunchStats comparison — shared by every differential
/// suite (trace-vs-reference micro-kernels, app drivers, workload tests)
/// so a new counter only has to be added here, not in each copy.
inline void
expectStatsEqual(const LaunchStats& a, const LaunchStats& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ms, b.ms); // bit-identical, not approximately
    EXPECT_EQ(a.warpInstrs, b.warpInstrs);
    EXPECT_EQ(a.laneInstrs, b.laneInstrs);
    EXPECT_EQ(a.issueCycles, b.issueCycles);
    EXPECT_EQ(a.divergences, b.divergences);
    EXPECT_EQ(a.barriers, b.barriers);
    EXPECT_EQ(a.sharedConflictWays, b.sharedConflictWays);
    EXPECT_EQ(a.globalSectors, b.globalSectors);
    EXPECT_EQ(a.occupancyBlocks, b.occupancyBlocks);
    EXPECT_EQ(a.locIssues, b.locIssues);
}

/// Parse one kernel from text, verifying structure.
inline Program
compile(const char* text)
{
    auto res = ir::parseModule(text);
    EXPECT_TRUE(res.ok) << res.error;
    const auto verify = ir::verifyModule(res.module);
    EXPECT_TRUE(verify.ok()) << verify.message();
    return Program::decode(res.module.function(0));
}

/// Run a kernel and expect success.
inline LaunchResult
run(const Program& prog, DeviceMemory& mem, LaunchDims dims,
    std::vector<std::uint64_t> args = {},
    const DeviceConfig& dev = p100(), bool profile = false)
{
    auto result = launchKernel(dev, mem, prog, dims, args, profile);
    EXPECT_TRUE(result.ok()) << result.fault.detail;
    return result;
}

/// Run a kernel and expect a specific fault kind.
inline LaunchResult
runExpectFault(const Program& prog, DeviceMemory& mem, LaunchDims dims,
               FaultKind kind, std::vector<std::uint64_t> args = {},
               const DeviceConfig& dev = p100())
{
    auto result = launchKernel(dev, mem, prog, dims, args);
    EXPECT_EQ(result.fault.kind, kind) << result.fault.detail;
    return result;
}

} // namespace gevo::sim::testutil

#endif // GEVO_TESTS_SIM_TEST_UTIL_H
