/// \file
/// Simulated GPU descriptions.
///
/// The three presets mirror paper Table I (P100, GTX 1080Ti, V100). The
/// Table I columns (architecture family, CUDA cores, core frequency, memory)
/// are hardware facts; the remaining fields are microarchitectural timing
/// parameters calibrated so that the paper's *relative* results reproduce
/// (see DESIGN.md §6 — we claim shape fidelity, not cycle accuracy).

#ifndef GEVO_SIM_DEVICE_CONFIG_H
#define GEVO_SIM_DEVICE_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace gevo::sim {

/// GPU architecture family (drives warp-synchronization semantics).
enum class ArchFamily : std::uint8_t {
    Pascal, ///< Lock-step warps; ballot_sync is nearly free; stale shuffle
            ///< masks are tolerated.
    Volta,  ///< Independent thread scheduling: ballot_sync pays a re-sync
            ///< cost and shfl_sync with a mask naming inactive lanes faults.
};

/// Full description of one simulated device.
struct DeviceConfig {
    std::string name;       ///< "P100", "GTX1080Ti", "V100".
    ArchFamily family = ArchFamily::Pascal;

    // ---- Table I facts ----
    std::uint32_t smCount = 56;        ///< Streaming multiprocessors.
    std::uint32_t coresPerSm = 64;     ///< CUDA cores per SM.
    std::uint32_t clockMhz = 1386;     ///< Core frequency.
    std::uint32_t memoryGb = 16;       ///< Device memory size.
    std::string memoryKind = "HBM";    ///< Marketing memory type.

    // ---- occupancy limits ----
    std::uint32_t maxWarpsPerSm = 64;
    std::uint32_t maxBlocksPerSm = 32;
    std::uint32_t sharedPerSmBytes = 64 * 1024;

    // ---- issue / latency model ----
    std::uint32_t issueWidth = 2;      ///< Warp-instructions issued per
                                       ///< cycle per SM (schedulers).
    std::uint32_t aluLat = 6;          ///< Register ready delay for ALU.
    std::uint32_t sharedLat = 24;      ///< Shared-memory load latency.
    std::uint32_t sharedIssue = 2;     ///< Issue slots per conflict-free
                                       ///< shared access.
    std::uint32_t globalLat = 440;     ///< Global load latency (cycles).
    std::uint32_t globalSectorIssue = 4; ///< Issue slots per 32B sector.
    std::uint32_t shflLat = 22;        ///< Shuffle result latency.
    std::uint32_t shflIssue = 2;       ///< Shuffle issue slots.
    std::uint32_t ballotIssue = 2;     ///< Ballot issue slots (Pascal).
    std::uint32_t ballotResync = 0;    ///< Extra re-sync cycles (Volta).
    std::uint32_t barrierBase = 32;    ///< Barrier fixed wait (cycles).
    std::uint32_t barrierPerWarp = 6;  ///< Barrier per-warp wait.
    std::uint32_t barrierIssue = 12;   ///< Issue slots a barrier occupies.
    std::uint32_t divergeOverhead = 12; ///< Cycles per divergence event.
    std::uint32_t atomicIssue = 8;     ///< Issue slots per atomic way.
    std::uint32_t atomicLat = 120;     ///< Atomic result latency (global).
    /// Shared-store completion skew: extra cycles proportional to the
    /// highest active lane (models sub-warp transaction scheduling; this is
    /// the mechanism behind paper edit 5, Sec VI-A).
    double storeLaneSkew = 0.5;
    /// Cap on shared-store serialization ways (write-combining depth);
    /// Volta coalesces same-address stores more aggressively than Pascal,
    /// which is why the paper's V0 bottleneck hurts the V100 less
    /// (18.4x there vs 32.8x on the P100).
    std::uint32_t storeWaysCap = 32;

    /// Instruction budget of each warp of each block, counted in warp
    /// instructions; a warp that issues more is a Timeout fault (catches
    /// mutants with runaway loops). A block whose state repeats is
    /// fast-forwarded to that fault (sim::fastForwardMode()).
    std::uint64_t maxInstrPerThread = 4'000'000;

    /// Convenience: total CUDA cores (Table I row).
    std::uint32_t cudaCores() const { return smCount * coresPerSm; }
    /// True for Volta-style independent thread scheduling.
    bool independentThreadScheduling() const
    {
        return family == ArchFamily::Volta;
    }
};

/// NVIDIA Tesla P100 (Pascal) — paper's primary analysis platform.
DeviceConfig p100();
/// NVIDIA GTX 1080Ti (Pascal, consumer).
DeviceConfig gtx1080ti();
/// NVIDIA Tesla V100 (Volta).
DeviceConfig v100();

/// Preset by name, matched case-insensitively against the registered
/// devices ("1080Ti" survives as a historical shorthand). Unknown names
/// die with the registered device list, mirroring the workload
/// registry's fatal style.
DeviceConfig deviceByName(const std::string& name);

/// Parse a comma-separated device list ("p100,v100"; "all" = the full
/// Table I set). Fatal on empty or unknown entries, listing the
/// registered devices.
std::vector<DeviceConfig> resolveDeviceList(const std::string& csv);

/// All three paper devices, in Table I order.
std::vector<DeviceConfig> allDevices();

} // namespace gevo::sim

#endif // GEVO_SIM_DEVICE_CONFIG_H
