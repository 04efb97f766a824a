/// \file
/// SIMCoV model configuration (paper Sec II-C): a 2-D slice of lung
/// tissue with epithelial cells, virions, inflammatory signal (chemokine)
/// and T cells. Parameters are fixed-point/scaled where the GPU and CPU
/// models must agree bit-for-bit.

#ifndef GEVO_APPS_SIMCOV_CONFIG_H
#define GEVO_APPS_SIMCOV_CONFIG_H

#include <cstdint>
#include <string>
#include <vector>

namespace gevo::simcov {

/// Epithelial cell states.
enum EpiState : std::int32_t {
    kHealthy = 0,
    kInfected = 1,
    kApoptotic = 2,
    kDead = 3,
};

/// Model + run configuration.
struct SimcovConfig {
    std::int32_t gridW = 32;     ///< Square grid side.
    std::int32_t steps = 30;     ///< Simulation steps.
    std::uint32_t blockDim = 128;
    std::uint64_t seed = 1337;   ///< Per-cell RNG seeding.

    // ---- dynamics (f32; the GPU kernels embed these as immediates) ----
    float virionDiffuse = 0.20f;
    float chemDiffuse = 0.15f;
    float virionDecay = 0.025f;
    float chemDecay = 0.06f;
    float virionProduction = 1.1f;
    float chemProduction = 0.75f;
    float infectThreshold = 0.9f;
    float tcellSpawnThreshold = 0.45f;
    float initialVirions = 60.0f;

    // ---- probabilities as 24-bit fixed point (draw < scaled) ----
    std::int32_t infectProbScaled = static_cast<std::int32_t>(0.28 * (1 << 24));
    std::int32_t spawnProbScaled = static_cast<std::int32_t>(0.04 * (1 << 24));

    // ---- timers ----
    std::int32_t incubationSteps = 9;
    std::int32_t apoptosisSteps = 4;

    std::int32_t cells() const { return gridW * gridW; }
};

/// One step's aggregate outputs (the validation time series, paper
/// Sec III-C: fixed-seed ground truth compared per value).
struct StepStats {
    float totalVirions = 0.0f;
    float totalChemokine = 0.0f;
    std::int32_t tcells = 0;
    std::int32_t infected = 0;
    std::int32_t dead = 0;
};

/// Full run output: one StepStats per step.
using TimeSeries = std::vector<StepStats>;

/// Tolerances for comparing a variant's series against ground truth
/// ("per-value mean and per-value variance", paper Sec II-C2/III-C).
struct SeriesTolerance {
    double meanRel = 0.02; ///< Mean relative error bound per series.
    double maxRel = 0.10;  ///< Max relative error bound per series.
    double absFloor = 0.5; ///< Absolute slack for near-zero values.
};

/// The tolerance every SIMCoV fitness and held-out check applies.
inline constexpr SeriesTolerance kSeriesTolerance{};

/// Compare a variant series against the reference. Returns an empty
/// string when within tolerance, else a diagnostic.
std::string compareSeries(const TimeSeries& ref, const TimeSeries& got,
                          const SeriesTolerance& tol);

/// xorshift32 step shared by the CPU model and (re-implemented in IR) the
/// GPU kernels.
inline std::uint32_t
xorshift32(std::uint32_t s)
{
    s ^= s << 13;
    s ^= s >> 17;
    s ^= s << 5;
    return s;
}

/// Deterministic per-cell RNG seed (must match the GPU setup kernel).
inline std::uint32_t
cellSeed(std::uint64_t seed, std::int32_t cell)
{
    const auto mixed =
        (static_cast<std::uint64_t>(cell) + 1) * 0x9e3779b97f4a7c15ULL +
        seed;
    auto s = static_cast<std::uint32_t>(mixed >> 32) ^
             static_cast<std::uint32_t>(mixed);
    if (s == 0)
        s = 0x1234567;
    return s;
}

} // namespace gevo::simcov

#endif // GEVO_APPS_SIMCOV_CONFIG_H
