/// \file
/// Host-side driver: packs sequence pairs into device memory, launches the
/// ADEPT kernels (from any module variant — this is the "load the mutated
/// PTX" step of paper Fig. 1), and reads back alignment results.

#ifndef GEVO_APPS_ADEPT_DRIVER_H
#define GEVO_APPS_ADEPT_DRIVER_H

#include <vector>

#include "apps/adept/kernels.h"
#include "apps/adept/scoring.h"
#include "apps/adept/sequences.h"
#include "core/app.h"
#include "sim/device_config.h"
#include "sim/executor.h"

namespace gevo::adept {

/// Output of one full run over a pair set.
/// `aggregate` is the forward plus the reverse launch.
struct AdeptRunOutput : core::RunOutput {
    std::vector<AlignmentResult> results;  ///< Per pair (empty on fault).
    sim::LaunchStats fwdStats;
    sim::LaunchStats revStats;             ///< V1 only.
};

/// Immutable dataset + launch configuration; safe to share across threads
/// (each run() builds its own device memory).
class AdeptDriver {
  public:
    /// \p version selects result decoding (V0: no start positions).
    AdeptDriver(std::vector<SequencePair> pairs, ScoringParams scoring,
                int version, std::uint32_t maxThreads);

    /// Execute the pre-decoded kernels over the dataset on \p dev. This is
    /// the scoring stage of the two-stage pipeline: no IR access, no
    /// decoding — just launches against an already-compiled variant.
    AdeptRunOutput run(const sim::ProgramSet& programs,
                       const sim::DeviceConfig& dev,
                       bool profile = false) const;

    /// Convenience: decode \p module's kernels and run them (one-off
    /// callers; the hot path compiles once and uses the overload above).
    AdeptRunOutput run(const ir::Module& module,
                       const sim::DeviceConfig& dev,
                       bool profile = false) const;

    /// CPU-oracle results for the dataset (start positions iff version 1).
    const std::vector<AlignmentResult>& expected() const
    {
        return expected_;
    }

    /// The dataset.
    const std::vector<SequencePair>& pairs() const { return pairs_; }
    std::uint32_t maxThreads() const { return maxThreads_; }

    /// Timing-grid multiplier (see sim::LaunchDims::oversubscribe): the
    /// fitness pair set stands in for the paper's 30,000-pair batches, so
    /// kernels are priced in the saturated-device regime by default.
    void setOversubscribe(std::uint32_t factor) { oversubscribe_ = factor; }
    std::uint32_t oversubscribe() const { return oversubscribe_; }

    /// Host threads that may run a launch's blocks speculatively (see
    /// sim::LaunchDims::blockThreads; 0/1 = serial). A hint: results are
    /// the serial launch's whatever the value, for any variant. Each
    /// unmodified block aligns one pair and touches only that pair's
    /// bytes, so its speculative run commits.
    void setBlockThreads(std::uint32_t threads) { blockThreads_ = threads; }
    std::uint32_t blockThreads() const { return blockThreads_; }

    /// Strict accuracy (paper Sec III-C): every pair's score, end and
    /// start positions must match the CPU oracle.
    std::string check(const AdeptRunOutput& out) const;
    std::string label(const sim::DeviceConfig& dev) const;

  private:
    std::vector<SequencePair> pairs_;
    ScoringParams scoring_;
    int version_;
    std::uint32_t maxThreads_;
    std::uint32_t maxLen_;
    std::uint32_t oversubscribe_ = 512;
    std::uint32_t blockThreads_ = 1;
    std::vector<AlignmentResult> expected_;
};

/// Scores a module variant by total simulated kernel time over the
/// AdeptDriver's pair set; any fault or any result mismatch invalidates it.
using AdeptFitness = core::DriverFitness<AdeptDriver>;

} // namespace gevo::adept

#endif // GEVO_APPS_ADEPT_DRIVER_H
