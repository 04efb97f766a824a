/// \file
/// Durable search-state snapshots: kill -9 a long campaign, `--resume`,
/// and replay to the bit-identical trajectory of an uninterrupted run.
///
/// A checkpoint captures everything the next generation depends on —
/// per-island populations with their evaluated fitness, per-island RNG
/// streams mid-sequence (support/rng.h state()/setState()), the
/// generation counter, the full GenerationLog history, the incumbent
/// best, and the quarantine set (core/eval_backend.h). It deliberately
/// captures NOTHING the trajectory does not depend on: cache contents are
/// trajectory-neutral (every entry is a deterministic function of its
/// key) and already have their own persistence (core/cache_store.h), so a
/// resumed run may re-simulate work a warm cache would have served —
/// cacheHits/cacheMisses wobble, the trajectory does not.
///
/// File format (core/codec.h, shared with the cache store and the wire):
/// magic + version + scope header, CRC-32 framed records, atomic
/// temp+rename saves, with one deliberate difference from the cache
/// store: any damage anywhere rejects the WHOLE file. The cache keeps its
/// good prefix because records are independent; a checkpoint is one
/// consistent state, and resuming from half of it would silently fork
/// the trajectory.
///
///   header   "GEVOCKPT" magic (8 bytes) + u32 format version
///            + u64 scope fingerprint
///   record*  u32 payloadLen | u32 crc32(payload) | payload
///   records  meta, best individual, islands[i]..., history[g]...,
///            quarantine, pareto front (exact counts and order fixed
///            by meta)
///
/// Edit lists (individuals' genotypes, each history entry's bestEdits)
/// use core/codec.h's binary edit-list encoding: u32 count, then 35
/// fixed bytes per edit (kind, opIndex, operand kind, srcUid, dstUid,
/// operand value, newUid).
///
/// The scope fingerprint binds a checkpoint to the search that wrote it:
/// compiled-baseline content + fitness name + every trajectory-relevant
/// parameter (population size, operator probabilities, seed, island
/// layout, sampler weights). Trajectory-NEUTRAL knobs — thread count,
/// cache settings, backend, generation budget — are excluded on purpose:
/// resuming with more threads, a different backend, or a raised
/// `--gens` (extending a finished search) is sound and supported.

#ifndef GEVO_CORE_CHECKPOINT_H
#define GEVO_CORE_CHECKPOINT_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/codec.h"
#include "core/engine.h"
#include "core/population.h"

namespace gevo::core {

/// Current checkpoint format version. Bump on any layout change: the
/// loader rejects other versions wholesale. v2 added the per-island
/// self-adaptive operator-rate state and the per-generation islandRates
/// log field (PR 8); v3 replaced the single fitness scalar with the
/// objective vector and added the Pareto archive and the per-generation
/// paretoFrontSize log field; v4 replaced the text edit lists with the
/// binary edit-list encoding (35 bytes per edit, up from about 25 of
/// text, but no formatting or parsing). Older versions degrade to a cold
/// start with a warning.
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// One island's durable state.
struct CheckpointIsland {
    /// The island's xoshiro256** stream, captured mid-sequence.
    std::array<std::uint64_t, 4> rngState{};
    double bestMs = 0.0; ///< Island best-so-far fitness.
    /// The population as bred for the next generation (fitness and
    /// evaluated flags included, so elites and migrants skip
    /// re-evaluation exactly as they would have in the original run).
    std::vector<Individual> members;
    /// Self-adaptive rate state (engine Island mirror; inert defaults
    /// when adaptation is off). The guided sampler's heat profile is
    /// deliberately NOT here: it is recomputed from the island elite
    /// after every evaluation, so a resumed run re-derives it
    /// bit-identically before the next breed.
    mut::SamplerConfig rates{};
    mut::SamplerConfig candidateRates{};
    bool ratePending = false;
    double rateLastBest = 0.0;
};

/// Full durable search state.
struct CheckpointState {
    /// Last fully completed generation (its log is in `history`; the
    /// islands are already bred for generation + 1).
    std::uint32_t generation = 0;
    /// The run completed its generation budget (as opposed to being
    /// checkpointed mid-search or interrupted). Informational: resume
    /// decides what to do from `generation` alone.
    bool finished = false;
    double baselineMs = 0.0;
    Individual best; ///< Incumbent best over the whole run.
    std::vector<GenerationLog> history;
    std::vector<CheckpointIsland> islands;
    /// Canonical edit-list keys of quarantined genotypes, sorted.
    std::vector<std::string> quarantine;
    /// Cross-generation non-dominated archive (Pareto selection only;
    /// empty for scalar runs), ordered by canonical edit-list key.
    std::vector<Individual> paretoFront;
};

/// Outcome of reading a checkpoint file.
struct CheckpointLoadResult {
    /// Corrupt means damaged anywhere: the whole file is rejected.
    using Status = FileStatus;

    Status status = Status::Missing;
    CheckpointState state;
    /// Human-readable detail for warnings (empty when Ok).
    std::string message;

    bool usable() const { return status == Status::Ok; }
};

/// Read a checkpoint. \p expectedScope must match the fingerprint the
/// file was saved with; 0 skips the check (diagnostic tooling). Never
/// throws and never terminates: every failure mode maps to a status the
/// caller can warn about and degrade to a cold start.
CheckpointLoadResult loadCheckpoint(const std::string& path,
                                    std::uint64_t expectedScope = 0);

/// Atomically replace \p path with a snapshot of \p state under \p scope
/// (process-unique temp + rename, same discipline as saveCacheStore).
/// Returns false with \p error set on I/O failure; the previous file, if
/// any, is left intact.
bool saveCheckpoint(const std::string& path, std::uint64_t scope,
                    const CheckpointState& state,
                    std::string* error = nullptr);

} // namespace gevo::core

#endif // GEVO_CORE_CHECKPOINT_H
