/// \file
/// The evaluation-backend seam: who executes a generation's batch of
/// fitness evaluations, and what happens when an evaluation takes the
/// evaluating process down with it.
///
/// The engine batches every island's unevaluated individuals into one
/// dispatch per generation (core/engine.h); this interface owns that
/// dispatch. Three kinds, two implementations:
///
///   InProcess — the engine thread and the process-wide HelperPool
///   (support/thread_pool.h) claim batch positions from one counter:
///   every evaluation runs in the engine's own address space, on at most
///   `params.threads` threads (0 = hardware concurrency), and serially in
///   a forked child. Fastest, but a variant whose simulation segfaults,
///   aborts or hangs kills the whole search (GEVO-scale campaigns are
///   256 x 300 ~ 77k evaluations of adversarially mutated programs —
///   hours of wall clock riding on every one of them behaving).
///
///   Isolated and Remote — the farm dispatcher (farm/client.h) talking
///   to farm WorkerSessions (farm/session.h) over framed sockets. Remote
///   dials workerd daemons; Isolated forks its sessions over socketpairs
///   once per search, so they inherit the base module, the fitness
///   function and a copy-on-write copy of the program cache, which the
///   dispatcher keeps in step with the caller's from then on.
///   Either way one deadline clock, one two-strike rule and one penalty
///   function apply: a variant that crashes, hangs or corrupts its
///   session twice is scored as a deterministic invalid-individual
///   penalty carrying an EvalFailure tag, and the engine quarantines the
///   genotype by content key so it is never dispatched again.
///
/// Every backend produces identical FitnessResults for every evaluation
/// that completes — fitness is a deterministic function of the edit list
/// — so the search trajectory is backend-independent as long as no fault
/// fires. Only the cache/simulation counters may differ at more than one
/// thread or worker (concurrent evaluators cannot share each other's
/// within-batch program-cache hits).
///
/// Fault injection (testing): the GEVO_FAULT_INJECT environment variable
/// deterministically injects failures by global evaluation sequence
/// number, e.g. "crash@12" (the 13th dispatched evaluation segfaults),
/// "hang@3" (sleeps until the deadline kills it), "garbage@7" (the
/// session writes a malformed response frame), with a comma-separated
/// list and a "+" suffix meaning "this one and every later evaluation"
/// ("crash@5+"). Faults fire only in worker sessions, so only the
/// isolated and remote backends see them (core/fault_inject.h). A
/// redispatch keeps its sequence number, so a fault fires on both
/// strikes. The spec is re-read per backend construction and sequence
/// numbers are per-backend, so tests stay independent.

#ifndef GEVO_CORE_EVAL_BACKEND_H
#define GEVO_CORE_EVAL_BACKEND_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fitness.h"
#include "core/params.h"
#include "core/variant_cache.h"
#include "mutation/edit.h"

namespace gevo::core {

/// How an evaluation failed to produce a genuine pipeline result. None
/// means the pipeline ran to completion (the FitnessResult itself may
/// still be invalid — a verifier rejection or wrong output — but that is
/// a property of the variant, not of the evaluation machinery). The
/// three failure kinds are exactly GenerationLog's three counters, on
/// every backend.
enum class EvalFailure : std::uint8_t {
    None = 0,
    /// The evaluating process died (segfault/abort/OOM), or its
    /// session's connection was lost mid-evaluation.
    WorkerCrash,
    /// The per-evaluation deadline expired.
    WorkerTimeout,
    /// The worker returned an undecodable or corrupt response.
    ProtocolError,
};

/// Human-readable failure name ("none", "crash", "timeout", "protocol").
std::string_view evalFailureName(EvalFailure failure);

/// Outcome of one dispatched evaluation.
struct EvalOutcome {
    FitnessResult result;
    EvalFailure failure = EvalFailure::None;
    /// Cost a fresh simulation (vs. a program-cache hit).
    bool simulated = false;
    /// Compile stage ran and the verifier rejected the variant.
    bool rejected = false;
};

/// Executes one generation's batch of fitness evaluations. Implementations
/// must be deterministic per task: outcome[i] depends only on batch[i]
/// (and the injected fault schedule), never on scheduling.
class EvaluationBackend {
  public:
    virtual ~EvaluationBackend() = default;

    /// Evaluate batch[i] (an edit list against the backend's base module)
    /// into (*out)[i]. \p programCache, when non-null, is the shared
    /// compiled-program-content cache: backends serve repeat programs
    /// from it and insert fresh simulation results into it. Null selects
    /// the compile-per-call reference path (every task compiled and
    /// simulated, no cache lookups).
    virtual void
    evaluateBatch(const std::vector<const std::vector<mut::Edit>*>& batch,
                  VariantCache* programCache,
                  std::vector<EvalOutcome>* out) = 0;
};

/// Backend implied by \p params (threads, backend kind, deadline).
/// \p base and \p fitness must outlive the backend.
std::unique_ptr<EvaluationBackend>
makeBackend(const ir::Module& base, const FitnessFunction& fitness,
            const EvolutionParams& params);

/// The farm dispatcher: forked sessions for EvalBackendKind::Isolated
/// (`params.threads` of them, 0 = hardware), dialed daemons for
/// EvalBackendKind::Remote (`params.workers` = comma-separated
/// "host:port" / "unix:/path" list). Defined in farm/client.cpp;
/// makeBackend routes both kinds here.
std::unique_ptr<EvaluationBackend>
makeFarmBackend(const ir::Module& base, const FitnessFunction& fitness,
                const EvolutionParams& params);

/// Evaluate one edit list through the two-stage pipeline against a
/// precompiled \p compiler. With a \p programCache this is the cached-path
/// body (compile, serve repeat programs from the cache, simulate + insert
/// otherwise); without one it is the compile-per-call reference path
/// (every task simulated, no cache lookups). \p programKeyOut, when
/// non-null, receives the program content key of every task that reached
/// the cache, hit or miss: sessions ship it back so the caller's live
/// cache replays the same lookup or insert (outcome.simulated tells
/// which), keeping a bounded cache's recency order equal to theirs.
/// Shared by the in-process backend, the worker session and the farm
/// dispatcher's local fallback.
EvalOutcome
evaluateTask(const VariantCompiler& compiler, const FitnessFunction& fitness,
             const std::vector<mut::Edit>& edits, VariantCache* programCache,
             std::string* programKeyOut);

} // namespace gevo::core

#endif // GEVO_CORE_EVAL_BACKEND_H
