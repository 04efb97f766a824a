/// \file
/// The evaluation-backend seam: who executes a generation's batch of
/// fitness evaluations, and what happens when an evaluation takes the
/// evaluating process down with it.
///
/// The engine batches every island's unevaluated individuals into one
/// dispatch per generation (core/engine.h); this interface owns that
/// dispatch. Two implementations:
///
///   InProcessBackend — the thread pool the engine always had, extracted
///   verbatim: every evaluation runs in the engine's own address space.
///   Fastest, and trajectory-identical to the pre-backend engine, but a
///   variant whose simulation segfaults, aborts or hangs kills the whole
///   search (GEVO-scale campaigns are 256 x 300 ~ 77k evaluations of
///   adversarially mutated programs — hours of wall clock riding on every
///   one of them behaving).
///
///   IsolatedBackend — fork-per-batch worker processes on a pipe
///   protocol with a per-evaluation wall-clock watchdog. A variant that
///   crashes, OOMs or hangs its worker is reaped and scored as a
///   deterministic invalid-individual penalty carrying an EvalFailure
///   tag; the engine quarantines the genotype by content key so it is
///   never dispatched again. Workers are forked at batch start, so they
///   inherit the parent's base module, fitness function and (read-only,
///   copy-on-write) program cache with zero serialization.
///
/// Both backends produce identical FitnessResults for every evaluation
/// that completes — fitness is a deterministic function of the edit list
/// — so the search trajectory is backend-independent as long as no fault
/// fires. Only the cache/simulation counters may differ (isolated workers
/// cannot share within-batch program-cache hits across process
/// boundaries).
///
/// Fault injection (testing): the GEVO_FAULT_INJECT environment variable
/// deterministically injects failures by global evaluation sequence
/// number, e.g. "crash@12" (the 13th dispatched evaluation segfaults),
/// "hang@3" (sleeps until the watchdog kills it), "garbage@7" (an
/// out-of-process worker writes a malformed response frame), with a
/// comma-separated list and a "+" suffix meaning "this one and every
/// later evaluation" ("crash@5+"). Crash and hang apply to every backend
/// (in process they take the host down — that is the demonstration);
/// garbage applies to isolated workers and farm sessions, which speak
/// the core/codec.h stream frames. The spec is re-read per backend
/// construction and sequence numbers are per-backend, so tests stay
/// independent.

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
    /// The evaluating process died (segfault/abort/OOM), or a remote
    /// worker's connection was lost mid-evaluation.
    WorkerCrash,
    /// The watchdog or the remote per-evaluation deadline expired.
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

    /// Short description for logs/banners, e.g. "in-process x8".
    virtual std::string describe() const = 0;
};

/// Backend implied by \p params (threads, backend kind, watchdog budget).
/// \p base and \p fitness must outlive the backend.
std::unique_ptr<EvaluationBackend>
makeBackend(const ir::Module& base, const FitnessFunction& fitness,
            const EvolutionParams& params);

/// The fault-tolerant socket client over the farm protocol
/// (`params.workers` = comma-separated "host:port" / "unix:/path" list).
/// Defined in farm/client.cpp; makeBackend routes
/// EvalBackendKind::Remote here.
std::unique_ptr<EvaluationBackend>
makeRemoteBackend(const ir::Module& base, const FitnessFunction& fitness,
                  const EvolutionParams& params);

/// Evaluate one edit list through the two-stage pipeline against a
/// precompiled \p compiler. With a \p programCache this is the cached-path
/// body (compile, serve repeat programs from the cache, simulate + insert
/// otherwise); without one it is the compile-per-call reference path
/// (every task simulated, no cache lookups). \p programKeyOut, when
/// non-null, receives the program content key of a fresh simulation
/// (out-of-process workers ship it back so the caller's live cache learns
/// the result). Shared by every backend and the farm worker session.
EvalOutcome
evaluateTask(const VariantCompiler& compiler, const FitnessFunction& fitness,
             const std::vector<mut::Edit>& edits, VariantCache* programCache,
             std::string* programKeyOut);

} // namespace gevo::core

#endif // GEVO_CORE_EVAL_BACKEND_H
