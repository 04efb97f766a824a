/// \file
/// Fitness abstraction: how a kernel-module variant is scored.
///
/// Paper Sec III-E: "Kernel execution time is the fitness target, averaged
/// across all test cases. Individuals that fail one or more test cases are
/// not part of the calculation." Every application's FitnessFunction is
/// core::DriverFitness over its app driver (core/app.h); the app's own
/// check() member decides correctness (ADEPT: exact score/position match; SIMCoV:
/// per-value mean/variance tolerance against the fixed-seed ground
/// truth).
///
/// Evaluation is an explicit two-stage pipeline:
///
///   1. compile — patch the base module, run the cleanup pipeline (the
///      NVPTX-codegen stand-in), verify, and decode every kernel into an
///      execution-ready sim::ProgramSet. This happens once per variant.
///   2. score — the FitnessFunction launches the pre-decoded programs over
///      all test cases. This is the only stage that touches device state.
///
/// Splitting the stages lets the evolution engine cache CompiledVariants
/// and fitness results content-addressed by edit list (see variant_cache.h)
/// instead of re-patching/re-verifying/re-decoding per individual.

#ifndef GEVO_CORE_FITNESS_H
#define GEVO_CORE_FITNESS_H

#include <limits>
#include <string>
#include <vector>

#include "ir/function.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/executor.h"
#include "sim/program.h"

namespace gevo::core {

/// Outcome of evaluating one variant: a vector of minimized objective
/// values instead of the historical single scalar. The legacy scalar
/// survives as the derived accessor ms(), which every scalar-mode
/// ordering decision goes through, so single-objective trajectories are
/// unchanged.
struct FitnessResult {
    /// Indices into `objectives` (core/objectives.h names the same
    /// slots as an enum for selection config).
    static constexpr std::size_t kTime = 0;
    static constexpr std::size_t kSectors = 1;
    static constexpr std::size_t kDivergence = 2;

    bool valid = false; ///< Passed every test case.
    /// Structured payload, all minimized: [kTime] = mean simulated
    /// kernel time (the legacy scalar), [kSectors] = 32B global-memory
    /// sectors touched, [kDivergence] = branch-divergence events.
    /// Empty when invalid; a bare pass(ms) carries only the time slot.
    std::vector<double> objectives;
    std::string failReason; ///< Why the variant was rejected.

    /// The legacy scalar: simulated time for valid results, +inf
    /// otherwise. Invalid results sink exactly as the old `ms` field
    /// did, so orderings over ms() reproduce the historical ones.
    double ms() const
    {
        return valid && !objectives.empty()
                   ? objectives[kTime]
                   : std::numeric_limits<double>::infinity();
    }

    /// Objective \p i with the same sink semantics as ms(): +inf when
    /// invalid, 0 when the producer did not record that dimension.
    double objective(std::size_t i) const
    {
        if (!valid)
            return std::numeric_limits<double>::infinity();
        return i < objectives.size() ? objectives[i] : 0.0;
    }

    /// Strict "a is fitter than b" on the primary scalar — THE
    /// comparator for every scalar-mode ordering decision (engine
    /// best-tracking, migrant acceptance, tournament), centralized so
    /// call sites cannot silently drift from one another.
    static bool better(const FitnessResult& a, const FitnessResult& b)
    {
        return a.ms() < b.ms();
    }

    /// Passing result carrying only the time objective.
    static FitnessResult pass(double msValue)
    {
        FitnessResult r;
        r.valid = true;
        r.objectives = {msValue};
        return r;
    }
    /// Passing result with the full objective vector.
    static FitnessResult pass(double msValue, double sectors,
                              double divergences)
    {
        FitnessResult r;
        r.valid = true;
        r.objectives = {msValue, sectors, divergences};
        return r;
    }
    /// Full vector from a launch-stat aggregate.
    static FitnessResult pass(double msValue,
                              const sim::LaunchStats& stats)
    {
        return pass(msValue, static_cast<double>(stats.globalSectors),
                    static_cast<double>(stats.divergences));
    }
    /// Convenience for a failing result.
    static FitnessResult fail(std::string reason)
    {
        FitnessResult r;
        r.failReason = std::move(reason);
        return r;
    }
};

/// Output of the compile stage: a patched, cleaned, verified module with
/// every kernel decoded once. Move-only (owns the module).
struct CompiledVariant {
    bool ok = false;         ///< Compile stage succeeded.
    std::string failReason;  ///< Verifier diagnostic when !ok.
    ir::Module module;       ///< Patched + cleanup-pipeline output.
    sim::ProgramSet programs; ///< Every kernel decoded (empty when !ok).
};

/// Compile stage: apply \p edits to \p base, run the post-mutation cleanup
/// pipeline (constant folding / CFG simplification / DCE), verify, and
/// decode every kernel. Returns !ok with a diagnostic when verification
/// rejects the patched module.
CompiledVariant compileVariant(const ir::Module& base,
                               const std::vector<mut::Edit>& edits);

/// Which compile-stage implementation VariantCompiler::compile uses.
enum class CompileMode {
    Incremental, ///< Touched-function pipeline over COW-shared modules.
    Reference,   ///< Full-module pipeline (the original compileVariant).
};

/// Process-wide compile mode. Defaults to Incremental; setting
/// GEVO_COMPILE_REF=1 (anything but "0"/"") selects Reference — the
/// differential oracle for the incremental path, exactly like
/// GEVO_SIM_REFPATH gates the trace interpreter.
CompileMode compileMode();
/// Override the compile mode (tests; call before spawning evaluators).
void setCompileMode(CompileMode mode);

/// Incremental compile stage bound to one base module.
///
/// Construction runs the full pipeline once on the unedited base (cleanup
/// a COW clone, verify, decode every kernel). compile(edits) then pays
/// only for the functions the edit list actually touched: applyPatch over
/// the COW-shared base detaches just those, so the touched set falls out
/// of a pointer comparison per function; verification, the cleanup
/// pipeline and program decode run on touched functions only, and the
/// result's module/ProgramSet alias the precompiled base for everything
/// else. This is byte-identical to compileVariant because the verifier
/// has no module-level checks (a module diagnostic is the index-ordered
/// concatenation of per-function diagnostics) and the cleanup pipeline
/// and decoder are per-function pure.
///
/// Thread-safe: compile() only reads the immutable base state
/// (shared_ptr refcounts are atomic), so evaluator threads share one
/// compiler.
class VariantCompiler {
  public:
    /// \p base must outlive the compiler. Falls back to the reference
    /// pipeline when the base itself fails verification (tests exercise
    /// that path; searches never do).
    explicit VariantCompiler(const ir::Module& base);

    /// Compile \p edits against the bound base. Honours compileMode().
    CompiledVariant compile(const std::vector<mut::Edit>& edits) const;

    /// The bound base module.
    const ir::Module& base() const { return base_; }

  private:
    const ir::Module& base_;
    bool incremental_ = false;
    ir::Module cleanedBase_;       ///< Base after the cleanup pipeline.
    sim::ProgramSet basePrograms_; ///< cleanedBase_ decoded once.
};

/// Structured diagnosis of one profiled evaluation: the launch counters
/// summed over the run, whose `locIssues` histogram is indexed by
/// interned source-loc id (slot 0 = instructions without a loc) — the
/// same id space the base module's instructions carry, because the COW
/// loc table is shared by every variant, so the guided sampler can map
/// heat straight onto candidate edit sites.
using ProfileSummary = sim::LaunchStats;

/// Application-supplied scoring of a compiled variant.
///
/// Implementations must be safe to call concurrently from multiple threads
/// (each call creates its own device memory / launch state), and must not
/// re-decode: launch the pre-decoded `variant.programs`.
class FitnessFunction {
  public:
    virtual ~FitnessFunction() = default;

    /// Score a successfully compiled variant. \pre variant.ok.
    virtual FitnessResult evaluate(const CompiledVariant& variant) const = 0;

    /// Score a compiled variant on a specific device model — the
    /// portfolio path (core/portfolio.h loops this over a device set).
    /// Workloads that support it implement evaluate() by delegating
    /// here with their configured device; the default refuses, so a
    /// single-device-only fitness keeps working everywhere except
    /// inside a portfolio.
    virtual FitnessResult evaluateOn(const CompiledVariant& variant,
                                     const sim::DeviceConfig& dev) const
    {
        (void)variant;
        (void)dev;
        return FitnessResult::fail("fitness '" + name() +
                                   "' does not support per-device "
                                   "evaluation");
    }

    /// Re-run one evaluation with per-loc profiling enabled and fill
    /// \p out. Returns false when the workload does not support profiling
    /// (the default) or the profiled run faults — the caller keeps
    /// whatever profile it had. The profiled run's outputs are not
    /// checked: a variant that runs fault-free but computes the wrong
    /// answer still yields a profile. This is the deliberately separate
    /// "cheap path": the engine profiles only the per-island elite once
    /// per generation, so bulk evaluate() never pays for histogram upkeep.
    virtual bool profileVariant(const CompiledVariant& variant,
                                ProfileSummary* out) const
    {
        (void)variant;
        (void)out;
        return false;
    }

    /// Short description for logs.
    virtual std::string name() const = 0;
};

/// Both pipeline stages in one call: compile \p edits against \p base and
/// score the result, with no cache. The analysis algorithms, the benches
/// and the examples score one-off variants through it; the engine's
/// evaluations go through an EvaluationBackend (core/eval_backend.h),
/// whose evaluateTask() gives the same result for the same edits.
FitnessResult evaluateVariant(const ir::Module& base,
                              const std::vector<mut::Edit>& edits,
                              const FitnessFunction& fitness);

} // namespace gevo::core

#endif // GEVO_CORE_FITNESS_H
