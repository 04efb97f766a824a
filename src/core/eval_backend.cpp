#include "core/eval_backend.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>

#include "support/logging.h"
#include "support/thread_pool.h"

namespace gevo::core {

std::string_view
evalFailureName(EvalFailure failure)
{
    switch (failure) {
      case EvalFailure::None: return "none";
      case EvalFailure::WorkerCrash: return "crash";
      case EvalFailure::WorkerTimeout: return "timeout";
      case EvalFailure::ProtocolError: return "protocol";
    }
    return "?";
}

/// Both stages run through the caller's precompiled VariantCompiler.
/// (Exported: the farm worker session serves connections with this exact
/// body, so isolated and remote results are bit-identical to in-process
/// ones.)
EvalOutcome
evaluateTask(const VariantCompiler& compiler, const FitnessFunction& fitness,
             const std::vector<mut::Edit>& edits, VariantCache* programCache,
             std::string* programKeyOut)
{
    EvalOutcome out;
    const CompiledVariant cv = compiler.compile(edits);
    if (programCache == nullptr) {
        out.result = cv.ok ? fitness.evaluate(cv)
                           : FitnessResult::fail(cv.failReason);
        out.simulated = true;
        return out;
    }
    if (!cv.ok) {
        out.result = FitnessResult::fail(cv.failReason);
        out.rejected = true;
        return out;
    }
    const std::string programKey = cv.programs.contentKey();
    if (programKeyOut != nullptr)
        *programKeyOut = programKey;
    FitnessResult cached;
    if (programCache->lookup(programKey, &cached)) {
        out.result = cached;
        return out;
    }
    out.result = fitness.evaluate(cv);
    out.simulated = true;
    programCache->insert(programKey, out.result);
    return out;
}

namespace {

// ---- in-process backend ----

class InProcessBackend final : public EvaluationBackend {
  public:
    InProcessBackend(const ir::Module& base, const FitnessFunction& fitness,
                     std::uint32_t threads)
        : compiler_(base), fitness_(fitness),
          evaluators_(threads != 0
                          ? threads
                          : std::max(1u, std::thread::hardware_concurrency()))
    {
    }

    void
    evaluateBatch(const std::vector<const std::vector<mut::Edit>*>& batch,
                  VariantCache* programCache,
                  std::vector<EvalOutcome>* out) override
    {
        out->assign(batch.size(), EvalOutcome{});
        // The calling thread and up to evaluators_ - 1 idle helpers claim
        // batch positions from one counter; outcome i depends only on
        // batch[i], so the claim order never reaches the trajectory.
        std::atomic<std::size_t> next{0};
        const std::function<void()> work = [&] {
            for (std::size_t i; (i = next++) < batch.size();)
                (*out)[i] = evaluateTask(compiler_, fitness_, *batch[i],
                                         programCache, nullptr);
        };
        const std::size_t participants =
            std::min<std::size_t>(evaluators_, batch.size());
        HelperPool::share(work, participants > 0 ? participants - 1 : 0);
    }

  private:
    VariantCompiler compiler_;
    const FitnessFunction& fitness_;
    std::uint32_t evaluators_; ///< Upper bound, caller included.
};

} // namespace

std::unique_ptr<EvaluationBackend>
makeBackend(const ir::Module& base, const FitnessFunction& fitness,
            const EvolutionParams& params)
{
    switch (params.backend) {
      case EvalBackendKind::InProcess:
        return std::make_unique<InProcessBackend>(base, fitness,
                                                  params.threads);
      case EvalBackendKind::Isolated:
      case EvalBackendKind::Remote:
        return makeFarmBackend(base, fitness, params);
    }
    GEVO_PANIC("unknown evaluation backend kind");
}

} // namespace gevo::core
