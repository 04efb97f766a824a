#include "core/fitness.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ir/verifier.h"
#include "mutation/patch.h"
#include "opt/passes.h"

namespace gevo::core {

namespace {

// -1 = not yet resolved from the environment.
std::atomic<int> gCompileMode{-1};

CompileMode
resolveCompileMode()
{
    const char* env = std::getenv("GEVO_COMPILE_REF");
    const bool ref = env != nullptr && env[0] != '\0' &&
                     !(env[0] == '0' && env[1] == '\0');
    return ref ? CompileMode::Reference : CompileMode::Incremental;
}

} // namespace

CompileMode
compileMode()
{
    int mode = gCompileMode.load(std::memory_order_relaxed);
    if (mode < 0) {
        mode = static_cast<int>(resolveCompileMode());
        gCompileMode.store(mode, std::memory_order_relaxed);
    }
    return static_cast<CompileMode>(mode);
}

void
setCompileMode(CompileMode mode)
{
    gCompileMode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

CompiledVariant
compileVariant(const ir::Module& base, const std::vector<mut::Edit>& edits)
{
    CompiledVariant cv;
    cv.module = mut::applyPatch(base, edits);
    const auto verify = ir::verifyModule(cv.module);
    if (!verify.ok()) {
        cv.failReason = "verify: " + verify.message();
        return cv;
    }
    opt::runCleanupPipeline(cv.module);
    const auto reVerify = ir::verifyModule(cv.module);
    if (!reVerify.ok()) {
        cv.failReason = "post-opt verify: " + reVerify.message();
        return cv;
    }
    cv.programs = sim::ProgramSet::decodeModule(cv.module);
    cv.ok = true;
    return cv;
}

VariantCompiler::VariantCompiler(const ir::Module& base) : base_(base)
{
    if (!ir::verifyModule(base_).ok())
        return; // base is broken; compile() falls back to the oracle.
    cleanedBase_ = base_.clone();
    opt::runCleanupPipeline(cleanedBase_);
    if (!ir::verifyModule(cleanedBase_).ok())
        return;
    basePrograms_ = sim::ProgramSet::decodeModule(cleanedBase_);
    incremental_ = true;
}

CompiledVariant
VariantCompiler::compile(const std::vector<mut::Edit>& edits) const
{
    if (!incremental_ || compileMode() == CompileMode::Reference)
        return compileVariant(base_, edits);

    ir::Module patched = mut::applyPatch(base_, edits);

    // Touched set = functions applyPatch detached: pointer identity
    // against the COW-shared base, no content comparison.
    std::vector<std::size_t> touched;
    for (std::size_t i = 0; i < patched.numFunctions(); ++i) {
        if (patched.functionPtr(i) != base_.functionPtr(i))
            touched.push_back(i);
    }

    CompiledVariant cv;

    // Verify only what changed. The base verified clean at construction
    // and verifyModule carries no module-level checks, so the joined
    // diagnostic (touched functions, index order) is byte-identical to
    // the full-module message.
    ir::VerifyResult verify;
    for (const std::size_t i : touched) {
        auto r = ir::verifyFunction(std::as_const(patched).function(i));
        for (auto& err : r.errors)
            verify.errors.push_back(std::move(err));
    }
    if (!verify.ok()) {
        cv.module = std::move(patched);
        cv.failReason = "verify: " + verify.message();
        return cv;
    }

    // Cleanup + re-verify, per touched function (the pipeline is
    // per-function pure: no uid draws, no loc interning). The touched
    // functions are uniquely owned after applyPatch, so the non-const
    // accessor mutates in place without another copy.
    for (const std::size_t i : touched)
        opt::runCleanupPipeline(patched.function(i));
    ir::VerifyResult reVerify;
    for (const std::size_t i : touched) {
        auto r = ir::verifyFunction(std::as_const(patched).function(i));
        for (auto& err : r.errors)
            reVerify.errors.push_back(std::move(err));
    }
    if (!reVerify.ok()) {
        cv.module = std::move(patched);
        cv.failReason = "post-opt verify: " + reVerify.message();
        return cv;
    }

    // Assemble the variant: share the precompiled base everywhere the
    // patch didn't reach, splice in the touched functions/programs.
    cv.module = cleanedBase_.clone();
    for (const std::size_t i : touched)
        cv.module.setFunction(i, patched.functionPtr(i));
    cv.module.bumpUidCounter(patched.uidCounter());

    std::size_t next = 0;
    for (std::size_t i = 0; i < cv.module.numFunctions(); ++i) {
        const bool isTouched =
            next < touched.size() && touched[next] == i;
        if (isTouched) {
            ++next;
            cv.programs.add(std::make_shared<const sim::Program>(
                sim::Program::decode(std::as_const(cv.module).function(i))));
        } else {
            cv.programs.add(basePrograms_.share(i));
        }
    }
    cv.ok = true;
    return cv;
}

FitnessResult
evaluateVariant(const ir::Module& base, const std::vector<mut::Edit>& edits,
                const FitnessFunction& fitness)
{
    const CompiledVariant cv = compileVariant(base, edits);
    if (!cv.ok)
        return FitnessResult::fail(cv.failReason);
    return fitness.evaluate(cv);
}

} // namespace gevo::core
