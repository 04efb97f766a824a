/// \file
/// Shared declarations of the search benchmark: the workload table, the
/// timed search runner, the span log behind the traced run, the replay,
/// and the small statistics helpers every part reports through.

#ifndef GEVOBENCH_BENCH_H
#define GEVOBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"

namespace gevobench {

using Clock = std::chrono::steady_clock;

/// Milliseconds between two time points.
double msBetween(Clock::time_point from, Clock::time_point to);

// ---- statistics ----

/// Linear-interpolated percentile (\p p in [0, 100]); 0 for no samples.
double percentile(std::vector<double> values, double p);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

// ---- workloads ----

/// Generations between cache-store saves of a durable search (the
/// replay saves at the same cadence).
inline constexpr std::uint32_t kCacheStoreInterval = 5;

/// One benchmark workload: a registry application at a fixed scale with a
/// fixed search budget. Every search is closed-loop: the engine breeds
/// generation g+1 only after generation g has been scored.
struct WorkloadSpec {
    std::string name;
    std::string app; ///< Registry workload name.
    std::map<std::string, std::string> knobs;
    std::string dataSeedKnob; ///< The app's dataset-seed knob.
    gevo::core::EvolutionParams params;
    /// Split search: the first half runs cold, checkpointing every
    /// generation and saving the cache store every kCacheStoreInterval;
    /// the second half rebuilds everything, as a restarted process would,
    /// and resumes from those files.
    bool durable = false;
    /// Thread count at which the same search must reach the identical
    /// trajectory and best edit list; 0 for none.
    std::uint32_t twinThreads = 0;
    /// Wall seconds of one search on the 4-core reference host; sizes a
    /// run's search count from --seconds.
    double nominalSearchS = 1.0;
};

/// The workload named \p name with the given search and dataset seeds;
/// fatal for an unknown name.
WorkloadSpec findWorkload(const std::string& name, std::uint64_t searchSeed,
                          std::uint64_t dataSeed);
std::vector<std::string> workloadNames();

/// Build a fresh instance (dataset, driver, oracle, fitness).
std::unique_ptr<gevo::core::WorkloadInstance>
buildInstance(const WorkloadSpec& spec);

// ---- span log (traced run) ----

enum class SpanKind : std::uint16_t {
    None = 0, ///< Unused slot.
    EngineGeneration,
    Evaluate,
    EvaluateOn,
    Profile,
    ReplayGeneration,
    Breed,
    Patch,
    Verify,
    Cleanup,
    Decode,
    Compile,
    CacheKey,
    ProgramKey,
    ReplayEvaluate,
    ReplayProfile,
    Sort,
    DispatchInProcess,
    DispatchIsolated,
    CheckpointSave,
    CheckpointLoad,
    CacheStoreSave,
    CacheStoreLoad,
    FarmCodec,
    FarmRtt,
};

const char* spanName(SpanKind kind);

/// One timed call. `gen` ties a span to its generation span (engine or
/// replay family); `id` identifies the variant the call worked on.
struct Span {
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    std::uint32_t gen = 0;
    SpanKind kind = SpanKind::None;
};

/// Fixed-capacity span store in shared anonymous memory. Each thread of
/// each process claims its own chunk and fills it without locking; the
/// memory is shared, so spans recorded by forked evaluation workers are
/// visible to the parent once the workers have finished.
class SpanLog {
  public:
    explicit SpanLog(std::size_t capacity);
    ~SpanLog();
    SpanLog(const SpanLog&) = delete;
    SpanLog& operator=(const SpanLog&) = delete;

    void record(SpanKind kind, Clock::time_point start, Clock::time_point end,
                std::uint32_t gen, std::uint64_t id = 0);
    /// Every recorded span, in start order.
    std::vector<Span> collect() const;
    std::uint64_t dropped() const;
    /// Forget every span (no thread may be recording).
    void clear();

  private:
    struct Header;
    Header* header_ = nullptr;
    Span* slots_ = nullptr;
    std::size_t chunks_ = 0;
    std::size_t bytes_ = 0;
    std::uint64_t epoch_ = 0;
};

/// The engine generation the current evaluations belong to (set by the
/// traced search at every generation boundary; forked workers inherit it).
void setTraceGeneration(std::uint32_t gen);

/// Benchmark-side timing decorator: delegates every FitnessFunction call
/// unchanged (name() too, so cache and checkpoint scopes do not move) and
/// records one span per call.
class TimingFitness final : public gevo::core::FitnessFunction {
  public:
    TimingFitness(const gevo::core::FitnessFunction& inner, SpanLog& log)
        : inner_(inner), log_(log)
    {
    }
    gevo::core::FitnessResult
    evaluate(const gevo::core::CompiledVariant& variant) const override;
    gevo::core::FitnessResult
    evaluateOn(const gevo::core::CompiledVariant& variant,
               const gevo::sim::DeviceConfig& dev) const override;
    bool profileVariant(const gevo::core::CompiledVariant& variant,
                        gevo::core::ProfileSummary* out) const override;
    std::string name() const override { return inner_.name(); }

  private:
    const gevo::core::FitnessFunction& inner_;
    SpanLog& log_;
};

/// Write \p spans as TSV with parent links and self times.
void writeSpans(const std::string& path, const std::vector<Span>& spans);

/// Self time of every generation span of \p family (duration minus the
/// time its child spans cover), in ms, keyed by generation.
std::map<std::uint32_t, double> generationSelfMs(const std::vector<Span>& spans,
                                                 SpanKind family);

// ---- searches ----

/// Timings of one whole search (both halves of a durable search).
struct SearchRun {
    double setupS = 0.0;        ///< Build start to end of first generation.
    double loopS = 0.0;         ///< Search loop after the first generation.
    std::size_t loopIndividuals = 0; ///< Individuals scored in loopS.
    std::vector<double> genMs;  ///< Callback-to-callback intervals.
    std::size_t requests = 0;   ///< Fitness requests (GenerationLog::evaluations).
    std::size_t failures = 0;   ///< EvalFailures.
    std::size_t misses = 0;     ///< GenerationLog::cacheMisses.
    /// First generation each engine run executed: {1} for a plain search,
    /// {1, half + 1} for a durable one that resumed.
    std::vector<std::uint32_t> startGens;
    gevo::core::SearchResult result; ///< Final result, full history.
};

/// Run \p spec's search once with every file under \p runDir. With
/// \p spans, the fitness is wrapped in a TimingFitness and generation
/// spans are recorded.
SearchRun runSearch(const WorkloadSpec& spec, const std::string& runDir,
                    SpanLog* spans);

/// Every engine run of \p run started where \p spec plans: a durable
/// search's second half at the generation after the checkpoint. An engine
/// that rejected the checkpoint cold-starts at generation 1 and reaches
/// the same trajectory, so only this check exposes it.
bool resumedAsPlanned(const WorkloadSpec& spec, const SearchRun& run,
                      std::string* why);

/// Two searches took the same trajectory (the trajectory fields of every
/// GenerationLog, exact float bits) to the same best edit list; \p why
/// receives the first difference.
bool sameSearch(const gevo::core::SearchResult& x,
                const gevo::core::SearchResult& y, std::string* why);

// ---- replay ----

/// Per-layer numbers the replay measures directly (timings are spans).
struct ReplayResult {
    std::vector<double> bestMs; ///< Running best per generation.
    std::vector<gevo::mut::Edit> bestEdits;
    std::size_t requests = 0;  ///< Unevaluated individuals scored.
    std::size_t unique = 0;    ///< Distinct misses sent to a backend.
    std::size_t misses = 0;    ///< Simulated or rejected.
    std::size_t compiled = 0;
    std::size_t rejected = 0;
    std::size_t evaluations = 0;
    std::size_t invalid = 0;
    std::size_t backendFailures = 0;
    double editsTotal = 0.0;   ///< Sum of edit-list lengths scored.
    double programKeyBytes = 0.0;
    std::size_t programKeys = 0;
    double warpInstrs = 0.0;   ///< Sums over profiled evaluations.
    double globalSectors = 0.0;
    double divergences = 0.0;
    std::size_t profiled = 0;
    double profiledEvalNs = 0.0; ///< Evaluate time of profiled variants.
    /// Per generation with a batch: summed compile + program-key time of
    /// the batch's tasks (a backend dispatch's time beyond this is its
    /// overhead).
    std::map<std::uint32_t, double> taskNsByGen;
    double checkpointKb = 0.0;
    double cacheStoreKb = 0.0;
    double cacheStoreEntries = 0.0;
};

/// Replay \p spec's search from its seed through the public layer calls,
/// timing each into \p spans. \p farmSpec is a listening farm worker.
ReplayResult replaySearch(const WorkloadSpec& spec,
                          const gevo::core::WorkloadInstance& instance,
                          const std::vector<gevo::core::GenerationLog>& history,
                          const std::string& runDir,
                          const std::string& farmSpec, SpanLog& spans);

/// A loopback farm worker daemon serving \p instance on a Unix socket
/// under \p runDir; killed and reaped (sessions included) on destruction.
class FarmWorker {
  public:
    FarmWorker(const gevo::core::WorkloadInstance& instance,
               const std::string& runDir);
    ~FarmWorker();
    FarmWorker(const FarmWorker&) = delete;
    FarmWorker& operator=(const FarmWorker&) = delete;
    std::string spec() const { return "unix:" + socketPath_; }

  private:
    int pid_ = -1;
    std::string socketPath_;
    std::string readyPath_;
};

// ---- correctness gate ----

/// Score \p edits under the reference compiler, the reference
/// interpreter and dense lanes off (the differential oracles), restoring
/// the production modes afterwards.
gevo::core::FitnessResult
referenceScore(const gevo::core::WorkloadInstance& instance,
               const std::vector<gevo::mut::Edit>& edits);

/// Bit-identical doubles (NaN-safe, distinguishes -0).
bool sameBits(double a, double b);

} // namespace gevobench

#endif // GEVOBENCH_BENCH_H
