#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

#include "bench.h"
#include "core/variant_cache.h"
#include "support/logging.h"

namespace gevobench {

using gevo::core::CompiledVariant;
using gevo::core::FitnessResult;

namespace {

constexpr std::size_t kChunk = 512;
constexpr std::size_t kHeaderBytes = 64;

std::atomic<std::uint32_t> gTraceGeneration{0};
std::atomic<std::uint64_t> gEpochs{0};

/// A thread's current chunk. Invalidated when the thread finds itself in
/// a forked child (the chunk belongs to the parent's thread) or writing
/// to another log.
struct SpanCursor {
    std::uint64_t epoch = 0;
    pid_t pid = -1;
    Span* next = nullptr;
    Span* end = nullptr;
};
thread_local SpanCursor tCursor;

std::int64_t
nsOf(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

std::uint64_t
variantId(const CompiledVariant& variant)
{
    return gevo::core::VariantCache::hashKey(variant.programs.contentKey());
}

/// The generation-span kind a span hangs under (None for roots).
SpanKind
familyOf(SpanKind kind)
{
    switch (kind) {
      case SpanKind::None:
      case SpanKind::EngineGeneration:
      case SpanKind::ReplayGeneration:
        return SpanKind::None;
      case SpanKind::Evaluate:
      case SpanKind::EvaluateOn:
      case SpanKind::Profile:
        return SpanKind::EngineGeneration;
      default:
        return SpanKind::ReplayGeneration;
    }
}

/// Parent span index of every span (-1 for roots).
std::vector<long>
parentsOf(const std::vector<Span>& spans)
{
    std::map<std::pair<SpanKind, std::uint32_t>, long> genSpan;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].kind == SpanKind::EngineGeneration ||
            spans[i].kind == SpanKind::ReplayGeneration)
            genSpan[{spans[i].kind, spans[i].gen}] = static_cast<long>(i);
    }
    std::vector<long> parents(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanKind family = familyOf(spans[i].kind);
        if (family == SpanKind::None)
            continue;
        const auto it = genSpan.find({family, spans[i].gen});
        if (it != genSpan.end())
            parents[i] = it->second;
    }
    return parents;
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
std::vector<double>
selfNs(const std::vector<Span>& spans, const std::vector<long>& parents)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (parents[i] >= 0)
            children[static_cast<std::size_t>(parents[i])].push_back(i);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::vector<std::pair<std::int64_t, std::int64_t>> cover;
        for (const std::size_t c : children[i]) {
            const std::int64_t a = std::max(spans[c].startNs, s.startNs);
            const std::int64_t b = std::min(spans[c].endNs, s.endNs);
            if (a < b)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto& [a, b] : cover) {
            const std::int64_t from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }
        self[i] = static_cast<double>(s.endNs - s.startNs - covered);
    }
    return self;
}

} // namespace

const char*
spanName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::None: return "none";
      case SpanKind::EngineGeneration: return "engine.generation";
      case SpanKind::Evaluate: return "apps.evaluate";
      case SpanKind::EvaluateOn: return "apps.evaluate_on";
      case SpanKind::Profile: return "apps.profile";
      case SpanKind::ReplayGeneration: return "replay.generation";
      case SpanKind::Breed: return "mutation.breed";
      case SpanKind::Patch: return "mutation.patch";
      case SpanKind::Verify: return "ir.verify";
      case SpanKind::Cleanup: return "opt.cleanup";
      case SpanKind::Decode: return "sim.decode";
      case SpanKind::Compile: return "core.compile";
      case SpanKind::CacheKey: return "core.cache.key";
      case SpanKind::ProgramKey: return "core.cache.program_key";
      case SpanKind::ReplayEvaluate: return "replay.evaluate";
      case SpanKind::ReplayProfile: return "replay.profile";
      case SpanKind::Sort: return "core.select.sort";
      case SpanKind::DispatchInProcess: return "core.backend.inprocess";
      case SpanKind::DispatchIsolated: return "core.backend.isolated";
      case SpanKind::CheckpointSave: return "core.checkpoint.save";
      case SpanKind::CheckpointLoad: return "core.checkpoint.load";
      case SpanKind::CacheStoreSave: return "core.cache_store.save";
      case SpanKind::CacheStoreLoad: return "core.cache_store.load";
      case SpanKind::FarmCodec: return "farm.codec";
      case SpanKind::FarmRtt: return "farm.rtt";
    }
    return "?";
}

struct SpanLog::Header {
    std::atomic<std::uint64_t> nextChunk{0};
    std::atomic<std::uint64_t> dropped{0};
};

SpanLog::SpanLog(std::size_t capacity)
    : chunks_(std::max<std::size_t>(1, capacity / kChunk)),
      bytes_(kHeaderBytes + chunks_ * kChunk * sizeof(Span)),
      epoch_(++gEpochs)
{
    static_assert(sizeof(Header) <= kHeaderBytes);
    void* mem = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED)
        GEVO_FATAL("span log: cannot map %zu bytes", bytes_);
    header_ = new (mem) Header{};
    slots_ = reinterpret_cast<Span*>(static_cast<char*>(mem) + kHeaderBytes);
}

SpanLog::~SpanLog()
{
    header_->~Header();
    ::munmap(header_, bytes_);
}

void
SpanLog::record(SpanKind kind, Clock::time_point start, Clock::time_point end,
                std::uint32_t gen, std::uint64_t id)
{
    SpanCursor& c = tCursor;
    const pid_t pid = ::getpid();
    if (c.epoch != epoch_ || c.pid != pid || c.next == c.end) {
        c.epoch = epoch_;
        c.pid = pid;
        c.next = c.end = nullptr;
        const std::uint64_t chunk = header_->nextChunk.fetch_add(1);
        if (chunk >= chunks_) {
            header_->dropped.fetch_add(1);
            return;
        }
        c.next = slots_ + chunk * kChunk;
        c.end = c.next + kChunk;
    }
    *c.next++ = Span{nsOf(start), nsOf(end), id, gen, kind};
}

std::vector<Span>
SpanLog::collect() const
{
    const std::size_t used =
        std::min<std::size_t>(header_->nextChunk.load(), chunks_) * kChunk;
    std::vector<Span> out;
    for (std::size_t i = 0; i < used; ++i) {
        if (slots_[i].kind != SpanKind::None)
            out.push_back(slots_[i]);
    }
    std::stable_sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
        return a.startNs < b.startNs;
    });
    return out;
}

std::uint64_t
SpanLog::dropped() const
{
    return header_->dropped.load();
}

void
SpanLog::clear()
{
    const std::size_t used =
        std::min<std::size_t>(header_->nextChunk.load(), chunks_) * kChunk;
    std::memset(static_cast<void*>(slots_), 0, used * sizeof(Span));
    header_->nextChunk.store(0);
    header_->dropped.store(0);
    epoch_ = ++gEpochs;
}

void
setTraceGeneration(std::uint32_t gen)
{
    gTraceGeneration.store(gen, std::memory_order_relaxed);
}

FitnessResult
TimingFitness::evaluate(const CompiledVariant& variant) const
{
    const auto start = Clock::now();
    FitnessResult result = inner_.evaluate(variant);
    const auto end = Clock::now();
    log_.record(SpanKind::Evaluate, start, end,
                gTraceGeneration.load(std::memory_order_relaxed),
                variantId(variant));
    return result;
}

FitnessResult
TimingFitness::evaluateOn(const CompiledVariant& variant,
                          const gevo::sim::DeviceConfig& dev) const
{
    const auto start = Clock::now();
    FitnessResult result = inner_.evaluateOn(variant, dev);
    const auto end = Clock::now();
    log_.record(SpanKind::EvaluateOn, start, end,
                gTraceGeneration.load(std::memory_order_relaxed),
                variantId(variant));
    return result;
}

bool
TimingFitness::profileVariant(const CompiledVariant& variant,
                              gevo::core::ProfileSummary* out) const
{
    const auto start = Clock::now();
    const bool ok = inner_.profileVariant(variant, out);
    const auto end = Clock::now();
    log_.record(SpanKind::Profile, start, end,
                gTraceGeneration.load(std::memory_order_relaxed),
                variantId(variant));
    return ok;
}

void
writeSpans(const std::string& path, const std::vector<Span>& spans)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        GEVO_FATAL("cannot write spans to '%s'", path.c_str());
    const auto parents = parentsOf(spans);
    const auto self = selfNs(spans, parents);
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().startNs;
    std::fprintf(f, "index\tname\tparent\tgen\tvariant\tstart_us\tend_us\t"
                    "self_us\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f, "%zu\t%s\t%ld\t%u\t%016llx\t%.3f\t%.3f\t%.3f\n", i,
                     spanName(s.kind), parents[i], s.gen,
                     static_cast<unsigned long long>(s.id),
                     static_cast<double>(s.startNs - t0) / 1e3,
                     static_cast<double>(s.endNs - t0) / 1e3, self[i] / 1e3);
    }
    if (std::fclose(f) != 0)
        GEVO_FATAL("cannot write spans to '%s'", path.c_str());
}

std::map<std::uint32_t, double>
generationSelfMs(const std::vector<Span>& spans, SpanKind family)
{
    const auto parents = parentsOf(spans);
    const auto self = selfNs(spans, parents);
    std::map<std::uint32_t, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].kind == family)
            out[spans[i].gen] = self[i] / 1e6;
    }
    return out;
}

} // namespace gevobench
