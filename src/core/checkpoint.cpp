#include "core/checkpoint.h"

#include <ostream>

#include "support/strings.h"

namespace gevo::core {

namespace {

constexpr FileFormat kFormat{"GEVOCKPT", kCheckpointVersion, "checkpoint",
                             "saved by a trajectory-incompatible search "
                             "(different workload, seed or parameters)"};

/// Smallest encodings, for Reader::list before sizing from a count:
/// an Individual is an empty edit list + an empty FitnessResult + the
/// evaluated flag; a SamplerConfig is seven doubles.
constexpr std::size_t kMinIndividual = 4 + (1 + 4 + 4) + 1;
constexpr std::size_t kSamplerConfigBytes = 7 * 8;

// ---- payload builders ----

void
appendIndividual(std::string* out, const Individual& ind)
{
    appendEdits(out, ind.edits);
    appendFitness(out, ind.fitness);
    out->push_back(ind.evaluated ? 1 : 0);
}

void
appendSamplerConfig(std::string* out, const mut::SamplerConfig& cfg)
{
    appendDouble(out, cfg.wDelete);
    appendDouble(out, cfg.wCopy);
    appendDouble(out, cfg.wMove);
    appendDouble(out, cfg.wReplace);
    appendDouble(out, cfg.wSwap);
    appendDouble(out, cfg.wOperand);
    appendDouble(out, cfg.exploreFloor);
}

void
appendLog(std::string* out, const GenerationLog& log)
{
    appendLeU32(out, log.generation);
    appendDouble(out, log.bestMs);
    appendDouble(out, log.meanMs);
    appendLeU64(out, log.validCount);
    appendLeU64(out, log.evaluations);
    appendLeU64(out, log.cacheHits);
    appendLeU64(out, log.cacheMisses);
    appendLeU64(out, log.workerCrashes);
    appendLeU64(out, log.workerTimeouts);
    appendLeU64(out, log.protocolErrors);
    appendLeU64(out, log.quarantineHits);
    appendLeU64(out, log.paretoFrontSize);
    appendEdits(out, log.bestEdits);
    appendLeU32(out, static_cast<std::uint32_t>(log.islandBestMs.size()));
    for (const double ms : log.islandBestMs)
        appendDouble(out, ms);
    appendLeU32(out, static_cast<std::uint32_t>(log.islandRates.size()));
    for (const auto& rates : log.islandRates)
        appendSamplerConfig(out, rates);
}

// ---- payload parsers (any false maps to Status::Corrupt) ----

bool
parseIndividual(Reader* in, Individual* out)
{
    return readEdits(in, &out->edits) && readFitness(in, &out->fitness) &&
           in->flag(&out->evaluated);
}

bool
parseSamplerConfig(Reader* in, mut::SamplerConfig* out)
{
    return in->f64(&out->wDelete) && in->f64(&out->wCopy) &&
           in->f64(&out->wMove) && in->f64(&out->wReplace) &&
           in->f64(&out->wSwap) && in->f64(&out->wOperand) &&
           in->f64(&out->exploreFloor);
}

bool
parseLog(Reader* in, GenerationLog* out)
{
    std::size_t islandCount = 0;
    std::size_t ratesCount = 0;
    return in->u32(&out->generation) && in->f64(&out->bestMs) &&
           in->f64(&out->meanMs) && in->size(&out->validCount) &&
           in->size(&out->evaluations) && in->size(&out->cacheHits) &&
           in->size(&out->cacheMisses) && in->size(&out->workerCrashes) &&
           in->size(&out->workerTimeouts) && in->size(&out->protocolErrors) &&
           in->size(&out->quarantineHits) &&
           in->size(&out->paretoFrontSize) &&
           readEdits(in, &out->bestEdits) && in->count(&islandCount) &&
           in->list(islandCount, 8, &out->islandBestMs, &Reader::f64) &&
           in->count(&ratesCount) && ratesCount <= 4096 &&
           in->list(ratesCount, kSamplerConfigBytes, &out->islandRates,
                    parseSamplerConfig) &&
           in->done();
}

bool
parseIsland(Reader* in, CheckpointIsland* out)
{
    for (auto& word : out->rngState) {
        if (!in->u64(&word))
            return false;
    }
    std::size_t memberCount = 0;
    return in->f64(&out->bestMs) && in->size(&memberCount) &&
           in->list(memberCount, kMinIndividual, &out->members,
                    parseIndividual) &&
           parseSamplerConfig(in, &out->rates) &&
           parseSamplerConfig(in, &out->candidateRates) &&
           in->flag(&out->ratePending) && in->f64(&out->rateLastBest) &&
           in->done();
}

} // namespace

CheckpointLoadResult
loadCheckpoint(const std::string& path, std::uint64_t expectedScope)
{
    CheckpointLoadResult res;
    std::string bytes;
    res.status =
        readFileChecked(path, kFormat, expectedScope, &bytes, &res.message);
    if (res.status != CheckpointLoadResult::Status::Ok)
        return res;

    auto corrupt = [&](const char* what) {
        res.status = CheckpointLoadResult::Status::Corrupt;
        res.state = CheckpointState{};
        res.message = strformat("damaged checkpoint (%s)", what);
        return res;
    };
    std::size_t pos = kFileHeaderSize;
    Reader in{{}};
    auto next = [&] { return nextRecord(bytes, &pos, &in); };

    // meta: generation | finished | baselineMs | islands | history
    // | quarantine | pareto-front counts.
    std::size_t islandCount = 0;
    std::size_t historyCount = 0;
    std::size_t quarantineCount = 0;
    std::size_t frontCount = 0;
    if (!next() || !in.u32(&res.state.generation) ||
        !in.flag(&res.state.finished) || !in.f64(&res.state.baselineMs) ||
        !in.size(&islandCount) || !in.size(&historyCount) ||
        !in.size(&quarantineCount) || !in.size(&frontCount) || !in.done())
        return corrupt("meta record");
    if (islandCount > 4096 || historyCount > (1u << 24) ||
        quarantineCount > (1u << 24) || frontCount > (1u << 24))
        return corrupt("meta counts");

    if (!next() || !parseIndividual(&in, &res.state.best) || !in.done())
        return corrupt("best-individual record");

    // Islands and history are one record each: they are appended as
    // their records arrive, so a lying count runs out of file instead of
    // pre-sizing the vectors.
    for (std::size_t i = 0; i < islandCount; ++i) {
        if (!next() || !parseIsland(&in, &res.state.islands.emplace_back()))
            return corrupt("island record");
    }
    for (std::size_t g = 0; g < historyCount; ++g) {
        if (!next() || !parseLog(&in, &res.state.history.emplace_back()))
            return corrupt("history record");
    }

    if (!next() ||
        !in.list(quarantineCount, 4, &res.state.quarantine, &Reader::str) ||
        !in.done())
        return corrupt("quarantine record");
    if (!next() ||
        !in.list(frontCount, kMinIndividual, &res.state.paretoFront,
                 parseIndividual) ||
        !in.done())
        return corrupt("pareto-front record");

    // One consistent state means exactly these records: trailing bytes
    // are damage (or a writer this version does not understand).
    if (pos != bytes.size())
        return corrupt("trailing bytes");
    return res;
}

bool
saveCheckpoint(const std::string& path, std::uint64_t scope,
               const CheckpointState& state, std::string* error)
{
    std::string out;
    appendFileHeader(&out, kFormat, scope);

    appendRecord(&out, [&] {
        appendLeU32(&out, state.generation);
        out.push_back(state.finished ? 1 : 0);
        appendDouble(&out, state.baselineMs);
        appendLeU64(&out, state.islands.size());
        appendLeU64(&out, state.history.size());
        appendLeU64(&out, state.quarantine.size());
        appendLeU64(&out, state.paretoFront.size());
    });
    appendRecord(&out, [&] { appendIndividual(&out, state.best); });
    for (const auto& island : state.islands) {
        appendRecord(&out, [&] {
            for (const std::uint64_t word : island.rngState)
                appendLeU64(&out, word);
            appendDouble(&out, island.bestMs);
            appendLeU64(&out, island.members.size());
            for (const auto& member : island.members)
                appendIndividual(&out, member);
            appendSamplerConfig(&out, island.rates);
            appendSamplerConfig(&out, island.candidateRates);
            out.push_back(island.ratePending ? 1 : 0);
            appendDouble(&out, island.rateLastBest);
        });
    }
    for (const auto& log : state.history)
        appendRecord(&out, [&] { appendLog(&out, log); });
    appendRecord(&out, [&] {
        for (const auto& key : state.quarantine)
            appendString(&out, key);
    });
    appendRecord(&out, [&] {
        for (const auto& ind : state.paretoFront)
            appendIndividual(&out, ind);
    });

    return writeFileAtomic(path, [&](std::ostream& file) {
        file.write(out.data(), static_cast<std::streamsize>(out.size()));
    }, error);
}

} // namespace gevo::core
