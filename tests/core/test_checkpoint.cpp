/// Checkpoint/resume: file-format round trips, corruption rejection, and
/// bit-identical resumed trajectories through the engine — including an
/// abrupt mid-search death (a forked child that _Exit()s between periodic
/// checkpoints, the deterministic stand-in for kill -9).

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include <sys/wait.h>
#include <unistd.h>

#include "core/engine.h"
#include "ir/parser.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"
#include "support/bytes.h"

namespace gevo::core {
namespace {

constexpr const char* kToyKernel = R"(
kernel @toy params 1 regs 24 shared 512 local 0 {
entry:
    r1 = tid
    r2 = mov 0
    br memset
memset:
    r3 = mul.i32 r2, 4
    r4 = cvt.i32.i64 r3
    st.i32.shared r4, 0
    r2 = add.i32 r2, 1
    r5 = cmp.lt.i32 r2, 96
    brc r5, memset, work
work:
    r6 = mul.i32 r1, 2
    r7 = cvt.i32.i64 r1
    r8 = mul.i64 r7, 4
    r9 = add.i64 r0, r8
    st.i32.global r9, r6
    ret
}
)";

class ToyFitness : public FitnessFunction {
  public:
    FitnessResult
    evaluate(const CompiledVariant& variant) const override
    {
        const auto* prog = variant.programs.find("toy");
        if (prog == nullptr)
            return FitnessResult::fail("kernel missing");
        sim::DeviceMemory mem(1 << 16);
        const auto out = mem.alloc(64 * 4);
        const auto res = sim::launchKernel(
            sim::p100(), mem, *prog, {1, 64},
            {static_cast<std::uint64_t>(out)});
        if (!res.ok())
            return FitnessResult::fail(res.fault.detail);
        for (int t = 0; t < 64; ++t) {
            if (mem.read<std::int32_t>(out + t * 4) != t * 2)
                return FitnessResult::fail("wrong output");
        }
        return FitnessResult::pass(res.stats.ms);
    }

    std::string name() const override { return "toy"; }
};

ir::Module
toyModule()
{
    auto res = ir::parseModule(kToyKernel);
    EXPECT_TRUE(res.ok) << res.error;
    return std::move(res.module);
}

std::string
tmpPath(const std::string& name)
{
    const std::string path =
        ::testing::TempDir() + "gevo_" + name + ".gevockpt";
    std::remove(path.c_str());
    return path;
}

/// The file's bytes, or "" when it cannot be read.
std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::string
readFile(const std::string& path)
{
    EXPECT_TRUE(std::ifstream(path).good()) << path;
    return slurp(path);
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

/// A nontrivial state exercising every field: two islands, mixed
/// valid/invalid individuals, multi-generation history, quarantine keys
/// with embedded NULs (canonical edit-list keys are binary).
CheckpointState
sampleState()
{
    CheckpointState st;
    st.generation = 7;
    st.finished = false;
    st.baselineMs = 12.75;

    mut::Edit del;
    del.kind = mut::EditKind::InstrDelete;
    del.srcUid = 42;
    mut::Edit opr;
    opr.kind = mut::EditKind::OperandReplace;
    opr.srcUid = 9;
    opr.opIndex = 1;
    opr.newOperand = ir::Operand::imm(3);

    st.best.edits = {del};
    // v3: full objective vector (time, sectors, divergence), not just
    // the scalar.
    st.best.fitness = FitnessResult::pass(3.5, 96.0, 2.0);
    st.best.evaluated = true;

    GenerationLog log;
    log.generation = 7;
    log.bestMs = 3.5;
    log.meanMs = 5.25;
    log.validCount = 3;
    log.evaluations = 4;
    log.cacheHits = 1;
    log.cacheMisses = 3;
    log.workerCrashes = 1;
    log.quarantineHits = 2;
    log.bestEdits = {del};
    log.islandBestMs = {3.5, 4.0};
    // v2: the self-adaptation audit trail (one rate tuple per island).
    mut::SamplerConfig loggedRates;
    loggedRates.wDelete = 0.5;
    loggedRates.wOperand = 0.125;
    log.islandRates = {loggedRates, mut::SamplerConfig{}};
    // v3: Pareto-front size per generation.
    log.paretoFrontSize = 2;
    st.history = {log, log};
    st.history[0].generation = 6;

    CheckpointIsland a;
    a.rngState = {1, 2, 3, 4};
    a.bestMs = 3.5;
    Individual good{{del, opr}, FitnessResult::pass(3.5, 96.0, 2.0), true};
    Individual bad{{opr}, FitnessResult::fail("wrong output"), true};
    Individual fresh{{del}, {}, false};
    a.members = {good, bad, fresh};
    // v2: mid-verdict self-adaptive rate state.
    a.rates.wSwap = 0.75;
    a.candidateRates.wSwap = 1.5;
    a.candidateRates.exploreFloor = 0.0625;
    a.ratePending = true;
    a.rateLastBest = 3.25;
    CheckpointIsland b;
    b.rngState = {~0ull, 5, 6, 7};
    b.bestMs = 4.0;
    b.members = {bad, good};
    st.islands = {a, b};

    st.quarantine = {std::string("bin\0key", 7), "plain"};
    // v3: the cross-generation Pareto archive rides along.
    st.paretoFront = {good, Individual{{opr},
                                       FitnessResult::pass(4.0, 80.0, 1.0),
                                       true}};
    return st;
}

void
expectRatesEqual(const mut::SamplerConfig& a, const mut::SamplerConfig& b)
{
    EXPECT_EQ(a.wDelete, b.wDelete);
    EXPECT_EQ(a.wCopy, b.wCopy);
    EXPECT_EQ(a.wMove, b.wMove);
    EXPECT_EQ(a.wReplace, b.wReplace);
    EXPECT_EQ(a.wSwap, b.wSwap);
    EXPECT_EQ(a.wOperand, b.wOperand);
    EXPECT_EQ(a.exploreFloor, b.exploreFloor);
}

void
expectIndividualsEqual(const Individual& a, const Individual& b)
{
    EXPECT_EQ(mut::serializeEdits(a.edits), mut::serializeEdits(b.edits));
    EXPECT_EQ(a.fitness.valid, b.fitness.valid);
    EXPECT_EQ(a.fitness.objectives, b.fitness.objectives);
    EXPECT_EQ(a.fitness.failReason, b.fitness.failReason);
    EXPECT_EQ(a.evaluated, b.evaluated);
}

void
expectStatesEqual(const CheckpointState& a, const CheckpointState& b)
{
    EXPECT_EQ(a.generation, b.generation);
    EXPECT_EQ(a.finished, b.finished);
    EXPECT_EQ(a.baselineMs, b.baselineMs);
    expectIndividualsEqual(a.best, b.best);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t g = 0; g < a.history.size(); ++g) {
        EXPECT_EQ(a.history[g].generation, b.history[g].generation);
        EXPECT_EQ(a.history[g].bestMs, b.history[g].bestMs);
        EXPECT_EQ(a.history[g].meanMs, b.history[g].meanMs);
        EXPECT_EQ(a.history[g].validCount, b.history[g].validCount);
        EXPECT_EQ(a.history[g].evaluations, b.history[g].evaluations);
        EXPECT_EQ(a.history[g].cacheHits, b.history[g].cacheHits);
        EXPECT_EQ(a.history[g].cacheMisses, b.history[g].cacheMisses);
        EXPECT_EQ(a.history[g].workerCrashes,
                  b.history[g].workerCrashes);
        EXPECT_EQ(a.history[g].workerTimeouts,
                  b.history[g].workerTimeouts);
        EXPECT_EQ(a.history[g].protocolErrors,
                  b.history[g].protocolErrors);
        EXPECT_EQ(a.history[g].quarantineHits,
                  b.history[g].quarantineHits);
        EXPECT_EQ(a.history[g].paretoFrontSize,
                  b.history[g].paretoFrontSize);
        EXPECT_EQ(a.history[g].islandBestMs, b.history[g].islandBestMs);
        EXPECT_EQ(mut::serializeEdits(a.history[g].bestEdits),
                  mut::serializeEdits(b.history[g].bestEdits));
        ASSERT_EQ(a.history[g].islandRates.size(),
                  b.history[g].islandRates.size());
        for (std::size_t i = 0; i < a.history[g].islandRates.size(); ++i)
            expectRatesEqual(a.history[g].islandRates[i],
                             b.history[g].islandRates[i]);
    }
    ASSERT_EQ(a.islands.size(), b.islands.size());
    for (std::size_t i = 0; i < a.islands.size(); ++i) {
        EXPECT_EQ(a.islands[i].rngState, b.islands[i].rngState);
        EXPECT_EQ(a.islands[i].bestMs, b.islands[i].bestMs);
        ASSERT_EQ(a.islands[i].members.size(),
                  b.islands[i].members.size());
        for (std::size_t m = 0; m < a.islands[i].members.size(); ++m)
            expectIndividualsEqual(a.islands[i].members[m],
                                   b.islands[i].members[m]);
        expectRatesEqual(a.islands[i].rates, b.islands[i].rates);
        expectRatesEqual(a.islands[i].candidateRates,
                         b.islands[i].candidateRates);
        EXPECT_EQ(a.islands[i].ratePending, b.islands[i].ratePending);
        EXPECT_EQ(a.islands[i].rateLastBest, b.islands[i].rateLastBest);
    }
    EXPECT_EQ(a.quarantine, b.quarantine);
    ASSERT_EQ(a.paretoFront.size(), b.paretoFront.size());
    for (std::size_t i = 0; i < a.paretoFront.size(); ++i)
        expectIndividualsEqual(a.paretoFront[i], b.paretoFront[i]);
}

TEST(Checkpoint, SaveLoadRoundTrip)
{
    const auto path = tmpPath("roundtrip");
    const auto st = sampleState();
    std::string error;
    ASSERT_TRUE(saveCheckpoint(path, 42, st, &error)) << error;
    const auto load = loadCheckpoint(path, 42);
    ASSERT_EQ(load.status, CheckpointLoadResult::Status::Ok)
        << load.message;
    expectStatesEqual(st, load.state);
    std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsMissing)
{
    const auto load = loadCheckpoint(tmpPath("missing"));
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::Missing);
}

TEST(Checkpoint, GarbageFileIsRejectedAsBadHeader)
{
    const auto path = tmpPath("garbage");
    writeFile(path, "definitely not a checkpoint");
    const auto load = loadCheckpoint(path);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::BadHeader);
    std::remove(path.c_str());
}

TEST(Checkpoint, VersionMismatchIsRejected)
{
    const auto path = tmpPath("version");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    auto bytes = readFile(path);
    bytes[8] = static_cast<char>(kCheckpointVersion + 1); // u32 LSB.
    writeFile(path, bytes);
    const auto load = loadCheckpoint(path, 42);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::VersionMismatch);
    std::remove(path.c_str());
}

TEST(Checkpoint, OlderV2FileDegradesToVersionMismatch)
{
    // A pre-objective-vector (v2) checkpoint is not readable by the
    // current parser; it must surface as VersionMismatch, which the engine
    // turns into a warned cold start instead of a partial restore.
    const auto path = tmpPath("v2");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    auto bytes = readFile(path);
    bytes[8] = 2; // u32 version LSB: the PR 9 on-disk format.
    writeFile(path, bytes);
    const auto load = loadCheckpoint(path, 42);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::VersionMismatch);
    std::remove(path.c_str());
}

TEST(Checkpoint, ScopeMismatchIsRejected)
{
    const auto path = tmpPath("scope");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    const auto load = loadCheckpoint(path, 43);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::ScopeMismatch);
    std::remove(path.c_str());
}

TEST(Checkpoint, AnyTruncationRejectsTheWholeFile)
{
    // Unlike the cache store (independent records, good prefix kept), a
    // checkpoint is one consistent state: every truncation point beyond
    // the header must reject the file outright.
    const auto path = tmpPath("truncated");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    const auto full = readFile(path);
    for (const double fraction : {0.25, 0.5, 0.9}) {
        writeFile(path, full.substr(0, static_cast<std::size_t>(
                                           full.size() * fraction)));
        const auto load = loadCheckpoint(path, 42);
        EXPECT_EQ(load.status, CheckpointLoadResult::Status::Corrupt)
            << "fraction " << fraction;
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, AnyFlippedByteRejectsTheWholeFile)
{
    const auto path = tmpPath("bitflip");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    const auto full = readFile(path);
    // Flip a byte in an early, a middle and a late record.
    for (const std::size_t pos :
         {std::size_t{24}, full.size() / 2, full.size() - 3}) {
        auto bytes = full;
        bytes[pos] = static_cast<char>(bytes[pos] ^ 0x40);
        writeFile(path, bytes);
        const auto load = loadCheckpoint(path, 42);
        EXPECT_EQ(load.status, CheckpointLoadResult::Status::Corrupt)
            << "byte " << pos;
    }
    std::remove(path.c_str());
}

TEST(Checkpoint, TrailingBytesRejectTheWholeFile)
{
    const auto path = tmpPath("trailing");
    ASSERT_TRUE(saveCheckpoint(path, 42, sampleState()));
    writeFile(path, readFile(path) + "spare bytes");
    const auto load = loadCheckpoint(path, 42);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::Corrupt);
    std::remove(path.c_str());
}

TEST(Checkpoint, HugeCountInACrcValidRecordIsCorruptNotAnAllocation)
{
    // A writer bug (or a deliberate edit that recomputes the CRC) can
    // leave a record whose framing is intact but whose element count is
    // absurd. The loader must report Corrupt, never throw bad_alloc.
    CheckpointState st;
    st.generation = 1;
    st.history.resize(1); // No islands: the history record is third.
    const auto path = tmpPath("hugecount");
    ASSERT_TRUE(saveCheckpoint(path, 42, st));
    auto bytes = readFile(path);

    std::size_t pos = 20; // magic + version + scope.
    auto u32At = [&](std::size_t at) {
        std::uint32_t v = 0;
        std::memcpy(&v, bytes.data() + at, 4); // Little-endian host.
        return v;
    };
    for (int skip = 0; skip < 2; ++skip) // meta, best individual.
        pos += 8 + u32At(pos);
    const std::uint32_t len = u32At(pos);
    char* payload = bytes.data() + pos + 8;
    // The record ends in islandBestMs' count, then islandRates' count.
    const std::uint32_t huge = 0xfffffff0u;
    std::memcpy(payload + len - 8, &huge, 4);
    const std::uint32_t crc = crc32(payload, len);
    std::memcpy(bytes.data() + pos + 4, &crc, 4);
    writeFile(path, bytes);

    CheckpointLoadResult load;
    EXPECT_NO_THROW(load = loadCheckpoint(path, 42));
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::Corrupt);
    EXPECT_NE(load.message.find("history"), std::string::npos)
        << load.message;
    std::remove(path.c_str());
}

TEST(Checkpoint, HugeEditCountInACrcValidRecordIsCorruptNotAnAllocation)
{
    // The best individual's record starts with its edit-list count.
    CheckpointState st;
    st.best.edits.resize(2);
    const auto path = tmpPath("hugeedits");
    ASSERT_TRUE(saveCheckpoint(path, 42, st));
    auto bytes = readFile(path);

    std::size_t pos = 20; // magic + version + scope.
    pos += 8 + readLeU32(bytes.data() + pos); // Skip the meta record.
    const std::uint32_t len = readLeU32(bytes.data() + pos);
    char* payload = bytes.data() + pos + 8;
    ASSERT_EQ(readLeU32(payload), 2u);
    storeLeU32(payload, 0xfffffff0u);
    storeLeU32(bytes.data() + pos + 4, crc32(payload, len));
    writeFile(path, bytes);

    CheckpointLoadResult load;
    EXPECT_NO_THROW(load = loadCheckpoint(path, 42));
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::Corrupt);
    EXPECT_NE(load.message.find("best-individual"), std::string::npos)
        << load.message;
    std::remove(path.c_str());
}

std::string
toHex(const std::string& bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
        out.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
    }
    return out;
}

/// sampleState() under scope 0x0123456789abcdef as format v3 wrote it
/// (text edit lists): the pin of the previous format, kept so that a v3
/// file keeps degrading to a warned cold start.
const char* const kV3SampleHex =
    // header
    "4745564f434b505403000000efcdab8967452301"
    // meta
    "2d0000009666f96d070000000000000000008029400200000000000000020000"
    "000000000002000000000000000200000000000000"
    // best individual
    "3b0000009e2f14711500000064656c6574652034322030202d31206e20302030"
    "0a01030000000000000000000c40000000000000584000000000000000400000"
    "000001"
    // island 0
    "470100004095bb51010000000000000002000000000000000300000000000000"
    "04000000000000000000000000000c4003000000000000002800000064656c65"
    "74652034322030202d31206e203020300a6f707265706c203920302031206920"
    "3320300a01030000000000000000000c40000000000000584000000000000000"
    "400000000001130000006f707265706c2039203020312069203320300a000000"
    "00000c00000077726f6e67206f7574707574011500000064656c657465203432"
    "2030202d31206e203020300a000000000000000000009a9999999999c93fb81e"
    "85eb51b8be3f7b14ae47e17ab43f9a9999999999b93f000000000000e83fe17a"
    "14ae47e1da3f000000000000d03f9a9999999999c93fb81e85eb51b8be3f7b14"
    "ae47e17ab43f9a9999999999b93f000000000000f83fe17a14ae47e1da3f0000"
    "00000000b03f010000000000000a40"
    // island 1
    "24010000e9100507ffffffffffffffff05000000000000000600000000000000"
    "070000000000000000000000000010400200000000000000130000006f707265"
    "706c2039203020312069203320300a00000000000c00000077726f6e67206f75"
    "74707574012800000064656c6574652034322030202d31206e203020300a6f70"
    "7265706c2039203020312069203320300a01030000000000000000000c400000"
    "000000005840000000000000004000000000019a9999999999c93fb81e85eb51"
    "b8be3f7b14ae47e17ab43f9a9999999999b93f7b14ae47e17ab43fe17a14ae47"
    "e1da3f000000000000d03f9a9999999999c93fb81e85eb51b8be3f7b14ae47e1"
    "7ab43f9a9999999999b93f7b14ae47e17ab43fe17a14ae47e1da3f0000000000"
    "00d03f000000000000000000"
    // history 0
    "fd00000015a09766060000000000000000000c40000000000000154003000000"
    "0000000004000000000000000100000000000000030000000000000001000000"
    "0000000000000000000000000000000000000000020000000000000002000000"
    "000000001500000064656c6574652034322030202d31206e203020300a020000"
    "000000000000000c40000000000000104002000000000000000000e03fb81e85"
    "eb51b8be3f7b14ae47e17ab43f9a9999999999b93f7b14ae47e17ab43f000000"
    "000000c03f000000000000d03f9a9999999999c93fb81e85eb51b8be3f7b14ae"
    "47e17ab43f9a9999999999b93f7b14ae47e17ab43fe17a14ae47e1da3f000000"
    "000000d03f"
    // history 1
    "fd0000000f692fb2070000000000000000000c40000000000000154003000000"
    "0000000004000000000000000100000000000000030000000000000001000000"
    "0000000000000000000000000000000000000000020000000000000002000000"
    "000000001500000064656c6574652034322030202d31206e203020300a020000"
    "000000000000000c40000000000000104002000000000000000000e03fb81e85"
    "eb51b8be3f7b14ae47e17ab43f9a9999999999b93f7b14ae47e17ab43f000000"
    "000000c03f000000000000d03f9a9999999999c93fb81e85eb51b8be3f7b14ae"
    "47e17ab43f9a9999999999b93f7b14ae47e17ab43fe17a14ae47e1da3f000000"
    "000000d03f"
    // quarantine
    "140000006c91f0c40700000062696e006b657905000000706c61696e"
    // pareto front
    "87000000c7e0a87b2800000064656c6574652034322030202d31206e20302030"
    "0a6f707265706c2039203020312069203320300a01030000000000000000000c"
    "40000000000000584000000000000000400000000001130000006f707265706c"
    "2039203020312069203320300a01030000000000000000001040000000000000"
    "5440000000000000f03f0000000001";

std::string
fromHex(const std::string& hex)
{
    std::string out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(
            static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

TEST(Checkpoint, V4BytesArePinned)
{
    // Format stability, not just round trips: a checkpoint written by
    // any build of format v4 must be byte-identical to this capture, or
    // an old file would silently stop resuming.
    const auto path = tmpPath("golden");
    ASSERT_TRUE(saveCheckpoint(path, 0x0123456789abcdefull, sampleState()));
    EXPECT_EQ(toHex(readFile(path)),
        // header
        "4745564f434b505404000000efcdab8967452301"
        // meta
        "2d0000009666f96d070000000000000000008029400200000000000000020000"
        "000000000002000000000000000200000000000000"
        // best individual
        "490000000f1ce3b90100000000ff002a00000000000000000000000000000000"
        "00000000000000000000000000000001030000000000000000000c4000000000"
        "0000584000000000000000400000000001"
        // island 0
        "83010000afd357bd010000000000000002000000000000000300000000000000"
        "04000000000000000000000000000c4003000000000000000200000000ff002a"
        "0000000000000000000000000000000000000000000000000000000000000005"
        "0102090000000000000000000000000000000300000000000000000000000000"
        "000001030000000000000000000c400000000000005840000000000000004000"
        "0000000101000000050102090000000000000000000000000000000300000000"
        "000000000000000000000000000000000c00000077726f6e67206f7574707574"
        "010100000000ff002a0000000000000000000000000000000000000000000000"
        "0000000000000000000000000000000000009a9999999999c93fb81e85eb51b8"
        "be3f7b14ae47e17ab43f9a9999999999b93f000000000000e83fe17a14ae47e1"
        "da3f000000000000d03f9a9999999999c93fb81e85eb51b8be3f7b14ae47e17a"
        "b43f9a9999999999b93f000000000000f83fe17a14ae47e1da3f000000000000"
        "b03f010000000000000a40"
        // island 1
        "52010000025a1993ffffffffffffffff05000000000000000600000000000000"
        "0700000000000000000000000000104002000000000000000100000005010209"
        "0000000000000000000000000000000300000000000000000000000000000000"
        "000000000c00000077726f6e67206f7574707574010200000000ff002a000000"
        "0000000000000000000000000000000000000000000000000000000005010209"
        "0000000000000000000000000000000300000000000000000000000000000001"
        "030000000000000000000c400000000000005840000000000000004000000000"
        "019a9999999999c93fb81e85eb51b8be3f7b14ae47e17ab43f9a9999999999b9"
        "3f7b14ae47e17ab43fe17a14ae47e1da3f000000000000d03f9a9999999999c9"
        "3fb81e85eb51b8be3f7b14ae47e17ab43f9a9999999999b93f7b14ae47e17ab4"
        "3fe17a14ae47e1da3f000000000000d03f000000000000000000"
        // history 0
        "0b010000ef7d4640060000000000000000000c40000000000000154003000000"
        "0000000004000000000000000100000000000000030000000000000001000000"
        "0000000000000000000000000000000000000000020000000000000002000000"
        "000000000100000000ff002a0000000000000000000000000000000000000000"
        "0000000000000000000000020000000000000000000c40000000000000104002"
        "000000000000000000e03fb81e85eb51b8be3f7b14ae47e17ab43f9a99999999"
        "99b93f7b14ae47e17ab43f000000000000c03f000000000000d03f9a99999999"
        "99c93fb81e85eb51b8be3f7b14ae47e17ab43f9a9999999999b93f7b14ae47e1"
        "7ab43fe17a14ae47e1da3f000000000000d03f"
        // history 1
        "0b0100006f91d5a3070000000000000000000c40000000000000154003000000"
        "0000000004000000000000000100000000000000030000000000000001000000"
        "0000000000000000000000000000000000000000020000000000000002000000"
        "000000000100000000ff002a0000000000000000000000000000000000000000"
        "0000000000000000000000020000000000000000000c40000000000000104002"
        "000000000000000000e03fb81e85eb51b8be3f7b14ae47e17ab43f9a99999999"
        "99b93f7b14ae47e17ab43f000000000000c03f000000000000d03f9a99999999"
        "99c93fb81e85eb51b8be3f7b14ae47e17ab43f9a9999999999b93f7b14ae47e1"
        "7ab43fe17a14ae47e1da3f000000000000d03f"
        // quarantine
        "140000006c91f0c40700000062696e006b657905000000706c61696e"
        // pareto front
        "b5000000dbaaf3060200000000ff002a00000000000000000000000000000000"
        "0000000000000000000000000000000501020900000000000000000000000000"
        "00000300000000000000000000000000000001030000000000000000000c4000"
        "0000000000584000000000000000400000000001010000000501020900000000"
        "0000000000000000000000030000000000000000000000000000000103000000"
        "00000000000010400000000000005440000000000000f03f0000000001");
    std::remove(path.c_str());
}

TEST(Checkpoint, V3FileIsAVersionMismatch)
{
    const auto path = tmpPath("v3");
    writeFile(path, fromHex(kV3SampleHex));
    const auto load = loadCheckpoint(path, 0x0123456789abcdefull);
    EXPECT_EQ(load.status, CheckpointLoadResult::Status::VersionMismatch);
    EXPECT_NE(load.message.find("format version 3"), std::string::npos)
        << load.message;
    std::remove(path.c_str());
}

// ---- engine-level resume ----

void
expectSameTrajectory(const SearchResult& a, const SearchResult& b)
{
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t g = 0; g < a.history.size(); ++g) {
        const GenerationLog& la = a.history[g];
        const GenerationLog& lb = b.history[g];
        EXPECT_EQ(la.generation, lb.generation);
        EXPECT_EQ(la.bestMs, lb.bestMs) << "gen " << la.generation;
        EXPECT_EQ(la.meanMs, lb.meanMs) << "gen " << la.generation;
        EXPECT_EQ(la.validCount, lb.validCount) << "gen " << la.generation;
        EXPECT_EQ(la.evaluations, lb.evaluations)
            << "gen " << la.generation;
        EXPECT_EQ(la.islandBestMs, lb.islandBestMs)
            << "gen " << la.generation;
        EXPECT_EQ(mut::serializeEdits(la.bestEdits),
                  mut::serializeEdits(lb.bestEdits))
            << "gen " << la.generation;
    }
    EXPECT_EQ(mut::serializeEdits(a.best.edits),
              mut::serializeEdits(b.best.edits));
    EXPECT_EQ(a.best.fitness.ms(), b.best.fitness.ms());
}

/// The engine's checkpoint file must be exactly what saveCheckpoint
/// writes for the state loaded from it (every field survives the
/// binary round trip), with the history the engine has logged.
::testing::AssertionResult
checkpointIsCanonical(const std::string& path,
                      const std::vector<GenerationLog>& logged)
{
    const std::string bytes = slurp(path);
    if (bytes.size() < kFileHeaderSize)
        return ::testing::AssertionFailure() << "no checkpoint file";
    const std::uint64_t scope = readLeU64(bytes.data() + 12);
    auto load = loadCheckpoint(path, scope);
    if (!load.usable())
        return ::testing::AssertionFailure() << load.message;
    const auto fresh = path + ".fresh";
    auto freshBytes = [&] {
        saveCheckpoint(fresh, scope, load.state);
        return slurp(fresh);
    };
    const bool sameAsFresh = freshBytes() == bytes;
    const std::size_t n = load.state.history.size();
    const bool ownHistory = n <= logged.size();
    if (ownHistory)
        load.state.history.assign(logged.begin(), logged.begin() + n);
    const bool sameLogs = ownHistory && freshBytes() == bytes;
    std::remove(fresh.c_str());
    if (!sameAsFresh)
        return ::testing::AssertionFailure()
               << "differs from a fresh save of its own state";
    if (!sameLogs)
        return ::testing::AssertionFailure()
               << "its " << n << " history records are not the first of "
               << logged.size() << " logged generations";
    return ::testing::AssertionSuccess();
}

/// A callback checking, at every generation after \p firstGen, the file
/// the previous generation's save left.
EvolutionEngine::GenerationCallback
checkEveryGeneration(const std::string& path, std::uint32_t firstGen,
                     bool exitOnFailure = false)
{
    return [=](const GenerationLog& log, const SearchResult& result) {
        if (log.generation <= firstGen)
            return;
        const auto ok = checkpointIsCanonical(path, result.history);
        if (exitOnFailure && !ok)
            std::_Exit(2);
        EXPECT_TRUE(ok) << "generation " << log.generation;
    };
}

EvolutionParams
resumeParams(std::uint32_t threads, bool useCache)
{
    EvolutionParams params;
    params.populationSize = 10;
    params.generations = 8;
    params.elitism = 2;
    params.seed = 11;
    params.threads = threads;
    params.useCache = useCache;
    return params;
}

TEST(CheckpointEngine, AbruptDeathThenResumeIsBitIdentical)
{
    // The kill -9 scenario, made deterministic: a forked child runs the
    // search with per-generation checkpoints and _Exit()s mid-run —
    // no final saves, no destructors, exactly what SIGKILL leaves
    // behind. The parent resumes from the orphaned periodic checkpoint
    // and must land on the uninterrupted run's exact history, across
    // thread counts and cache on/off.
    const auto mod = toyModule();
    ToyFitness fitness;
    for (const std::uint32_t threads : {1u, 4u}) {
        for (const bool useCache : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << "threads=" << threads << " cache=" << useCache);
            auto params = resumeParams(threads, useCache);
            const auto reference =
                EvolutionEngine(mod, fitness, params).run();

            const auto path = tmpPath(
                "kill_" + std::to_string(threads) +
                (useCache ? "_c" : "_n"));
            params.checkpointPath = path;
            params.checkpointInterval = 1;

            const pid_t pid = ::fork();
            ASSERT_GE(pid, 0);
            if (pid == 0) {
                // Child: die abruptly after generation 5's checkpoint,
                // having checked every checkpoint it wrote (exit 2 if
                // one is off).
                EvolutionEngine child(mod, fitness, params);
                const auto check = checkEveryGeneration(path, 1, true);
                child.run([&](const GenerationLog& log,
                              const SearchResult& result) {
                    check(log, result);
                    if (log.generation == 6)
                        std::_Exit(0);
                });
                std::_Exit(1); // Should have died mid-run.
            }
            int status = 0;
            ASSERT_EQ(::waitpid(pid, &status, 0), pid);
            ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
                << "child exit status " << WEXITSTATUS(status);

            params.resume = true;
            const auto resumed = EvolutionEngine(mod, fitness, params)
                                     .run(checkEveryGeneration(path, 0));
            expectSameTrajectory(reference, resumed);
            EXPECT_TRUE(checkpointIsCanonical(path, resumed.history));
            std::remove(path.c_str());
        }
    }
}

TEST(CheckpointEngine, GracefulStopThenResumeIsBitIdentical)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = resumeParams(2, true);
    const auto reference = EvolutionEngine(mod, fitness, params).run();

    const auto path = tmpPath("graceful");
    params.checkpointPath = path;
    params.checkpointInterval = 3;
    EvolutionEngine engine(mod, fitness, params);
    const auto partial =
        engine.run([&](const GenerationLog& log, const SearchResult&) {
            if (log.generation == 4)
                engine.requestStop(); // As the SIGINT handler would.
        });
    EXPECT_TRUE(partial.interrupted);
    EXPECT_EQ(partial.history.size(), 4u);

    params.resume = true;
    const auto resumed = EvolutionEngine(mod, fitness, params)
                             .run(checkEveryGeneration(path, 0));
    EXPECT_FALSE(resumed.interrupted);
    expectSameTrajectory(reference, resumed);
    EXPECT_TRUE(checkpointIsCanonical(path, resumed.history));
    std::remove(path.c_str());
}

TEST(CheckpointEngine, ResumeExtendsAFinishedRun)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = resumeParams(2, true);
    const auto reference = EvolutionEngine(mod, fitness, params).run();

    const auto path = tmpPath("extend");
    params.checkpointPath = path;
    params.checkpointInterval = 1;
    params.generations = 5;
    const auto first = EvolutionEngine(mod, fitness, params)
                           .run(checkEveryGeneration(path, 1));
    EXPECT_TRUE(checkpointIsCanonical(path, first.history));

    params.generations = 8;
    params.resume = true;
    const auto extended = EvolutionEngine(mod, fitness, params)
                              .run(checkEveryGeneration(path, 0));
    expectSameTrajectory(reference, extended);
    EXPECT_TRUE(checkpointIsCanonical(path, extended.history));

    // Resuming a run that already covers the budget is a no-op that
    // returns the stored state.
    const auto again = EvolutionEngine(mod, fitness, params).run();
    expectSameTrajectory(reference, again);
    EXPECT_TRUE(checkpointIsCanonical(path, again.history));
    std::remove(path.c_str());
}

TEST(CheckpointEngine, DamagedCheckpointDegradesToColdStart)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = resumeParams(2, true);
    const auto reference = EvolutionEngine(mod, fitness, params).run();

    const auto path = tmpPath("damaged");
    params.checkpointPath = path;
    params.checkpointInterval = 2;
    (void)EvolutionEngine(mod, fitness, params).run();

    // Truncate the finished checkpoint: --resume must warn and rerun the
    // whole search from scratch, landing on the same trajectory.
    const auto full = readFile(path);
    writeFile(path, full.substr(0, full.size() / 2));
    params.resume = true;
    const auto cold = EvolutionEngine(mod, fitness, params).run();
    expectSameTrajectory(reference, cold);
    std::remove(path.c_str());
}

TEST(CheckpointEngine, V3CheckpointDegradesToAWarnedColdStart)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = resumeParams(2, true);
    const auto reference = EvolutionEngine(mod, fitness, params).run();

    const auto path = tmpPath("v3resume");
    writeFile(path, fromHex(kV3SampleHex));
    params.checkpointPath = path;
    params.resume = true;
    ::testing::internal::CaptureStderr();
    const auto cold = EvolutionEngine(mod, fitness, params).run();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("ignoring checkpoint"), std::string::npos) << log;
    EXPECT_NE(log.find("format version 3, expected 4"), std::string::npos)
        << log;
    expectSameTrajectory(reference, cold);
    std::remove(path.c_str());
}

TEST(CheckpointEngine, ScopeMismatchedCheckpointDegradesToColdStart)
{
    const auto mod = toyModule();
    ToyFitness fitness;
    auto params = resumeParams(2, true);
    const auto path = tmpPath("wrongscope");
    params.checkpointPath = path;
    (void)EvolutionEngine(mod, fitness, params).run();

    // A different seed is a different trajectory scope: resuming from
    // the seed-11 checkpoint must cold-start, not splice histories.
    auto other = params;
    other.seed = 12;
    other.resume = true;
    const auto fresh = EvolutionEngine(mod, fitness, other).run();
    auto otherRef = other;
    otherRef.checkpointPath.clear();
    otherRef.resume = false;
    const auto reference =
        EvolutionEngine(mod, fitness, otherRef).run();
    expectSameTrajectory(reference, fresh);
    std::remove(path.c_str());
}

} // namespace
} // namespace gevo::core
