/// Persistent cache store: file-format round trips, corruption and
/// version-mismatch tolerance, concurrent save, and trajectory-neutral
/// warm starts through the engine (toy kernel and every registered workload).

#include "core/cache_store.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include "apps/registry.h"
#include "core/engine.h"
#include "core/variant_cache.h"
#include "core/workload.h"
#include "ir/parser.h"
#include "mutation/edit.h"
#include "sim/device_config.h"
#include "sim/device_memory.h"
#include "sim/executor.h"
#include "sim/program.h"

namespace gevo::core {
namespace {

/// Scope fingerprint used by the file-level tests (the engine derives a
/// real one from the compiled baseline + fitness description).
constexpr std::uint64_t kTestScope = 42;

std::string
tmpPath(const std::string& name)
{
    const std::string path = ::testing::TempDir() + "gevo_" + name +
                             ".gevocache";
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::vector<CacheStoreRecord>
sampleRecords()
{
    std::vector<CacheStoreRecord> records;
    records.push_back({0, "plain-key", FitnessResult::pass(1.25)});
    // Keys are raw canonical bytes: embedded NULs and high bytes must
    // survive the round trip.
    records.push_back(
        {0, std::string("\x00\xff\x01key\x00tail", 11),
         FitnessResult::pass(0.5)});
    records.push_back({1, "program-key",
                       FitnessResult::fail("verifier: use before def")});
    records.push_back({1, "", FitnessResult::pass(7.0)}); // empty key
    records.push_back({2, "future-level", FitnessResult::pass(3.0)});
    return records;
}

void
expectRecordsEqual(const std::vector<CacheStoreRecord>& a,
                   const std::vector<CacheStoreRecord>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].level, b[i].level) << i;
        EXPECT_EQ(a[i].key, b[i].key) << i;
        EXPECT_EQ(a[i].result.valid, b[i].result.valid) << i;
        EXPECT_EQ(a[i].result.ms(), b[i].result.ms()) << i;
        EXPECT_EQ(a[i].result.failReason, b[i].result.failReason) << i;
    }
}

TEST(CacheStore, Crc32MatchesTheStandardCheckValue)
{
    // The IEEE CRC-32 check vector ("123456789" -> 0xcbf43926).
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
    EXPECT_EQ(crc32("", 0), 0u);
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

std::string
fromHex(const std::string& hex)
{
    std::string out;
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(
            static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

TEST(CacheStore, V3BytesArePinned)
{
    // Format stability, not just round trips: a v3 store written by any
    // build must be byte-identical to this capture (a valid objective
    // vector under a level-0 key with a NUL in it, then a failure with
    // its reason under a 16-byte level-1 digest key).
    const auto path = tmpPath("golden");
    std::string digest;
    for (int i = 0; i < 16; ++i)
        digest.push_back(static_cast<char>(0xf0 + i));
    const std::vector<CacheStoreRecord> records = {
        {0, std::string("k\0y", 3), FitnessResult::pass(1.25, 96.0, 0.5)},
        {1, digest, FitnessResult::fail("verifier: bad")},
    };
    ASSERT_TRUE(saveCacheStore(path, 0x0123456789abcdefull, records));
    EXPECT_EQ(toHex(readFile(path)),
        // header
        "4745564f4341434803000000efcdab8967452301"
        // record 0
        "290000005e56d25200030000006b00790103000000000000000000f43f000000"
        "0000005840000000000000e03f00000000"
        // record 1
        "2b000000c5fa3ca10110000000f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff000000"
        "00000d00000076657269666965723a20626164");
    std::remove(path.c_str());
}

TEST(CacheStore, V2FileIsAWarnedColdStart)
{
    // A v2 store as v2 builds wrote it (the former pinned capture: a
    // valid objective vector, then a failure with its reason). v3 keeps
    // this record layout but level-1 keys now mean per-kernel digests,
    // so a v2 file is refused wholesale — even under its own scope —
    // with a message for the engine's warning, and the next save
    // replaces it.
    const auto path = tmpPath("v2");
    const std::uint64_t scope = 0x0123456789abcdefull;
    writeFile(path, fromHex(
        // header
        "4745564f4341434802000000efcdab8967452301"
        // record 0
        "290000005e56d25200030000006b00790103000000000000000000f43f000000"
        "0000005840000000000000e03f00000000"
        // record 1
        "1f000000a0ae5984010400000070726f6700000000000d000000766572696669"
        "65723a20626164"));
    const auto load = loadCacheStore(path, scope);
    EXPECT_EQ(load.status, CacheLoadResult::Status::VersionMismatch);
    EXPECT_TRUE(load.records.empty());
    EXPECT_NE(load.message.find("format version 2, expected 3"),
              std::string::npos)
        << load.message;

    const std::vector<CacheStoreRecord> fresh = {
        {0, "fresh", FitnessResult::pass(2.0)}};
    ASSERT_TRUE(mergeSaveCacheStore(path, scope, fresh));
    const auto reload = loadCacheStore(path, scope);
    ASSERT_EQ(reload.status, CacheLoadResult::Status::Ok);
    expectRecordsEqual(reload.records, fresh);
    std::remove(path.c_str());
}

TEST(CacheStore, SaveLoadRoundTrip)
{
    const auto path = tmpPath("roundtrip");
    const auto records = sampleRecords();
    ASSERT_TRUE(saveCacheStore(path, kTestScope, records));

    const auto load = loadCacheStore(path, kTestScope);
    ASSERT_EQ(load.status, CacheLoadResult::Status::Ok);
    EXPECT_FALSE(load.truncated);
    expectRecordsEqual(load.records, records);

    // Fail results round-trip their infinite ms bit-exactly.
    EXPECT_TRUE(std::isinf(load.records[2].result.ms()));
}

TEST(CacheStore, EmptyStoreRoundTrip)
{
    const auto path = tmpPath("empty");
    ASSERT_TRUE(saveCacheStore(path, kTestScope, {}));
    const auto load = loadCacheStore(path, kTestScope);
    EXPECT_EQ(load.status, CacheLoadResult::Status::Ok);
    EXPECT_TRUE(load.records.empty());
    EXPECT_FALSE(load.truncated);
}

TEST(CacheStore, MissingFileIsMissingNotAnError)
{
    const auto load = loadCacheStore(tmpPath("does-not-exist"), kTestScope);
    EXPECT_EQ(load.status, CacheLoadResult::Status::Missing);
    EXPECT_TRUE(load.records.empty());
}

TEST(CacheStore, GarbageFileIsRejectedAsBadHeader)
{
    const auto path = tmpPath("garbage");
    writeFile(path, "this is not a cache file at all, but it is long");
    EXPECT_EQ(loadCacheStore(path, kTestScope).status,
              CacheLoadResult::Status::BadHeader);

    writeFile(path, "GE"); // shorter than a header
    EXPECT_EQ(loadCacheStore(path, kTestScope).status,
              CacheLoadResult::Status::BadHeader);
}

TEST(CacheStore, VersionMismatchIsRejectedWholesale)
{
    const auto path = tmpPath("version");
    ASSERT_TRUE(saveCacheStore(path, kTestScope, sampleRecords()));
    auto bytes = readFile(path);
    bytes[8] = static_cast<char>(kCacheStoreVersion + 1); // LE version lsb
    writeFile(path, bytes);

    const auto load = loadCacheStore(path, kTestScope);
    EXPECT_EQ(load.status, CacheLoadResult::Status::VersionMismatch);
    EXPECT_TRUE(load.records.empty());
    EXPECT_NE(load.message.find("version"), std::string::npos);
}

TEST(CacheStore, ScopeMismatchIsRejectedWholesale)
{
    // Level-0 keys are pure edit-list bytes — identical across workloads
    // with entirely different fitness values — so a file saved under
    // another scope must be rejected like a version mismatch.
    const auto path = tmpPath("scope");
    ASSERT_TRUE(saveCacheStore(path, kTestScope, sampleRecords()));

    const auto wrong = loadCacheStore(path, kTestScope + 1);
    EXPECT_EQ(wrong.status, CacheLoadResult::Status::ScopeMismatch);
    EXPECT_TRUE(wrong.records.empty());

    // Scope 0 skips the check (diagnostic tooling reads any scope).
    EXPECT_EQ(loadCacheStore(path).status, CacheLoadResult::Status::Ok);
    EXPECT_EQ(loadCacheStore(path, kTestScope).status,
              CacheLoadResult::Status::Ok);
}

TEST(CacheStore, TruncatedTailKeepsTheGoodPrefix)
{
    const auto path = tmpPath("truncated");
    std::vector<CacheStoreRecord> records;
    for (int i = 0; i < 20; ++i)
        records.push_back({0, "key-" + std::to_string(i),
                           FitnessResult::pass(static_cast<double>(i))});
    ASSERT_TRUE(saveCacheStore(path, kTestScope, records));
    const auto bytes = readFile(path);

    // Cut the file at several points: a mid-record cut loses only the
    // records from the cut onward, never aborts, never misparses.
    for (const std::size_t cut :
         {bytes.size() - 1, bytes.size() - 7, bytes.size() / 2,
          bytes.size() / 4}) {
        writeFile(path, bytes.substr(0, cut));
        const auto load = loadCacheStore(path, kTestScope);
        ASSERT_EQ(load.status, CacheLoadResult::Status::Ok) << cut;
        EXPECT_TRUE(load.truncated) << cut;
        EXPECT_GT(load.skippedBytes, 0u) << cut;
        ASSERT_LT(load.records.size(), records.size()) << cut;
        for (std::size_t i = 0; i < load.records.size(); ++i)
            EXPECT_EQ(load.records[i].key, records[i].key) << cut;
    }
}

TEST(CacheStore, FlippedByteEndsTheStreamAtTheDamagedRecord)
{
    const auto path = tmpPath("corrupt");
    std::vector<CacheStoreRecord> records;
    for (int i = 0; i < 20; ++i)
        records.push_back({1, "key-" + std::to_string(i),
                           FitnessResult::pass(static_cast<double>(i))});
    ASSERT_TRUE(saveCacheStore(path, kTestScope, records));
    auto bytes = readFile(path);

    // Flip one byte two-thirds into the file: some record's CRC stops
    // matching, and everything before it is still served.
    const std::size_t victim = bytes.size() * 2 / 3;
    bytes[victim] = static_cast<char>(bytes[victim] ^ 0x40);
    writeFile(path, bytes);

    const auto load = loadCacheStore(path, kTestScope);
    ASSERT_EQ(load.status, CacheLoadResult::Status::Ok);
    EXPECT_TRUE(load.truncated);
    EXPECT_GT(load.records.size(), 0u);
    EXPECT_LT(load.records.size(), records.size());
    for (std::size_t i = 0; i < load.records.size(); ++i) {
        EXPECT_EQ(load.records[i].key, records[i].key);
        EXPECT_EQ(load.records[i].result.ms(), records[i].result.ms());
    }
}

TEST(CacheStore, SaveAtomicallyReplacesAndLeavesNoTmp)
{
    const auto path = tmpPath("replace");
    ASSERT_TRUE(saveCacheStore(path, kTestScope, sampleRecords()));
    std::vector<CacheStoreRecord> second = {
        {0, "only-key", FitnessResult::pass(2.0)}};
    ASSERT_TRUE(saveCacheStore(path, kTestScope, second));

    const auto load = loadCacheStore(path, kTestScope);
    expectRecordsEqual(load.records, second);
    // Temp names are process-unique (`.tmp.<pid>.<n>`): scan for any
    // leftover starting with our basename + ".tmp".
    const auto base =
        std::filesystem::path(path).filename().string() + ".tmp";
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(path).parent_path()))
        EXPECT_NE(entry.path().filename().string().rfind(base, 0), 0u)
            << "tmp file left behind: " << entry.path();
}

TEST(CacheStore, UnwritablePathFailsWithoutClobbering)
{
    const auto path = tmpPath("unwritable");
    ASSERT_TRUE(saveCacheStore(path, kTestScope, sampleRecords()));
    std::string error;
    EXPECT_FALSE(saveCacheStore("/nonexistent-dir/x/y.gevocache", kTestScope,
                                sampleRecords(), &error));
    EXPECT_FALSE(error.empty());
    // The earlier file is untouched.
    EXPECT_EQ(loadCacheStore(path, kTestScope).status, CacheLoadResult::Status::Ok);
}

// ---- merge-on-save: two writers against one cache file ----

TEST(CacheStore, MergeSavePreservesTheOtherWriterEntries)
{
    // Two searches sharing one cache file, the last-writer-wins hazard:
    // writer A saves {a}, writer B (which loaded before A saved) merge-
    // saves {b} — the file must end with {a, b}, not just {b}.
    const auto path = tmpPath("merge");
    const std::vector<CacheStoreRecord> fromA = {
        {0, "key-a", FitnessResult::pass(1.0)}};
    const std::vector<CacheStoreRecord> fromB = {
        {0, "key-b", FitnessResult::pass(2.0)},
        {1, "prog-b", FitnessResult::pass(2.5)}};
    ASSERT_TRUE(saveCacheStore(path, kTestScope, fromA));
    ASSERT_TRUE(mergeSaveCacheStore(path, kTestScope, fromB));

    const auto load = loadCacheStore(path, kTestScope);
    ASSERT_EQ(load.status, CacheLoadResult::Status::Ok);
    // Disk-only entries come first (older in LRU recency), then ours.
    std::vector<CacheStoreRecord> expected = fromA;
    expected.insert(expected.end(), fromB.begin(), fromB.end());
    expectRecordsEqual(expected, load.records);
}

TEST(CacheStore, MergeSaveFreshRecordsWinKeyCollisions)
{
    const auto path = tmpPath("merge_collide");
    ASSERT_TRUE(saveCacheStore(
        path, kTestScope,
        {{0, "shared", FitnessResult::pass(9.0)},
         {1, "shared", FitnessResult::pass(8.0)}, // same key, other level
         {0, "theirs", FitnessResult::pass(7.0)}}));
    ASSERT_TRUE(mergeSaveCacheStore(
        path, kTestScope, {{0, "shared", FitnessResult::pass(1.0)}}));

    const auto load = loadCacheStore(path, kTestScope);
    ASSERT_EQ(load.status, CacheLoadResult::Status::Ok);
    // Level-1 "shared" is a different cache level: it must survive.
    expectRecordsEqual({{1, "shared", FitnessResult::pass(8.0)},
                        {0, "theirs", FitnessResult::pass(7.0)},
                        {0, "shared", FitnessResult::pass(1.0)}},
                       load.records);
}

TEST(CacheStore, MergeSaveIgnoresForeignAndDamagedFiles)
{
    // A wrong-scope file must not leak entries into our save; a damaged
    // file contributes only its good prefix (same policy as load).
    const auto path = tmpPath("merge_foreign");
    ASSERT_TRUE(saveCacheStore(path, kTestScope + 1,
                               {{0, "foreign", FitnessResult::pass(1.0)}}));
    const std::vector<CacheStoreRecord> mine = {
        {0, "mine", FitnessResult::pass(2.0)}};
    ASSERT_TRUE(mergeSaveCacheStore(path, kTestScope, mine));
    const auto load = loadCacheStore(path, kTestScope);
    ASSERT_EQ(load.status, CacheLoadResult::Status::Ok);
    expectRecordsEqual(mine, load.records);

    // Damaged existing file: truncate mid-record, then merge-save.
    const auto damaged = tmpPath("merge_damaged");
    ASSERT_TRUE(saveCacheStore(path, kTestScope, sampleRecords()));
    const auto full = readFile(path);
    writeFile(damaged, full.substr(0, full.size() - 5));
    ASSERT_TRUE(mergeSaveCacheStore(damaged, kTestScope, mine));
    const auto merged = loadCacheStore(damaged, kTestScope);
    ASSERT_EQ(merged.status, CacheLoadResult::Status::Ok);
    auto expected = sampleRecords();
    expected.pop_back(); // The truncated final record is gone.
    expected.insert(expected.end(), mine.begin(), mine.end());
    expectRecordsEqual(expected, merged.records);
}

TEST(CacheStore, TwoWriterInterleavingConvergesToTheUnion)
{
    // The full two-writer dance from the engine's perspective: A and B
    // both start from the same file, evolve disjoint entries, and merge-
    // save in either order. Whoever saves second sees the first's save on
    // disk, so the union survives regardless of order.
    for (const bool aFirst : {true, false}) {
        const auto path = tmpPath(aFirst ? "union_ab" : "union_ba");
        ASSERT_TRUE(saveCacheStore(
            path, kTestScope, {{0, "seed", FitnessResult::pass(5.0)}}));
        const std::vector<CacheStoreRecord> fromA = {
            {0, "seed", FitnessResult::pass(5.0)},
            {0, "a-only", FitnessResult::pass(1.0)}};
        const std::vector<CacheStoreRecord> fromB = {
            {0, "seed", FitnessResult::pass(5.0)},
            {0, "b-only", FitnessResult::pass(2.0)}};
        ASSERT_TRUE(mergeSaveCacheStore(path, kTestScope,
                                        aFirst ? fromA : fromB));
        ASSERT_TRUE(mergeSaveCacheStore(path, kTestScope,
                                        aFirst ? fromB : fromA));

        const auto load = loadCacheStore(path, kTestScope);
        ASSERT_EQ(load.status, CacheLoadResult::Status::Ok);
        std::set<std::string> keys;
        for (const auto& rec : load.records)
            keys.insert(rec.key);
        EXPECT_EQ(keys,
                  (std::set<std::string>{"seed", "a-only", "b-only"}));
        ASSERT_EQ(load.records.size(), 3u);
    }
}

// ---- LRU interaction: persisted entries re-enter recency order ----

std::string
keyN(std::uint64_t n)
{
    mut::Edit e;
    e.kind = mut::EditKind::OperandReplace;
    e.srcUid = n;
    e.opIndex = 0;
    e.newOperand = ir::Operand::imm(1);
    return VariantCache::keyOf({e});
}

TEST(CacheStore, SnapshotPreloadReproducesLruEvictionOrder)
{
    VariantCache original(1, 3);
    original.insert(keyN(1), FitnessResult::pass(1.0));
    original.insert(keyN(2), FitnessResult::pass(2.0));
    original.insert(keyN(3), FitnessResult::pass(3.0));
    FitnessResult out;
    ASSERT_TRUE(original.lookup(keyN(1), &out)); // recency [1, 3, 2]

    // Persist and restore through the store.
    const auto path = tmpPath("lru");
    std::vector<CacheStoreRecord> records;
    for (auto& [key, result] : original.snapshot())
        records.push_back({0, std::move(key), result});
    ASSERT_TRUE(saveCacheStore(path, kTestScope, records));
    const auto load = loadCacheStore(path, kTestScope);
    ASSERT_EQ(load.status, CacheLoadResult::Status::Ok);

    VariantCache restored(1, 3);
    std::vector<std::pair<std::string, FitnessResult>> entries;
    for (const auto& rec : load.records)
        entries.emplace_back(rec.key, rec.result);
    EXPECT_EQ(restored.preload(entries), 3u);

    // Same next eviction as the original would make: inserting a fourth
    // key must drop 2 (least recent), not the recently touched 1.
    restored.insert(keyN(4), FitnessResult::pass(4.0));
    EXPECT_TRUE(restored.lookup(keyN(1), &out));
    EXPECT_FALSE(restored.lookup(keyN(2), &out));
    EXPECT_TRUE(restored.lookup(keyN(3), &out));
    EXPECT_TRUE(restored.lookup(keyN(4), &out));
}

TEST(CacheStore, ConcurrentSaveDuringEvaluationIsConsistent)
{
    // Writers hammer the cache while the main thread snapshots, saves and
    // reloads — the engine's periodic save runs against exactly this kind
    // of traffic. Every loaded record must carry the value its key
    // implies, at every intermediate point.
    const auto path = tmpPath("concurrent");
    VariantCache cache(8);
    constexpr int kWriters = 4;
    constexpr std::uint64_t kPerWriter = 500;

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&cache, w] {
            for (std::uint64_t i = 0; i < kPerWriter; ++i) {
                const std::uint64_t n =
                    static_cast<std::uint64_t>(w) * kPerWriter + i;
                cache.insert(keyN(n),
                             FitnessResult::pass(static_cast<double>(n)));
            }
        });
    }

    auto checkLoad = [&](const CacheLoadResult& load) {
        ASSERT_EQ(load.status, CacheLoadResult::Status::Ok);
        EXPECT_FALSE(load.truncated);
        for (const auto& rec : load.records) {
            FitnessResult expected;
            ASSERT_TRUE(cache.lookup(rec.key, &expected));
            EXPECT_EQ(rec.result.ms(), expected.ms());
        }
    };
    for (int round = 0; round < 15; ++round) {
        std::vector<CacheStoreRecord> records;
        for (auto& [key, result] : cache.snapshot())
            records.push_back({0, std::move(key), result});
        ASSERT_TRUE(saveCacheStore(path, kTestScope, records));
        checkLoad(loadCacheStore(path, kTestScope));
    }
    for (auto& t : writers)
        t.join();

    std::vector<CacheStoreRecord> records;
    for (auto& [key, result] : cache.snapshot())
        records.push_back({0, std::move(key), result});
    ASSERT_TRUE(saveCacheStore(path, kTestScope, records));
    const auto finalLoad = loadCacheStore(path, kTestScope);
    checkLoad(finalLoad);
    EXPECT_EQ(finalLoad.records.size(), kWriters * kPerWriter);
}

// ---- warm starts through the engine are trajectory-neutral ----

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

void
expectSameTrajectory(const SearchResult& a, const SearchResult& b)
{
    EXPECT_EQ(mut::serializeEdits(a.best.edits),
              mut::serializeEdits(b.best.edits));
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t g = 0; g < a.history.size(); ++g) {
        EXPECT_DOUBLE_EQ(a.history[g].bestMs, b.history[g].bestMs);
        EXPECT_DOUBLE_EQ(a.history[g].meanMs, b.history[g].meanMs);
        EXPECT_EQ(a.history[g].validCount, b.history[g].validCount);
        EXPECT_EQ(mut::serializeEdits(a.history[g].bestEdits),
                  mut::serializeEdits(b.history[g].bestEdits));
    }
}

SearchResult
runToy(const ir::Module& mod, const std::string& cachePath,
       std::uint32_t threads, bool useCache = true,
       std::uint32_t saveInterval = 0)
{
    ToyFitness fitness;
    EvolutionParams params;
    params.populationSize = 12;
    params.generations = 10;
    params.elitism = 2;
    params.seed = 21;
    params.threads = threads;
    params.useCache = useCache;
    params.cachePath = cachePath;
    params.cacheSaveInterval = saveInterval;
    return EvolutionEngine(mod, fitness, params).run();
}

TEST(CacheStoreEngine, WarmStartIsTrajectoryNeutral)
{
    auto parsed = ir::parseModule(kToyKernel);
    ASSERT_TRUE(parsed.ok) << parsed.error;

    for (const std::uint32_t threads : {1u, 4u}) {
        const auto path =
            tmpPath("warm_t" + std::to_string(threads));
        const auto reference = runToy(parsed.module, "", threads);
        const auto cold = runToy(parsed.module, path, threads);
        const auto warm = runToy(parsed.module, path, threads);
        const auto off = runToy(parsed.module, "", threads, false);

        expectSameTrajectory(reference, cold);
        expectSameTrajectory(reference, warm);
        expectSameTrajectory(reference, off);

        EXPECT_EQ(cold.cacheSummary.preloaded, 0u);
        EXPECT_GT(warm.cacheSummary.preloaded, 0u);
        // Reusing persisted work must strictly cut real pipeline work.
        EXPECT_LT(warm.cacheSummary.evaluated, cold.cacheSummary.evaluated);
    }
}

TEST(CacheStoreEngine, PeriodicSaveMatchesFinalSave)
{
    auto parsed = ir::parseModule(kToyKernel);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto pathFinal = tmpPath("save_final");
    const auto pathPeriodic = tmpPath("save_periodic");

    const auto a = runToy(parsed.module, pathFinal, 1);
    const auto b = runToy(parsed.module, pathPeriodic, 1, true,
                          /*saveInterval=*/2);
    expectSameTrajectory(a, b);

    // Both files end at the identical final snapshot.
    const auto fa = loadCacheStore(pathFinal);
    const auto fb = loadCacheStore(pathPeriodic);
    ASSERT_EQ(fa.status, CacheLoadResult::Status::Ok);
    ASSERT_EQ(fb.status, CacheLoadResult::Status::Ok);
    expectRecordsEqual(fa.records, fb.records);
}

TEST(CacheStoreEngine, DamagedCacheFilesDegradeToColdStart)
{
    auto parsed = ir::parseModule(kToyKernel);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto reference = runToy(parsed.module, "", 1);

    // Garbage file: not a cache at all.
    const auto garbage = tmpPath("degrade_garbage");
    writeFile(garbage, "nonsense bytes where a cache should be");
    const auto fromGarbage = runToy(parsed.module, garbage, 1);
    expectSameTrajectory(reference, fromGarbage);
    EXPECT_EQ(fromGarbage.cacheSummary.preloaded, 0u);

    // Version-mismatched file: rejected wholesale, still a clean run.
    const auto versioned = tmpPath("degrade_version");
    ASSERT_TRUE(saveCacheStore(versioned, kTestScope, sampleRecords()));
    auto bytes = readFile(versioned);
    bytes[8] = static_cast<char>(kCacheStoreVersion + 1);
    writeFile(versioned, bytes);
    const auto fromMismatch = runToy(parsed.module, versioned, 1);
    expectSameTrajectory(reference, fromMismatch);
    EXPECT_EQ(fromMismatch.cacheSummary.preloaded, 0u);

    // Truncated real cache: the surviving prefix still preloads, and the
    // trajectory is untouched either way.
    const auto truncated = tmpPath("degrade_truncated");
    runToy(parsed.module, truncated, 1);
    const auto full = readFile(truncated);
    writeFile(truncated, full.substr(0, full.size() / 2));
    const auto fromTruncated = runToy(parsed.module, truncated, 1);
    expectSameTrajectory(reference, fromTruncated);
    EXPECT_GT(fromTruncated.cacheSummary.preloaded, 0u);
}

TEST(CacheStoreEngine, CrossWorkloadCacheIsRejectedAsColdStart)
{
    // A cache saved by one workload must never feed another: level-0
    // keys collide across workloads (keyOf({}) for one), so an unscoped
    // preload would silently serve ADEPT fitness values to SIMCoV. The
    // scope fingerprint turns that into a warned-about cold start.
    apps::registerBuiltinWorkloads();
    auto& registry = WorkloadRegistry::instance();
    WorkloadConfig config;
    config.defaults = {{"pairs", "2"}, {"grid", "16"}, {"steps", "2"}};
    const auto adept = registry.get("adept-v0").make(config);
    const auto simcov = registry.get("simcov").make(config);

    auto run = [&](const WorkloadInstance& instance,
                   const std::string& cachePath) {
        EvolutionParams params;
        params.populationSize = 6;
        params.generations = 3;
        params.elitism = 1;
        params.seed = 19;
        params.cachePath = cachePath;
        return EvolutionEngine(instance.module(), instance.fitness(),
                               params)
            .run();
    };

    const auto path = tmpPath("cross_workload");
    run(*adept, path); // writes an ADEPT-scoped cache
    const auto reference = run(*simcov, "");
    const auto crossed = run(*simcov, path);
    EXPECT_EQ(crossed.cacheSummary.preloaded, 0u);
    expectSameTrajectory(reference, crossed);
}

TEST(CacheStoreEngine, WarmStartIsNeutralForEveryRegisteredWorkload)
{
    // The acceptance property at app scale: every registered workload at
    // its bench knobs, threads 1 and 4, cache cold / warm / off — one
    // trajectory.
    apps::registerBuiltinWorkloads();
    auto& registry = WorkloadRegistry::instance();
    for (const auto& name : registry.names()) {
        SCOPED_TRACE(name);
        const auto& workload = registry.get(name);
        WorkloadConfig config;
        config.defaults = workload.benchKnobs;
        const auto instance = workload.make(config);

        EvolutionParams params = workload.searchDefaults;
        params.populationSize = 6;
        params.generations = 3;
        params.elitism = 1;
        params.seed = 19;
        auto run = [&](const std::string& cachePath, std::uint32_t threads,
                       bool useCache) {
            EvolutionParams p = params;
            p.cachePath = cachePath;
            p.threads = threads;
            p.useCache = useCache;
            return EvolutionEngine(instance->module(), instance->fitness(),
                                   p)
                .run();
        };

        for (const std::uint32_t threads : {1u, 4u}) {
            const auto path = tmpPath(
                "app_" + name + "_t" + std::to_string(threads));
            const auto reference = run("", threads, true);
            const auto cold = run(path, threads, true);
            const auto warm = run(path, threads, true);
            const auto off = run("", threads, false);

            expectSameTrajectory(reference, cold);
            expectSameTrajectory(reference, warm);
            expectSameTrajectory(reference, off);
            EXPECT_GT(warm.cacheSummary.preloaded, 0u);
            EXPECT_LT(warm.cacheSummary.evaluated,
                      cold.cacheSummary.evaluated);
        }
    }
}

} // namespace
} // namespace gevo::core
