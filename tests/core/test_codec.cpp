/// The shared byte format's primitives: CRC-32 against its byte-at-a-time
/// definition, and the binary edit-list codec (round trips of every
/// field, truncation, unknown kinds, counts that lie).

#include "core/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/variant_cache.h"
#include "mutation/edit.h"
#include "support/rng.h"

namespace gevo::core {
namespace {

/// CRC-32 as defined: one reflected polynomial step per bit.
std::uint32_t
crc32Bitwise(const char* data, std::size_t size)
{
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= static_cast<std::uint8_t>(data[i]);
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

std::string
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::string out(n, '\0');
    for (auto& c : out)
        c = static_cast<char>(rng.next() & 0xff);
    return out;
}

TEST(Crc32, MatchesTheDefinitionAtEveryLengthAndAlignment)
{
    const std::string buf = randomBytes(300 + 8, 1);
    for (std::size_t align = 0; align < 8; ++align) {
        for (std::size_t len = 0; len <= 300; ++len) {
            const char* p = buf.data() + align;
            ASSERT_EQ(crc32(p, len), crc32Bitwise(p, len))
                << "alignment " << align << " length " << len;
        }
    }
    EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
}

TEST(Crc32, MatchesTheDefinitionOverALargeBuffer)
{
    const std::string buf = randomBytes(256 * 1024, 2);
    EXPECT_EQ(crc32(buf.data(), buf.size()),
              crc32Bitwise(buf.data(), buf.size()));
}

/// Every kind, every operand kind, and the extremes of each field.
std::vector<mut::Edit>
sampleEdits()
{
    std::vector<mut::Edit> edits;
    mut::Edit del;
    del.kind = mut::EditKind::InstrDelete;
    del.srcUid = 42;
    edits.push_back(del); // opIndex -1, operand None.
    mut::Edit copy;
    copy.kind = mut::EditKind::InstrCopy;
    copy.srcUid = 3;
    copy.dstUid = 9;
    copy.newUid = 0xfedcba9876543210ull;
    edits.push_back(copy);
    mut::Edit move;
    move.kind = mut::EditKind::InstrMove;
    move.srcUid = ~0ull;
    move.dstUid = 1;
    edits.push_back(move);
    mut::Edit replace;
    replace.kind = mut::EditKind::InstrReplace;
    replace.srcUid = 5;
    replace.dstUid = 6;
    replace.newUid = 77;
    edits.push_back(replace);
    mut::Edit swap;
    swap.kind = mut::EditKind::InstrSwap;
    swap.srcUid = 8;
    swap.dstUid = 8;
    edits.push_back(swap);
    for (const auto& operand :
         {ir::Operand::reg(7), ir::Operand::imm(-5),
          ir::Operand::imm(INT64_MIN), ir::Operand::label(2),
          ir::Operand{}}) {
        mut::Edit opr;
        opr.kind = mut::EditKind::OperandReplace;
        opr.srcUid = 12;
        opr.opIndex = static_cast<std::int8_t>(edits.size() % 3);
        opr.newOperand = operand;
        edits.push_back(opr);
    }
    edits.back().opIndex = INT8_MIN;
    return edits;
}

/// Decode a whole payload that holds one edit list and nothing else.
bool
decodeAll(const std::string& payload, std::vector<mut::Edit>* out)
{
    Reader in(payload);
    return readEdits(&in, out) && in.done();
}

void
expectSameEdits(const std::vector<mut::Edit>& a,
                const std::vector<mut::Edit>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind) << i;
        EXPECT_EQ(a[i].srcUid, b[i].srcUid) << i;
        EXPECT_EQ(a[i].dstUid, b[i].dstUid) << i;
        EXPECT_EQ(a[i].opIndex, b[i].opIndex) << i;
        EXPECT_EQ(a[i].newOperand.kind, b[i].newOperand.kind) << i;
        EXPECT_EQ(a[i].newOperand.value, b[i].newOperand.value) << i;
        EXPECT_EQ(a[i].newUid, b[i].newUid) << i; // operator== skips it.
    }
}

TEST(EditCodec, RoundTripsEveryField)
{
    const auto edits = sampleEdits();
    std::string payload;
    appendEdits(&payload, edits);
    EXPECT_EQ(payload.size(), 4 + edits.size() * kEditBytes);
    std::vector<mut::Edit> out;
    ASSERT_TRUE(decodeAll(payload, &out));
    expectSameEdits(edits, out);

    payload.clear();
    appendEdits(&payload, {});
    ASSERT_TRUE(decodeAll(payload, &out));
    EXPECT_TRUE(out.empty());
}

TEST(EditCodec, KeyOfIsTheUncountedEncoding)
{
    const auto edits = sampleEdits();
    std::string counted;
    appendEdits(&counted, edits);
    EXPECT_EQ(VariantCache::keyOf(edits), counted.substr(4));

    // The cache key's bytes are part of the cache store's format: kind,
    // opIndex, operand kind, then srcUid, dstUid, value and newUid.
    mut::Edit opr;
    opr.kind = mut::EditKind::OperandReplace;
    opr.srcUid = 0x0102;
    opr.dstUid = 3;
    opr.opIndex = -1;
    opr.newOperand = ir::Operand::imm(-2);
    opr.newUid = 4;
    const std::string key = VariantCache::keyOf({opr});
    std::string want("\x05\xff\x02", 3);
    for (const std::uint64_t field : {0x0102ull, 3ull, ~1ull, 4ull})
        appendLeU64(&want, field); // ~1 is the value -2's bits.
    EXPECT_EQ(key, want);
}

TEST(EditCodec, RejectsEveryTruncationAndATrailingByte)
{
    std::string payload;
    appendEdits(&payload, sampleEdits());
    std::vector<mut::Edit> out;
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
        EXPECT_FALSE(decodeAll(payload.substr(0, cut), &out)) << cut;
    EXPECT_FALSE(decodeAll(payload + 'x', &out));
}

TEST(EditCodec, RejectsAnUnknownEditOrOperandKind)
{
    mut::Edit e;
    e.kind = mut::EditKind::OperandReplace;
    e.newOperand = ir::Operand::label(1);
    std::string good;
    appendEdits(&good, {e});
    std::vector<mut::Edit> out;
    ASSERT_TRUE(decodeAll(good, &out));

    for (const std::uint8_t kind : {6, 7, 0x80, 0xff}) {
        auto bad = good;
        bad[4] = static_cast<char>(kind);
        EXPECT_FALSE(decodeAll(bad, &out)) << "edit kind " << int(kind);
    }
    for (const std::uint8_t kind : {4, 5, 0xff}) {
        auto bad = good;
        bad[6] = static_cast<char>(kind);
        EXPECT_FALSE(decodeAll(bad, &out)) << "operand kind " << int(kind);
    }
}

TEST(EditCodec, AHugeCountIsRejectedBeforeAnythingIsSized)
{
    std::string payload;
    appendLeU32(&payload, 0xffffffffu);
    appendEditEntries(&payload, sampleEdits());
    std::vector<mut::Edit> out;
    EXPECT_FALSE(decodeAll(payload, &out));
    EXPECT_EQ(out.capacity(), 0u);
}

// ---- durable files ----

constexpr FileFormat kTestFormat{"GEVOTEST", 7, "test", "foreign scope"};

std::string
writeTestFile(const std::string& name, const std::string& bytes)
{
    const std::string path =
        ::testing::TempDir() + "gevo_codec_" + name + ".bin";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    return path;
}

TEST(ReadFileChecked, ReadsAFileLargerThan64KBWhole)
{
    std::string bytes;
    appendFileHeader(&bytes, kTestFormat, 42);
    Rng rng(9);
    while (bytes.size() < 200 * 1024 + 13)
        bytes.push_back(static_cast<char>(rng.next() & 0xff));
    const std::string path = writeTestFile("large", bytes);
    std::string got;
    std::string message;
    EXPECT_EQ(readFileChecked(path, kTestFormat, 42, &got, &message),
              FileStatus::Ok)
        << message;
    EXPECT_EQ(got, bytes);
}

TEST(ReadFileChecked, EmptyAndTruncatedHeadersAreBadHeaders)
{
    std::string header;
    appendFileHeader(&header, kTestFormat, 42);
    for (const std::size_t keep : {std::size_t{0}, std::size_t{5},
                                   kFileHeaderSize - 1}) {
        const std::string path =
            writeTestFile("cut" + std::to_string(keep),
                          header.substr(0, keep));
        std::string got = "stale";
        std::string message;
        EXPECT_EQ(readFileChecked(path, kTestFormat, 42, &got, &message),
                  FileStatus::BadHeader)
            << keep;
        EXPECT_EQ(got, header.substr(0, keep));
        EXPECT_EQ(message, "not a gevo test file");
    }
    std::string got;
    std::string message;
    EXPECT_EQ(readFileChecked(::testing::TempDir() + "gevo_codec_none.bin",
                              kTestFormat, 42, &got, &message),
              FileStatus::Missing);
}

} // namespace
} // namespace gevo::core
