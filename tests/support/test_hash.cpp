#include "support/hash.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace gevo {
namespace {

std::string
hex(const Digest128& d)
{
    std::string out;
    char byte[3];
    for (const auto b : d) {
        std::snprintf(byte, sizeof(byte), "%02x", b);
        out += byte;
    }
    return out;
}

/// Byte i is (7i + 3) mod 256.
std::string
pattern(std::size_t n)
{
    std::string out(n, '\0');
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<char>((i * 7 + 3) & 0xff);
    return out;
}

// Expected values are python3 `hashlib.blake2b(data, digest_size=16)`.
// The lengths straddle the 128-byte block boundary (the final block must
// carry the last-block flag even when it is full) and reach the size of
// a real kernel's canonical encoding.
TEST(Blake2b128, MatchesReferenceVectors)
{
    const struct {
        std::size_t len;
        const char* digest;
    } cases[] = {
        {0, "cae66941d9efbd404e4d88758ea67670"},
        {1, "71b186b851e866e71be237342976049a"},
        {127, "e00ab0ead4d729de8fbe7745d642e416"},
        {128, "8e0cf9bb1b36fa6c42aa6490f719b575"},
        {129, "6cefde50e4008690e61cf8225d101256"},
        {256, "ac60b0f8b3227af67328401630cd4dfa"},
        {6700, "aab36c18c1861a1e6f5c1031e8c7b61a"},
    };
    for (const auto& c : cases)
        EXPECT_EQ(hex(blake2b128(pattern(c.len))), c.digest) << c.len;
    EXPECT_EQ(hex(blake2b128("abc")), "cf4ab791c62b8d2b2109c90275287816");
}

TEST(Blake2b128, DigestIgnoresHowTheInputIsSplit)
{
    const std::string data = pattern(6700);
    const Digest128 whole = blake2b128(data);
    for (const std::size_t step : {1u, 7u, 64u, 128u, 129u, 1000u}) {
        Blake2b128 h;
        for (std::size_t at = 0; at < data.size(); at += step)
            h.update(std::string_view(data).substr(at, step));
        EXPECT_EQ(h.finish(), whole) << step;
    }
}

TEST(Blake2b128, OneBitChangesTheDigest)
{
    std::string data = pattern(300);
    const Digest128 before = blake2b128(data);
    data[150] ^= 1;
    EXPECT_NE(blake2b128(data), before);
}

} // namespace
} // namespace gevo
