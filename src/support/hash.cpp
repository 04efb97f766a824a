#include "support/hash.h"

#include <algorithm>
#include <cstring>

#include "support/bytes.h"

namespace gevo {

namespace {

constexpr std::uint64_t kIv[8] = {
    0x6a09e667f3bcc908ull, 0xbb67ae8584caa73bull, 0x3c6ef372fe94f82bull,
    0xa54ff53a5f1d36f1ull, 0x510e527fade682d1ull, 0x9b05688c2b3e6c1full,
    0x1f83d9abfb41bd6bull, 0x5be0cd19137e2179ull,
};

/// Message word schedule (RFC 7693 section 2.7); rounds 10 and 11 reuse
/// rows 0 and 1.
constexpr std::uint8_t kSigma[10][16] = {
    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15},
    {14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3},
    {11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4},
    {7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8},
    {9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13},
    {2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9},
    {12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11},
    {13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10},
    {6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5},
    {10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0},
};

constexpr std::size_t kDigestBytes = 16;

inline std::uint64_t
rotr(std::uint64_t x, int n)
{
    return (x >> n) | (x << (64 - n));
}

inline void
mix(std::uint64_t* v, int a, int b, int c, int d, std::uint64_t x,
    std::uint64_t y)
{
    v[a] = v[a] + v[b] + x;
    v[d] = rotr(v[d] ^ v[a], 32);
    v[c] = v[c] + v[d];
    v[b] = rotr(v[b] ^ v[c], 24);
    v[a] = v[a] + v[b] + y;
    v[d] = rotr(v[d] ^ v[a], 16);
    v[c] = v[c] + v[d];
    v[b] = rotr(v[b] ^ v[c], 63);
}

} // namespace

Blake2b128::Blake2b128()
{
    std::memcpy(h_, kIv, sizeof(h_));
    // Parameter block: digest length, no key, fanout = depth = 1.
    h_[0] ^= 0x01010000ull ^ kDigestBytes;
}

void
Blake2b128::compress(bool last)
{
    std::uint64_t m[16];
    for (int i = 0; i < 16; ++i)
        m[i] = readLeU64(reinterpret_cast<const char*>(buf_) + 8 * i);
    std::uint64_t v[16];
    for (int i = 0; i < 8; ++i) {
        v[i] = h_[i];
        v[i + 8] = kIv[i];
    }
    // The 128-bit byte counter's high word stays 0: no input here comes
    // near 2^64 bytes.
    v[12] ^= bytes_;
    if (last)
        v[14] = ~v[14];
    for (int r = 0; r < 12; ++r) {
        const std::uint8_t* s = kSigma[r % 10];
        mix(v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
        mix(v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
        mix(v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
        mix(v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
        mix(v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
        mix(v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
        mix(v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
        mix(v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
    }
    for (int i = 0; i < 8; ++i)
        h_[i] ^= v[i] ^ v[i + 8];
}

void
Blake2b128::update(const void* data, std::size_t len)
{
    const auto* in = static_cast<const std::uint8_t*>(data);
    while (len > 0) {
        // A full buffer is compressed only once more input arrives: the
        // final block (possibly a full one) must carry the last flag.
        if (fill_ == kBlock) {
            bytes_ += kBlock;
            compress(false);
            fill_ = 0;
        }
        const std::size_t take = std::min(len, kBlock - fill_);
        std::memcpy(buf_ + fill_, in, take);
        fill_ += take;
        in += take;
        len -= take;
    }
}

Digest128
Blake2b128::finish()
{
    bytes_ += fill_;
    std::memset(buf_ + fill_, 0, kBlock - fill_);
    compress(true);
    Digest128 out;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>(h_[i / 8] >> (8 * (i % 8)));
    return out;
}

Digest128
blake2b128(std::string_view bytes)
{
    Blake2b128 h;
    h.update(bytes);
    return h.finish();
}

} // namespace gevo
