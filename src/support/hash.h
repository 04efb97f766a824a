/// \file
/// BLAKE2b with a 16-byte output (RFC 7693, unkeyed): the 128-bit digest
/// behind compiled-program content keys (sim::Program::keyFragment).
///
/// Content keys cross process boundaries (farm sessions, isolated or
/// remote) and persist on disk (core/cache_store.h), so the digest must
/// not depend on the host: input words are loaded with explicit
/// little-endian reads and the output is the little-endian state bytes,
/// exactly as the RFC specifies. Any conforming implementation
/// reproduces it, e.g. `hashlib.blake2b(data, digest_size=16)` in
/// Python. A cryptographic hash rather than a checksum, because mutants
/// are adversarial in effect: search explores millions of near-identical
/// encodings, and BLAKE2b's collision bound holds for any inputs.

#ifndef GEVO_SUPPORT_HASH_H
#define GEVO_SUPPORT_HASH_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace gevo {

/// A 128-bit digest, in the byte order BLAKE2b emits it.
using Digest128 = std::array<std::uint8_t, 16>;

/// Incremental BLAKE2b-128: feed bytes in any split with update(), then
/// finish() once. The digest depends only on the concatenated input.
class Blake2b128 {
  public:
    Blake2b128();

    void update(const void* data, std::size_t len);
    void update(std::string_view bytes) { update(bytes.data(), bytes.size()); }

    /// The digest of everything fed so far. Call at most once.
    Digest128 finish();

  private:
    static constexpr std::size_t kBlock = 128;

    void compress(bool last);

    std::uint64_t h_[8];
    std::uint64_t bytes_ = 0; ///< Message bytes compressed so far.
    std::uint8_t buf_[kBlock] = {};
    std::size_t fill_ = 0;
};

/// One-shot BLAKE2b-128 of \p bytes.
Digest128 blake2b128(std::string_view bytes);

} // namespace gevo

#endif // GEVO_SUPPORT_HASH_H
