/// \file
/// Little-endian byte-append helpers: the primitives under the canonical
/// content encodings (mutation edit lists in core::VariantCache, decoded
/// programs digested into sim::ProgramSet::contentKey) and under
/// core/codec.h, the one record format every durable file and wire
/// shares. Keys and records must keep byte-exact, platform-independent
/// encodings; sharing the primitives keeps them from drifting apart.

#ifndef GEVO_SUPPORT_BYTES_H
#define GEVO_SUPPORT_BYTES_H

#include <cstdint>
#include <string>

namespace gevo {

/// Store \p v little-endian at \p p. \pre 4/8 writable bytes at \p p.
inline void
storeLeU32(char* p, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

inline void
storeLeU64(char* p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

inline void
appendLeU32(std::string* out, std::uint32_t v)
{
    char b[4];
    storeLeU32(b, v);
    out->append(b, 4);
}

inline void
appendLeU64(std::string* out, std::uint64_t v)
{
    char b[8];
    storeLeU64(b, v);
    out->append(b, 8);
}

inline void
appendLeI64(std::string* out, std::int64_t v)
{
    appendLeU64(out, static_cast<std::uint64_t>(v));
}

/// Decoders mirroring the appenders above (core::Reader in core/codec.h
/// is the bounds-checked way to use them). \pre at least 4/8 readable
/// bytes at \p p.
inline std::uint32_t
readLeU32(const char* p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | static_cast<std::uint8_t>(p[i]);
    return v;
}

inline std::uint64_t
readLeU64(const char* p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<std::uint8_t>(p[i]);
    return v;
}

} // namespace gevo

#endif // GEVO_SUPPORT_BYTES_H
