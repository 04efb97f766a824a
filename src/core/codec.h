/// \file
/// The one byte format every result boundary shares: the farm sockets
/// (isolated and remote sessions), the variant-cache store and the
/// checkpoint. All integers are little-endian; doubles travel as their
/// exact IEEE bits (fitness values feed a deterministic trajectory, so a
/// decimal rendering would fork it).
///
///   string         u32 len | bytes
///   edit           u8 kind | i8 opIndex | u8 operand kind | u64 srcUid
///                  | u64 dstUid | i64 operand value | u64 newUid
///                  (35 bytes; VariantCache::keyOf is these, uncounted)
///   edit list      u32 n | n x edit
///   FitnessResult  u8 valid | u32 n | n x f64 bits | string reason
///   EvalOutcome    FitnessResult | u8 simulated | u8 rejected
///                  | string programKey
///   file record    u32 len | u32 crc32(payload) | payload
///   stream frame   u32 "GEVR" | u32 len | u32 crc32(payload) | payload
///   file header    8-byte magic | u32 version | u64 scope
///
/// Decoding never throws and never trusts a length: every read is bounds
/// checked, and an element count must fit in the bytes left before
/// anything is sized from it, so a CRC-valid but corrupt record cannot
/// drive a huge allocation.

#ifndef GEVO_CORE_CODEC_H
#define GEVO_CORE_CODEC_H

#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "support/bytes.h"

namespace gevo::mut {
struct Edit;
} // namespace gevo::mut

namespace gevo::core {

struct FitnessResult;
struct EvalOutcome;

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) of \p size bytes.
std::uint32_t crc32(const char* data, std::size_t size);

// ---- primitives ----

void appendString(std::string* out, std::string_view s);

inline void
appendDouble(std::string* out, double v)
{
    appendLeU64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked sequential reader over one payload. Every read returns
/// false on overrun and leaves the reader unusable for the caller, which
/// maps any failure to its own corruption status.
class Reader {
  public:
    explicit Reader(std::string_view payload)
        : p_(payload.data()), left_(payload.size())
    {
    }

    bool u8(std::uint8_t* out) { return take(1) && (*out = load8(), true); }
    bool flag(bool* out) { return take(1) && (*out = load8() != 0, true); }
    bool u32(std::uint32_t* out)
    {
        return take(4) && (*out = readLeU32(p_ - 4), true);
    }
    bool u64(std::uint64_t* out)
    {
        return take(8) && (*out = readLeU64(p_ - 8), true);
    }
    bool size(std::size_t* out)
    {
        std::uint64_t v = 0;
        return u64(&v) && (*out = static_cast<std::size_t>(v), true);
    }
    bool f64(double* out)
    {
        std::uint64_t bits = 0;
        return u64(&bits) && (*out = std::bit_cast<double>(bits), true);
    }
    bool str(std::string* out)
    {
        std::uint32_t n = 0;
        if (!u32(&n) || !take(n))
            return false;
        out->assign(p_ - n, n);
        return true;
    }
    /// The next \p n raw bytes, in place.
    bool bytes(std::size_t n, const char** out)
    {
        return take(n) && (*out = p_ - n, true);
    }

    /// A u32 element count.
    bool count(std::size_t* out)
    {
        std::uint32_t n = 0;
        return u32(&n) && (*out = n, true);
    }

    /// Decode \p count elements into \p out with \p parse (a Reader
    /// member like &Reader::f64, or a bool(Reader*, T*) function). The
    /// count is checked against the bytes left — each element takes at
    /// least \p minBytes — before anything is sized from it.
    template <class T, class Parse>
    bool list(std::size_t count, std::size_t minBytes, std::vector<T>* out,
              Parse parse)
    {
        if (count > left_ / minBytes)
            return false;
        out->resize(count);
        for (auto& item : *out) {
            if (!std::invoke(parse, this, &item))
                return false;
        }
        return true;
    }

    bool done() const { return left_ == 0; }

  private:
    bool take(std::size_t n)
    {
        if (left_ < n)
            return false;
        p_ += n;
        left_ -= n;
        return true;
    }
    std::uint8_t load8() const { return static_cast<std::uint8_t>(p_[-1]); }

    const char* p_;
    std::size_t left_;
};

// ---- edit lists ----

/// Encoded size of one edit.
inline constexpr std::size_t kEditBytes = 3 + 4 * 8;

/// Append \p edits' fixed-width encodings with no count in front: the
/// canonical cache key (VariantCache::keyOf).
void appendEditEntries(std::string* out, const std::vector<mut::Edit>& edits);
/// Append a counted edit list (checkpoints and the Eval request).
void appendEdits(std::string* out, const std::vector<mut::Edit>& edits);
/// Decode a counted edit list; false on overrun, an unknown edit kind or
/// an unknown operand kind.
bool readEdits(Reader* in, std::vector<mut::Edit>* out);

// ---- result codecs ----

void appendFitness(std::string* out, const FitnessResult& result);
bool readFitness(Reader* in, FitnessResult* out);

/// \p programKey rides along: out-of-process evaluators ship the key of
/// every cached-path task so the caller's live cache replays the hit or
/// learns the fresh result.
void appendOutcome(std::string* out, const EvalOutcome& outcome,
                   std::string_view programKey);
/// Decoded outcomes always carry EvalFailure::None: failure kinds are
/// assigned by the receiving side, never sent.
bool readOutcome(Reader* in, EvalOutcome* out, std::string* programKey);

// ---- file records ----

/// Record header: payload length + CRC.
inline constexpr std::size_t kRecordHeader = 8;

/// Fill in the header of the record that starts at \p start and runs to
/// the end of \p out.
void sealRecord(std::string* out, std::size_t start);

/// Append one record to \p out: \p body appends the payload straight
/// after a placeholder header (no separate payload buffer).
template <class Body>
void
appendRecord(std::string* out, Body&& body)
{
    const std::size_t start = out->size();
    out->append(kRecordHeader, '\0');
    body();
    sealRecord(out, start);
}

/// A reader over the payload of the record at \p *pos in \p bytes. False
/// on truncation, oversize or CRC mismatch, leaving \p *pos where it
/// was; otherwise \p *pos moves past the record.
bool nextRecord(std::string_view bytes, std::size_t* pos, Reader* payload);

// ---- stream frames ----

inline constexpr std::uint32_t kFrameMagic = 0x52564547u; // "GEVR"
inline constexpr std::size_t kFrameHeader = 12;

/// Append one complete frame (header + payload) to \p out.
void appendFrame(std::string* out, std::string_view payload);
/// Write one complete frame to \p fd; false when the peer is gone.
bool writeFrame(int fd, std::string_view payload);

/// Incremental frame reassembly from arbitrary read() chunk boundaries
/// (stream sockets do not respect frames).
class FrameReader {
  public:
    enum class Status {
        NeedMore, ///< No complete frame buffered yet.
        Frame,    ///< *payload holds the next frame's payload.
        Corrupt,  ///< Bad magic / oversized length / CRC mismatch.
    };

    /// Buffer \p n more received bytes.
    void push(const char* data, std::size_t n) { buf_.append(data, n); }
    /// Buffer one read() from \p fd (EINTR retried): the byte count, 0 at
    /// EOF, or -1 with errno set.
    ssize_t fill(int fd);

    /// Extract the next complete frame, if any. After Corrupt the stream
    /// is unrecoverable (framing is lost); the caller must drop the peer.
    Status next(std::string* payload);

    /// Bytes buffered but not yet consumed (a non-empty residue at EOF
    /// means the peer died mid-frame).
    std::size_t pending() const { return buf_.size(); }

    void reset() { buf_.clear(); }

  private:
    std::string buf_;
};

// ---- durable files ----

/// Outcome of reading a durable file. Shared by the cache store and the
/// checkpoint, which differ only in what damage means.
enum class FileStatus {
    Ok,              ///< Header valid; records follow.
    Missing,         ///< No file at the path (normal first run).
    BadHeader,       ///< Unreadable, too short or wrong magic.
    VersionMismatch, ///< Another format version.
    ScopeMismatch,   ///< Saved for a different search.
    Corrupt, ///< Damaged record: the checkpoint rejects the whole file
             ///< (the cache store keeps its good prefix instead).
};

/// What identifies one durable file format.
struct FileFormat {
    const char* magic; ///< Exactly 8 bytes.
    std::uint32_t version;
    const char* noun;          ///< "cache" -> "not a gevo cache file".
    const char* scopeMismatch; ///< Message for a foreign scope.
};

/// magic + u32 version + u64 scope fingerprint.
inline constexpr std::size_t kFileHeaderSize = 8 + 4 + 8;

void appendFileHeader(std::string* out, const FileFormat& format,
                      std::uint64_t scope);

/// Read \p path whole into \p bytes and check its header against
/// \p format and \p expectedScope (0 skips the scope check). On Ok the
/// records start at kFileHeaderSize; otherwise \p message says why.
FileStatus readFileChecked(const std::string& path, const FileFormat& format,
                           std::uint64_t expectedScope, std::string* bytes,
                           std::string* message);

/// Atomically replace \p path with what \p write streams: write a
/// process-unique `path + ".tmp.<pid>.<n>"`, then rename it over the
/// target, so concurrent savers cannot tear each other's temp files and
/// readers only ever see a complete old or complete new file. False with
/// \p error set on failure; the previous file is then left intact.
bool writeFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& write,
                     std::string* error);

} // namespace gevo::core

#endif // GEVO_CORE_CODEC_H
