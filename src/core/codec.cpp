#include "core/codec.h"

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/eval_backend.h"
#include "core/fitness.h"
#include "mutation/edit.h"
#include "support/io.h"
#include "support/strings.h"

namespace gevo::core {

namespace {

/// Sanity bound on one record or frame payload; anything larger is
/// corruption (the largest real payload, a 256-member island with
/// hundreds of edits each, is a few MB).
constexpr std::size_t kMaxPayload = std::size_t{1} << 26;
/// Objective vectors are short (time, sectors, divergence); a longer one
/// is corruption.
constexpr std::uint32_t kMaxObjectives = 64;

} // namespace

std::uint32_t
crc32(const char* data, std::size_t size)
{
    // Slice-by-8: t[k][b] is the CRC of byte b followed by k zero bytes,
    // so one step folds eight input bytes with eight table lookups.
    static const auto t = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < 8; ++k) {
            for (std::size_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
        }
        return t;
    }();
    std::uint32_t crc = 0xffffffffu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = readLeU32(data) ^ crc;
        const std::uint32_t hi = readLeU32(data + 4);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^ t[3][hi & 0xff] ^
              t[2][(hi >> 8) & 0xff] ^ t[1][(hi >> 16) & 0xff] ^
              t[0][hi >> 24];
    }
    for (std::size_t i = 0; i < size; ++i)
        crc = t[0][(crc ^ static_cast<std::uint8_t>(data[i])) & 0xff] ^
              (crc >> 8);
    return crc ^ 0xffffffffu;
}

void
appendString(std::string* out, std::string_view s)
{
    appendLeU32(out, static_cast<std::uint32_t>(s.size()));
    out->append(s);
}

// ---- edit lists ----

void
appendEditEntries(std::string* out, const std::vector<mut::Edit>& edits)
{
    const std::size_t start = out->size();
    out->resize(start + edits.size() * kEditBytes);
    char* p = out->data() + start;
    for (const auto& e : edits) {
        p[0] = static_cast<char>(e.kind);
        p[1] = static_cast<char>(e.opIndex);
        p[2] = static_cast<char>(e.newOperand.kind);
        storeLeU64(p + 3, e.srcUid);
        storeLeU64(p + 11, e.dstUid);
        storeLeU64(p + 19, static_cast<std::uint64_t>(e.newOperand.value));
        // newUid matters: clone uids are anchor targets for later edits,
        // so lists differing only in newUid can patch differently.
        storeLeU64(p + 27, e.newUid);
        p += kEditBytes;
    }
}

void
appendEdits(std::string* out, const std::vector<mut::Edit>& edits)
{
    appendLeU32(out, static_cast<std::uint32_t>(edits.size()));
    appendEditEntries(out, edits);
}

namespace {

bool
readEdit(Reader* in, mut::Edit* e)
{
    const char* p = nullptr;
    if (!in->bytes(kEditBytes, &p))
        return false;
    const auto kind = static_cast<std::uint8_t>(p[0]);
    const auto operandKind = static_cast<std::uint8_t>(p[2]);
    if (kind > static_cast<std::uint8_t>(mut::EditKind::OperandReplace) ||
        operandKind > static_cast<std::uint8_t>(ir::Operand::Kind::Label))
        return false;
    e->kind = static_cast<mut::EditKind>(kind);
    e->opIndex = static_cast<std::int8_t>(p[1]);
    e->newOperand.kind = static_cast<ir::Operand::Kind>(operandKind);
    e->srcUid = readLeU64(p + 3);
    e->dstUid = readLeU64(p + 11);
    e->newOperand.value = static_cast<std::int64_t>(readLeU64(p + 19));
    e->newUid = readLeU64(p + 27);
    return true;
}

} // namespace

bool
readEdits(Reader* in, std::vector<mut::Edit>* out)
{
    std::size_t n = 0;
    return in->count(&n) && in->list(n, kEditBytes, out, readEdit);
}

// ---- result codecs ----

void
appendFitness(std::string* out, const FitnessResult& result)
{
    out->push_back(result.valid ? 1 : 0);
    appendLeU32(out, static_cast<std::uint32_t>(result.objectives.size()));
    for (const double v : result.objectives)
        appendDouble(out, v);
    appendString(out, result.failReason);
}

bool
readFitness(Reader* in, FitnessResult* out)
{
    std::size_t n = 0;
    return in->flag(&out->valid) && in->count(&n) && n <= kMaxObjectives &&
           in->list(n, 8, &out->objectives, &Reader::f64) &&
           in->str(&out->failReason);
}

void
appendOutcome(std::string* out, const EvalOutcome& outcome,
              std::string_view programKey)
{
    appendFitness(out, outcome.result);
    out->push_back(outcome.simulated ? 1 : 0);
    out->push_back(outcome.rejected ? 1 : 0);
    appendString(out, programKey);
}

bool
readOutcome(Reader* in, EvalOutcome* out, std::string* programKey)
{
    out->failure = EvalFailure::None;
    return readFitness(in, &out->result) && in->flag(&out->simulated) &&
           in->flag(&out->rejected) && in->str(programKey);
}

// ---- file records ----

void
sealRecord(std::string* out, std::size_t start)
{
    const std::size_t body = start + kRecordHeader;
    const std::size_t len = out->size() - body;
    std::string header; // Fits the small-string buffer: no allocation.
    appendLeU32(&header, static_cast<std::uint32_t>(len));
    appendLeU32(&header, crc32(out->data() + body, len));
    out->replace(start, kRecordHeader, header);
}

bool
nextRecord(std::string_view bytes, std::size_t* pos, Reader* payload)
{
    if (bytes.size() - *pos < kRecordHeader)
        return false;
    const std::uint32_t len = readLeU32(bytes.data() + *pos);
    const std::uint32_t crc = readLeU32(bytes.data() + *pos + 4);
    if (len > kMaxPayload || bytes.size() - *pos - kRecordHeader < len)
        return false;
    const std::string_view body = bytes.substr(*pos + kRecordHeader, len);
    if (crc32(body.data(), len) != crc)
        return false;
    *payload = Reader(body);
    *pos += kRecordHeader + len;
    return true;
}

// ---- stream frames ----

void
appendFrame(std::string* out, std::string_view payload)
{
    appendLeU32(out, kFrameMagic);
    appendLeU32(out, static_cast<std::uint32_t>(payload.size()));
    appendLeU32(out, crc32(payload.data(), payload.size()));
    out->append(payload);
}

bool
writeFrame(int fd, std::string_view payload)
{
    std::string frame;
    appendFrame(&frame, payload);
    return writeAll(fd, frame.data(), frame.size());
}

ssize_t
FrameReader::fill(int fd)
{
    // Small on purpose: frames are tens to thousands of bytes, and a
    // 64 KiB stack buffer measurably raised the evaluating process's
    // peak RSS.
    char chunk[4096];
    ssize_t n = 0;
    do {
        n = ::read(fd, chunk, sizeof(chunk));
    } while (n < 0 && errno == EINTR);
    if (n > 0)
        buf_.append(chunk, static_cast<std::size_t>(n));
    return n;
}

FrameReader::Status
FrameReader::next(std::string* payload)
{
    if (buf_.size() < kFrameHeader)
        return Status::NeedMore;
    const std::uint32_t magic = readLeU32(buf_.data());
    const std::uint32_t len = readLeU32(buf_.data() + 4);
    const std::uint32_t crc = readLeU32(buf_.data() + 8);
    if (magic != kFrameMagic || len > kMaxPayload)
        return Status::Corrupt;
    if (buf_.size() - kFrameHeader < len)
        return Status::NeedMore;
    const char* body = buf_.data() + kFrameHeader;
    if (crc32(body, len) != crc)
        return Status::Corrupt;
    payload->assign(body, len);
    buf_.erase(0, kFrameHeader + len);
    return Status::Frame;
}

// ---- durable files ----

void
appendFileHeader(std::string* out, const FileFormat& format,
                 std::uint64_t scope)
{
    out->append(format.magic, 8);
    appendLeU32(out, format.version);
    appendLeU64(out, scope);
}

FileStatus
readFileChecked(const std::string& path, const FileFormat& format,
                std::uint64_t expectedScope, std::string* bytes,
                std::string* message)
{
    // One sized read: the file's size from fstat, then read(2) until it
    // is filled or the file ends early.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return FileStatus::Missing;
    struct stat st {};
    bool ok = ::fstat(fd, &st) == 0;
    bytes->resize(ok ? static_cast<std::size_t>(st.st_size) : 0);
    std::size_t got = 0;
    while (ok && got < bytes->size()) {
        const ssize_t n = ::read(fd, bytes->data() + got, bytes->size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            ok = n == 0;
            break;
        }
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    bytes->resize(got);
    if (!ok) {
        *message = "read error";
        return FileStatus::BadHeader;
    }
    if (bytes->size() < kFileHeaderSize ||
        std::memcmp(bytes->data(), format.magic, 8) != 0) {
        *message = strformat("not a gevo %s file", format.noun);
        return FileStatus::BadHeader;
    }
    const std::uint32_t version = readLeU32(bytes->data() + 8);
    if (version != format.version) {
        *message = strformat("format version %u, expected %u", version,
                             format.version);
        return FileStatus::VersionMismatch;
    }
    if (expectedScope != 0 && readLeU64(bytes->data() + 12) != expectedScope) {
        *message = format.scopeMismatch;
        return FileStatus::ScopeMismatch;
    }
    return FileStatus::Ok;
}

bool
writeFileAtomic(const std::string& path,
                const std::function<void(std::ostream&)>& write,
                std::string* error)
{
    static std::atomic<std::uint64_t> saveCounter{0};
    const std::string tmp = strformat(
        "%s.tmp.%llu.%llu", path.c_str(),
        static_cast<unsigned long long>(::getpid()),
        static_cast<unsigned long long>(
            saveCounter.fetch_add(1, std::memory_order_relaxed)));
    {
        std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
        if (!file) {
            if (error)
                *error = "cannot open '" + tmp + "' for writing";
            return false;
        }
        write(file);
        file.flush();
        if (!file.good()) {
            if (error)
                *error = "write to '" + tmp + "' failed";
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "rename '" + tmp + "' -> '" + path + "' failed";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace gevo::core
