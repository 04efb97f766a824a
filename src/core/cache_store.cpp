#include "core/cache_store.h"

#include <ostream>
#include <unordered_set>

#include "support/strings.h"

namespace gevo::core {

namespace {

constexpr FileFormat kFormat{"GEVOCACH", kCacheStoreVersion, "cache",
                             "saved for a different workload/scale/device"};

/// False when the payload's internal lengths do not add up (CRC passed
/// but the writer was broken — treat as corruption all the same).
bool
parseRecord(Reader* in, CacheStoreRecord* out)
{
    return in->u8(&out->level) && in->str(&out->key) &&
           readFitness(in, &out->result) && in->done();
}

} // namespace

CacheLoadResult
loadCacheStore(const std::string& path, std::uint64_t expectedScope)
{
    CacheLoadResult res;
    std::string bytes;
    res.status =
        readFileChecked(path, kFormat, expectedScope, &bytes, &res.message);
    if (res.status != CacheLoadResult::Status::Ok)
        return res;

    // Any malformed record ends the usable stream: everything from there
    // on is a damaged tail we skip (a crash mid-append or a flipped byte
    // cannot damage records before it).
    std::size_t pos = kFileHeaderSize;
    Reader payload{{}};
    CacheStoreRecord rec;
    while (pos < bytes.size()) {
        const std::size_t start = pos;
        if (!nextRecord(bytes, &pos, &payload) ||
            !parseRecord(&payload, &rec)) {
            pos = start;
            break;
        }
        res.records.push_back(std::move(rec));
    }
    if (pos < bytes.size()) {
        res.truncated = true;
        res.skippedBytes = bytes.size() - pos;
        res.message = strformat("damaged tail: skipped %zu trailing bytes "
                                "after %zu good records",
                                res.skippedBytes, res.records.size());
    }
    return res;
}

bool
saveCacheStore(const std::string& path, std::uint64_t scope,
               const std::vector<CacheStoreRecord>& records,
               std::string* error)
{
    // Streamed one record at a time through one reused buffer: a store
    // can hold many MB, and saves run during the search.
    return writeFileAtomic(path, [&](std::ostream& file) {
        std::string buf;
        auto flush = [&] {
            file.write(buf.data(), static_cast<std::streamsize>(buf.size()));
            buf.clear();
        };
        appendFileHeader(&buf, kFormat, scope);
        flush();
        for (const auto& rec : records) {
            appendRecord(&buf, [&] {
                buf.push_back(static_cast<char>(rec.level));
                appendString(&buf, rec.key);
                appendFitness(&buf, rec.result);
            });
            flush();
        }
    }, error);
}

bool
mergeSaveCacheStore(const std::string& path, std::uint64_t scope,
                    const std::vector<CacheStoreRecord>& records,
                    std::string* error)
{
    // Read-merge-write is not atomic as a whole — a save landing between
    // our load and our rename wins the rename race and its entries are
    // picked up by OUR next merge instead. Every published file is still
    // complete and self-consistent; interleaving only delays union, it
    // never corrupts.
    const CacheLoadResult existing = loadCacheStore(path, scope);
    if (!existing.usable() || existing.records.empty())
        return saveCacheStore(path, scope, records, error);

    std::unordered_set<std::string> fresh;
    fresh.reserve(records.size());
    for (const auto& rec : records)
        fresh.insert(static_cast<char>(rec.level) + rec.key);

    std::vector<CacheStoreRecord> merged;
    merged.reserve(existing.records.size() + records.size());
    for (const auto& rec : existing.records) {
        if (!fresh.count(static_cast<char>(rec.level) + rec.key))
            merged.push_back(rec);
    }
    merged.insert(merged.end(), records.begin(), records.end());
    return saveCacheStore(path, scope, merged, error);
}

} // namespace gevo::core
