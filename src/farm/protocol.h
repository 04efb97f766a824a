/// \file
/// Wire protocol for the distributed evaluation farm: the shared stream
/// frames and result codecs of core/codec.h, carried over a socket with
/// a typed message layer on top. The first payload byte is the message
/// type. A corrupted stream (bad magic, oversized length, CRC mismatch)
/// is a peer to disconnect from, not a bug.
///
/// Session shape: the client opens with Hello carrying the protocol
/// version and the trajectory-scope fingerprint (the variant-cache
/// scope: a hash of the baseline program content key and the fitness
/// name). The worker replies HelloOk or HelloReject — a daemon serving
/// a different workload/device/dataset must be rejected the way a
/// mismatched checkpoint is, or it would silently serve wrong fitness
/// values. After HelloOk, Eval/EvalResult pairs flow (pipelined;
/// results carry the request's sequence number), with Ping/Pong as the
/// idle-connection heartbeat. The isolated backend also sends Sync
/// frames, unanswered, carrying program-cache entries the session's own
/// cache lacks; the session inserts them before it reads the next frame.

#ifndef GEVO_FARM_PROTOCOL_H
#define GEVO_FARM_PROTOCOL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "core/eval_backend.h"
#include "core/fitness.h"
#include "mutation/edit.h"

namespace gevo::farm {

/// Bumped on any wire-format change; mismatched peers reject at Hello.
/// v2 replaced EvalReply's single fitness scalar with the objective
/// vector; v3 added Sync and ships the program key on cache hits too;
/// v4 carries the Eval request's edits in the binary edit-list encoding.
constexpr std::uint32_t kFarmProtocolVersion = 4;

enum class MsgType : std::uint8_t {
    Hello = 1,
    HelloOk = 2,
    HelloReject = 3,
    Eval = 4,
    EvalResult = 5,
    Ping = 6,
    Pong = 7,
    Sync = 8,
};

using core::appendFrame;
using core::FrameReader;
using core::writeFrame;
using core::kFrameHeader;
using core::kFrameMagic;

// ---- message payloads ----

/// One program-cache entry: content key and its fitness.
using ProgramEntry = std::pair<std::string, core::FitnessResult>;

/// Client → worker session opener.
struct HelloMsg {
    std::uint32_t version = kFarmProtocolVersion;
    std::uint64_t scope = 0;     ///< Trajectory-scope fingerprint.
    std::uint32_t timeoutMs = 0; ///< Client's per-evaluation deadline.
};

/// Client → worker evaluation request: u64 seq | u8 useCache | edit
/// list. The edits travel in core/codec.h's binary edit-list encoding
/// (u32 count, then 35 fixed bytes per edit), which round-trips every
/// field, the clone uids included.
struct EvalRequest {
    std::uint64_t seq = 0;  ///< Echoed in the reply; pairs pipelined RPCs.
    bool useCache = false;  ///< False = compile-per-call reference path.
    std::vector<mut::Edit> edits;
};

/// Worker → client evaluation result: the shared EvalOutcome codec,
/// including the program content key of a cached-path task (the client
/// replays the session's lookup or insert into its live cache).
struct EvalReply {
    std::uint64_t seq = 0;
    core::EvalOutcome outcome;
    std::string programKey;
};

std::string encodeHello(const HelloMsg& msg);
std::string encodeHelloOk(std::string_view description);
std::string encodeHelloReject(std::string_view reason);
std::string encodeEvalRequest(const EvalRequest& req);
std::string encodeEvalReply(const EvalReply& reply);
std::string encodePing(std::uint64_t nonce);
std::string encodePong(std::uint64_t nonce);
/// Client → isolated session: program-cache entries, in insertion order.
std::string encodeSync(const std::vector<ProgramEntry>& entries);

/// Type of a received payload (MsgType{0} when the payload is empty).
MsgType payloadType(std::string_view payload);

/// Decoders: false on any truncation or trailing bytes (a structurally
/// invalid message from a handshaken peer is a protocol error).
bool decodeHello(std::string_view payload, HelloMsg* out);
bool decodeHelloOk(std::string_view payload, std::string* description);
bool decodeHelloReject(std::string_view payload, std::string* reason);
bool decodeEvalRequest(std::string_view payload, EvalRequest* out);
bool decodeEvalReply(std::string_view payload, EvalReply* out);
bool decodePing(std::string_view payload, std::uint64_t* nonce);
bool decodePong(std::string_view payload, std::uint64_t* nonce);
bool decodeSync(std::string_view payload, std::vector<ProgramEntry>* out);

} // namespace gevo::farm

#endif // GEVO_FARM_PROTOCOL_H
