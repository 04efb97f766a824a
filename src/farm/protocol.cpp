#include "farm/protocol.h"

namespace gevo::farm {

using core::Reader;

namespace {

bool
expectType(Reader* in, MsgType want)
{
    std::uint8_t t = 0;
    return in->u8(&t) && t == static_cast<std::uint8_t>(want);
}

} // namespace

std::string
encodeHello(const HelloMsg& msg)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::Hello));
    appendLeU32(&p, msg.version);
    appendLeU64(&p, msg.scope);
    appendLeU32(&p, msg.timeoutMs);
    return p;
}

std::string
encodeHelloOk(std::string_view description)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::HelloOk));
    core::appendString(&p, description);
    return p;
}

std::string
encodeHelloReject(std::string_view reason)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::HelloReject));
    core::appendString(&p, reason);
    return p;
}

std::string
encodeEvalRequest(const EvalRequest& req)
{
    std::string p;
    p.reserve(1 + 8 + 1 + 4 + req.edits.size() * core::kEditBytes);
    p.push_back(static_cast<char>(MsgType::Eval));
    appendLeU64(&p, req.seq);
    p.push_back(req.useCache ? 1 : 0);
    core::appendEdits(&p, req.edits);
    return p;
}

std::string
encodeEvalReply(const EvalReply& reply)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::EvalResult));
    appendLeU64(&p, reply.seq);
    core::appendOutcome(&p, reply.outcome, reply.programKey);
    return p;
}

std::string
encodePing(std::uint64_t nonce)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::Ping));
    appendLeU64(&p, nonce);
    return p;
}

std::string
encodePong(std::uint64_t nonce)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::Pong));
    appendLeU64(&p, nonce);
    return p;
}

std::string
encodeSync(const std::vector<ProgramEntry>& entries)
{
    std::string p;
    p.push_back(static_cast<char>(MsgType::Sync));
    appendLeU32(&p, static_cast<std::uint32_t>(entries.size()));
    for (const auto& [key, result] : entries) {
        core::appendString(&p, key);
        core::appendFitness(&p, result);
    }
    return p;
}

MsgType
payloadType(std::string_view payload)
{
    if (payload.empty())
        return MsgType{0};
    return static_cast<MsgType>(static_cast<std::uint8_t>(payload[0]));
}

bool
decodeHello(std::string_view payload, HelloMsg* out)
{
    Reader c(payload);
    return expectType(&c, MsgType::Hello) && c.u32(&out->version) &&
           c.u64(&out->scope) && c.u32(&out->timeoutMs) && c.done();
}

bool
decodeHelloOk(std::string_view payload, std::string* description)
{
    Reader c(payload);
    return expectType(&c, MsgType::HelloOk) && c.str(description) &&
           c.done();
}

bool
decodeHelloReject(std::string_view payload, std::string* reason)
{
    Reader c(payload);
    return expectType(&c, MsgType::HelloReject) && c.str(reason) && c.done();
}

bool
decodeEvalRequest(std::string_view payload, EvalRequest* out)
{
    Reader c(payload);
    return expectType(&c, MsgType::Eval) && c.u64(&out->seq) &&
           c.flag(&out->useCache) && core::readEdits(&c, &out->edits) &&
           c.done();
}

bool
decodeEvalReply(std::string_view payload, EvalReply* out)
{
    Reader c(payload);
    return expectType(&c, MsgType::EvalResult) && c.u64(&out->seq) &&
           core::readOutcome(&c, &out->outcome, &out->programKey) &&
           c.done();
}

bool
decodePing(std::string_view payload, std::uint64_t* nonce)
{
    Reader c(payload);
    return expectType(&c, MsgType::Ping) && c.u64(nonce) && c.done();
}

bool
decodePong(std::string_view payload, std::uint64_t* nonce)
{
    Reader c(payload);
    return expectType(&c, MsgType::Pong) && c.u64(nonce) && c.done();
}

bool
decodeSync(std::string_view payload, std::vector<ProgramEntry>* out)
{
    Reader c(payload);
    std::size_t n = 0;
    // An entry is at least a key length and a FitnessResult's fixed
    // fields (valid flag, objective count, reason length).
    return expectType(&c, MsgType::Sync) && c.count(&n) &&
           c.list(n, 13, out,
                  [](Reader* in, ProgramEntry* e) {
                      return in->str(&e->first) &&
                             core::readFitness(in, &e->second);
                  }) &&
           c.done();
}

} // namespace gevo::farm
