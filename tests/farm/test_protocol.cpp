/// Farm wire protocol: frame reassembly under adversarial input
/// (truncation, oversize, bit flips, arbitrary chunk boundaries),
/// message codec round-trips including exact float bits, and the
/// trajectory-scope handshake — a worker serving a different baseline
/// must reject the session, and a peer dying mid-frame must end the
/// session without taking the process with it.

#include "farm/protocol.h"

#include <gtest/gtest.h>

#include <bit>
#include <csignal>
#include <cstring>
#include <limits>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "core/fitness.h"
#include "farm/session.h"
#include "ir/parser.h"
#include "support/io.h"

namespace gevo::farm {
namespace {

/// The session writes into sockets the test side may have closed; that
/// must surface as a write error, not a SIGPIPE death of the test
/// binary (the daemons ignore it process-wide — satellite of the same
/// requirement).
struct IgnoreSigpipe {
    IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }
} const gIgnoreSigpipe;

std::string
frame(std::string_view payload)
{
    std::string out;
    appendFrame(&out, payload);
    return out;
}

// ---- framing ----

TEST(FarmFraming, RoundTripAndByteAtATimeReassembly)
{
    const std::string payloads[] = {"", "x", "hello farm",
                                    std::string(1000, '\xab')};
    std::string wire;
    for (const auto& p : payloads)
        appendFrame(&wire, p);

    // Whole-buffer push.
    {
        FrameReader reader;
        reader.push(wire.data(), wire.size());
        std::string got;
        for (const auto& p : payloads) {
            ASSERT_EQ(reader.next(&got), FrameReader::Status::Frame);
            EXPECT_EQ(got, p);
        }
        EXPECT_EQ(reader.next(&got), FrameReader::Status::NeedMore);
        EXPECT_EQ(reader.pending(), 0u);
    }

    // One byte at a time: TCP respects no frame boundaries, the reader
    // must reassemble from any chunking.
    {
        FrameReader reader;
        std::size_t produced = 0;
        std::string got;
        for (char c : wire) {
            reader.push(&c, 1);
            while (reader.next(&got) == FrameReader::Status::Frame) {
                ASSERT_LT(produced, std::size(payloads));
                EXPECT_EQ(got, payloads[produced]);
                ++produced;
            }
        }
        EXPECT_EQ(produced, std::size(payloads));
    }
}

TEST(FarmFraming, TruncatedTailNeedsMoreAndLeavesResidue)
{
    const std::string wire = frame("half a frame");
    for (std::size_t cut = 1; cut < wire.size(); ++cut) {
        FrameReader reader;
        reader.push(wire.data(), wire.size() - cut);
        std::string got;
        EXPECT_EQ(reader.next(&got), FrameReader::Status::NeedMore);
        // The residue is how EOF mid-frame is detected.
        EXPECT_EQ(reader.pending(), wire.size() - cut);
    }
}

TEST(FarmFraming, WrongMagicIsCorrupt)
{
    std::string wire = frame("payload");
    wire[0] ^= 0x01;
    FrameReader reader;
    reader.push(wire.data(), wire.size());
    std::string got;
    EXPECT_EQ(reader.next(&got), FrameReader::Status::Corrupt);
}

TEST(FarmFraming, OversizedLengthIsCorruptNotAnAllocation)
{
    // Header claiming a payload over kMaxFramePayload: must flag
    // corruption immediately rather than waiting for (or allocating)
    // 4 GiB that will never arrive.
    std::string wire;
    const std::uint32_t magic = kFrameMagic;
    const std::uint32_t len = 0xffffffffu;
    const std::uint32_t crc = 0;
    wire.append(reinterpret_cast<const char*>(&magic), 4);
    wire.append(reinterpret_cast<const char*>(&len), 4);
    wire.append(reinterpret_cast<const char*>(&crc), 4);
    FrameReader reader;
    reader.push(wire.data(), wire.size());
    std::string got;
    EXPECT_EQ(reader.next(&got), FrameReader::Status::Corrupt);
}

TEST(FarmFraming, EveryPayloadBitFlipTripsTheCrc)
{
    const std::string payload = "bitflip target";
    const std::string clean = frame(payload);
    for (std::size_t byte = kFrameHeader; byte < clean.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string wire = clean;
            wire[byte] ^= static_cast<char>(1 << bit);
            FrameReader reader;
            reader.push(wire.data(), wire.size());
            std::string got;
            EXPECT_EQ(reader.next(&got), FrameReader::Status::Corrupt)
                << "byte " << byte << " bit " << bit;
        }
    }
}

// ---- message codecs ----

TEST(FarmMessages, HelloRoundTrip)
{
    HelloMsg msg;
    msg.version = kFarmProtocolVersion;
    msg.scope = 0xdeadbeefcafef00dull;
    msg.timeoutMs = 1500;
    const std::string payload = encodeHello(msg);
    EXPECT_EQ(payloadType(payload), MsgType::Hello);
    HelloMsg out;
    ASSERT_TRUE(decodeHello(payload, &out));
    EXPECT_EQ(out.version, msg.version);
    EXPECT_EQ(out.scope, msg.scope);
    EXPECT_EQ(out.timeoutMs, msg.timeoutMs);
}

TEST(FarmMessages, HelloOkAndRejectRoundTrip)
{
    const std::string ok = encodeHelloOk("adept-v0 on P100");
    EXPECT_EQ(payloadType(ok), MsgType::HelloOk);
    std::string text;
    ASSERT_TRUE(decodeHelloOk(ok, &text));
    EXPECT_EQ(text, "adept-v0 on P100");

    const std::string reject = encodeHelloReject("scope mismatch");
    EXPECT_EQ(payloadType(reject), MsgType::HelloReject);
    ASSERT_TRUE(decodeHelloReject(reject, &text));
    EXPECT_EQ(text, "scope mismatch");
}

TEST(FarmMessages, EvalRequestRoundTripsEditsExactly)
{
    EvalRequest req;
    req.seq = 42;
    req.useCache = true;
    mut::Edit del;
    del.kind = mut::EditKind::InstrDelete;
    del.srcUid = 7;
    mut::Edit copy;
    copy.kind = mut::EditKind::InstrCopy;
    copy.srcUid = 3;
    copy.dstUid = 9;
    copy.newUid = 1234; // Must survive the wire: clones depend on it.
    mut::Edit oprepl;
    oprepl.kind = mut::EditKind::OperandReplace;
    oprepl.srcUid = 5;
    oprepl.opIndex = 1;
    oprepl.newOperand = ir::Operand::imm(-17);
    req.edits = {del, copy, oprepl};

    const std::string payload = encodeEvalRequest(req);
    EXPECT_EQ(payloadType(payload), MsgType::Eval);
    EvalRequest out;
    ASSERT_TRUE(decodeEvalRequest(payload, &out));
    EXPECT_EQ(out.seq, req.seq);
    EXPECT_EQ(out.useCache, req.useCache);
    ASSERT_EQ(out.edits.size(), req.edits.size());
    EXPECT_EQ(mut::serializeEdits(out.edits),
              mut::serializeEdits(req.edits));
    EXPECT_EQ(out.edits[1].newUid, 1234u);
}

TEST(FarmMessages, EvalReplyRoundTripsExactDoubleBits)
{
    // Fitness values feed the deterministic trajectory; the wire must
    // carry exact bits, not a decimal rendering.
    const double values[] = {0.1, 1.0 / 3.0,
                             std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min()};
    for (const double ms : values) {
        EvalReply reply;
        reply.seq = 99;
        reply.outcome.result.valid = true;
        reply.outcome.result.objectives = {ms};
        reply.outcome.result.failReason = "why not";
        reply.outcome.failure = core::EvalFailure::None;
        reply.outcome.simulated = true;
        reply.outcome.rejected = false;
        reply.programKey = std::string("key\0with nul", 12);

        const std::string payload = encodeEvalReply(reply);
        EXPECT_EQ(payloadType(payload), MsgType::EvalResult);
        EvalReply out;
        ASSERT_TRUE(decodeEvalReply(payload, &out));
        EXPECT_EQ(out.seq, reply.seq);
        EXPECT_EQ(out.outcome.result.valid, reply.outcome.result.valid);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(out.outcome.result.ms()),
                  std::bit_cast<std::uint64_t>(ms));
        EXPECT_EQ(out.outcome.result.failReason,
                  reply.outcome.result.failReason);
        EXPECT_EQ(out.outcome.failure, reply.outcome.failure);
        EXPECT_EQ(out.outcome.simulated, reply.outcome.simulated);
        EXPECT_EQ(out.outcome.rejected, reply.outcome.rejected);
        EXPECT_EQ(out.programKey, reply.programKey);
    }
}

TEST(FarmMessages, EvalReplyCarriesTheFullObjectiveVector)
{
    // v2 wire format: the reply marshals the whole objective vector
    // (time, sectors, divergence), not just the scalar — a Pareto
    // search over remote workers depends on every dimension arriving
    // with exact bits.
    EvalReply reply;
    reply.seq = 7;
    reply.outcome.result =
        core::FitnessResult::pass(1.25, 96.0, 1.0 / 3.0);
    reply.outcome.simulated = true;
    reply.programKey = "k";

    const std::string payload = encodeEvalReply(reply);
    EvalReply out;
    ASSERT_TRUE(decodeEvalReply(payload, &out));
    ASSERT_EQ(out.outcome.result.objectives.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      out.outcome.result.objectives[i]),
                  std::bit_cast<std::uint64_t>(
                      reply.outcome.result.objectives[i]));
}

TEST(FarmMessages, PingPongRoundTrip)
{
    const std::string ping = encodePing(0x0123456789abcdefull);
    EXPECT_EQ(payloadType(ping), MsgType::Ping);
    std::uint64_t nonce = 0;
    ASSERT_TRUE(decodePing(ping, &nonce));
    EXPECT_EQ(nonce, 0x0123456789abcdefull);

    const std::string pong = encodePong(7);
    EXPECT_EQ(payloadType(pong), MsgType::Pong);
    ASSERT_TRUE(decodePong(pong, &nonce));
    EXPECT_EQ(nonce, 7u);
}

TEST(FarmMessages, EveryPrefixTruncationAndTrailingByteFailsToDecode)
{
    EvalRequest req;
    req.seq = 1;
    mut::Edit e;
    e.kind = mut::EditKind::InstrSwap;
    e.srcUid = 2;
    e.dstUid = 3;
    req.edits = {e};
    EvalReply reply;
    reply.outcome.result = core::FitnessResult::fail("nope");
    reply.programKey = "k";

    const std::string payloads[] = {
        encodeHello({}),          encodeHelloOk("banner"),
        encodeHelloReject("no"),  encodeEvalRequest(req),
        encodeEvalReply(reply),   encodePing(1),
        encodePong(2),
    };
    const auto decodesAs = [](std::string_view p) {
        HelloMsg hello;
        std::string text;
        EvalRequest er;
        EvalReply ep;
        std::uint64_t nonce;
        return decodeHello(p, &hello) || decodeHelloOk(p, &text) ||
               decodeHelloReject(p, &text) || decodeEvalRequest(p, &er) ||
               decodeEvalReply(p, &ep) || decodePing(p, &nonce) ||
               decodePong(p, &nonce);
    };
    for (const auto& payload : payloads) {
        EXPECT_TRUE(decodesAs(payload));
        for (std::size_t cut = 0; cut < payload.size(); ++cut) {
            EXPECT_FALSE(
                decodesAs(std::string_view(payload).substr(0, cut)))
                << "prefix length " << cut;
        }
        EXPECT_FALSE(decodesAs(payload + 'x')) << "trailing byte";
    }
    EXPECT_EQ(payloadType(""), MsgType{0});
}

std::string
toHex(std::string_view bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const char c : bytes) {
        out.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
        out.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
    }
    return out;
}

TEST(FarmMessages, EvalFramesArePinned)
{
    // Format stability, not just round trips: peers of one protocol
    // version built from any revision must agree on these exact frames.
    // The request is v4's (binary edit list); the reply is unchanged
    // since v2.
    EvalRequest req;
    req.seq = 0x0102030405060708ull;
    req.useCache = true;
    mut::Edit copy;
    copy.kind = mut::EditKind::InstrCopy;
    copy.srcUid = 3;
    copy.dstUid = 9;
    copy.newUid = 1234;
    req.edits = {copy};
    EXPECT_EQ(toHex(frame(encodeEvalRequest(req))),
              "4745565231000000bd6ca270040807060504030201010100000001ff000300"
              "00000000000009000000000000000000000000000000d204000000000000");

    EvalReply reply;
    reply.seq = 42;
    reply.outcome.result = core::FitnessResult::pass(1.25, 96.0, 1.0 / 3.0);
    reply.outcome.result.failReason = "r";
    reply.outcome.simulated = true;
    reply.programKey = std::string("k\0y", 3);
    EXPECT_EQ(toHex(frame(encodeEvalReply(reply))),
              "4745565234000000f7c648cc052a000000000000000103000000000000000000"
              "f43f0000000000005840555555555555d53f01000000720100030000006b0079");
}

TEST(FarmMessages, SyncRoundTripsAndRejectsEveryTruncation)
{
    std::vector<ProgramEntry> entries = {
        {std::string("a\0b", 3), core::FitnessResult::pass(2.5, 8.0, 1.0)},
        {"", core::FitnessResult::fail("wrong output")},
    };
    const std::string payload = encodeSync(entries);
    EXPECT_EQ(payloadType(payload), MsgType::Sync);
    std::vector<ProgramEntry> out;
    ASSERT_TRUE(decodeSync(payload, &out));
    ASSERT_EQ(out.size(), entries.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].first, entries[i].first);
        EXPECT_EQ(out[i].second.valid, entries[i].second.valid);
        EXPECT_EQ(out[i].second.objectives, entries[i].second.objectives);
        EXPECT_EQ(out[i].second.failReason, entries[i].second.failReason);
    }
    for (std::size_t cut = 0; cut < payload.size(); ++cut)
        EXPECT_FALSE(decodeSync(payload.substr(0, cut), &out)) << cut;
    EXPECT_FALSE(decodeSync(payload + 'x', &out));
    EXPECT_FALSE(decodeSync(encodePing(1), &out));

    ASSERT_TRUE(decodeSync(encodeSync({}), &out));
    EXPECT_TRUE(out.empty());
}

TEST(FarmMessages, DecoderRejectsWrongMessageType)
{
    HelloMsg hello;
    EXPECT_FALSE(decodeHello(encodePing(1), &hello));
    std::uint64_t nonce;
    EXPECT_FALSE(decodePing(encodeHello({}), &nonce));
}

// ---- handshake / session over a real socketpair ----

constexpr const char* kToyKernel = R"(
kernel @toy params 1 regs 8 shared 0 local 0 {
entry:
    r1 = tid
    r2 = mul.i32 r1, 2
    r3 = cvt.i32.i64 r1
    r4 = mul.i64 r3, 4
    r5 = add.i64 r0, r4
    st.i32.global r5, r2
    ret
}
)";

class ToyFitness : public core::FitnessFunction {
  public:
    core::FitnessResult
    evaluate(const core::CompiledVariant& variant) const override
    {
        if (variant.programs.find("toy") == nullptr)
            return core::FitnessResult::fail("kernel missing");
        return core::FitnessResult::pass(1.0);
    }
    std::string name() const override { return "toy"; }
};

/// Runs a WorkerSession on one end of a socketpair in a thread and
/// hands the test the client end.
class SessionHarness {
  public:
    SessionHarness()
        : module_(parse()), compiler_(module_),
          scope_(core::scopeFingerprint(compiler_.compile({}), fitness_)),
          session_(compiler_, fitness_, &cache_, scope_, "toy banner")
    {
        int fds[2];
        EXPECT_EQ(
            ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        clientFd_ = fds[0];
        serverFd_ = fds[1];
        thread_ = std::thread([this] { session_.serve(serverFd_); });
    }

    ~SessionHarness()
    {
        if (clientFd_ >= 0)
            ::close(clientFd_);
        thread_.join();
        ::close(serverFd_);
    }

    int fd() const { return clientFd_; }
    std::uint64_t scope() const { return scope_; }
    const core::VariantCompiler& compiler() const { return compiler_; }
    const WorkerSession& session() const { return session_; }

    void
    closeClient()
    {
        ::close(clientFd_);
        clientFd_ = -1;
    }

    void
    send(std::string_view payload)
    {
        std::string wire;
        appendFrame(&wire, payload);
        ASSERT_TRUE(writeAll(clientFd_, wire.data(), wire.size()));
    }

    std::string
    receive()
    {
        std::string payload;
        char chunk[256];
        while (true) {
            const auto status = reader_.next(&payload);
            if (status == FrameReader::Status::Frame)
                return payload;
            EXPECT_EQ(status, FrameReader::Status::NeedMore);
            const auto n = ::read(clientFd_, chunk, sizeof chunk);
            if (n <= 0) {
                ADD_FAILURE() << "session closed before replying";
                return {};
            }
            reader_.push(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    static ir::Module
    parse()
    {
        auto res = ir::parseModule(kToyKernel);
        EXPECT_TRUE(res.ok) << res.error;
        return std::move(res.module);
    }

    ir::Module module_;
    ToyFitness fitness_;
    core::VariantCompiler compiler_;
    std::uint64_t scope_;
    core::VariantCache cache_;
    WorkerSession session_;
    FrameReader reader_;
    std::thread thread_;
    int clientFd_ = -1;
    int serverFd_ = -1;
};

TEST(FarmHandshake, MatchingScopeIsAcceptedAndServesEvals)
{
    SessionHarness harness;
    HelloMsg hello;
    hello.scope = harness.scope();
    hello.timeoutMs = 5000;
    harness.send(encodeHello(hello));
    const std::string verdict = harness.receive();
    ASSERT_EQ(payloadType(verdict), MsgType::HelloOk);
    std::string banner;
    ASSERT_TRUE(decodeHelloOk(verdict, &banner));
    EXPECT_EQ(banner, "toy banner");

    EvalRequest req;
    req.seq = 5;
    harness.send(encodeEvalRequest(req));
    const std::string result = harness.receive();
    ASSERT_EQ(payloadType(result), MsgType::EvalResult);
    EvalReply reply;
    ASSERT_TRUE(decodeEvalReply(result, &reply));
    EXPECT_EQ(reply.seq, 5u);
    EXPECT_TRUE(reply.outcome.result.valid);
    EXPECT_EQ(reply.outcome.result.ms(), 1.0);

    std::uint64_t nonce = 0;
    harness.send(encodePing(31337));
    ASSERT_TRUE(decodePong(harness.receive(), &nonce));
    EXPECT_EQ(nonce, 31337u);
}

/// A Sync frame's entries land in the session's cache before the next
/// request is served, and a cache hit still reports its program key.
TEST(FarmHandshake, SyncedEntriesServeTheNextRequest)
{
    SessionHarness harness;
    HelloMsg hello;
    hello.scope = harness.scope();
    harness.send(encodeHello(hello));
    ASSERT_EQ(payloadType(harness.receive()), MsgType::HelloOk);

    // The baseline's program, synced with a value the toy fitness never
    // computes: a reply carrying it was served from the synced entry.
    const std::string key = harness.compiler().compile({}).programs.contentKey();
    const std::vector<ProgramEntry> synced = {
        {key, core::FitnessResult::pass(7.0)}};
    harness.send(encodeSync(synced));
    EvalRequest req;
    req.seq = 1;
    req.useCache = true;
    harness.send(encodeEvalRequest(req));
    EvalReply reply;
    ASSERT_TRUE(decodeEvalReply(harness.receive(), &reply));
    EXPECT_FALSE(reply.outcome.simulated);
    EXPECT_EQ(reply.outcome.result.ms(), 7.0);
    EXPECT_EQ(reply.programKey, key);
}

TEST(FarmHandshake, WrongScopeIsRejected)
{
    SessionHarness harness;
    HelloMsg hello;
    hello.scope = harness.scope() ^ 1; // A different baseline/fitness.
    harness.send(encodeHello(hello));
    const std::string verdict = harness.receive();
    ASSERT_EQ(payloadType(verdict), MsgType::HelloReject);
    std::string reason;
    ASSERT_TRUE(decodeHelloReject(verdict, &reason));
    EXPECT_NE(reason.find("scope"), std::string::npos) << reason;
    EXPECT_EQ(harness.session().served(), 0u);
}

TEST(FarmHandshake, WrongProtocolVersionIsRejected)
{
    SessionHarness harness;
    HelloMsg hello;
    hello.version = kFarmProtocolVersion + 1;
    hello.scope = harness.scope();
    harness.send(encodeHello(hello));
    EXPECT_EQ(payloadType(harness.receive()), MsgType::HelloReject);
}

TEST(FarmHandshake, PeerClosingMidFrameEndsTheSessionCleanly)
{
    SessionHarness harness;
    // Half a frame header, then hang up: the session must return (the
    // harness destructor joins the serve thread), not crash or spin.
    const std::string wire = frame("never finished");
    ASSERT_TRUE(writeAll(harness.fd(), wire.data(), kFrameHeader / 2));
    harness.closeClient();
}

TEST(FarmHandshake, GarbageBytesEndTheSessionCleanly)
{
    SessionHarness harness;
    const std::string junk(64, '\x5a'); // No valid magic anywhere.
    ASSERT_TRUE(writeAll(harness.fd(), junk.data(), junk.size()));
    harness.closeClient();
}

TEST(FarmScope, DiffersAcrossFitnessAndBaseline)
{
    auto res = ir::parseModule(kToyKernel);
    ASSERT_TRUE(res.ok) << res.error;
    ToyFitness fitness;
    core::VariantCompiler compiler(res.module);
    const auto scope = core::scopeFingerprint(compiler.compile({}), fitness);
    EXPECT_NE(scope, 0u); // 0 is reserved for "no scope".

    class OtherFitness : public ToyFitness {
      public:
        std::string name() const override { return "other"; }
    } other;
    EXPECT_NE(core::scopeFingerprint(compiler.compile({}), other), scope);
}

} // namespace
} // namespace gevo::farm
