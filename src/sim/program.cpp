#include "sim/program.h"

#include <algorithm>

#include "ir/cfg.h"
#include "support/bytes.h"
#include "support/hash.h"
#include "support/logging.h"

namespace gevo::sim {

Program
Program::decode(const ir::Function& fn)
{
    Program prog;
    prog.name = fn.name;
    prog.numParams = fn.numParams;
    prog.numRegs = fn.numRegs;
    prog.sharedBytes = fn.sharedBytes;
    prog.localBytes = fn.localBytes;

    prog.blockStart.reserve(fn.blocks.size());
    std::int32_t pc = 0;
    for (const auto& bb : fn.blocks) {
        prog.blockStart.push_back(pc);
        pc += static_cast<std::int32_t>(bb.instrs.size());
    }

    const ir::Cfg cfg(fn);

    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        const auto ip = cfg.ipdom(static_cast<std::int32_t>(b));
        const std::int32_t reconv =
            ip >= 0 ? prog.blockStart[static_cast<std::size_t>(ip)]
                    : kExitPc;
        for (const auto& in : fn.blocks[b].instrs) {
            DecodedInstr d;
            d.op = in.op;
            d.kind = ir::opInfo(in.op).kind;
            d.dest = in.dest;
            d.nops = in.nops;
            for (int i = 0; i < in.nops; ++i) {
                d.ops[i] = in.ops[i];
                if (in.ops[i].isReg())
                    d.srcRegs[d.numSrcRegs++] =
                        static_cast<std::int32_t>(in.ops[i].value);
            }
            d.space = in.space;
            d.width = in.width;
            d.atom = in.atom;
            d.loc = in.loc;
            prog.maxLoc = std::max(prog.maxLoc, in.loc);
            d.reconvPc = reconv;
            if (in.op == ir::Opcode::Br) {
                d.target0 = prog.blockStart[
                    static_cast<std::size_t>(in.ops[0].value)];
            } else if (in.op == ir::Opcode::CondBr) {
                d.target0 = prog.blockStart[
                    static_cast<std::size_t>(in.ops[1].value)];
                d.target1 = prog.blockStart[
                    static_cast<std::size_t>(in.ops[2].value)];
            }
            prog.code.push_back(d);
        }
    }
    GEVO_ASSERT(!prog.code.empty(), "decoding empty kernel");

    // Span computation: walk each block backwards propagating the nearest
    // boundary (control flow or barrier) PC. Blocks always end in a
    // terminator, so every instruction sees a boundary within its block.
    for (std::size_t b = 0; b < prog.blockStart.size(); ++b) {
        const std::int32_t begin = prog.blockStart[b];
        const std::int32_t end =
            b + 1 < prog.blockStart.size()
                ? prog.blockStart[b + 1]
                : static_cast<std::int32_t>(prog.code.size());
        std::int32_t boundary = kExitPc;
        for (std::int32_t pc = end - 1; pc >= begin; --pc) {
            DecodedInstr& d = prog.code[static_cast<std::size_t>(pc)];
            if (d.kind == ir::OpKind::Ctrl ||
                d.op == ir::Opcode::Barrier)
                boundary = pc;
            GEVO_ASSERT(boundary != kExitPc,
                        "block without terminator survived decode");
            d.spanEnd = boundary;
        }
    }

    // Content-key fragment: the digest of canonical bytes of every
    // execution-relevant field. Interned source-location ids are
    // deliberately excluded: they do not affect functional results or
    // timing, only profiling attribution — so variants differing only in
    // loc metadata share a cache key. The bytes are hashed one
    // instruction at a time through one reused buffer, so the full
    // encoding (kilobytes per kernel) is never materialized.
    Blake2b128 hash;
    std::string bytes = prog.name;
    bytes.push_back('\0');
    appendLeU32(&bytes, prog.numParams);
    appendLeU32(&bytes, prog.numRegs);
    appendLeU32(&bytes, prog.sharedBytes);
    appendLeU32(&bytes, prog.localBytes);
    appendLeU32(&bytes, static_cast<std::uint32_t>(prog.code.size()));
    hash.update(bytes);
    for (const auto& in : prog.code) {
        bytes.clear();
        bytes.push_back(static_cast<char>(
            static_cast<std::uint16_t>(in.op) & 0xff));
        bytes.push_back(static_cast<char>(
            (static_cast<std::uint16_t>(in.op) >> 8) & 0xff));
        bytes.push_back(static_cast<char>(in.nops));
        bytes.push_back(static_cast<char>(in.space));
        bytes.push_back(static_cast<char>(in.width));
        bytes.push_back(static_cast<char>(in.atom));
        appendLeI64(&bytes, in.dest);
        for (int i = 0; i < in.nops; ++i) {
            bytes.push_back(static_cast<char>(in.ops[i].kind));
            appendLeI64(&bytes, in.ops[i].value);
        }
        appendLeI64(&bytes, in.target0);
        appendLeI64(&bytes, in.target1);
        appendLeI64(&bytes, in.reconvPc);
        hash.update(bytes);
    }
    prog.keyFragment = hash.finish();
    return prog;
}

ProgramSet
ProgramSet::decodeModule(const ir::Module& module)
{
    ProgramSet set;
    set.programs_.reserve(module.numFunctions());
    for (std::size_t i = 0; i < module.numFunctions(); ++i)
        set.programs_.push_back(std::make_shared<const Program>(
            Program::decode(module.function(i))));
    return set;
}

const Program*
ProgramSet::find(std::string_view name) const
{
    for (const auto& prog : programs_) {
        if (prog->name == name)
            return prog.get();
    }
    return nullptr;
}

std::string
ProgramSet::contentKey() const
{
    std::string key;
    key.reserve(programs_.size() * sizeof(Digest128));
    for (const auto& prog : programs_)
        key.append(reinterpret_cast<const char*>(prog->keyFragment.data()),
                   prog->keyFragment.size());
    return key;
}

} // namespace gevo::sim
