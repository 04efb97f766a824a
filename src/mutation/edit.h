/// \file
/// The GEVO edit (patch) representation.
///
/// An individual in the evolutionary search is a *list of edits* applied to
/// the original kernel module (paper Sec II-A). Edits anchor to instruction
/// uids, not positions, so they compose: an edit whose anchors have
/// disappeared (because an earlier edit deleted them) is silently skipped,
/// exactly the robustness GEVO relies on — and the reason evolved variants
/// accumulate hundreds of weak or no-op edits (paper Sec V-A: 1394 edits,
/// 17 that matter).

#ifndef GEVO_MUTATION_EDIT_H
#define GEVO_MUTATION_EDIT_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/instr.h"

namespace gevo::mut {

/// GEVO's mutation operator set (paper Sec II-A: "copy, delete, move,
/// replace, or swap [an instruction] or replace the operands between
/// instructions").
enum class EditKind : std::uint8_t {
    InstrDelete,    ///< Remove the instruction at srcUid.
    InstrCopy,      ///< Insert a clone of srcUid before dstUid.
    InstrMove,      ///< Move srcUid to just before dstUid.
    InstrReplace,   ///< Overwrite dstUid's operation with a clone of srcUid.
    InstrSwap,      ///< Exchange the operations at srcUid and dstUid.
    OperandReplace, ///< Set operand opIndex of srcUid to newOperand.
};

/// Human-readable kind name ("delete", "copy", ...).
std::string_view editKindName(EditKind kind);

/// One edit. Fields beyond `kind` are interpreted per kind; see EditKind.
struct Edit {
    EditKind kind = EditKind::InstrDelete;
    std::uint64_t srcUid = 0;
    std::uint64_t dstUid = 0;
    std::int8_t opIndex = -1;       ///< OperandReplace slot.
    ir::Operand newOperand;         ///< OperandReplace payload.
    std::uint64_t newUid = 0;       ///< Uid for clones (copy/replace),
                                    ///< fixed at creation for determinism.

    friend bool
    operator==(const Edit& a, const Edit& b)
    {
        return a.kind == b.kind && a.srcUid == b.srcUid &&
               a.dstUid == b.dstUid && a.opIndex == b.opIndex &&
               a.newOperand == b.newOperand;
        // newUid deliberately ignored: two edits doing the same thing are
        // the same edit for discovery-trace matching (Figure 8).
    }

    /// Compact single-line rendering, e.g. "oprepl(#12.0 <- r7)".
    std::string toString() const;
};

/// Serialize an edit list to a line-per-edit text form: the byte-pinned
/// `--dump-history` trajectory format, test pins and diagnostics.
/// Checkpoints and the farm wire use core/codec.h's binary edit lists.
std::string serializeEdits(const std::vector<Edit>& edits);

/// Parse the text form back; returns false on malformed input.
bool deserializeEdits(const std::string& text, std::vector<Edit>* out);

} // namespace gevo::mut

#endif // GEVO_MUTATION_EDIT_H
