/// \file
/// Deterministic fault injection for the farm (GEVO_FAULT_INJECT).
/// Faults fire only in worker sessions (farm/session.cpp), the
/// evaluators behind the isolated and remote backends; the in-process
/// backend ignores the variable, since a fault there could only take
/// the search down with it.
///
/// Spec grammar: a comma-separated list of `kind@N` entries, firing when
/// the global evaluation sequence number equals N (or any later number
/// with a `+` suffix: `crash@5+`). Kinds:
///
///   crash      — the evaluating process raises SIGSEGV.
///   hang       — the evaluation sleeps until a watchdog kills it.
///   garbage    — a worker session writes a malformed frame.
///   disconnect — a session closes the connection instead of replying
///                (network-layer death, no process exit code).
///   delay      — a session replies, but only after sleeping past the
///                client's per-evaluation deadline.
///   truncate   — a session sends a partial frame, then closes
///                (mid-frame peer loss).
///
/// Malformed specs are fatal user errors — a silently ignored fault spec
/// would make a crash test vacuously green.

#ifndef GEVO_CORE_FAULT_INJECT_H
#define GEVO_CORE_FAULT_INJECT_H

#include <cstdint>
#include <optional>
#include <vector>

namespace gevo::core {

enum class FaultKind : std::uint8_t {
    Crash,
    Hang,
    Garbage,
    Disconnect,
    Delay,
    Truncate,
};

/// One injected fault: fire when the global evaluation sequence number
/// equals `at` (or any later number, with the "+" suffix).
struct FaultSpec {
    FaultKind kind = FaultKind::Crash;
    std::uint64_t at = 0;
    bool fromHere = false;
};

/// Parse GEVO_FAULT_INJECT from the environment. Empty/unset yields an
/// empty schedule; malformed specs are fatal.
std::vector<FaultSpec> parseFaultSpecs();

/// The fault scheduled for evaluation sequence number \p seq, if any.
std::optional<FaultKind> faultFor(const std::vector<FaultSpec>& specs,
                                  std::uint64_t seq);

/// A genuine invalid-access death, not a tidy abort(): the reaping path
/// under test is the one a wild pointer in a hostile mutant would take.
[[noreturn]] void faultCrash();

/// Sleep until the dispatcher's deadline kills the session.
[[noreturn]] void faultHang();

/// Write bytes that are not a stream frame (wrong magic) to \p fd: the
/// corrupt-response path of every worker session.
void faultGarbage(int fd);

} // namespace gevo::core

#endif // GEVO_CORE_FAULT_INJECT_H
