/// \file
/// RemoteBackend: the farm client on the EvaluationBackend seam
/// (core/eval_backend.h). Shards each generation's batch across the
/// configured worker daemons over the framed protocol, committing
/// results strictly by batch index no matter which worker answers in
/// what order — so a fault-free remote run is trajectory-identical
/// (byte-identical --dump-history) to the in-process backend.
///
/// Failure discipline, all deterministic given a deterministic fault
/// schedule:
///   - Per-evaluation deadline (`--eval-timeout-ms`, same budget as the
///     isolated watchdog) measured on a monotonic clock from the moment
///     a request reaches the front of its connection's pipeline.
///   - A worker death / CRC-corrupt frame / blown deadline strikes only
///     the request actively being evaluated (the pipeline front);
///     bystander in-flight requests are redispatched unpenalized.
///   - Two strikes settle the evaluation as a deterministic penalty
///     (WorkerCrash for a lost connection, WorkerTimeout for a blown
///     deadline, ProtocolError) that the engine counts and quarantines
///     exactly like the isolated backend's failures.
///   - Lost workers are redialed with exponential backoff; a worker
///     whose handshake is rejected (wrong trajectory scope or protocol
///     version) is abandoned permanently.
///   - When every worker is gone, remaining evaluations degrade to
///     local in-process execution with a warning — the search finishes.

#ifndef GEVO_FARM_CLIENT_H
#define GEVO_FARM_CLIENT_H

// The implementation lives behind core::makeRemoteBackend (declared in
// core/eval_backend.h and routed by makeBackend) so engine-layer code
// never includes farm headers; this header exists for farm-internal
// consumers and tests.

#include "core/eval_backend.h"

#endif // GEVO_FARM_CLIENT_H
