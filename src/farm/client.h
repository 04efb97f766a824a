/// \file
/// The farm dispatcher on the EvaluationBackend seam (core/eval_backend.h),
/// behind both out-of-process backends. It shards each generation's batch
/// across worker sessions (farm/session.h) over the framed protocol,
/// committing results strictly by batch index no matter which session
/// answers in what order — so a fault-free run is trajectory-identical
/// (byte-identical --dump-history) to the in-process backend.
///
/// Where the sessions come from:
///   - `--backend=remote` dials the workerd daemons in `--workers`; each
///     forks one session per connection (farm/server.h). Connections
///     persist across generations; idle ones are pinged at batch start.
///   - `--backend=isolated` forks min(workers, batch size) sessions over
///     socketpairs at the start of each batch, each inheriting the
///     batch's program cache copy-on-write, and reaps them at batch end.
///     A session that dies or blows its deadline is SIGKILLed, reaped and
///     replaced by a fresh fork.
///
/// Failure discipline, one rule for both, deterministic given a
/// deterministic fault schedule:
///   - Per-evaluation deadline (`--eval-timeout-ms`) measured on a
///     monotonic clock from the moment a request reaches the front of
///     its connection's pipeline.
///   - A session death / CRC-corrupt frame / blown deadline strikes only
///     the request actively being evaluated (the pipeline front);
///     bystander in-flight requests are redispatched unpenalized.
///   - Two strikes settle the evaluation as a deterministic penalty
///     (WorkerCrash for a lost connection, WorkerTimeout for a blown
///     deadline, ProtocolError) that the engine counts and quarantines.
///   - Lost workers are redialed (re-forked) at once, then with
///     exponential backoff; a daemon whose handshake is rejected (wrong
///     trajectory scope or protocol version) is abandoned permanently.
///   - When every worker is gone, remaining evaluations degrade to
///     local in-process execution with a warning — the search finishes.
///   - The backend's destructor logs one summary line of its counters
///     ("isolated backend: ..." or "remote backend: ..."), as a warning
///     when anything failed.

#ifndef GEVO_FARM_CLIENT_H
#define GEVO_FARM_CLIENT_H

// The implementation lives behind core::makeFarmBackend (declared in
// core/eval_backend.h and routed by makeBackend) so engine-layer code
// never includes farm headers; this header exists for farm-internal
// consumers and tests.

#include "core/eval_backend.h"

#endif // GEVO_FARM_CLIENT_H
