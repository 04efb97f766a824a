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
///   - `--backend=isolated` forks its sessions over socketpairs, lazily:
///     up to `threads` of them, each the first time a batch is large
///     enough to need it. They live for the whole search, and the
///     backend's destructor reaps them. A session that dies or blows its
///     deadline is SIGKILLed, reaped and re-forked through the same
///     redial path a lost remote connection takes.
///
/// Program-cache sync (isolated): a session is forked with a
/// copy-on-write copy of the parent's program cache and then lives
/// across batches, so it must learn what the parent's cache gains
/// meanwhile. Each session keeps a cursor, the parent cache's insertion
/// stamp (core/variant_cache.h) it is in step with. At each batch start
/// the parent sends every live session, in Sync frames, the entries
/// added since its cursor that it did not simulate itself (another
/// session's, the local fallback's, the caller's own inserts). Every
/// reply carries the program key of a cached-path task, and the parent
/// replays the sessions' lookups and inserts in batch order as tasks
/// settle, so at one worker the parent's cache, bounded ones included,
/// evolves exactly as the session's and as the in-process backend's
/// would.
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
