#ifndef SEMDRIFT_NET_ROUTER_H_
#define SEMDRIFT_NET_ROUTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "serve/batcher.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/snapshot_manager.h"

namespace semdrift {

struct RouterOptions {
  /// Engine configuration for single-snapshot serving. Hot-swap serving
  /// answers from the manager's per-generation engines, which take their
  /// configuration from SnapshotManagerOptions::engine instead.
  QueryEngineOptions engine;
  /// Batcher configuration (deadline budget, coalescing, admission ladder).
  BatcherOptions batch;
};

/// The one dispatch path of the serving tier: every request line goes to a
/// single Batcher over a single engine source. A fixed snapshot is served by
/// one engine; in hot-swap mode each batch pins the SnapshotManager's current
/// generation (SnapshotManager::Pin()), so the manager's per-generation
/// engine is the only engine there is.
///
/// `stats` and `metrics` are answered inline on the submitting thread by the
/// pinned engine's own Answer(): they read counters and never queue, so a
/// client polling `stats` (e.g. waiting for a generation) does not pay the
/// batcher's linger.
///
/// Ordering: Submit() never blocks. The batcher completes queued requests in
/// submission order, but inline answers and shed requests complete ahead of
/// them, so callers needing per-connection ordering sequence responses
/// themselves (NetServer's reorder buffer).
class ShardRouter {
 public:
  /// Single-snapshot serving; `snapshot` must outlive the router.
  ShardRouter(const SnapshotReader* snapshot, RouterOptions options);
  /// Hot-swap serving over the manager's generations; `manager` must outlive
  /// the router.
  ShardRouter(SnapshotManager* manager, RouterOptions options);

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Dispatches one request line. `done` is invoked with the response exactly
  /// once, from a pool worker or synchronously (shed/stopping/inline
  /// answers); it must not block.
  void Submit(std::string line, RequestPriority priority,
              std::function<void(std::string)> done);

  /// Generation currently served (0 for single-snapshot mode).
  uint64_t generation() const;

  /// Test hooks: hold/release batcher dispatch (used to force queue buildup
  /// deterministically for overload tests).
  void Pause() { batcher_.Pause(); }
  void Resume() { batcher_.Resume(); }

 private:
  ShardRouter(const SnapshotReader* snapshot, SnapshotManager* manager,
              RouterOptions options);

  /// The engine serving right now: the fixed engine, or the manager's
  /// current generation (null engine before the first load).
  EnginePin Pin() const;

  SnapshotManager* manager_ = nullptr;        // hot-swap mode
  std::unique_ptr<QueryEngine> fixed_engine_;  // single-snapshot mode
  RouterOptions options_;
  /// Declared last: built after the engine source it resolves through, and
  /// destroyed first, so its drain still resolves engines.
  Batcher batcher_;
};

}  // namespace semdrift

#endif  // SEMDRIFT_NET_ROUTER_H_
