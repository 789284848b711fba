#ifndef STMAKER_CORE_MODEL_MANAGER_H_
#define STMAKER_CORE_MODEL_MANAGER_H_

/// \file
/// \brief Zero-downtime model lifecycle: versioned snapshots behind an
/// atomic swap, with rollback on any load failure.
///
/// A ModelSnapshot is an immutable, version-stamped bundle of everything a
/// request needs: the road network (CSR), the landmark index, the serving
/// corpus, and a trained STMaker (which carries the CH hierarchy, feature
/// map, and calibration/popular-route caches). Snapshots are built off to
/// the side on a background thread — parse-then-commit, reusing the
/// per-section CRC validation of LoadModelContainer — and published with
/// one shared_ptr swap. Every in-flight request pins the snapshot it started
/// on, so a response is never served from a half-loaded or mixed-version
/// model and a swap frees the old snapshot only after its last request
/// finishes. When nothing pins it, the reloader frees it after the swap's
/// lock is released and after the reload's reply, so neither readers nor
/// the admin caller wait on its teardown.
///
/// Reload triggers (both funnel into one serialized reloader thread):
///   - SIGHUP: the signal handler calls NotifySighup() (async-signal-safe,
///     one atomic store); floods coalesce into a single in-place reload.
///   - The serve protocol's admin verb {"reload": 1, "model_dir": "..."}:
///     RequestReload() enqueues FIFO and the callback fires with the
///     outcome when that reload actually ran — so back-to-back reloads
///     never interleave and the final state is the last request's.
///
/// Routing hierarchy, one rule for every load: a container snapshot uses
/// the hierarchy the container carries and never contracts one (absent or
/// damaged means Dijkstra); a snapshot trained in-process contracts one
/// after every Train, first load and reload alike.
///
/// Rollback state machine (DESIGN.md §15): a reload that fails for any
/// reason — a missing file, a CRC mismatch, a failpoint-injected fault
/// mid-load, or a hierarchy regression (the serving snapshot routes on a
/// hierarchy and the candidate has none) — leaves the current snapshot
/// serving untouched, increments `model.reload_failures`, and reports the
/// error to the caller. There is no intermediate state visible to
/// requests: Current() returns the old snapshot until the instant the new
/// one is complete.
///
/// Metrics (global registry): model.version and model.loaded_unix_ms
/// (gauges), model.reloads_ok and model.reload_failures (counters),
/// model.reload_ms (histogram of successful reload wall time).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/stmaker.h"
#include "io/container.h"
#include "landmark/landmark_index.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace stmaker {

/// \brief One immutable, version-stamped serving model. Never mutated
/// after Build; shared by every request pinned to it and destroyed when
/// the last pin drops.
struct ModelSnapshot {
  /// Monotonically increasing per manager, starting at 1.
  uint64_t version = 0;
  /// Model container path; empty when the snapshot was trained in-process.
  std::string model_prefix;
  /// Wall-clock publish time (ms since the Unix epoch).
  int64_t loaded_unix_ms = 0;
  /// Wall time the load took (world read + model parse + commit).
  double load_ms = 0;

  /// The mapped model container when the snapshot was loaded from one
  /// (null for trained snapshots). The network's hot arrays alias this
  /// mapping zero-copy, so it is declared *before* `network`: members
  /// destroy in reverse declaration order, guaranteeing the network (and
  /// every request pinning this snapshot) dies before the mapping is
  /// unmapped. Swap/rollback semantics are unchanged — the mapping is just
  /// one more resource the snapshot pin keeps alive.
  std::shared_ptr<MappedContainer> container;
  RoadNetwork network;
  std::unique_ptr<LandmarkIndex> landmarks;
  /// The serving corpus backing the protocol's "trip" field (copied out
  /// of the container's corpus sections, or read from trajectories.csv
  /// for a trained snapshot).
  std::vector<RawTrajectory> trajectories;
  std::unique_ptr<STMaker> maker;
};

/// Configuration for the manager's snapshot loads.
struct ModelManagerOptions {
  /// Dataset directory (network CSVs, pois.csv, trajectories.csv); read
  /// only when the model is trained in-process.
  std::string data_dir;
  /// Model container path (a `.stm` written by `stmaker_cli train`); empty
  /// trains in-process from the corpus.
  std::string model_prefix;
  /// Forwarded to every snapshot's STMaker.
  STMakerOptions maker;
};

/// See the file comment. All public methods are thread-safe; NotifySighup
/// is additionally async-signal-safe.
class ModelManager {
 public:
  /// Outcome delivery for RequestReload: the final Status and the version
  /// serving after the attempt (the new version on success, the surviving
  /// one on rollback). Invoked on the reloader thread, exactly once.
  using ReloadCallback = std::function<void(const Status&, uint64_t version)>;

  /// Bound of the RequestReload FIFO.
  static constexpr size_t kMaxQueuedReloads = 8;

  explicit ModelManager(const ModelManagerOptions& options);

  /// Stops the reloader thread. Reload requests still queued (or arriving
  /// during shutdown) fail with kCancelled through their callbacks.
  ~ModelManager();

  ModelManager(const ModelManager&) = delete;
  ModelManager& operator=(const ModelManager&) = delete;

  /// Synchronous first load; publishes snapshot v1 and starts the
  /// reloader thread. Must succeed before Current() is used.
  Status Initialize();

  /// The serving snapshot (never null after a successful Initialize).
  /// Requests must call this once at admission and keep the returned
  /// pointer for their whole lifetime — that pin is what makes the swap
  /// safe.
  std::shared_ptr<const ModelSnapshot> Current() const;

  /// Synchronous reload, serialized against every other reload. Loads a
  /// complete candidate snapshot off to the side (empty `model_prefix`
  /// re-uses the current snapshot's source), then swaps. On any failure
  /// the current snapshot keeps serving and `model.reload_failures` is
  /// incremented. A candidate without a hierarchy, while the serving
  /// snapshot has one, is a *failed* reload (kFailedPrecondition): a
  /// working hierarchy is never traded for a silent Dijkstra downgrade.
  Status Reload(const std::string& model_prefix = "");

  /// Enqueues a reload for the reloader thread (FIFO; never interleaves
  /// with another reload) and returns immediately. `done` may be null;
  /// it runs before the displaced snapshot is released. At most
  /// kMaxQueuedReloads wait; excess requests fail fast with
  /// kResourceExhausted instead of backing drain up without bound.
  void RequestReload(std::string model_prefix, ReloadCallback done);

  /// Marks a SIGHUP-triggered in-place reload pending. Async-signal-safe:
  /// one relaxed atomic store, no locks, no allocation. Bursts coalesce
  /// into a single reload, picked up by the reloader within ~50 ms.
  void NotifySighup();

  /// Blocks until the reload queue is empty and no reload is running
  /// (including a pending SIGHUP). Test/shutdown aid.
  void WaitIdle();

  uint64_t reloads_ok() const { return c_reloads_ok_.value(); }
  uint64_t reload_failures() const { return c_reload_failures_.value(); }

 private:
  struct PendingReload {
    std::string model_prefix;
    ReloadCallback done;
  };

  /// Builds a complete snapshot from disk (or in-process training). Pure:
  /// touches no manager state besides options, so a failure leaves
  /// nothing to roll back.
  Result<std::shared_ptr<const ModelSnapshot>> LoadSnapshot(
      const std::string& model_prefix, uint64_t version);

  /// The serialized body shared by Initialize/Reload: load, then publish
  /// or roll back (a reload is any load after the first publish). Caller
  /// must hold reload_mu_. On success `*displaced` receives the snapshot
  /// that stopped serving, for the caller to drop once its locks are
  /// released.
  Status ReloadLocked(const std::string& model_prefix,
                      std::shared_ptr<const ModelSnapshot>* displaced);

  /// Reload() that hands the displaced snapshot to the caller instead of
  /// destroying it, so the queued path can reply first.
  Status ReloadKeeping(const std::string& model_prefix,
                       std::shared_ptr<const ModelSnapshot>* displaced);

  /// Swaps `snapshot` in under current_mu_ and returns the one it
  /// displaced (null on the first publish).
  std::shared_ptr<const ModelSnapshot> Publish(
      std::shared_ptr<const ModelSnapshot> snapshot);
  void ReloaderMain();

  ModelManagerOptions options_;

  /// Serializes loads: at most one candidate snapshot is ever under
  /// construction, so back-to-back reloads cannot interleave.
  std::mutex reload_mu_;

  mutable std::mutex current_mu_;  ///< guards the current_ swap/read
  std::shared_ptr<const ModelSnapshot> current_;
  std::atomic<uint64_t> next_version_{1};

  Counter& c_reloads_ok_;
  Counter& c_reload_failures_;
  Gauge& g_version_;
  Gauge& g_loaded_unix_ms_;
  Histogram& h_reload_ms_;

  std::atomic<bool> sighup_pending_{false};
  std::atomic<bool> shutting_down_{false};

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;   ///< reloader wakeup + WaitIdle
  std::deque<PendingReload> queue_;    ///< FIFO admin reload requests
  bool reload_running_ = false;        ///< a dequeued reload is executing
  std::thread reloader_;
};

}  // namespace stmaker

#endif  // STMAKER_CORE_MODEL_MANAGER_H_
