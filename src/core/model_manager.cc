#include "core/model_manager.h"

#include <chrono>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "core/feature.h"
#include "io/poi_io.h"
#include "io/road_network_io.h"
#include "io/trajectory_io.h"

namespace stmaker {

namespace {

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

ModelManager::ModelManager(const ModelManagerOptions& options)
    : options_(options),
      c_reloads_ok_(MetricsRegistry::Global().counter("model.reloads_ok")),
      c_reload_failures_(
          MetricsRegistry::Global().counter("model.reload_failures")),
      g_version_(MetricsRegistry::Global().gauge("model.version")),
      g_loaded_unix_ms_(
          MetricsRegistry::Global().gauge("model.loaded_unix_ms")),
      h_reload_ms_(MetricsRegistry::Global().histogram("model.reload_ms")) {}

ModelManager::~ModelManager() {
  shutting_down_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (reloader_.joinable()) reloader_.join();
  // Whatever is still queued never ran; its callers must not hang.
  std::deque<PendingReload> leftovers;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftovers.swap(queue_);
  }
  const uint64_t version = current_ == nullptr ? 0 : current_->version;
  for (PendingReload& pending : leftovers) {
    if (pending.done) {
      pending.done(Status::Cancelled("model manager shutting down"), version);
    }
  }
}

Status ModelManager::Initialize() {
  std::lock_guard<std::mutex> lock(reload_mu_);
  if (current_ != nullptr) {
    return Status::FailedPrecondition("model manager already initialized");
  }
  std::shared_ptr<const ModelSnapshot> displaced;  // none: first publish
  Status loaded = ReloadLocked(options_.model_prefix, &displaced);
  if (!loaded.ok()) return loaded;
  reloader_ = std::thread([this] { ReloaderMain(); });
  return Status::OK();
}

std::shared_ptr<const ModelSnapshot> ModelManager::Current() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

std::shared_ptr<const ModelSnapshot> ModelManager::Publish(
    std::shared_ptr<const ModelSnapshot> snapshot) {
  g_version_.Set(static_cast<int64_t>(snapshot->version));
  g_loaded_unix_ms_.Set(snapshot->loaded_unix_ms);
  std::lock_guard<std::mutex> lock(current_mu_);
  current_.swap(snapshot);
  // `snapshot` now holds the displaced model. It is handed back rather
  // than dropped here: when no request pins it, its destructor would run
  // under current_mu_ and stall every Current() caller.
  return snapshot;
}

Result<std::shared_ptr<const ModelSnapshot>> ModelManager::LoadSnapshot(
    const std::string& model_prefix, uint64_t version) {
  const auto start = std::chrono::steady_clock::now();
  // Chaos/robustness seam: lets tests fail a (re)load before any real I/O,
  // proving the rollback path without staging corrupt files.
  STMAKER_FAILPOINT("model/reload", {
    return Status::IoError("injected model/reload fault");
  });

  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->version = version;
  snapshot->model_prefix = model_prefix;

  const bool from_container = !model_prefix.empty();
  if (from_container) {
    // Model container: one mmap carries the world, the serving corpus, and
    // the model; data_dir is never read. The snapshot pins the mapping
    // (see ModelSnapshot::container) and the network's hot arrays alias it
    // zero-copy; everything else is validated and copied out before
    // publish (parse-then-commit), so any error — corruption, a
    // failpoint-injected fault mid-load — surfaces here with the candidate
    // snapshot still unpublished.
    STMAKER_ASSIGN_OR_RETURN(snapshot->container,
                             MappedContainer::Open(model_prefix));
    STMAKER_ASSIGN_OR_RETURN(snapshot->network,
                             LoadNetworkFromContainer(*snapshot->container));
    STMAKER_ASSIGN_OR_RETURN(
        LandmarkIndex landmarks,
        LoadLandmarksFromContainer(*snapshot->container, snapshot->network));
    snapshot->landmarks =
        std::make_unique<LandmarkIndex>(std::move(landmarks));
    STMAKER_ASSIGN_OR_RETURN(
        snapshot->trajectories,
        LoadTrajectoriesFromContainer(*snapshot->container));
  } else {
    // Trained in-process from the dataset directory. The world is loaded
    // fresh per snapshot — sharing a mutable landmark index across model
    // versions is exactly the torn state this class exists to prevent
    // (Train writes significances into the index it is given).
    STMAKER_ASSIGN_OR_RETURN(
        snapshot->network, ReadRoadNetworkCsv(options_.data_dir + "/network"));
    STMAKER_ASSIGN_OR_RETURN(std::vector<RawPoi> pois,
                             ReadPoisCsv(options_.data_dir + "/pois.csv"));
    snapshot->landmarks = std::make_unique<LandmarkIndex>(
        LandmarkIndex::Build(snapshot->network, pois));
    STMAKER_ASSIGN_OR_RETURN(
        snapshot->trajectories,
        ReadTrajectoriesCsv(options_.data_dir + "/trajectories.csv"));
  }

  snapshot->maker = std::make_unique<STMaker>(
      &snapshot->network, snapshot->landmarks.get(),
      FeatureRegistry::BuiltIn(), options_.maker);
  if (from_container) {
    // The hierarchy is the one the container carries, if any: a container
    // load stays bounded by file I/O and never contracts.
    STMAKER_RETURN_IF_ERROR(
        snapshot->maker->LoadModelContainer(*snapshot->container));
  } else {
    STMAKER_RETURN_IF_ERROR(snapshot->maker->Train(snapshot->trajectories));
    STMAKER_RETURN_IF_ERROR(snapshot->maker->BuildRoadHierarchy());
  }

  snapshot->loaded_unix_ms = NowUnixMs();
  snapshot->load_ms = MsSince(start);
  return std::shared_ptr<const ModelSnapshot>(std::move(snapshot));
}

Status ModelManager::ReloadLocked(
    const std::string& model_prefix,
    std::shared_ptr<const ModelSnapshot>* displaced) {
  const bool for_reload = current_ != nullptr;
  const std::string prefix =
      model_prefix.empty() && for_reload ? current_->model_prefix
                                         : model_prefix;
  const uint64_t version =
      next_version_.fetch_add(1, std::memory_order_relaxed);
  Result<std::shared_ptr<const ModelSnapshot>> candidate =
      LoadSnapshot(prefix, version);
  if (candidate.ok() && for_reload &&
      current_->maker->has_road_hierarchy() &&
      !(*candidate)->maker->has_road_hierarchy()) {
    // Hierarchy-regression policy: the serving snapshot's hierarchy still
    // works, so a reload must not silently downgrade routing to Dijkstra.
    candidate = Status::FailedPrecondition(
        "reload rejected: model '" + prefix +
        "' has no usable routing hierarchy (ch-rank/ch-arcs sections "
        "missing or damaged) and the serving snapshot has one; keeping the "
        "current snapshot");
  }
  if (!candidate.ok()) {
    if (for_reload) {
      c_reload_failures_.Increment();
      std::fprintf(stderr,
                   "stmaker: model reload to '%s' failed, keeping snapshot "
                   "v%llu: %s\n",
                   prefix.c_str(),
                   static_cast<unsigned long long>(
                       current_ == nullptr ? 0 : current_->version),
                   candidate.status().ToString().c_str());
    }
    return candidate.status();
  }
  if (for_reload) {
    c_reloads_ok_.Increment();
    h_reload_ms_.Observe((*candidate)->load_ms);
    std::fprintf(stderr,
                 "stmaker: model reloaded from '%s' as v%llu in %.0f ms\n",
                 prefix.c_str(),
                 static_cast<unsigned long long>((*candidate)->version),
                 (*candidate)->load_ms);
  }
  *displaced = Publish(*std::move(candidate));
  return Status::OK();
}

Status ModelManager::Reload(const std::string& model_prefix) {
  // Outlives ReloadKeeping's lock: the displaced snapshot is destroyed
  // after reload_mu_ is released, on the way out.
  std::shared_ptr<const ModelSnapshot> displaced;
  return ReloadKeeping(model_prefix, &displaced);
}

Status ModelManager::ReloadKeeping(
    const std::string& model_prefix,
    std::shared_ptr<const ModelSnapshot>* displaced) {
  std::lock_guard<std::mutex> lock(reload_mu_);
  if (current_ == nullptr) {
    return Status::FailedPrecondition("model manager not initialized");
  }
  return ReloadLocked(model_prefix, displaced);
}

void ModelManager::RequestReload(std::string model_prefix,
                                 ReloadCallback done) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (!shutting_down_.load(std::memory_order_acquire) &&
        queue_.size() < kMaxQueuedReloads) {
      queue_.push_back({std::move(model_prefix), std::move(done)});
      queue_cv_.notify_all();
      return;
    }
  }
  if (done) {
    Status rejected =
        shutting_down_.load(std::memory_order_acquire)
            ? Status::Cancelled("model manager shutting down")
            : Status::ResourceExhausted(
                  StrFormat("reload queue full (%zu pending)",
                            kMaxQueuedReloads));
    auto current = Current();
    done(rejected, current == nullptr ? 0 : current->version);
  }
}

void ModelManager::NotifySighup() {
  sighup_pending_.store(true, std::memory_order_release);
  // No notify: condvars are not async-signal-safe. The reloader polls the
  // flag on its 50 ms tick.
}

void ModelManager::WaitIdle() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [this] {
    return queue_.empty() && !reload_running_ &&
           !sighup_pending_.load(std::memory_order_acquire);
  });
}

void ModelManager::ReloaderMain() {
  for (;;) {
    PendingReload pending;
    bool have_request = false;
    bool have_sighup = false;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait_for(lock, std::chrono::milliseconds(50), [this] {
        return !queue_.empty() ||
               shutting_down_.load(std::memory_order_acquire);
      });
      if (shutting_down_.load(std::memory_order_acquire)) return;
      // SIGHUP coalescing: however many signals arrived, one in-place
      // reload answers them all. Cleared before the reload runs so a
      // signal arriving *during* it is honored by a fresh pass.
      have_sighup = sighup_pending_.exchange(false, std::memory_order_acq_rel);
      if (!queue_.empty()) {
        pending = std::move(queue_.front());
        queue_.pop_front();
        have_request = true;
      }
      if (!have_request && !have_sighup) continue;
      reload_running_ = true;
    }
    if (have_sighup && !have_request) {
      (void)Reload("");  // outcome lands in the counters + stderr log
    } else if (have_request) {
      // The displaced snapshot outlives the reply: tearing it down is not
      // part of the reload the caller waits for.
      std::shared_ptr<const ModelSnapshot> displaced;
      Status outcome = ReloadKeeping(pending.model_prefix, &displaced);
      if (pending.done) {
        auto current = Current();
        pending.done(outcome, current == nullptr ? 0 : current->version);
      }
      displaced.reset();
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      reload_running_ = false;
    }
    queue_cv_.notify_all();
  }
}

}  // namespace stmaker
