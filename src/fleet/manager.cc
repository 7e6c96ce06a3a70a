#include "fleet/manager.h"

#include <fstream>
#include <iterator>
#include <utility>

namespace hod::fleet {

namespace {

/// A plant's full board contribution: process episodes plus the
/// calibration queue (suspected sensor faults). The fleet board shows
/// both — a quarantined line is exactly what a fleet operator must see —
/// with the `suspected_measurement_error` flag telling the two apart.
std::vector<core::AlertEpisode> PlantEpisodes(
    const stream::StreamEngine& engine) {
  std::vector<core::AlertEpisode> episodes = engine.Episodes();
  std::vector<core::AlertEpisode> calibration = engine.CalibrationQueue();
  episodes.insert(episodes.end(),
                  std::make_move_iterator(calibration.begin()),
                  std::make_move_iterator(calibration.end()));
  return episodes;
}

std::string SanitizeForFilename(const std::string& plant_id) {
  std::string out;
  out.reserve(plant_id.size());
  for (const char c : plant_id) {
    const bool safe = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    out.push_back(safe ? c : '_');
  }
  return out;
}

}  // namespace

FleetManager::FleetManager(FleetManagerOptions options)
    : options_(std::move(options)), router_(options_.router_slots) {
  if (options_.executor != nullptr) {
    pool_ = options_.executor;
  } else {
    util::ThreadPoolOptions pool_options;
    pool_options.num_threads = options_.pool_threads;
    pool_options.service_threads = options_.service_threads;
    owned_pool_ = std::make_unique<util::ThreadPool>(pool_options);
    pool_ = owned_pool_.get();
  }
  if (options_.enable_serving) {
    serving_ = std::make_unique<serve::FleetHub>(options_.serving);
  }
}

FleetManager::~FleetManager() {
  // Engines quiesce their pooled tasks before the owned pool (destroyed
  // after this body) shuts down — the ThreadPool lifetime contract.
  (void)Stop();
}

stream::StreamEngineOptions FleetManager::BuildEngineOptions(
    const std::string& plant_id) const {
  stream::StreamEngineOptions engine = options_.engine;
  engine.executor = pool_;
  engine.checkpoint_path = CheckpointPathFor(plant_id);
  engine.checkpoint_interval = engine.checkpoint_path.empty()
                                   ? std::chrono::milliseconds(0)
                                   : options_.checkpoint_interval;
  engine.checkpoint_phase = CheckpointPhaseOf(plant_id);
  if (serving_ != nullptr) {
    // One hub per plant; re-adding after RestorePlant reuses the existing
    // hub, whose sequence-regression guard keyframes the resync.
    serve::SnapshotHub* hub = serving_->AddPlant(plant_id);
    engine.snapshot_sink = [hub](const stream::EngineSnapshot& snapshot) {
      hub->Publish(snapshot);
    };
  }
  return engine;
}

std::chrono::milliseconds FleetManager::CheckpointPhaseOf(
    const std::string& plant_id) const {
  if (options_.checkpoint_interval.count() <= 0) {
    return std::chrono::milliseconds(0);
  }
  const size_t slots =
      options_.checkpoint_stagger_slots == 0 ? 1
                                             : options_.checkpoint_stagger_slots;
  const uint64_t slot = stream::StableHash64(plant_id) % slots;
  // Phase 0 would collapse onto "one full interval" (the engine's
  // unstaggered default), which is exactly what slot `slots` would give —
  // so the slot space maps to (0, interval] evenly.
  return std::chrono::milliseconds(
      (static_cast<uint64_t>(options_.checkpoint_interval.count()) *
       (slot + 1)) /
      slots);
}

std::string FleetManager::CheckpointPathFor(const std::string& plant_id) const {
  if (options_.checkpoint_dir.empty()) return {};
  return options_.checkpoint_dir + "/" + SanitizeForFilename(plant_id) +
         ".ckpt";
}

Status FleetManager::AddPlant(const std::string& plant_id,
                              const std::vector<PlantSensorSpec>& sensors) {
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fleet already stopped");
  }
  if (sensors.empty()) {
    return Status::InvalidArgument("plant needs at least one sensor: " +
                                   plant_id);
  }
  std::lock_guard<std::mutex> lock(admin_mu_);
  if (router_.Resolve(plant_id) != nullptr) {
    return Status::InvalidArgument("plant already routed: " + plant_id);
  }
  auto handle = std::make_shared<PlantHandle>();
  handle->plant_id = plant_id;
  handle->placement = router_.Place(plant_id);
  handle->engine =
      std::make_unique<stream::StreamEngine>(BuildEngineOptions(plant_id));
  for (const PlantSensorSpec& sensor : sensors) {
    HOD_RETURN_IF_ERROR(
        handle->engine->AddSensor(sensor.sensor_id, sensor.level,
                                  sensor.policy));
  }
  HOD_RETURN_IF_ERROR(handle->engine->Start());
  // A re-added id starts a new line; its predecessor's archived episodes
  // must not shadow the fresh board.
  board_.ForgetPlant(plant_id);
  return router_.Add(plant_id, std::move(handle));
}

Status FleetManager::RestorePlant(const std::string& plant_id) {
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("fleet already stopped");
  }
  const std::string path = CheckpointPathFor(plant_id);
  if (path.empty()) {
    return Status::FailedPrecondition(
        "fleet checkpointing is off (no checkpoint_dir)");
  }
  std::lock_guard<std::mutex> lock(admin_mu_);
  if (router_.Resolve(plant_id) != nullptr) {
    return Status::InvalidArgument("plant already routed: " + plant_id);
  }
  std::string image;
  {
    std::ifstream is(path, std::ios::binary | std::ios::ate);
    if (!is) {
      return Status::NotFound("no checkpoint for plant: " + path);
    }
    // One read of the whole image; the engine parses the span.
    const std::streamoff size = is.tellg();
    if (size < 0) return Status::InvalidArgument("cannot size: " + path);
    image.resize(static_cast<size_t>(size));
    is.seekg(0);
    if (!is.read(image.data(), size)) {
      return Status::InvalidArgument("cannot read checkpoint: " + path);
    }
  }
  auto handle = std::make_shared<PlantHandle>();
  handle->plant_id = plant_id;
  handle->placement = router_.Place(plant_id);
  HOD_ASSIGN_OR_RETURN(
      handle->engine,
      stream::StreamEngine::Restore(std::move(image),
                                    BuildEngineOptions(plant_id)));
  board_.ForgetPlant(plant_id);
  return router_.Add(plant_id, std::move(handle));
}

Status FleetManager::RemovePlant(const std::string& plant_id) {
  std::lock_guard<std::mutex> lock(admin_mu_);
  return RemovePlantLocked(plant_id);
}

Status FleetManager::RemovePlantLocked(const std::string& plant_id) {
  std::shared_ptr<PlantHandle> handle = router_.Remove(plant_id);
  if (handle == nullptr) {
    return Status::NotFound("no such plant: " + plant_id);
  }
  // Drain-on-remove: new samples stopped resolving above; settle what was
  // already accepted, then freeze the board and the counters. Episodes
  // are archived (still visible, flagged historical) and the final stats
  // fold into `retired` so the fleet aggregate never loses the plant's
  // history.
  (void)handle->engine->Flush();  // best-effort: engine may already be stopped
  (void)handle->engine->Stop();
  board_.ArchivePlant(plant_id, PlantEpisodes(*handle->engine));
  {
    std::lock_guard<std::mutex> retired_lock(retired_mu_);
    retired_ += handle->engine->stats();
    ++removed_plants_;
  }
  // The engine above is stopped, so its sink can no longer fire; the
  // plant's hub (and any reader still holding a Subscription into it)
  // goes away with it.
  if (serving_ != nullptr) serving_->RemovePlant(plant_id);
  return Status::Ok();
}

StatusOr<stream::IngestAck> FleetManager::Ingest(
    const std::string& plant_id, const stream::SensorSample& sample) {
  std::shared_ptr<PlantHandle> handle = router_.Resolve(plant_id);
  if (handle == nullptr) {
    return Status::NotFound("no such plant: " + plant_id);
  }
  return handle->engine->Ingest(sample);
}

Status FleetManager::FlushPlant(const std::string& plant_id) {
  std::shared_ptr<PlantHandle> handle = router_.Resolve(plant_id);
  if (handle == nullptr) {
    return Status::NotFound("no such plant: " + plant_id);
  }
  return handle->engine->Flush();
}

Status FleetManager::Flush() {
  for (const auto& handle : router_.Handles()) {
    HOD_RETURN_IF_ERROR(handle->engine->Flush());
  }
  return Status::Ok();
}

Status FleetManager::CheckpointPlant(const std::string& plant_id) {
  const std::string path = CheckpointPathFor(plant_id);
  if (path.empty()) {
    return Status::FailedPrecondition(
        "fleet checkpointing is off (no checkpoint_dir)");
  }
  std::shared_ptr<PlantHandle> handle = router_.Resolve(plant_id);
  if (handle == nullptr) {
    return Status::NotFound("no such plant: " + plant_id);
  }
  return handle->engine->CheckpointToFile(path);
}

Status FleetManager::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(admin_mu_);
  // Handles stay routed: a stopped fleet still answers Stats() and
  // AlertBoard() from the engines' final state.
  for (const auto& handle : router_.Handles()) {
    (void)handle->engine->Stop();
  }
  return Status::Ok();
}

FleetStatsSnapshot FleetManager::Stats() const {
  FleetStatsSnapshot snapshot;
  for (const auto& handle : router_.Handles()) {
    PlantStats plant;
    plant.plant_id = handle->plant_id;
    plant.placement = handle->placement;
    plant.stats = handle->engine->stats();
    snapshot.aggregate += plant.stats;
    snapshot.per_plant.push_back(std::move(plant));
    ++snapshot.plants;
  }
  {
    std::lock_guard<std::mutex> lock(retired_mu_);
    snapshot.retired = retired_;
    snapshot.removed_plants = removed_plants_;
  }
  snapshot.aggregate += snapshot.retired;
  return snapshot;
}

std::vector<FleetAlertRow> FleetManager::AlertBoard() {
  for (const auto& handle : router_.Handles()) {
    board_.UpdatePlant(handle->plant_id, PlantEpisodes(*handle->engine));
  }
  return board_.Board();
}

stream::EngineSnapshot FleetManager::PlantSnapshot(
    const std::string& plant_id) const {
  std::shared_ptr<PlantHandle> handle = router_.Resolve(plant_id);
  if (handle == nullptr) return {};
  return handle->engine->Snapshot();
}

stream::SensorHealthSnapshot FleetManager::PlantHealth(
    const std::string& plant_id) const {
  std::shared_ptr<PlantHandle> handle = router_.Resolve(plant_id);
  if (handle == nullptr) return {};
  return handle->engine->Health();
}

}  // namespace hod::fleet
