#include "stream/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "hierarchy/serialization.h"
#include "stream/checkpoint.h"
#include "util/thread_pool.h"

namespace hod::stream {

namespace {

size_t EffectiveShards(const StreamEngineOptions& options) {
  if (options.synchronous) return 1;  // one shard, scored inline
  return options.num_shards == 0 ? 1 : options.num_shards;
}

}  // namespace

ShardedScorerOptions StreamEngine::MakeScorerOptions(
    const StreamEngineOptions& options, StreamEngine* engine) {
  ShardedScorerOptions scorer;
  scorer.num_shards = EffectiveShards(options);
  scorer.queue_capacity = options.queue_capacity;
  scorer.max_batch = options.max_batch;
  scorer.backpressure = options.backpressure;
  scorer.block_timeout = options.block_timeout;
  // Synchronous mode never spawns producers; the hint is irrelevant there
  // but harmless (ScoreNow bypasses the queue entirely).
  scorer.producer_hint = options.producer_hint;
  scorer.monitor = options.monitor;
  scorer.forward_threshold = options.monitor.threshold;
  scorer.shift_enabled = options.shift.enabled;
  scorer.bocpd = options.shift.bocpd;
  scorer.worker_tick_hook = options.worker_tick_hook_for_test;
  if (!options.synchronous) {
    scorer.collector_notify = [engine] { engine->NotifyCollector(); };
  }
  return scorer;
}

StreamEngine::StreamEngine(StreamEngineOptions options)
    : options_(options),
      collector_queue_(options.collector_queue_capacity,
                       BackpressurePolicy::kBlock),
      router_(EffectiveShards(options), options.out_of_order_tolerance,
              &stats_),
      health_(options.health, &stats_),
      peers_(options.peer, &stats_),
      scorer_(MakeScorerOptions(options, this), &stats_, &collector_queue_,
              &health_, &peers_),
      checkpoint_gate_enabled_(!options.checkpoint_path.empty()),
      stalled_(EffectiveShards(options)) {
  for (auto& flag : stalled_) flag.store(0, std::memory_order_relaxed);
}

StreamEngine::~StreamEngine() { (void)Stop(); }

Status StreamEngine::AddSensor(const std::string& sensor_id,
                               hierarchy::ProductionLevel level,
                               std::optional<BackpressurePolicy> policy) {
  if (state_.load() != kConfiguring) {
    return Status::FailedPrecondition("engine already started");
  }
  HOD_RETURN_IF_ERROR(router_.AddSensor(sensor_id, level, policy));
  return health_.AddSensor(sensor_id, level);
}

Status StreamEngine::AddPeerGroup(const std::string& group_id,
                                  const std::vector<std::string>& members) {
  if (state_.load() != kConfiguring) {
    return Status::FailedPrecondition("engine already started");
  }
  for (const std::string& member : members) {
    if (!router_.Frontier(member).ok()) {
      return Status::NotFound("peer group member not registered: " + member);
    }
  }
  return peers_.AddGroup(group_id, members);
}

Status StreamEngine::AddPeerGroupsFromRegistry(
    const hierarchy::SensorRegistry& registry) {
  if (state_.load() != kConfiguring) {
    return Status::FailedPrecondition("engine already started");
  }
  std::map<std::string, std::vector<std::string>> groups;
  for (const std::string& id : registry.ids()) {
    auto info_or = registry.Get(id);
    if (!info_or.ok()) continue;
    const hierarchy::SensorInfo& info = info_or.value();
    if (info.redundancy_group.empty()) continue;
    if (!router_.Frontier(id).ok()) continue;  // registry-only sensor
    groups[info.redundancy_group].push_back(id);
  }
  for (const auto& [group_id, members] : groups) {
    if (members.size() < 2) continue;
    HOD_RETURN_IF_ERROR(peers_.AddGroup(group_id, members));
  }
  return Status::Ok();
}

Status StreamEngine::AddPeerGroupsFromConfiguration(
    const hierarchy::Production& production, double tolerance) {
  if (state_.load() != kConfiguring) {
    return Status::FailedPrecondition("engine already started");
  }
  for (const auto& [group_id, members] :
       ConfigurationCohorts(production, tolerance)) {
    std::vector<std::string> registered;
    registered.reserve(members.size());
    for (const std::string& member : members) {
      if (router_.Frontier(member).ok()) registered.push_back(member);
    }
    if (registered.size() < 2) continue;  // cohort collapsed to one sensor
    HOD_RETURN_IF_ERROR(peers_.AddGroup(group_id, registered));
  }
  return Status::Ok();
}

Status StreamEngine::PopulateScorer() {
  if (scorer_populated_) return Status::Ok();
  for (size_t shard = 0; shard < scorer_.num_shards(); ++shard) {
    for (const std::string& sensor_id : router_.SensorsForShard(shard)) {
      HOD_RETURN_IF_ERROR(scorer_.AddSensor(shard, sensor_id));
      if (options_.lane_cache) {
        // Lanes are append-only and never move, so resolving each id once
        // here lets Ingest hand the scorer a pre-resolved lane and skip
        // the per-sample hash lookup.
        const size_t lane = scorer_.LaneOf(shard, sensor_id);
        if (lane != core::BatchMonitorBank::kNotFound) {
          HOD_RETURN_IF_ERROR(
              router_.SetLane(sensor_id, static_cast<uint32_t>(lane)));
        }
      }
    }
  }
  scorer_populated_ = true;
  return Status::Ok();
}

Status StreamEngine::Start() {
  if (state_.load() != kConfiguring) {
    return Status::FailedPrecondition("engine already started");
  }
  if (router_.num_sensors() == 0) {
    return Status::FailedPrecondition("no sensors registered");
  }
  const bool periodic_checkpoint =
      checkpoint_gate_enabled_ && options_.checkpoint_interval.count() > 0;
  if (options_.synchronous && periodic_checkpoint) {
    return Status::InvalidArgument(
        "a synchronous engine starts no threads, so it cannot checkpoint "
        "periodically; set checkpoint_interval to 0 and call "
        "CheckpointToFile");
  }
  HOD_RETURN_IF_ERROR(PopulateScorer());
  if (!options_.synchronous) {
    // One runtime: the borrowed pool, or an owned one sized to the shards
    // (plus the service lane for the collector and the timer thread).
    pool_ = options_.executor;
    if (pool_ == nullptr) {
      owned_pool_ = std::make_unique<util::ThreadPool>(
          util::ThreadPoolOptions{scorer_.num_shards(), 1});
      pool_ = owned_pool_.get();
    }
    HOD_RETURN_IF_ERROR(scorer_.Start(*pool_));
    // The collector drains on the service lane when notified; the
    // watchdog and the periodic checkpoint run as pool timers.
    watchdog_last_heartbeat_.assign(scorer_.num_shards(), 0);
    if (options_.watchdog_interval.count() > 0) {
      watchdog_timer_id_ = pool_->ScheduleEvery(
          options_.watchdog_interval, options_.watchdog_interval,
          [this] { WatchdogTick(); });
    }
    if (periodic_checkpoint) {
      // First write fires after `checkpoint_phase` (stagger offset), then
      // every interval. Failures are counted in stats; the timer retries.
      const auto initial = options_.checkpoint_phase.count() > 0
                               ? options_.checkpoint_phase
                               : options_.checkpoint_interval;
      checkpoint_timer_id_ = pool_->ScheduleEvery(
          initial, options_.checkpoint_interval,
          [this] { (void)CheckpointToFile(options_.checkpoint_path); });
    }
  }
  state_.store(kRunning);
  return Status::Ok();
}

StatusOr<IngestAck> StreamEngine::Ingest(const SensorSample& sample) {
  if (state_.load() != kRunning) {
    return Status::FailedPrecondition("engine not running");
  }
  // Live checkpointing: hold the gate shared for the duration of the call
  // so CheckpointToFile (exclusive) observes a moment with no sample in
  // flight between the router and a shard queue. Engines that never
  // checkpoint skip the lock entirely.
  std::shared_lock<std::shared_mutex> gate;
  if (checkpoint_gate_enabled_) {
    gate = std::shared_lock<std::shared_mutex>(ingest_gate_);
  }
  auto route_or = router_.Route(sample);
  if (!route_or.ok()) {
    // Typed rejections are fault evidence: a sensor spewing NaNs or
    // regressed timestamps never reaches its scoring thread, so the FSM
    // must be driven from the ingest side.
    if (!std::isfinite(sample.value) || !std::isfinite(sample.ts)) {
      RecordIngestFault(sample, HealthSignal::kNonFinite);
    } else if (route_or.status().code() == StatusCode::kOutOfRange) {
      RecordIngestFault(sample, HealthSignal::kOutOfOrder);
    }
    if (options_.synchronous) DrainCollectorQueueSync();
    return route_or.status();
  }
  const RouteTarget target = route_or.value();
  IngestAck ack;
  if (options_.synchronous) {
    HOD_ASSIGN_OR_RETURN(
        InlineScore result,
        scorer_.ScoreNow(target.shard, sample,
                         options_.lane_cache ? target.lane : kNoLane));
    ack.enqueued = true;
    if (result.scored) ack.update = result.update;
    ++ingested_since_sweep_;
    if (options_.health_sweep_every > 0 &&
        ingested_since_sweep_ >= options_.health_sweep_every) {
      ingested_since_sweep_ = 0;
      for (const HealthTransition& transition : health_.SweepStale()) {
        PushHealthEvent(transition);
      }
    }
    // Drain whatever the scorer forwarded, inline.
    DrainCollectorQueueSync();
    return ack;
  }
  SensorSample routed = sample;
  if (options_.lane_cache) routed.lane = target.lane;
  HOD_RETURN_IF_ERROR(
      scorer_.Submit(target.shard, std::move(routed),
                     target.policy.value_or(options_.backpressure)));
  ack.enqueued = true;
  return ack;
}

Status StreamEngine::Flush() {
  const int state = state_.load();
  if (state == kStopped) return Status::Ok();
  if (state != kRunning) {
    return Status::FailedPrecondition("engine not running");
  }
  if (options_.synchronous) {
    PublishSnapshot();
    return Status::Ok();
  }
  HOD_RETURN_IF_ERROR(scorer_.Flush());
  std::unique_lock<std::mutex> lock(collector_mu_);
  collector_cv_.wait(lock, [&] {
    // Both terms only grow; health events (ingest faults, staleness
    // sweeps) are counted before their push, so the target is never
    // behind the queue's content.
    return collected_.load(std::memory_order_acquire) >=
           scorer_.forwarded() +
               health_events_pushed_.load(std::memory_order_acquire);
  });
  return Status::Ok();
}

Status StreamEngine::Stop() {
  const int state = state_.exchange(kStopped);
  if (state == kStopped) return Status::Ok();
  // Timers first, while the pipeline is still alive: an in-flight periodic
  // checkpoint holds the ingest gate and waits on the collector, so it
  // must complete before the pipeline is torn down. Cancel has join
  // semantics, so the timers are settled on return (a callback that
  // started after the state_ exchange above sees kStopped and returns
  // without touching the pipeline).
  for (uint64_t* timer : {&checkpoint_timer_id_, &watchdog_timer_id_}) {
    if (*timer == 0) continue;
    pool_->Cancel(*timer);
    *timer = 0;
  }
  if (state == kRunning && options_.synchronous) {
    DrainCollectorQueueSync();
  } else if (state == kRunning) {
    // Shards first: quiescing them guarantees every accepted sample has
    // been scored and every interesting one forwarded. Then arm the
    // collector once for the tail (Close leaves events poppable) and wait
    // for its task machinery to retire. A racing PushHealthEvent either
    // lands before it is drained (its own notify re-arms the task) or
    // fails on the closed queue and is undone.
    scorer_.Stop();
    collector_queue_.Close();
    NotifyCollector();
    // Wait under collector_mu_ so the last task's retirement (which also
    // happens under the lock) is ordered before this predicate observing
    // quiescence — otherwise the engine could be destroyed while the task
    // still notifies on collector_cv_. Every path that moves a term (a
    // drained batch, a retirement, a failed SubmitService's undo)
    // notifies under the lock. The acquire loads pair with the task's
    // release exits, so every collector-private write is visible after.
    std::unique_lock<std::mutex> lock(collector_mu_);
    collector_cv_.wait(lock, [&] {
      return collector_tasks_in_flight_.load(std::memory_order_acquire) ==
                 0 &&
             collector_task_state_.load(std::memory_order_acquire) ==
                 kCollectorIdle &&
             collector_queue_.size() == 0;
    });
  }
  if (state == kRunning) {
    FlushPendingFaults();
    IngestPendingFindings();
    PublishSnapshot();
  }
  if (owned_pool_ != nullptr) owned_pool_->Shutdown();
  stop_complete_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status StreamEngine::Checkpoint(std::ostream& os) const {
  const int state = state_.load();
  if (state == kConfiguring) {
    return Status::FailedPrecondition("engine never started");
  }
  if (state == kRunning && !options_.synchronous) {
    return Status::FailedPrecondition(
        "checkpoint requires a synchronous engine or a stopped one");
  }
  EngineCheckpoint checkpoint;
  HOD_RETURN_IF_ERROR(FillCheckpoint(checkpoint));
  const std::string image = EncodeImage(checkpoint);
  os.write(image.data(), static_cast<std::streamsize>(image.size()));
  if (!os.good()) return Status::Internal("checkpoint stream write failed");
  return Status::Ok();
}

std::string StreamEngine::EncodeImage(
    const EngineCheckpoint& checkpoint) const {
  // Reserve from the previous image (with a little headroom for growth);
  // before any image the writer grows as it goes.
  hierarchy::bin::ByteWriter image;
  const size_t last_bytes = last_image_bytes_.load(std::memory_order_relaxed);
  image.Reserve(last_bytes + last_bytes / 16);
  WriteEngineCheckpoint(checkpoint, image);
  last_image_bytes_.store(image.size(), std::memory_order_relaxed);
  return image.Release();
}

Status StreamEngine::CheckpointToFile(const std::string& path) {
  const int state = state_.load();
  if (state == kConfiguring) {
    return Status::FailedPrecondition("engine never started");
  }
  EngineCheckpoint checkpoint;
  if (state == kRunning && !options_.synchronous) {
    if (!checkpoint_gate_enabled_) {
      return Status::FailedPrecondition(
          "live checkpointing requires options.checkpoint_path (the ingest "
          "gate is armed at construction)");
    }
    // Quiesce: block new producers, drain everything already accepted
    // through the scorer and the collector, then serialize. The collector
    // keeps running — its release fetch_add on collected_ is the
    // happens-before edge that makes reading its private state safe here.
    std::unique_lock<std::shared_mutex> gate(ingest_gate_);
    if (state_.load() != kRunning) {
      return Status::FailedPrecondition("engine is stopping");
    }
    HOD_RETURN_IF_ERROR(scorer_.Flush());
    {
      std::unique_lock<std::mutex> lock(collector_mu_);
      collector_cv_.wait(lock, [&] {
        return collected_.load(std::memory_order_acquire) >=
               scorer_.forwarded() +
                   health_events_pushed_.load(std::memory_order_acquire);
      });
    }
    HOD_RETURN_IF_ERROR(FillCheckpoint(checkpoint));
  } else if (state == kRunning) {
    // Synchronous engine: the gate serializes against an Ingest on another
    // thread (armed by checkpoint_path, like the threaded gate).
    std::unique_lock<std::shared_mutex> gate(ingest_gate_);
    HOD_RETURN_IF_ERROR(FillCheckpoint(checkpoint));
  } else {
    if (!stop_complete_.load(std::memory_order_acquire)) {
      // Stop() raced us and has not finished draining yet.
      return Status::FailedPrecondition("engine is stopping");
    }
    HOD_RETURN_IF_ERROR(FillCheckpoint(checkpoint));
  }

  // Serialize into one buffer, then publish crash-safely: one write
  // beside the target and a rename over it, so readers only ever see a
  // complete checkpoint.
  const std::string image = EncodeImage(checkpoint);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      stats_.Add(Counter::checkpoint_failures);
      return Status::InvalidArgument("cannot open checkpoint file: " + tmp);
    }
    os.write(image.data(), static_cast<std::streamsize>(image.size()));
    os.flush();
    if (!os.good()) {
      stats_.Add(Counter::checkpoint_failures);
      return Status::InvalidArgument("checkpoint write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    stats_.Add(Counter::checkpoint_failures);
    return Status::InvalidArgument("cannot rename checkpoint into place: " +
                                   path);
  }
  stats_.Add(Counter::checkpoints_written);
  return Status::Ok();
}

void StreamEngine::ReportEscalation(
    const EscalationRunStats& run,
    const std::vector<core::OutlierFinding>& findings) {
  if (!findings.empty()) {
    std::lock_guard<std::mutex> lock(alerts_mu_);
    alerts_.IngestBatch(findings);
  }
  stats_.Add(Counter::escalation_runs);
  stats_.Add(Counter::escalation_entities, run.entities);
  stats_.Add(Counter::escalation_findings, run.findings);
  stats_.Add(Counter::escalation_unresolved, run.unresolved);
  stats_.Add(Counter::escalation_cache_hits, run.cache_hits);
  stats_.Add(Counter::escalation_cache_misses, run.cache_misses);
  stats_.Add(Counter::escalation_latency_us, run.latency_us);
}

Status StreamEngine::FillCheckpoint(EngineCheckpoint& checkpoint) const {
  checkpoint.monitor = options_.monitor;
  checkpoint.out_of_order_tolerance = options_.out_of_order_tolerance;
  checkpoint.shift_enabled = options_.shift.enabled;
  checkpoint.bocpd = options_.shift.bocpd;

  std::map<std::string, SensorHealthStatus> health_by_id;
  for (SensorHealthStatus& status : health_.SaveState()) {
    health_by_id[status.sensor_id] = std::move(status);
  }
  for (const RegisteredSensor& registered : router_.Sensors()) {
    EngineCheckpoint::SensorState sensor;
    sensor.sensor_id = registered.sensor_id;
    sensor.level = registered.level;
    sensor.has_policy = registered.policy.has_value();
    sensor.policy = registered.policy.value_or(BackpressurePolicy::kBlock);
    sensor.frontier = registered.frontier;
    auto health_it = health_by_id.find(registered.sensor_id);
    if (health_it != health_by_id.end()) {
      sensor.health = health_it->second;
    } else {
      sensor.health.sensor_id = registered.sensor_id;
      sensor.health.level = registered.level;
    }
    HOD_ASSIGN_OR_RETURN(sensor.monitor,
                         scorer_.SaveMonitorQuiesced(registered.sensor_id));
    if (options_.shift.enabled) {
      HOD_ASSIGN_OR_RETURN(sensor.bocpd,
                           scorer_.SaveBocpdQuiesced(registered.sensor_id));
      sensor.has_bocpd = true;
    }
    checkpoint.sensors.push_back(std::move(sensor));
  }

  checkpoint.levels = levels_;
  for (const auto& [id, alarm] : active_alarms_) {
    checkpoint.active_alarms.push_back(alarm);
  }
  for (const auto& [id, sensor] : quarantined_) {
    checkpoint.quarantined.push_back(sensor);
  }
  checkpoint.events_seen = events_seen_;
  checkpoint.events_at_last_snapshot = events_at_last_snapshot_;
  checkpoint.next_sequence = next_sequence_;

  checkpoint.peer_groups = peers_.SaveState();
  checkpoint.pending_faults.assign(pending_faults_.begin(),
                                   pending_faults_.end());
  checkpoint.outage_active = outage_.has_value();
  if (outage_.has_value()) {
    checkpoint.outage_since = outage_->since;
    checkpoint.outage_members.assign(outage_->members.begin(),
                                     outage_->members.end());
  }
  checkpoint.collector_frontier = collector_frontier_;
  checkpoint.recent_shifts.assign(recent_shifts_.begin(),
                                  recent_shifts_.end());
  checkpoint.concept_shifts_total = concept_shifts_total_;

  {
    std::lock_guard<std::mutex> lock(alerts_mu_);
    checkpoint.findings = alerts_.Findings();
  }
  checkpoint.stats = stats();
  return Status::Ok();
}

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::Restore(
    std::istream& is, StreamEngineOptions options) {
  return Restore(hierarchy::bin::ReadToEnd(is), std::move(options));
}

StatusOr<std::unique_ptr<StreamEngine>> StreamEngine::Restore(
    std::string image, StreamEngineOptions options) {
  HOD_ASSIGN_OR_RETURN(EngineCheckpoint checkpoint,
                       ReadEngineCheckpoint(image));
  const size_t image_bytes = image.size();
  std::string().swap(image);  // the engine's state may reuse the memory
  auto engine = std::make_unique<StreamEngine>(std::move(options));
  HOD_RETURN_IF_ERROR(engine->ApplyCheckpoint(checkpoint));
  engine->last_image_bytes_.store(image_bytes, std::memory_order_relaxed);
  HOD_RETURN_IF_ERROR(engine->Start());
  return engine;
}

Status StreamEngine::ApplyCheckpoint(const EngineCheckpoint& checkpoint) {
  const core::OnlineMonitorOptions& ours = options_.monitor;
  const core::OnlineMonitorOptions& theirs = checkpoint.monitor;
  if (ours.warmup != theirs.warmup || ours.ar_order != theirs.ar_order ||
      ours.threshold != theirs.threshold ||
      ours.raise_after != theirs.raise_after ||
      ours.clear_after != theirs.clear_after ||
      ours.sigma_scale != theirs.sigma_scale ||
      ours.scale_forgetting != theirs.scale_forgetting ||
      options_.out_of_order_tolerance != checkpoint.out_of_order_tolerance) {
    return Status::InvalidArgument(
        "checkpoint was taken under different scoring options; a restored "
        "engine could not resume byte-identically");
  }
  if (options_.shift.enabled != checkpoint.shift_enabled) {
    return Status::InvalidArgument(
        "checkpoint concept-shift layer state does not match the restore "
        "options (enabled on one side only)");
  }
  if (options_.shift.enabled) {
    const core::BocpdOptions& mine = options_.shift.bocpd;
    const core::BocpdOptions& its = checkpoint.bocpd;
    if (mine.hazard_lambda != its.hazard_lambda ||
        mine.max_run_length != its.max_run_length ||
        mine.warmup != its.warmup ||
        mine.min_run_for_shift != its.min_run_for_shift ||
        mine.shift_posterior != its.shift_posterior ||
        mine.min_magnitude_sigmas != its.min_magnitude_sigmas ||
        mine.cooldown != its.cooldown || mine.prior_kappa != its.prior_kappa ||
        mine.prior_alpha != its.prior_alpha ||
        mine.prior_beta != its.prior_beta ||
        mine.prior_mean != its.prior_mean) {
      return Status::InvalidArgument(
          "checkpoint was taken under different BOCPD options; a restored "
          "engine would not detect shifts identically");
    }
  }
  for (const EngineCheckpoint::SensorState& sensor : checkpoint.sensors) {
    std::optional<BackpressurePolicy> policy;
    if (sensor.has_policy) policy = sensor.policy;
    HOD_RETURN_IF_ERROR(AddSensor(sensor.sensor_id, sensor.level, policy));
  }
  HOD_RETURN_IF_ERROR(PopulateScorer());
  std::vector<SensorHealthStatus> health_states;
  health_states.reserve(checkpoint.sensors.size());
  for (const EngineCheckpoint::SensorState& sensor : checkpoint.sensors) {
    HOD_RETURN_IF_ERROR(
        scorer_.RestoreMonitor(sensor.sensor_id, sensor.monitor));
    if (sensor.has_bocpd) {
      HOD_RETURN_IF_ERROR(
          scorer_.RestoreBocpd(sensor.sensor_id, sensor.bocpd));
    }
    HOD_RETURN_IF_ERROR(router_.SetFrontier(sensor.sensor_id,
                                            sensor.frontier));
    health_states.push_back(sensor.health);
  }
  HOD_RETURN_IF_ERROR(health_.RestoreState(health_states));

  levels_ = checkpoint.levels;
  active_alarms_.clear();
  for (const ActiveAlarm& alarm : checkpoint.active_alarms) {
    active_alarms_[alarm.sensor_id] = alarm;
  }
  quarantined_.clear();
  for (const QuarantinedSensor& sensor : checkpoint.quarantined) {
    quarantined_[sensor.sensor_id] = sensor;
  }
  events_seen_ = checkpoint.events_seen;
  events_at_last_snapshot_ = checkpoint.events_at_last_snapshot;
  next_sequence_ = checkpoint.next_sequence;

  // Peer-group membership travels in the checkpoint (it is configured via
  // AddPeerGroup, not options), so re-register before restoring state.
  for (const PeerGroupState& group : checkpoint.peer_groups) {
    std::vector<std::string> members;
    members.reserve(group.members.size());
    for (const PeerMemberState& member : group.members) {
      members.push_back(member.sensor_id);
    }
    HOD_RETURN_IF_ERROR(peers_.AddGroup(group.group_id, members));
  }
  HOD_RETURN_IF_ERROR(peers_.RestoreState(checkpoint.peer_groups));
  pending_faults_.assign(checkpoint.pending_faults.begin(),
                         checkpoint.pending_faults.end());
  outage_.reset();
  if (checkpoint.outage_active) {
    ActiveOutage outage;
    outage.since = checkpoint.outage_since;
    outage.members.insert(checkpoint.outage_members.begin(),
                          checkpoint.outage_members.end());
    outage_ = std::move(outage);
  }
  collector_frontier_ = checkpoint.collector_frontier;
  recent_shifts_.assign(checkpoint.recent_shifts.begin(),
                        checkpoint.recent_shifts.end());
  concept_shifts_total_ = checkpoint.concept_shifts_total;

  {
    std::lock_guard<std::mutex> lock(alerts_mu_);
    alerts_.RestoreFindings(checkpoint.findings);
  }
  stats_.Restore(checkpoint.stats);
  return Status::Ok();
}

StreamStatsSnapshot StreamEngine::stats() const {
  StreamStatsSnapshot snapshot = stats_.Snapshot();
  scorer_.FillQueueStats(snapshot);
  snapshot.shard_stalled.clear();
  snapshot.shard_stalled.reserve(stalled_.size());
  for (const auto& flag : stalled_) {
    snapshot.shard_stalled.push_back(flag.load(std::memory_order_relaxed));
  }
  return snapshot;
}

EngineSnapshot StreamEngine::Snapshot() const { return *SharedSnapshot(); }

std::shared_ptr<const EngineSnapshot> StreamEngine::SharedSnapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return published_;
}

std::vector<core::AlertEpisode> StreamEngine::Episodes() const {
  std::lock_guard<std::mutex> lock(alerts_mu_);
  return alerts_.Episodes();
}

std::vector<core::AlertEpisode> StreamEngine::CalibrationQueue() const {
  std::lock_guard<std::mutex> lock(alerts_mu_);
  return alerts_.CalibrationQueue();
}

std::vector<core::OutlierFinding> StreamEngine::Findings() const {
  std::lock_guard<std::mutex> lock(alerts_mu_);
  return alerts_.Findings();
}

StatusOr<SensorProbe> StreamEngine::Probe(const std::string& sensor_id) const {
  return scorer_.Probe(sensor_id);
}

void StreamEngine::WatchdogTick() {
  // The timer can fire between the state_ exchange in Stop() and the
  // timer's cancellation; the pipeline is being torn down then.
  if (state_.load() != kRunning) return;
  for (size_t i = 0; i < watchdog_last_heartbeat_.size(); ++i) {
    const uint64_t beat = scorer_.ShardHeartbeat(i);
    const size_t depth = scorer_.ShardQueueDepth(i);
    if (depth > 0 && beat == watchdog_last_heartbeat_[i]) {
      // Samples are waiting but the worker made no progress over a full
      // interval: flag it (graceful degradation — the engine keeps
      // serving the healthy shards; the flag clears if the worker
      // resumes).
      if (stalled_[i].exchange(1, std::memory_order_relaxed) == 0) {
        stats_.Add(Counter::watchdog_stall_events);
      }
    } else {
      stalled_[i].store(0, std::memory_order_relaxed);
    }
    watchdog_last_heartbeat_[i] = beat;
  }
  // The staleness sweep pushes collector events, which would break the
  // checkpointer's "drained means drained" invariant — skip the sweep
  // while a checkpoint holds the gate (it runs again next interval).
  std::shared_lock<std::shared_mutex> gate(ingest_gate_, std::try_to_lock);
  if (!checkpoint_gate_enabled_ || gate.owns_lock()) {
    for (const HealthTransition& transition : health_.SweepStale()) {
      PushHealthEvent(transition);
    }
  }
}

void StreamEngine::NotifyCollector() {
  const int prev =
      collector_task_state_.exchange(kCollectorArmed, std::memory_order_acq_rel);
  if (prev != kCollectorIdle) return;  // a task is pending or will loop
  collector_tasks_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  // Service lane: collector drains must make progress even when every
  // worker-lane thread is blocked pushing into a full collector queue —
  // that is the deadlock this lane exists to break.
  if (!pool_->SubmitService([this] { CollectorDrainTask(); })) {
    // Pool already shut down (a racing health event after Stop). Undo
    // under collector_mu_, like a retiring task, so Stop's wait sees it.
    std::lock_guard<std::mutex> lock(collector_mu_);
    collector_task_state_.store(kCollectorIdle, std::memory_order_release);
    collector_tasks_in_flight_.fetch_sub(1, std::memory_order_release);
    collector_cv_.notify_all();
  }
}

void StreamEngine::CollectorDrainTask() {
  std::vector<ScoredSample>& batch = collector_batch_;
  for (;;) {
    collector_task_state_.store(kCollectorRunning, std::memory_order_release);
    for (;;) {
      batch.clear();
      const size_t n = collector_queue_.TryPopBatch(batch, options_.max_batch);
      if (n == 0) break;
      for (const ScoredSample& scored : batch) ConsumeScored(scored);
      IngestPendingFindings();
      // A drained queue is a quiescent point — publish so Flush() callers
      // observe a current snapshot. Publish BEFORE the release fetch_add
      // on collected_: that store is the edge a quiesced checkpointer (or
      // Flush caller) acquires, so every collector-private write —
      // including the snapshot bookkeeping — must be sequenced before it.
      if (collector_queue_.size() == 0) PublishSnapshot();
      collected_.fetch_add(n, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(collector_mu_);
      }
      collector_cv_.notify_all();
    }
    int expected = kCollectorRunning;
    if (collector_task_state_.compare_exchange_strong(
            expected, kCollectorIdle, std::memory_order_acq_rel)) {
      break;  // no notify raced the empty pop; task retires
    }
    // Re-armed between the empty pop and the CAS: drain again.
  }
  // Retire under the lock: Stop() re-checks quiescence while holding
  // collector_mu_, so it cannot observe zero tasks in flight (and destroy
  // the engine) until this task has released the mutex.
  {
    std::lock_guard<std::mutex> lock(collector_mu_);
    collector_tasks_in_flight_.fetch_sub(1, std::memory_order_release);
    collector_cv_.notify_all();
  }
}

void StreamEngine::DrainCollectorQueueSync() {
  std::vector<ScoredSample> forwarded;
  while (collector_queue_.TryPopBatch(forwarded, options_.max_batch) > 0) {
    for (const ScoredSample& scored : forwarded) ConsumeScored(scored);
    forwarded.clear();
  }
  IngestPendingFindings();
}

void StreamEngine::IngestPendingFindings() {
  if (pending_findings_.empty()) return;
  std::lock_guard<std::mutex> lock(alerts_mu_);
  alerts_.IngestBatch(std::move(pending_findings_));
}

void StreamEngine::RecordIngestFault(const SensorSample& sample,
                                     HealthSignal signal) {
  std::optional<HealthTransition> transition =
      health_.RecordRejection(sample.sensor_id, signal, sample.ts);
  if (transition.has_value()) PushHealthEvent(*transition);
}

void StreamEngine::PushHealthEvent(const HealthTransition& transition) {
  const bool quarantine =
      transition.to == SensorHealthState::kQuarantined;
  const bool recovery = transition.to == SensorHealthState::kHealthy &&
                        transition.from == SensorHealthState::kRecovering;
  if (!quarantine && !recovery) return;
  ScoredSample event;
  event.kind = quarantine ? StreamEventKind::kSensorFault
                          : StreamEventKind::kSensorRecovered;
  event.sensor_id = transition.sensor_id;
  event.level = transition.level;
  event.ts = transition.ts;
  event.fault_reason = transition.reason;
  // Count before pushing, so Flush's target is never behind the queue.
  health_events_pushed_.fetch_add(1, std::memory_order_release);
  Status status = collector_queue_.Push(std::move(event));
  if (status.ok()) {
    if (!options_.synchronous) NotifyCollector();
    return;
  }
  // Collector already closed (shutdown race). Undo the pre-count under
  // collector_mu_ and notify — otherwise a Flush waits forever for an
  // event that never arrives — and surface the loss instead of silently
  // swallowing it.
  {
    std::lock_guard<std::mutex> lock(collector_mu_);
    health_events_pushed_.fetch_sub(1, std::memory_order_release);
    collector_cv_.notify_all();
  }
  stats_.Add(Counter::forward_failed);
}

void StreamEngine::ConsumeScored(const ScoredSample& scored) {
  ++events_seen_;
  // The frontier is both the outage-expiry clock and the published
  // snapshot's event-time stamp, so it advances unconditionally.
  collector_frontier_ = std::max(collector_frontier_, scored.ts);
  if (options_.peer.outage_min_sensors > 0) {
    // Pending onsets age against the event clock; once the window has
    // passed without the cluster forming, they were uncorrelated faults.
    if (!outage_.has_value()) ExpirePendingFaults(collector_frontier_);
  }
  switch (scored.kind) {
    case StreamEventKind::kSensorFault:
      ConsumeSensorFault(scored);
      break;
    case StreamEventKind::kSensorRecovered:
      ConsumeSensorRecovery(scored);
      break;
    case StreamEventKind::kPeerDeviation:
      ConsumePeerDeviation(scored);
      break;
    case StreamEventKind::kConceptShift:
      ConsumeConceptShift(scored);
      break;
    case StreamEventKind::kScore: {
      const size_t level_index = StreamStats::LevelIndex(scored.level);
      LevelOutlierState& level = levels_[level_index];
      const core::MonitorUpdate& update = scored.update;
      const bool outlier = update.score > options_.monitor.threshold;

      if (outlier) {
        ++level.outlier_samples;
        level.peak_score = std::max(level.peak_score, update.score);
        level.last_outlier_ts = scored.ts;
      }
      if (update.alarm_raised) {
        ++level.alarms_raised;
        ++level.active_alarms;
        ActiveAlarm& alarm = active_alarms_[scored.sensor_id];
        alarm.sensor_id = scored.sensor_id;
        alarm.level = scored.level;
        alarm.since = scored.ts;
        alarm.peak_score = update.score;
      } else if (update.alarm) {
        auto it = active_alarms_.find(scored.sensor_id);
        if (it != active_alarms_.end()) {
          it->second.peak_score =
              std::max(it->second.peak_score, update.score);
        }
      }
      if (update.alarm_cleared) {
        ++level.alarms_cleared;
        if (level.active_alarms > 0) --level.active_alarms;
        active_alarms_.erase(scored.sensor_id);
      }

      if (outlier) {
        core::OutlierFinding finding;
        finding.origin.level = scored.level;
        finding.origin.entity = scored.sensor_id;
        finding.origin.time = scored.ts;
        finding.origin.score = update.score;
        finding.global_score = 1;
        finding.outlierness = update.score;
        finding.support = 0.0;
        finding.corresponding_sensors = 0;
        finding.confirmed_levels = {scored.level};
        pending_findings_.push_back(std::move(finding));
      }
      break;
    }
  }

  if (options_.snapshot_every > 0 &&
      events_seen_ - events_at_last_snapshot_ >= options_.snapshot_every) {
    PublishSnapshot();
  }
}

void StreamEngine::ConsumeSensorFault(const ScoredSample& event) {
  const size_t level_index = StreamStats::LevelIndex(event.level);
  LevelOutlierState& level = levels_[level_index];
  ++level.sensor_faults;
  auto [it, inserted] = quarantined_.try_emplace(event.sensor_id);
  if (inserted) ++level.quarantined_sensors;
  it->second.sensor_id = event.sensor_id;
  it->second.level = event.level;
  it->second.since = event.ts;
  it->second.reason = event.fault_reason;

  // A quarantined sensor's open alarm is not a process alarm: retract it
  // from the level aggregates instead of letting a broken channel hold a
  // stop-the-line signal.
  auto alarm_it = active_alarms_.find(event.sensor_id);
  if (alarm_it != active_alarms_.end()) {
    if (level.active_alarms > 0) --level.active_alarms;
    active_alarms_.erase(alarm_it);
  }

  const QuarantinedSensor onset = it->second;
  if (options_.peer.outage_min_sensors == 0) {
    EmitSensorFaultFinding(onset);
    return;
  }
  if (event.fault_reason != HealthSignal::kStale) {
    // Only staleness onsets correlate: a NaN burst or a timestamp fault is
    // sensor-local evidence, not an infrastructure signature.
    EmitSensorFaultFinding(onset);
    return;
  }
  if (outage_.has_value()) {
    // The line is already down; this channel joined the incident instead
    // of adding one more row to the storm.
    outage_->members.insert(event.sensor_id);
    stats_.Add(Counter::suppressed_sensor_faults);
    return;
  }
  pending_faults_.push_back(onset);
  std::set<std::string> distinct;
  for (const QuarantinedSensor& pending : pending_faults_) {
    distinct.insert(pending.sensor_id);
  }
  if (distinct.size() >= options_.peer.outage_min_sensors) {
    DeclareGroupOutage(event.ts);
  }
}

void StreamEngine::EmitSensorFaultFinding(const QuarantinedSensor& onset) {
  core::OutlierFinding finding;
  finding.kind = core::FindingKind::kSensorFault;
  finding.origin.level = onset.level;
  finding.origin.entity = onset.sensor_id;
  finding.origin.time = onset.since;
  finding.origin.score = 1.0;
  finding.global_score = 1;
  finding.outlierness = 1.0;
  finding.support = 0.0;
  finding.corresponding_sensors = 0;
  finding.measurement_error_warning = true;
  finding.confirmed_levels = {onset.level};
  finding.warnings = {"sensor fault: " +
                      std::string(HealthSignalName(onset.reason))};
  pending_findings_.push_back(std::move(finding));
}

void StreamEngine::DeclareGroupOutage(ts::TimePoint ts) {
  ActiveOutage outage;
  outage.since = ts;
  for (const QuarantinedSensor& pending : pending_faults_) {
    outage.members.insert(pending.sensor_id);
    stats_.Add(Counter::suppressed_sensor_faults);
  }
  pending_faults_.clear();
  const size_t affected = outage.members.size();
  outage_ = std::move(outage);
  stats_.Add(Counter::group_outages);

  core::OutlierFinding finding;
  finding.kind = core::FindingKind::kGroupOutage;
  finding.origin.level = hierarchy::ProductionLevel::kProduction;
  finding.origin.entity = options_.peer.outage_entity;
  finding.origin.time = ts;
  finding.origin.score = 1.0;
  finding.global_score = 1;
  finding.outlierness = 1.0;
  finding.support = 0.0;
  finding.corresponding_sensors = 0;
  finding.confirmed_levels = {hierarchy::ProductionLevel::kProduction};
  finding.warnings = {"group outage: " + std::to_string(affected) +
                      " sensors went stale within " +
                      std::to_string(options_.peer.outage_window) + "s"};
  pending_findings_.push_back(std::move(finding));
}

void StreamEngine::ExpirePendingFaults(ts::TimePoint now) {
  while (!pending_faults_.empty() &&
         now - pending_faults_.front().since > options_.peer.outage_window) {
    EmitSensorFaultFinding(pending_faults_.front());
    pending_faults_.pop_front();
  }
}

void StreamEngine::FlushPendingFaults() {
  for (const QuarantinedSensor& pending : pending_faults_) {
    EmitSensorFaultFinding(pending);
  }
  pending_faults_.clear();
}

void StreamEngine::ConsumePeerDeviation(const ScoredSample& event) {
  const double strength = std::max(event.peer_value_z, event.peer_slope_z);
  core::OutlierFinding finding;
  finding.kind = core::FindingKind::kPeerDrift;
  finding.origin.level = event.level;
  finding.origin.entity = event.sensor_id;
  finding.origin.time = event.ts;
  finding.origin.score = strength;
  finding.global_score = 1;
  finding.outlierness = std::min(1.0, strength / 10.0);
  finding.support = 0.0;
  finding.corresponding_sensors = 0;
  finding.measurement_error_warning = true;
  finding.confirmed_levels = {event.level};
  finding.warnings = {"peer drift: group " + event.peer_group +
                      " value_z=" + std::to_string(event.peer_value_z) +
                      " slope_z=" + std::to_string(event.peer_slope_z)};
  pending_findings_.push_back(std::move(finding));
}

void StreamEngine::ConsumeConceptShift(const ScoredSample& event) {
  const size_t level_index = StreamStats::LevelIndex(event.level);
  LevelOutlierState& level = levels_[level_index];

  // The alarm (if any) was raised by the old baseline against the new
  // regime — a stale verdict, not a process alarm. Retract it; the
  // re-baselined monitor re-raises only if the process is genuinely off
  // its NEW setpoint.
  auto alarm_it = active_alarms_.find(event.sensor_id);
  if (alarm_it != active_alarms_.end()) {
    if (level.active_alarms > 0) --level.active_alarms;
    active_alarms_.erase(alarm_it);
  }

  ConceptShiftEvent shift;
  shift.sensor_id = event.sensor_id;
  shift.level = event.level;
  shift.ts = event.ts;
  shift.before_mean = event.shift_before;
  shift.after_mean = event.shift_after;
  shift.magnitude_sigmas = event.shift_magnitude;
  shift.evidence = event.shift_evidence;
  shift.run_length = event.shift_run_length;
  recent_shifts_.push_back(shift);
  constexpr size_t kMaxRecentShifts = 64;
  while (recent_shifts_.size() > kMaxRecentShifts) recent_shifts_.pop_front();
  ++concept_shifts_total_;

  // Exactly one process-board row per confirmed shift: the level moved,
  // the channel was re-baselined — instead of an alarm storm on the new
  // regime.
  core::OutlierFinding finding;
  finding.kind = core::FindingKind::kConceptShift;
  finding.origin.level = event.level;
  finding.origin.entity = event.sensor_id;
  finding.origin.time = event.ts;
  finding.origin.score = event.shift_magnitude;
  finding.global_score = 1;
  finding.outlierness = std::min(1.0, event.shift_magnitude / 10.0);
  finding.support = event.shift_evidence;
  finding.corresponding_sensors = 0;
  finding.measurement_error_warning = false;
  finding.confirmed_levels = {event.level};
  finding.warnings = {
      "concept shift: level " + std::to_string(event.shift_before) + " -> " +
      std::to_string(event.shift_after) +
      " (magnitude=" + std::to_string(event.shift_magnitude) +
      " sigmas, evidence=" + std::to_string(event.shift_evidence) +
      ", run=" + std::to_string(event.shift_run_length) + ")"};
  pending_findings_.push_back(std::move(finding));
}

void StreamEngine::ConsumeSensorRecovery(const ScoredSample& event) {
  auto it = quarantined_.find(event.sensor_id);
  if (it == quarantined_.end()) return;
  const size_t level_index = StreamStats::LevelIndex(it->second.level);
  LevelOutlierState& level = levels_[level_index];
  if (level.quarantined_sensors > 0) --level.quarantined_sensors;
  quarantined_.erase(it);
  if (outage_.has_value()) {
    outage_->members.erase(event.sensor_id);
    if (outage_->members.empty()) {
      // Every affected channel reported back — the incident is over and
      // the (frozen, not poisoned) baselines resume from where they were.
      outage_.reset();
      stats_.Add(Counter::group_outage_recoveries);
    }
  }
}

void StreamEngine::PublishSnapshot() {
  auto built = std::make_shared<EngineSnapshot>();
  EngineSnapshot& snapshot = *built;
  snapshot.sequence = next_sequence_++;
  snapshot.events_seen = events_seen_;
  snapshot.ts = std::isfinite(collector_frontier_) ? collector_frontier_ : 0.0;
  snapshot.levels = levels_;
  snapshot.active_alarms.reserve(active_alarms_.size());
  for (const auto& [id, alarm] : active_alarms_) {
    snapshot.active_alarms.push_back(alarm);
  }
  snapshot.quarantined.reserve(quarantined_.size());
  for (const auto& [id, sensor] : quarantined_) {
    snapshot.quarantined.push_back(sensor);
  }
  if (outage_.has_value()) {
    snapshot.group_outage_active = true;
    snapshot.group_outage_entity = options_.peer.outage_entity;
    snapshot.group_outage_since = outage_->since;
    snapshot.group_outage_sensors = outage_->members.size();
  }
  snapshot.concept_shifts.assign(recent_shifts_.begin(),
                                 recent_shifts_.end());
  snapshot.concept_shifts_total = concept_shifts_total_;
  events_at_last_snapshot_ = events_seen_;
  stats_.Add(Counter::snapshots_published);
  std::shared_ptr<const EngineSnapshot> shared = std::move(built);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    published_ = shared;
  }
  // Outside the lock: the sink (a hub ring push) must never be able to
  // stall a concurrent Snapshot() reader.
  if (options_.snapshot_sink) options_.snapshot_sink(*shared);
}

}  // namespace hod::stream
