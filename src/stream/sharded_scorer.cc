#include "stream/sharded_scorer.h"

#include <utility>

#include "stream/peer_group.h"
#include "util/thread_pool.h"

namespace hod::stream {

ShardedScorer::ShardedScorer(const ShardedScorerOptions& options,
                             StreamStats* stats,
                             BoundedQueue<ScoredSample>* collector,
                             SensorHealthTracker* health,
                             PeerGroupMonitor* peers)
    : options_(options),
      stats_(stats),
      collector_(collector),
      health_(health),
      peers_(peers) {
  const size_t n = options_.num_shards == 0 ? 1 : options_.num_shards;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        options_.producer_hint, options_.queue_capacity,
        options_.backpressure, options_.block_timeout, options_.monitor));
  }
}

ShardedScorer::~ShardedScorer() { Stop(); }

Status ShardedScorer::AddSensor(size_t shard, const std::string& sensor_id) {
  if (running()) {
    return Status::FailedPrecondition("scorer already started");
  }
  if (shard >= shards_.size()) {
    return Status::OutOfRange("shard index out of range");
  }
  if (!shards_[shard]->bank.AddSensor(sensor_id).ok()) {
    return Status::InvalidArgument("sensor already on shard: " + sensor_id);
  }
  if (options_.shift_enabled) {
    // Lane ids are append-only, so the detector vector stays parallel to
    // the bank's lanes.
    shards_[shard]->bocpd.emplace_back(options_.bocpd);
  }
  return Status::Ok();
}

size_t ShardedScorer::LaneOf(size_t shard, const std::string& sensor_id) const {
  if (shard >= shards_.size()) return core::BatchMonitorBank::kNotFound;
  return shards_[shard]->bank.IndexOf(sensor_id);
}

void ShardedScorer::SyncBaselineFreeze(Shard& shard, size_t lane,
                                       bool admitted) {
  if (!admitted) {
    // First quarantined sample: freeze the baseline so nothing (notably a
    // concept shift confirmed from samples still in flight) can clear it
    // while the health FSM owns the channel.
    if (!shard.bank.baseline_frozen(lane)) {
      shard.bank.FreezeBaselineLane(lane,
                                    core::BaselineActor::kHealthQuarantine);
    }
    return;
  }
  if (shard.bank.baseline_frozen(lane)) {
    // First admitted sample after quarantine (kRecovering): thaw. A reset
    // a concept shift parked during the freeze applies now — recovery
    // seeds from the post-shift posterior instead of the stale regime.
    if (shard.bank.ThawBaselineLane(lane,
                                    core::BaselineActor::kHealthQuarantine) &&
        stats_ != nullptr) {
      stats_->Add(Counter::baseline_resets);
    }
  }
}

std::optional<core::BocpdShift> ShardedScorer::FeedBocpd(
    Shard& shard, size_t lane, const SensorSample& sample, bool* deferred) {
  if (lane >= shard.bocpd.size()) return std::nullopt;
  std::optional<core::BocpdShift> confirmed =
      shard.bocpd[lane].Push(sample.value);
  if (!confirmed.has_value()) return std::nullopt;
  confirmed->shift.time = sample.ts;
  if (deferred != nullptr) {
    *deferred = ApplyShiftReset(shard, lane, *confirmed);
  }
  return confirmed;
}

bool ShardedScorer::ApplyShiftReset(Shard& shard, size_t lane,
                                    const core::BocpdShift& shift) {
  const bool frozen = shard.bank.baseline_frozen(lane);
  core::BaselineSeed seed;
  seed.level = shift.shift.after_mean;
  seed.sigma = shift.after_sigma;
  seed.support = shift.run_length;
  // While frozen this parks the reset for the thaw (quarantine exit
  // timing stays solely with the health FSM's clean streak).
  shard.bank.ResetBaselineLane(lane, core::BaselineActor::kConceptShift,
                               seed);
  if (stats_ != nullptr) {
    stats_->Add(Counter::concept_shifts);
    if (frozen) {
      stats_->Add(Counter::baseline_resets_deferred);
    } else {
      stats_->Add(Counter::baseline_resets);
    }
  }
  return frozen;
}

void ShardedScorer::ForwardShiftEvent(Shard& shard, const SensorSample& sample,
                                      const core::BocpdShift& shift) {
  if (collector_ == nullptr) return;
  ScoredSample event;
  event.kind = StreamEventKind::kConceptShift;
  event.sensor_id = sample.sensor_id;
  event.level = sample.level;
  event.ts = sample.ts;
  event.value = sample.value;
  event.shift_before = shift.shift.before_mean;
  event.shift_after = shift.shift.after_mean;
  event.shift_magnitude = shift.shift.magnitude_sigmas;
  event.shift_evidence = shift.evidence;
  event.shift_run_length = shift.run_length;
  Emit(shard, std::move(event));
}

Status ShardedScorer::Start(util::ThreadPool& executor) {
  if (running()) return Status::FailedPrecondition("scorer already started");
  if (stopped_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("scorer already stopped");
  }
  // No threads to spawn: drain tasks are armed lazily by NotifyShard on
  // the first Submit to each shard.
  executor_ = &executor;
  running_.store(true, std::memory_order_release);
  return Status::Ok();
}

Status ShardedScorer::Submit(size_t shard, SensorSample sample,
                             BackpressurePolicy policy) {
  if (shard >= shards_.size()) {
    return Status::OutOfRange("shard index out of range");
  }
  Shard& s = *shards_[shard];
  const hierarchy::ProductionLevel level = sample.level;
  // Count before pushing: the drain task may process the sample before
  // this line otherwise, and Flush would see processed > submitted.
  s.submitted.fetch_add(1, std::memory_order_relaxed);
  std::optional<SensorSample> evicted;
  Status status = s.queue->Push(std::move(sample), policy, &evicted);
  if (evicted.has_value() && stats_ != nullptr) {
    // kDropOldest made room by discarding the queue head; charge the drop
    // to the level of the sample that was actually lost.
    stats_->RecordLevelDropped(evicted->level);
  }
  if (!status.ok()) {
    {
      // Undo under flush_mu_ and notify: Flush and Stop wait on this count.
      std::lock_guard<std::mutex> lock(flush_mu_);
      s.submitted.fetch_sub(1, std::memory_order_relaxed);
      flush_cv_.notify_all();
    }
    if (stats_ != nullptr) {
      if (status.code() == StatusCode::kOutOfRange) {
        stats_->Add(Counter::rejected_queue_full);
        stats_->RecordLevelRejected(level);
      } else if (status.code() == StatusCode::kDeadlineExceeded) {
        stats_->Add(Counter::rejected_timeout);
        stats_->RecordLevelRejected(level);
      } else if (status.code() == StatusCode::kFailedPrecondition) {
        // Queue already closed (shutdown race). The sample was counted as
        // ingested by the router, so it must land in a rejection bucket or
        // the conservation identity ingested == scored + dropped +
        // rejected + quarantined breaks on every shutdown.
        stats_->Add(Counter::rejected_closed);
        stats_->RecordLevelRejected(level);
      }
    }
    return status;
  }
  if (running()) NotifyShard(shard);
  return Status::Ok();
}

void ShardedScorer::NotifyShard(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  const int prev =
      shard.task_state.exchange(kTaskArmed, std::memory_order_acq_rel);
  if (prev != kTaskIdle) return;  // a task is pending or will loop again
  tasks_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (!executor_->Submit([this, shard_index] { DrainTask(shard_index); })) {
    // Pool already shut down (a racing Submit after Stop). Undo under
    // flush_mu_, like a retiring task, so a waiter sees the count drop.
    std::lock_guard<std::mutex> lock(flush_mu_);
    shard.task_state.store(kTaskIdle, std::memory_order_release);
    tasks_in_flight_.fetch_sub(1, std::memory_order_release);
    flush_cv_.notify_all();
  }
}

void ShardedScorer::DrainTask(size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<SensorSample>& batch = shard.drained;
  for (;;) {
    shard.task_state.store(kTaskRunning, std::memory_order_release);
    bool more = false;
    for (size_t batches = 1;; ++batches) {
      batch.clear();
      if (shard.queue->TryPopBatch(batch, options_.max_batch) == 0) break;
      if (options_.worker_tick_hook) options_.worker_tick_hook(shard_index);
      ProcessBatch(shard_index, batch);
      // End of a slice with work left: give the thread up only when other
      // tasks wait for one, so co-scheduled plants share the pool fairly
      // and a lone engine keeps draining without a resubmit hop.
      if (batches % kBatchesPerSlice == 0 && shard.queue->size() > 0 &&
          executor_->unserved_tasks() > 0) {
        more = true;
        break;
      }
    }
    if (more) {
      // Re-arm and resubmit instead of looping, so the waiting tasks get
      // pool time in between.
      shard.task_state.store(kTaskArmed, std::memory_order_release);
      if (executor_->Submit([this, shard_index] { DrainTask(shard_index); })) {
        return;  // in_flight carries over to the resubmitted task
      }
      // Pool shutting down: fall through and finish the drain inline.
      continue;
    }
    int expected = kTaskRunning;
    if (shard.task_state.compare_exchange_strong(
            expected, kTaskIdle, std::memory_order_acq_rel)) {
      break;  // no notify raced the final empty pop; task retires
    }
    // A producer re-armed us between the empty pop and the CAS — its
    // sample may already be in the queue. Loop and drain again.
  }
  // The decrement, notify, and the quiescence predicate in Stop()/Flush()
  // must all be ordered by flush_mu_: if the count dropped before the lock,
  // a waiter could observe "no task in flight", return, and destroy the
  // scorer while this task still touches flush_mu_/flush_cv_.
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    tasks_in_flight_.fetch_sub(1, std::memory_order_release);
    flush_cv_.notify_all();
  }
}

StatusOr<InlineScore> ShardedScorer::ScoreNow(size_t shard,
                                              const SensorSample& sample,
                                              uint32_t lane_hint) {
  if (running()) {
    return Status::FailedPrecondition(
        "ScoreNow is synchronous-mode only; the scorer is running");
  }
  if (shard >= shards_.size()) {
    return Status::OutOfRange("shard index out of range");
  }
  Shard& s = *shards_[shard];
  const size_t lane = (lane_hint != kNoLane && lane_hint < s.bank.size())
                          ? static_cast<size_t>(lane_hint)
                          : s.bank.IndexOf(sample.sensor_id);
  if (lane == core::BatchMonitorBank::kNotFound) {
    return Status::NotFound("no monitor for sensor: " + sample.sensor_id);
  }
  StatusOr<InlineScore> result = ScoreInline(s, lane, sample);
  FlushOutbox(s);
  return result;
}

StatusOr<InlineScore> ShardedScorer::ScoreInline(Shard& s, size_t lane,
                                                 const SensorSample& sample) {
  const HealthGateResult gate = HealthGate(sample);
  if (gate.transition.has_value()) {
    ForwardEvent(s, *gate.transition, sample, gate.reason);
  }
  if (health_ != nullptr && health_->enabled()) {
    SyncBaselineFreeze(s, lane, gate.score);
  }
  InlineScore result;
  if (!gate.score) return result;  // quarantined: withheld from the monitor
  HOD_ASSIGN_OR_RETURN(result.update, s.bank.Push(lane, sample.value));
  result.scored = true;
  ObservePeers(s, sample, gate.forward);
  const core::MonitorUpdate& update = result.update;
  if (stats_ != nullptr) {
    stats_->Add(Counter::scored);
    stats_->RecordBatch(1);
    // Same gating as the threaded path: recovery-phase alarm transitions
    // are withheld along with the update itself.
    if (gate.forward) {
      if (update.alarm_raised) stats_->Add(Counter::alarms_raised);
      if (update.alarm_cleared) stats_->Add(Counter::alarms_cleared);
    }
  }
  if (collector_ != nullptr && gate.forward &&
      (update.alarm_raised || update.alarm_cleared ||
       update.score > options_.forward_threshold)) {
    ScoredSample scored;
    scored.sensor_id = sample.sensor_id;
    scored.level = sample.level;
    scored.ts = sample.ts;
    scored.value = sample.value;
    scored.update = update;
    // Internal pipeline edge: lossless regardless of the ingress policy.
    Emit(s, std::move(scored));
  }
  // The shift detector sees the sample after the monitor scored it, so a
  // confirm re-baselines before the NEXT sample — same sequencing as the
  // batch path's segmented PushBatch.
  if (!s.bocpd.empty()) {
    bool deferred = false;
    std::optional<core::BocpdShift> shift =
        FeedBocpd(s, lane, sample, &deferred);
    if (shift.has_value()) ForwardShiftEvent(s, sample, *shift);
  }
  return result;
}

bool ShardedScorer::AllProcessed() const {
  for (const auto& shard : shards_) {
    // Evicted (kDropOldest) samples were submitted but never reach a drain
    // task — they count as handled.
    if (shard->processed.load(std::memory_order_acquire) +
            shard->queue->dropped() !=
        shard->submitted.load(std::memory_order_acquire)) {
      return false;
    }
  }
  return true;
}

Status ShardedScorer::Flush() {
  if (!running()) return Status::Ok();
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_cv_.wait(lock, [&] { return AllProcessed(); });
  return Status::Ok();
}

void ShardedScorer::Stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  for (auto& shard : shards_) shard->queue->Close();
  if (!running()) return;  // never started: no drain task exists
  // Pooled drains own the tail: Close() leaves queued samples poppable,
  // so arming every shard once guarantees a task sees whatever is left
  // (including samples submitted before Start, which never notified). A
  // push racing Close() that still lands counted itself in `submitted`
  // first and arms its own task, so the wait below covers it too.
  for (size_t i = 0; i < shards_.size(); ++i) NotifyShard(i);
  // Quiesce: no drain task in flight and every submitted sample processed
  // or dropped. Every path that moves either term (a task's batch or
  // retirement, a failed Submit's undo) notifies under flush_mu_.
  {
    std::unique_lock<std::mutex> lock(flush_mu_);
    flush_cv_.wait(lock, [&] {
      return tasks_in_flight_.load(std::memory_order_acquire) == 0 &&
             AllProcessed();
    });
  }
  running_.store(false, std::memory_order_release);
}

void ShardedScorer::FillQueueStats(StreamStatsSnapshot& snapshot) const {
  snapshot.shard_queue_high_water.assign(shards_.size(), 0);
  for (size_t i = 0; i < shards_.size(); ++i) {
    snapshot.shard_queue_high_water[i] = shards_[i]->queue->high_water();
    snapshot.dropped += shards_[i]->queue->dropped();
  }
}

uint64_t ShardedScorer::ShardHeartbeat(size_t shard) const {
  if (shard >= shards_.size()) return 0;
  return shards_[shard]->heartbeat.load(std::memory_order_acquire);
}

size_t ShardedScorer::ShardQueueDepth(size_t shard) const {
  if (shard >= shards_.size()) return 0;
  return shards_[shard]->queue->size();
}

StatusOr<SensorProbe> ShardedScorer::Probe(
    const std::string& sensor_id) const {
  if (running()) {
    return Status::FailedPrecondition(
        "Probe requires a stopped or synchronous scorer");
  }
  for (const auto& shard : shards_) {
    const size_t lane = shard->bank.IndexOf(sensor_id);
    if (lane == core::BatchMonitorBank::kNotFound) continue;
    SensorProbe probe;
    probe.samples_seen = shard->bank.samples_seen(lane);
    probe.alarms_raised = shard->bank.alarms_raised(lane);
    probe.alarm = shard->bank.alarm(lane);
    probe.model_ready = shard->bank.model_ready(lane);
    return probe;
  }
  return Status::NotFound("no monitor for sensor: " + sensor_id);
}

StatusOr<core::OnlineMonitorState> ShardedScorer::SaveMonitor(
    const std::string& sensor_id) const {
  if (running()) {
    return Status::FailedPrecondition(
        "SaveMonitor requires a stopped or synchronous scorer");
  }
  for (const auto& shard : shards_) {
    const size_t lane = shard->bank.IndexOf(sensor_id);
    if (lane == core::BatchMonitorBank::kNotFound) continue;
    return shard->bank.SaveState(lane);
  }
  return Status::NotFound("no monitor for sensor: " + sensor_id);
}

StatusOr<core::OnlineMonitorState> ShardedScorer::SaveMonitorQuiesced(
    const std::string& sensor_id) const {
  for (const auto& shard : shards_) {
    const size_t lane = shard->bank.IndexOf(sensor_id);
    if (lane == core::BatchMonitorBank::kNotFound) continue;
    return shard->bank.SaveState(lane);
  }
  return Status::NotFound("no monitor for sensor: " + sensor_id);
}

Status ShardedScorer::RestoreMonitor(const std::string& sensor_id,
                                     const core::OnlineMonitorState& state) {
  if (running()) {
    return Status::FailedPrecondition(
        "RestoreMonitor requires a stopped or synchronous scorer");
  }
  for (const auto& shard : shards_) {
    const size_t lane = shard->bank.IndexOf(sensor_id);
    if (lane == core::BatchMonitorBank::kNotFound) continue;
    return shard->bank.RestoreState(lane, state);
  }
  return Status::NotFound("no monitor for sensor: " + sensor_id);
}

StatusOr<core::BocpdState> ShardedScorer::SaveBocpdQuiesced(
    const std::string& sensor_id) const {
  for (const auto& shard : shards_) {
    const size_t lane = shard->bank.IndexOf(sensor_id);
    if (lane == core::BatchMonitorBank::kNotFound) continue;
    if (lane >= shard->bocpd.size()) {
      return Status::NotFound("no shift detector for sensor: " + sensor_id);
    }
    return shard->bocpd[lane].SaveState();
  }
  return Status::NotFound("no monitor for sensor: " + sensor_id);
}

Status ShardedScorer::RestoreBocpd(const std::string& sensor_id,
                                   const core::BocpdState& state) {
  if (running()) {
    return Status::FailedPrecondition(
        "RestoreBocpd requires a stopped or synchronous scorer");
  }
  for (const auto& shard : shards_) {
    const size_t lane = shard->bank.IndexOf(sensor_id);
    if (lane == core::BatchMonitorBank::kNotFound) continue;
    if (lane >= shard->bocpd.size()) {
      return Status::NotFound("no shift detector for sensor: " + sensor_id);
    }
    return shard->bocpd[lane].RestoreState(state);
  }
  return Status::NotFound("no monitor for sensor: " + sensor_id);
}

void ShardedScorer::ProcessBatch(size_t shard_index,
                                 std::vector<SensorSample>& batch) {
  Shard& shard = *shards_[shard_index];
  if (stats_ != nullptr) stats_->RecordBatch(batch.size());

  // Pass 1 — sample order: lane lookup (the router's cached lane when the
  // sample carries one, the string-keyed map otherwise) and health gating.
  // Quarantine and recovery transitions are recorded by row; pass 3
  // forwards each at its row's position, after the scores of the sensor's
  // earlier samples. Admitted samples also feed their lane's BOCPD
  // detector here; a confirmed shift is recorded by admitted row so pass 2
  // can sequence the re-baseline exactly where the synchronous path would.
  shard.batch_gate_events.clear();
  shard.batch_rows.clear();
  shard.batch_lanes.clear();
  shard.batch_values.clear();
  shard.batch_forward.clear();
  shard.batch_shifts.clear();
  for (size_t i = 0; i < batch.size(); ++i) {
    const SensorSample& sample = batch[i];
    const size_t lane =
        (sample.lane != kNoLane && sample.lane < shard.bank.size())
            ? static_cast<size_t>(sample.lane)
            : shard.bank.IndexOf(sample.sensor_id);
    if (lane == core::BatchMonitorBank::kNotFound) {
      continue;  // router guarantees this
    }
    const HealthGateResult gate = HealthGate(sample);
    if (gate.transition.has_value()) {
      shard.batch_gate_events.push_back(
          Shard::GateEvent{i, *gate.transition, gate.reason});
    }
    if (health_ != nullptr && health_->enabled()) {
      SyncBaselineFreeze(shard, lane, gate.score);
    }
    if (!gate.score) continue;  // quarantined: withheld from the monitor
    if (!shard.bocpd.empty()) {
      std::optional<core::BocpdShift> shift =
          FeedBocpd(shard, lane, sample, nullptr);
      if (shift.has_value()) {
        shard.batch_shifts.push_back(Shard::PendingShift{
            shard.batch_rows.size(), lane, *shift, false});
      }
    }
    shard.batch_rows.push_back(i);
    shard.batch_lanes.push_back(lane);
    shard.batch_values.push_back(sample.value);
    shard.batch_forward.push_back(gate.forward ? 1 : 0);
  }

  // Pass 2 — the vectorized hot path: PushBatch scores every admitted
  // sample through the SoA bank. A confirmed shift cuts the batch after
  // its confirming row: the re-baseline applies between segments, so the
  // confirming sample scores against the old model and every later sample
  // of that sensor against the new one — the synchronous sequencing.
  const size_t admitted = shard.batch_rows.size();
  shard.batch_updates.resize(admitted);
  shard.batch_scored.resize(admitted);
  // (Frozen state is read at apply time, after all of pass 1: if a later
  // sample in this same batch froze the lane, the reset parks as pending
  // where the synchronous path would have applied it before the freeze.
  // Either way the seed survives and installs on thaw.)
  size_t seg_start = 0;
  for (auto& pending : shard.batch_shifts) {
    const size_t seg_end = pending.admitted_row + 1;
    shard.bank.PushBatch(shard.batch_lanes.data() + seg_start,
                         shard.batch_values.data() + seg_start,
                         seg_end - seg_start,
                         shard.batch_updates.data() + seg_start,
                         shard.batch_scored.data() + seg_start);
    pending.deferred = ApplyShiftReset(shard, pending.lane, pending.shift);
    seg_start = seg_end;
  }
  shard.bank.PushBatch(shard.batch_lanes.data() + seg_start,
                       shard.batch_values.data() + seg_start,
                       admitted - seg_start,
                       shard.batch_updates.data() + seg_start,
                       shard.batch_scored.data() + seg_start);

  // Pass 3 — sample order again: health events, peer observation, alarm
  // accounting, and collector forwarding, gated exactly as the per-sample
  // path was. A health event leads its own row's events; a concept-shift
  // event follows its confirming sample's score event.
  size_t scored = 0;
  size_t shift_idx = 0;
  size_t gate_idx = 0;
  const auto forward_gate_events_through = [&](size_t row) {
    for (; gate_idx < shard.batch_gate_events.size() &&
           shard.batch_gate_events[gate_idx].row <= row;
         ++gate_idx) {
      const Shard::GateEvent& event = shard.batch_gate_events[gate_idx];
      ForwardEvent(shard, event.kind, batch[event.row], event.reason);
    }
  };
  for (size_t t = 0; t < admitted; ++t) {
    forward_gate_events_through(shard.batch_rows[t]);
    if (shard.batch_scored[t] == 0) continue;  // router filters non-finites
    ++scored;
    SensorSample& sample = batch[shard.batch_rows[t]];
    const bool has_shift = shift_idx < shard.batch_shifts.size() &&
                           shard.batch_shifts[shift_idx].admitted_row == t;
    const bool forward = shard.batch_forward[t] != 0;
    ObservePeers(shard, sample, forward);
    const core::MonitorUpdate& update = shard.batch_updates[t];
    // Recovering sensors feed their monitor (to re-warm the baseline) but
    // their updates are withheld from the collector — and from the alarm
    // counters, or a phantom alarm raised against a half-warmed model
    // would be reported while the level aggregates never see it.
    if (stats_ != nullptr && forward) {
      if (update.alarm_raised) stats_->Add(Counter::alarms_raised);
      if (update.alarm_cleared) stats_->Add(Counter::alarms_cleared);
    }
    if (collector_ != nullptr && forward &&
        (update.alarm_raised || update.alarm_cleared ||
         update.score > options_.forward_threshold)) {
      ScoredSample out;
      if (has_shift) {
        out.sensor_id = sample.sensor_id;  // the shift event still needs it
      } else {
        out.sensor_id = std::move(sample.sensor_id);
      }
      out.level = sample.level;
      out.ts = sample.ts;
      out.value = sample.value;
      out.update = update;
      Emit(shard, std::move(out));
    }
    if (has_shift) {
      // Operational metadata, forwarded regardless of the recovery gate:
      // the collector must learn the channel was re-baselined.
      ForwardShiftEvent(shard, sample, shard.batch_shifts[shift_idx].shift);
      ++shift_idx;
    }
  }
  forward_gate_events_through(batch.size());
  if (stats_ != nullptr && scored > 0) stats_->Add(Counter::scored, scored);
  FlushOutbox(shard);
  shard.processed.fetch_add(batch.size(), std::memory_order_release);
  shard.heartbeat.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
  }
  flush_cv_.notify_all();
}

ShardedScorer::HealthGateResult ShardedScorer::HealthGate(
    const SensorSample& sample) {
  HealthGateResult gate;
  if (health_ == nullptr || !health_->enabled()) return gate;
  const HealthObservation obs =
      health_->Observe(sample.sensor_id, sample.ts, sample.value);
  if (obs.entered_quarantine) {
    gate.transition = StreamEventKind::kSensorFault;
    gate.reason = obs.signal;
  } else if (obs.recovered) {
    gate.transition = StreamEventKind::kSensorRecovered;
  }
  switch (obs.state) {
    case SensorHealthState::kQuarantined:
      // Protect the baseline: a faulting channel must not move its own
      // model, and must not feed level aggregation.
      gate.score = false;
      gate.forward = false;
      break;
    case SensorHealthState::kRecovering:
      // Refill the AR window with post-fault data, but keep the channel
      // out of aggregates until it has earned trust back.
      gate.forward = false;
      break;
    case SensorHealthState::kHealthy:
    case SensorHealthState::kSuspect:
      break;
  }
  return gate;
}

void ShardedScorer::ForwardEvent(Shard& shard, StreamEventKind kind,
                                 const SensorSample& sample,
                                 HealthSignal reason) {
  if (collector_ == nullptr) return;
  ScoredSample event;
  event.kind = kind;
  event.sensor_id = sample.sensor_id;
  event.level = sample.level;
  event.ts = sample.ts;
  event.value = sample.value;
  event.fault_reason = reason;
  Emit(shard, std::move(event));
}

void ShardedScorer::ObservePeers(Shard& shard, const SensorSample& sample,
                                 bool forward) {
  if (peers_ == nullptr || !peers_->enabled()) return;
  std::optional<PeerDeviation> fired =
      peers_->Observe(sample.sensor_id, sample.level, sample.ts, sample.value);
  if (!fired.has_value() || collector_ == nullptr || !forward) return;
  ScoredSample event;
  event.kind = StreamEventKind::kPeerDeviation;
  event.sensor_id = sample.sensor_id;
  event.level = sample.level;
  event.ts = sample.ts;
  event.value = sample.value;
  event.peer_group = fired->group_id;
  event.peer_value_z = fired->value_z;
  event.peer_slope_z = fired->slope_z;
  Emit(shard, std::move(event));
}

void ShardedScorer::Emit(Shard& shard, ScoredSample event) {
  if (collector_ == nullptr) return;
  shard.outbox.push_back(std::move(event));
}

void ShardedScorer::FlushOutbox(Shard& shard) {
  if (shard.outbox.empty()) return;
  const size_t pushed = collector_->PushBatch(shard.outbox, [this] {
    if (options_.collector_notify) options_.collector_notify();
  });
  const size_t refused = shard.outbox.size() - pushed;
  shard.outbox.clear();
  if (pushed > 0) {
    forwarded_.fetch_add(pushed, std::memory_order_release);
    if (options_.collector_notify) options_.collector_notify();
  }
  if (refused == 0) return;
  // The collector refused (it closes before the scorer during engine
  // shutdown). Counting these as forwarded would make the engine's Flush
  // wait for a collected_ count that can never arrive.
  forward_failed_.fetch_add(refused, std::memory_order_release);
  if (stats_ != nullptr) stats_->Add(Counter::forward_failed, refused);
}

}  // namespace hod::stream
