#include "stream/health.h"

#include <cmath>
#include <limits>

namespace hod::stream {

std::string_view SensorHealthStateName(SensorHealthState state) {
  switch (state) {
    case SensorHealthState::kHealthy: return "healthy";
    case SensorHealthState::kSuspect: return "suspect";
    case SensorHealthState::kQuarantined: return "quarantined";
    case SensorHealthState::kRecovering: return "recovering";
  }
  return "?";
}

std::string_view HealthSignalName(HealthSignal signal) {
  switch (signal) {
    case HealthSignal::kClean: return "clean";
    case HealthSignal::kFlatline: return "flatline";
    case HealthSignal::kNonFinite: return "non-finite";
    case HealthSignal::kOutOfOrder: return "out-of-order";
    case HealthSignal::kDuplicate: return "duplicate";
    case HealthSignal::kStale: return "stale";
  }
  return "?";
}

SensorHealthTracker::SensorHealthTracker(SensorHealthOptions options,
                                         StreamStats* stats)
    : options_(options),
      stats_(stats),
      frontier_(-std::numeric_limits<ts::TimePoint>::infinity()),
      last_sweep_frontier_(-std::numeric_limits<ts::TimePoint>::infinity()) {}

Status SensorHealthTracker::AddSensor(const std::string& sensor_id,
                                      hierarchy::ProductionLevel level) {
  if (sensor_id.empty()) return Status::InvalidArgument("empty sensor id");
  auto [it, inserted] =
      sensors_.emplace(sensor_id, std::make_unique<Entry>(level));
  if (!inserted) {
    return Status::InvalidArgument("sensor already tracked: " + sensor_id);
  }
  return Status::Ok();
}

void SensorHealthTracker::AdvanceFrontier(ts::TimePoint ts) {
  ts::TimePoint seen = frontier_.load(std::memory_order_relaxed);
  while (ts > seen && !frontier_.compare_exchange_weak(
                          seen, ts, std::memory_order_relaxed)) {
  }
}

void SensorHealthTracker::LogTransition(const HealthTransition& transition) {
  std::lock_guard<std::mutex> lock(log_mu_);
  log_.push_back(transition);
}

void SensorHealthTracker::SetState(const std::string& sensor_id, Entry& entry,
                                   SensorHealthState to, HealthSignal reason,
                                   ts::TimePoint ts, HealthTransition* out) {
  HealthTransition transition;
  transition.sensor_id = sensor_id;
  transition.level = entry.level;
  transition.from = entry.state;
  transition.to = to;
  transition.reason = reason;
  transition.ts = ts;
  entry.state = to;
  entry.last_transition_ts = ts;
  entry.last_reason = reason;
  if (to == SensorHealthState::kQuarantined) {
    ++entry.quarantines;
    if (stats_ != nullptr) stats_->Add(Counter::sensor_faults);
  }
  if (to == SensorHealthState::kHealthy &&
      transition.from == SensorHealthState::kRecovering &&
      stats_ != nullptr) {
    stats_->Add(Counter::sensor_recoveries);
  }
  LogTransition(transition);
  if (out != nullptr) *out = transition;
}

std::optional<HealthTransition> SensorHealthTracker::Apply(
    const std::string& sensor_id, Entry& entry, HealthSignal signal,
    ts::TimePoint ts) {
  HealthTransition transition;
  bool transitioned = false;
  auto move_to = [&](SensorHealthState to, HealthSignal reason) {
    SetState(sensor_id, entry, to, reason, ts, &transition);
    transitioned = true;
  };

  if (signal == HealthSignal::kClean) {
    ++entry.clean_streak;
    if (entry.fault_evidence > 0) --entry.fault_evidence;
    switch (entry.state) {
      case SensorHealthState::kHealthy:
        break;
      case SensorHealthState::kSuspect:
        if (entry.clean_streak >= options_.suspect_clear_streak) {
          entry.fault_evidence = 0;
          move_to(SensorHealthState::kHealthy, HealthSignal::kClean);
        }
        break;
      case SensorHealthState::kQuarantined:
        move_to(SensorHealthState::kRecovering, HealthSignal::kClean);
        break;
      case SensorHealthState::kRecovering:
        if (entry.clean_streak >= options_.recovery_clean_streak) {
          entry.fault_evidence = 0;
          move_to(SensorHealthState::kHealthy, HealthSignal::kClean);
        }
        break;
    }
  } else {
    entry.clean_streak = 0;
    ++entry.fault_evidence;
    switch (entry.state) {
      case SensorHealthState::kHealthy:
        if (entry.fault_evidence >= options_.suspect_after) {
          move_to(SensorHealthState::kSuspect, signal);
        }
        break;
      case SensorHealthState::kSuspect:
        if (entry.fault_evidence >= options_.quarantine_after) {
          move_to(SensorHealthState::kQuarantined, signal);
        }
        break;
      case SensorHealthState::kQuarantined:
        break;
      case SensorHealthState::kRecovering:
        // One fault signal is enough to distrust a sensor that has not
        // finished proving itself again.
        move_to(SensorHealthState::kQuarantined, signal);
        break;
    }
  }
  if (!transitioned) return std::nullopt;
  return transition;
}

HealthObservation SensorHealthTracker::Observe(const std::string& sensor_id,
                                               ts::TimePoint ts,
                                               double value) {
  HealthObservation observation;
  if (!options_.enabled) return observation;
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) return observation;
  Entry& entry = *it->second;
  AdvanceFrontier(ts);

  std::lock_guard<std::mutex> lock(entry.mu);
  HealthSignal signal = HealthSignal::kClean;
  if (entry.has_last_value && ts <= entry.last_seen_ts) {
    // The router admits regressions within its tolerance; a timestamp
    // that fails to advance is duplicate/late delivery — fault evidence,
    // and the flatline run is left untouched (a replayed sample says
    // nothing new about the value).
    signal = HealthSignal::kDuplicate;
  } else {
    if (entry.has_last_value &&
        std::fabs(value - entry.last_value) <= options_.flatline_epsilon) {
      ++entry.flatline_run;
      if (entry.flatline_run >= options_.flatline_window) {
        signal = HealthSignal::kFlatline;
      }
    } else {
      entry.flatline_run = 0;
    }
    entry.last_seen_ts = ts;
  }
  entry.last_value = value;
  entry.has_last_value = true;

  std::optional<HealthTransition> transition =
      Apply(sensor_id, entry, signal, ts);
  observation.state = entry.state;
  observation.signal = signal;
  if (transition.has_value()) {
    observation.entered_quarantine =
        transition->to == SensorHealthState::kQuarantined;
    observation.recovered =
        transition->to == SensorHealthState::kHealthy &&
        transition->from == SensorHealthState::kRecovering;
  }
  if (observation.state == SensorHealthState::kQuarantined &&
      stats_ != nullptr) {
    // The scoring tier withholds this sample from its monitor and from
    // level aggregation; account for it here, in the one place that knows.
    stats_->Add(Counter::quarantined_samples);
    stats_->RecordLevelQuarantined(entry.level);
  }
  return observation;
}

std::optional<HealthTransition> SensorHealthTracker::RecordRejection(
    const std::string& sensor_id, HealthSignal signal, ts::TimePoint ts) {
  if (!options_.enabled) return std::nullopt;
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) return std::nullopt;
  Entry& entry = *it->second;
  std::lock_guard<std::mutex> lock(entry.mu);
  return Apply(sensor_id, entry, signal, ts);
}

std::vector<HealthTransition> SensorHealthTracker::SweepStale() {
  std::vector<HealthTransition> transitions;
  if (!options_.enabled || options_.staleness_timeout <= 0.0) {
    return transitions;
  }
  const ts::TimePoint frontier = frontier_.load(std::memory_order_relaxed);
  if (!std::isfinite(frontier)) return transitions;
  // No ingest advanced stream time since the previous sweep: the whole
  // plant is paused, and "lagging the frontier" carries no information.
  // Without this gate, a quiesced engine (checkpoint, Stop, or an idle
  // restored one) would quarantine every channel on the watchdog cadence.
  if (frontier <= last_sweep_frontier_.load(std::memory_order_relaxed)) {
    return transitions;
  }
  last_sweep_frontier_.store(frontier, std::memory_order_relaxed);
  for (auto& [sensor_id, entry] : sensors_) {
    std::lock_guard<std::mutex> lock(entry->mu);
    // A sensor that has never reported is absent, not stale: quarantining
    // it would fire a fault alert for every slow-starting channel.
    if (!entry->has_last_value) continue;
    if (entry->state == SensorHealthState::kQuarantined) continue;
    if (frontier - entry->last_seen_ts <= options_.staleness_timeout) {
      continue;
    }
    HealthTransition transition;
    SetState(sensor_id, *entry, SensorHealthState::kQuarantined,
             HealthSignal::kStale, frontier, &transition);
    entry->clean_streak = 0;
    transitions.push_back(std::move(transition));
  }
  return transitions;
}

SensorHealthState SensorHealthTracker::StateOf(
    const std::string& sensor_id) const {
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) return SensorHealthState::kHealthy;
  std::lock_guard<std::mutex> lock(it->second->mu);
  return it->second->state;
}

SensorHealthSnapshot SensorHealthTracker::Snapshot() const {
  SensorHealthSnapshot snapshot;
  snapshot.sensors.reserve(sensors_.size());
  for (const auto& [sensor_id, entry] : sensors_) {
    std::lock_guard<std::mutex> lock(entry->mu);
    SensorHealthStatus status;
    status.sensor_id = sensor_id;
    status.level = entry->level;
    status.state = entry->state;
    status.fault_evidence = entry->fault_evidence;
    status.clean_streak = entry->clean_streak;
    status.flatline_run = entry->flatline_run;
    status.has_last_value = entry->has_last_value;
    status.last_value = entry->last_value;
    status.last_seen_ts = entry->last_seen_ts;
    status.last_transition_ts = entry->last_transition_ts;
    status.last_reason = entry->last_reason;
    status.quarantines = entry->quarantines;
    switch (entry->state) {
      case SensorHealthState::kHealthy: ++snapshot.healthy; break;
      case SensorHealthState::kSuspect: ++snapshot.suspect; break;
      case SensorHealthState::kQuarantined: ++snapshot.quarantined; break;
      case SensorHealthState::kRecovering: ++snapshot.recovering; break;
    }
    snapshot.sensors.push_back(std::move(status));
  }
  return snapshot;
}

std::vector<HealthTransition> SensorHealthTracker::Transitions() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_;
}

std::vector<SensorHealthStatus> SensorHealthTracker::SaveState() const {
  return Snapshot().sensors;
}

Status SensorHealthTracker::RestoreState(
    const std::vector<SensorHealthStatus>& states) {
  for (const SensorHealthStatus& status : states) {
    auto it = sensors_.find(status.sensor_id);
    if (it == sensors_.end()) {
      return Status::NotFound("health state for unregistered sensor: " +
                              status.sensor_id);
    }
    Entry& entry = *it->second;
    std::lock_guard<std::mutex> lock(entry.mu);
    entry.state = status.state;
    entry.fault_evidence = status.fault_evidence;
    entry.clean_streak = status.clean_streak;
    entry.flatline_run = status.flatline_run;
    entry.has_last_value = status.has_last_value;
    entry.last_value = status.last_value;
    entry.last_seen_ts = status.last_seen_ts;
    entry.last_transition_ts = status.last_transition_ts;
    entry.last_reason = status.last_reason;
    entry.quarantines = status.quarantines;
    if (status.has_last_value) AdvanceFrontier(status.last_seen_ts);
  }
  // A restored engine resumes with the frontier where the checkpoint left
  // it. Treat that as already swept: quarantine decisions belong to fresh
  // ingest advancing stream time, not to the restart itself (a victim
  // already lagging at checkpoint time would otherwise be quarantined by
  // the first wall-clock sweep of an idle restored engine).
  last_sweep_frontier_.store(frontier_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  return Status::Ok();
}

}  // namespace hod::stream
