#include "stream/checkpoint.h"

#include "hierarchy/serialization.h"

namespace hod::stream {

namespace {

namespace bin = hierarchy::bin;

/// "HODC" little-endian + format version.
/// v2: two more stats counters (closed-queue rejects, refused forwards).
/// v3: OutlierFinding gained the escalated flag; the stats gained the
///     escalation and checkpoint counter block.
/// v4: space-axis layer — peer-group state, the quarantine-onset
///     correlation deque, and the open group outage; FindingKind gained
///     kPeerDrift and kGroupOutage; the stats gained the peer counters.
/// v5: concept-shift layer — shift_enabled flag + BocpdOptions
///     fingerprint in the header, per-sensor BOCPD run-length posterior
///     and baseline-lifecycle fields (epoch / frozen / pending reset) in
///     the monitor state, the collector's concept-shift ring + total,
///     FindingKind gained kConceptShift, and the stats gained the
///     concept-shift counters. v4 images still restore (new fields
///     default to "layer off").
/// v6: read-side serving tier — the stats gained the snapshot-publish
///     counter. v4/v5 images still restore.
/// The stats section holds every HOD_STREAM_COUNTERS row in table order
/// (a row is present when the image's version >= its `since`), then the
/// per-level arrays and the batch histogram.
constexpr uint32_t kMagic = 0x43444F48u;
constexpr uint32_t kVersion = 6;
constexpr uint32_t kMinVersion = 4;

// The stats section is positional: an older image holds exactly the rows
// up to its version, so rows must stay in `since` order within the
// supported range.
static_assert(
    [] {
      uint32_t since = kMinVersion;
      for (const CounterInfo& row : kCounters) {
        if (row.since < since || row.since > kVersion) return false;
        since = row.since;
      }
      return true;
    }(),
    "HOD_STREAM_COUNTERS rows must be in checkpoint-version order");

void WriteBool(std::ostream& os, bool value) {
  bin::WriteU8(os, value ? 1 : 0);
}

StatusOr<bool> ReadBool(std::istream& is) {
  HOD_ASSIGN_OR_RETURN(uint8_t value, bin::ReadU8(is));
  if (value > 1) return Status::InvalidArgument("bad bool byte");
  return value == 1;
}

void WriteLevel(std::ostream& os, hierarchy::ProductionLevel level) {
  bin::WriteU8(os, static_cast<uint8_t>(hierarchy::LevelValue(level)));
}

StatusOr<hierarchy::ProductionLevel> ReadLevel(std::istream& is) {
  HOD_ASSIGN_OR_RETURN(uint8_t value, bin::ReadU8(is));
  return hierarchy::LevelFromValue(static_cast<int>(value));
}

template <typename Enum>
StatusOr<Enum> ReadEnum(std::istream& is, uint8_t max_value,
                        const char* what) {
  HOD_ASSIGN_OR_RETURN(uint8_t value, bin::ReadU8(is));
  if (value > max_value) {
    return Status::InvalidArgument(std::string("out-of-range ") + what);
  }
  return static_cast<Enum>(value);
}

void WriteF64Vector(std::ostream& os, const std::vector<double>& values) {
  bin::WriteU32(os, static_cast<uint32_t>(values.size()));
  for (double value : values) bin::WriteF64(os, value);
}

StatusOr<std::vector<double>> ReadF64Vector(std::istream& is) {
  HOD_ASSIGN_OR_RETURN(uint32_t count, bin::ReadU32(is));
  if (count > (1u << 24)) {
    return Status::InvalidArgument("implausible vector length");
  }
  std::vector<double> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HOD_ASSIGN_OR_RETURN(double value, bin::ReadF64(is));
    values.push_back(value);
  }
  return values;
}

void WriteU64Vector(std::ostream& os, const std::vector<uint64_t>& values) {
  bin::WriteU32(os, static_cast<uint32_t>(values.size()));
  for (uint64_t value : values) bin::WriteU64(os, value);
}

StatusOr<std::vector<uint64_t>> ReadU64Vector(std::istream& is) {
  HOD_ASSIGN_OR_RETURN(uint32_t count, bin::ReadU32(is));
  if (count > (1u << 24)) {
    return Status::InvalidArgument("implausible vector length");
  }
  std::vector<uint64_t> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HOD_ASSIGN_OR_RETURN(uint64_t value, bin::ReadU64(is));
    values.push_back(value);
  }
  return values;
}

void WriteMonitorOptions(std::ostream& os,
                         const core::OnlineMonitorOptions& options) {
  bin::WriteU64(os, options.warmup);
  bin::WriteU64(os, options.ar_order);
  bin::WriteF64(os, options.threshold);
  bin::WriteU64(os, options.raise_after);
  bin::WriteU64(os, options.clear_after);
  bin::WriteF64(os, options.sigma_scale);
  bin::WriteF64(os, options.scale_forgetting);
}

Status ReadMonitorOptions(std::istream& is,
                          core::OnlineMonitorOptions& options) {
  HOD_ASSIGN_OR_RETURN(uint64_t warmup, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(uint64_t ar_order, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(options.threshold, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(uint64_t raise_after, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(uint64_t clear_after, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(options.sigma_scale, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(options.scale_forgetting, bin::ReadF64(is));
  options.warmup = static_cast<size_t>(warmup);
  options.ar_order = static_cast<size_t>(ar_order);
  options.raise_after = static_cast<size_t>(raise_after);
  options.clear_after = static_cast<size_t>(clear_after);
  return Status::Ok();
}

void WriteMonitorState(std::ostream& os,
                       const core::OnlineMonitorState& state) {
  WriteF64Vector(os, state.warmup_buffer);
  WriteF64Vector(os, state.recent);
  WriteF64Vector(os, state.phi);
  bin::WriteF64(os, state.intercept);
  bin::WriteF64(os, state.residual_sigma);
  WriteBool(os, state.model_ready);
  WriteBool(os, state.alarm);
  bin::WriteU64(os, state.above_streak);
  bin::WriteU64(os, state.below_streak);
  bin::WriteU64(os, state.samples_seen);
  bin::WriteU64(os, state.alarms_raised);
  // v5: baseline lifecycle.
  bin::WriteU64(os, state.baseline_epoch);
  WriteBool(os, state.frozen);
  bin::WriteU8(os, state.pending_reset);
  bin::WriteF64(os, state.pending_level);
  bin::WriteF64(os, state.pending_sigma);
  bin::WriteU64(os, state.pending_support);
}

Status ReadMonitorState(std::istream& is, uint32_t version,
                        core::OnlineMonitorState& state) {
  HOD_ASSIGN_OR_RETURN(state.warmup_buffer, ReadF64Vector(is));
  HOD_ASSIGN_OR_RETURN(state.recent, ReadF64Vector(is));
  HOD_ASSIGN_OR_RETURN(state.phi, ReadF64Vector(is));
  HOD_ASSIGN_OR_RETURN(state.intercept, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(state.residual_sigma, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(state.model_ready, ReadBool(is));
  HOD_ASSIGN_OR_RETURN(state.alarm, ReadBool(is));
  HOD_ASSIGN_OR_RETURN(state.above_streak, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(state.below_streak, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(state.samples_seen, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(state.alarms_raised, bin::ReadU64(is));
  if (version >= 5) {
    HOD_ASSIGN_OR_RETURN(state.baseline_epoch, bin::ReadU64(is));
    HOD_ASSIGN_OR_RETURN(state.frozen, ReadBool(is));
    HOD_ASSIGN_OR_RETURN(state.pending_reset, bin::ReadU8(is));
    if (state.pending_reset > 2) {
      return Status::InvalidArgument("bad pending-reset byte");
    }
    HOD_ASSIGN_OR_RETURN(state.pending_level, bin::ReadF64(is));
    HOD_ASSIGN_OR_RETURN(state.pending_sigma, bin::ReadF64(is));
    HOD_ASSIGN_OR_RETURN(state.pending_support, bin::ReadU64(is));
  }
  return Status::Ok();
}

void WriteBocpdOptions(std::ostream& os, const core::BocpdOptions& options) {
  bin::WriteF64(os, options.hazard_lambda);
  bin::WriteU64(os, options.max_run_length);
  bin::WriteU64(os, options.warmup);
  bin::WriteU64(os, options.min_run_for_shift);
  bin::WriteF64(os, options.shift_posterior);
  bin::WriteF64(os, options.min_magnitude_sigmas);
  bin::WriteU64(os, options.cooldown);
  bin::WriteF64(os, options.prior_kappa);
  bin::WriteF64(os, options.prior_alpha);
  bin::WriteF64(os, options.prior_beta);
  bin::WriteF64(os, options.prior_mean);
}

Status ReadBocpdOptions(std::istream& is, core::BocpdOptions& options) {
  HOD_ASSIGN_OR_RETURN(options.hazard_lambda, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(uint64_t max_run_length, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(options.warmup, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(uint64_t min_run_for_shift, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(options.shift_posterior, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(options.min_magnitude_sigmas, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(options.cooldown, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(options.prior_kappa, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(options.prior_alpha, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(options.prior_beta, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(options.prior_mean, bin::ReadF64(is));
  options.max_run_length = static_cast<size_t>(max_run_length);
  options.min_run_for_shift = static_cast<size_t>(min_run_for_shift);
  return Status::Ok();
}

void WriteBocpdState(std::ostream& os, const core::BocpdState& state) {
  WriteF64Vector(os, state.weight);
  WriteF64Vector(os, state.mu);
  WriteF64Vector(os, state.kappa);
  WriteF64Vector(os, state.alpha);
  WriteF64Vector(os, state.beta);
  WriteU64Vector(os, state.run_length);
  bin::WriteU64(os, state.samples_seen);
  bin::WriteU64(os, state.shifts_confirmed);
  bin::WriteU64(os, state.cooldown_left);
  WriteBool(os, state.prior_seeded);
  bin::WriteF64(os, state.prior_mean);
  bin::WriteF64(os, state.stable_mean);
  bin::WriteF64(os, state.stable_sigma);
  bin::WriteU64(os, state.stable_support);
}

Status ReadBocpdState(std::istream& is, core::BocpdState& state) {
  HOD_ASSIGN_OR_RETURN(state.weight, ReadF64Vector(is));
  HOD_ASSIGN_OR_RETURN(state.mu, ReadF64Vector(is));
  HOD_ASSIGN_OR_RETURN(state.kappa, ReadF64Vector(is));
  HOD_ASSIGN_OR_RETURN(state.alpha, ReadF64Vector(is));
  HOD_ASSIGN_OR_RETURN(state.beta, ReadF64Vector(is));
  HOD_ASSIGN_OR_RETURN(state.run_length, ReadU64Vector(is));
  HOD_ASSIGN_OR_RETURN(state.samples_seen, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(state.shifts_confirmed, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(state.cooldown_left, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(state.prior_seeded, ReadBool(is));
  HOD_ASSIGN_OR_RETURN(state.prior_mean, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(state.stable_mean, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(state.stable_sigma, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(state.stable_support, bin::ReadU64(is));
  return Status::Ok();
}

void WriteShiftEvent(std::ostream& os, const ConceptShiftEvent& shift) {
  bin::WriteString(os, shift.sensor_id);
  WriteLevel(os, shift.level);
  bin::WriteF64(os, shift.ts);
  bin::WriteF64(os, shift.before_mean);
  bin::WriteF64(os, shift.after_mean);
  bin::WriteF64(os, shift.magnitude_sigmas);
  bin::WriteF64(os, shift.evidence);
  bin::WriteU64(os, shift.run_length);
}

Status ReadShiftEvent(std::istream& is, ConceptShiftEvent& shift) {
  HOD_ASSIGN_OR_RETURN(shift.sensor_id, bin::ReadString(is));
  HOD_ASSIGN_OR_RETURN(shift.level, ReadLevel(is));
  HOD_ASSIGN_OR_RETURN(shift.ts, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(shift.before_mean, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(shift.after_mean, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(shift.magnitude_sigmas, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(shift.evidence, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(shift.run_length, bin::ReadU64(is));
  return Status::Ok();
}

void WriteHealthStatus(std::ostream& os, const SensorHealthStatus& status) {
  bin::WriteU8(os, static_cast<uint8_t>(status.state));
  bin::WriteU64(os, status.fault_evidence);
  bin::WriteU64(os, status.clean_streak);
  bin::WriteU64(os, status.flatline_run);
  WriteBool(os, status.has_last_value);
  bin::WriteF64(os, status.last_value);
  bin::WriteF64(os, status.last_seen_ts);
  bin::WriteF64(os, status.last_transition_ts);
  bin::WriteU8(os, static_cast<uint8_t>(status.last_reason));
  bin::WriteU64(os, status.quarantines);
}

Status ReadHealthStatus(std::istream& is, SensorHealthStatus& status) {
  HOD_ASSIGN_OR_RETURN(
      status.state,
      ReadEnum<SensorHealthState>(
          is, static_cast<uint8_t>(SensorHealthState::kRecovering),
          "health state"));
  HOD_ASSIGN_OR_RETURN(status.fault_evidence, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(status.clean_streak, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(status.flatline_run, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(status.has_last_value, ReadBool(is));
  HOD_ASSIGN_OR_RETURN(status.last_value, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(status.last_seen_ts, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(status.last_transition_ts, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(
      status.last_reason,
      ReadEnum<HealthSignal>(is, static_cast<uint8_t>(HealthSignal::kStale),
                             "health signal"));
  HOD_ASSIGN_OR_RETURN(status.quarantines, bin::ReadU64(is));
  return Status::Ok();
}

void WriteLevelState(std::ostream& os, const LevelOutlierState& level) {
  bin::WriteU64(os, level.outlier_samples);
  bin::WriteU64(os, level.alarms_raised);
  bin::WriteU64(os, level.alarms_cleared);
  bin::WriteU64(os, level.active_alarms);
  bin::WriteU64(os, level.sensor_faults);
  bin::WriteU64(os, level.quarantined_sensors);
  bin::WriteF64(os, level.peak_score);
  bin::WriteF64(os, level.last_outlier_ts);
}

Status ReadLevelState(std::istream& is, LevelOutlierState& level) {
  HOD_ASSIGN_OR_RETURN(level.outlier_samples, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(level.alarms_raised, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(level.alarms_cleared, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(level.active_alarms, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(level.sensor_faults, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(level.quarantined_sensors, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(level.peak_score, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(level.last_outlier_ts, bin::ReadF64(is));
  return Status::Ok();
}

void WriteFinding(std::ostream& os, const core::OutlierFinding& finding) {
  bin::WriteU8(os, static_cast<uint8_t>(finding.kind));
  WriteLevel(os, finding.origin.level);
  bin::WriteString(os, finding.origin.entity);
  bin::WriteU64(os, finding.origin.index);
  bin::WriteF64(os, finding.origin.time);
  bin::WriteF64(os, finding.origin.score);
  bin::WriteU32(os, static_cast<uint32_t>(finding.global_score));
  bin::WriteF64(os, finding.outlierness);
  bin::WriteF64(os, finding.support);
  bin::WriteU64(os, finding.corresponding_sensors);
  WriteBool(os, finding.measurement_error_warning);
  WriteBool(os, finding.escalated);
  bin::WriteU32(os, static_cast<uint32_t>(finding.confirmed_levels.size()));
  for (hierarchy::ProductionLevel level : finding.confirmed_levels) {
    WriteLevel(os, level);
  }
  bin::WriteU32(os, static_cast<uint32_t>(finding.warnings.size()));
  for (const std::string& warning : finding.warnings) {
    bin::WriteString(os, warning);
  }
}

Status ReadFinding(std::istream& is, core::OutlierFinding& finding) {
  HOD_ASSIGN_OR_RETURN(
      finding.kind,
      ReadEnum<core::FindingKind>(
          is, static_cast<uint8_t>(core::FindingKind::kConceptShift),
          "finding kind"));
  HOD_ASSIGN_OR_RETURN(finding.origin.level, ReadLevel(is));
  HOD_ASSIGN_OR_RETURN(finding.origin.entity, bin::ReadString(is));
  HOD_ASSIGN_OR_RETURN(uint64_t index, bin::ReadU64(is));
  finding.origin.index = static_cast<size_t>(index);
  HOD_ASSIGN_OR_RETURN(finding.origin.time, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(finding.origin.score, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(uint32_t global_score, bin::ReadU32(is));
  finding.global_score = static_cast<int>(global_score);
  HOD_ASSIGN_OR_RETURN(finding.outlierness, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(finding.support, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(uint64_t corresponding, bin::ReadU64(is));
  finding.corresponding_sensors = static_cast<size_t>(corresponding);
  HOD_ASSIGN_OR_RETURN(finding.measurement_error_warning, ReadBool(is));
  HOD_ASSIGN_OR_RETURN(finding.escalated, ReadBool(is));
  HOD_ASSIGN_OR_RETURN(uint32_t num_levels, bin::ReadU32(is));
  if (num_levels > 64) {
    return Status::InvalidArgument("implausible confirmed-level count");
  }
  finding.confirmed_levels.clear();
  for (uint32_t i = 0; i < num_levels; ++i) {
    HOD_ASSIGN_OR_RETURN(hierarchy::ProductionLevel level, ReadLevel(is));
    finding.confirmed_levels.push_back(level);
  }
  HOD_ASSIGN_OR_RETURN(uint32_t num_warnings, bin::ReadU32(is));
  if (num_warnings > (1u << 16)) {
    return Status::InvalidArgument("implausible warning count");
  }
  finding.warnings.clear();
  for (uint32_t i = 0; i < num_warnings; ++i) {
    HOD_ASSIGN_OR_RETURN(std::string warning, bin::ReadString(is));
    finding.warnings.push_back(std::move(warning));
  }
  return Status::Ok();
}

void WriteStats(std::ostream& os, const StreamStatsSnapshot& stats) {
  for (const CounterInfo& row : kCounters) bin::WriteU64(os, stats.*row.field);
  for (uint64_t count : stats.level_dropped) bin::WriteU64(os, count);
  for (uint64_t count : stats.level_rejected) bin::WriteU64(os, count);
  for (uint64_t count : stats.level_quarantined) bin::WriteU64(os, count);
  for (uint64_t count : stats.batch_size_histogram) bin::WriteU64(os, count);
}

Status ReadStats(std::istream& is, uint32_t version,
                 StreamStatsSnapshot& stats) {
  // A row absent from an older image resumes at zero.
  for (const CounterInfo& row : kCounters) {
    if (version >= row.since) {
      HOD_ASSIGN_OR_RETURN(stats.*row.field, bin::ReadU64(is));
    }
  }
  for (uint64_t& count : stats.level_dropped) {
    HOD_ASSIGN_OR_RETURN(count, bin::ReadU64(is));
  }
  for (uint64_t& count : stats.level_rejected) {
    HOD_ASSIGN_OR_RETURN(count, bin::ReadU64(is));
  }
  for (uint64_t& count : stats.level_quarantined) {
    HOD_ASSIGN_OR_RETURN(count, bin::ReadU64(is));
  }
  for (uint64_t& count : stats.batch_size_histogram) {
    HOD_ASSIGN_OR_RETURN(count, bin::ReadU64(is));
  }
  return Status::Ok();
}

constexpr uint8_t kMaxPolicy =
    static_cast<uint8_t>(BackpressurePolicy::kBlockWithTimeout);

void WriteQuarantined(std::ostream& os, const QuarantinedSensor& sensor) {
  bin::WriteString(os, sensor.sensor_id);
  WriteLevel(os, sensor.level);
  bin::WriteF64(os, sensor.since);
  bin::WriteU8(os, static_cast<uint8_t>(sensor.reason));
}

Status ReadQuarantined(std::istream& is, QuarantinedSensor& sensor) {
  HOD_ASSIGN_OR_RETURN(sensor.sensor_id, bin::ReadString(is));
  HOD_ASSIGN_OR_RETURN(sensor.level, ReadLevel(is));
  HOD_ASSIGN_OR_RETURN(sensor.since, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(
      sensor.reason,
      ReadEnum<HealthSignal>(is, static_cast<uint8_t>(HealthSignal::kStale),
                             "health signal"));
  return Status::Ok();
}

void WritePeerMember(std::ostream& os, const PeerMemberState& member) {
  bin::WriteString(os, member.sensor_id);
  WriteBool(os, member.has_last);
  bin::WriteF64(os, member.last_ts);
  bin::WriteF64(os, member.last_value);
  WriteF64Vector(os, member.ring_ts);
  WriteF64Vector(os, member.ring_residual);
  bin::WriteU64(os, member.breach_streak);
  bin::WriteU64(os, member.calm_streak);
  WriteBool(os, member.fired);
  bin::WriteU64(os, member.deviations);
}

Status ReadPeerMember(std::istream& is, PeerMemberState& member) {
  HOD_ASSIGN_OR_RETURN(member.sensor_id, bin::ReadString(is));
  HOD_ASSIGN_OR_RETURN(member.has_last, ReadBool(is));
  HOD_ASSIGN_OR_RETURN(member.last_ts, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(member.last_value, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(member.ring_ts, ReadF64Vector(is));
  HOD_ASSIGN_OR_RETURN(member.ring_residual, ReadF64Vector(is));
  if (member.ring_ts.size() != member.ring_residual.size()) {
    return Status::InvalidArgument("peer ring length mismatch");
  }
  HOD_ASSIGN_OR_RETURN(member.breach_streak, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(member.calm_streak, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(member.fired, ReadBool(is));
  HOD_ASSIGN_OR_RETURN(member.deviations, bin::ReadU64(is));
  return Status::Ok();
}

}  // namespace

Status WriteEngineCheckpoint(const EngineCheckpoint& checkpoint,
                             std::ostream& os) {
  bin::WriteU32(os, kMagic);
  bin::WriteU32(os, kVersion);
  WriteMonitorOptions(os, checkpoint.monitor);
  bin::WriteF64(os, checkpoint.out_of_order_tolerance);
  WriteBool(os, checkpoint.shift_enabled);
  WriteBocpdOptions(os, checkpoint.bocpd);

  bin::WriteU32(os, static_cast<uint32_t>(checkpoint.sensors.size()));
  for (const EngineCheckpoint::SensorState& sensor : checkpoint.sensors) {
    bin::WriteString(os, sensor.sensor_id);
    WriteLevel(os, sensor.level);
    WriteBool(os, sensor.has_policy);
    bin::WriteU8(os, static_cast<uint8_t>(sensor.policy));
    bin::WriteF64(os, sensor.frontier);
    WriteHealthStatus(os, sensor.health);
    WriteMonitorState(os, sensor.monitor);
    WriteBool(os, sensor.has_bocpd);
    if (sensor.has_bocpd) WriteBocpdState(os, sensor.bocpd);
  }

  for (const LevelOutlierState& level : checkpoint.levels) {
    WriteLevelState(os, level);
  }
  bin::WriteU32(os, static_cast<uint32_t>(checkpoint.active_alarms.size()));
  for (const ActiveAlarm& alarm : checkpoint.active_alarms) {
    bin::WriteString(os, alarm.sensor_id);
    WriteLevel(os, alarm.level);
    bin::WriteF64(os, alarm.since);
    bin::WriteF64(os, alarm.peak_score);
  }
  bin::WriteU32(os, static_cast<uint32_t>(checkpoint.quarantined.size()));
  for (const QuarantinedSensor& sensor : checkpoint.quarantined) {
    bin::WriteString(os, sensor.sensor_id);
    WriteLevel(os, sensor.level);
    bin::WriteF64(os, sensor.since);
    bin::WriteU8(os, static_cast<uint8_t>(sensor.reason));
  }
  bin::WriteU64(os, checkpoint.events_seen);
  bin::WriteU64(os, checkpoint.events_at_last_snapshot);
  bin::WriteU64(os, checkpoint.next_sequence);

  bin::WriteU32(os, static_cast<uint32_t>(checkpoint.peer_groups.size()));
  for (const PeerGroupState& group : checkpoint.peer_groups) {
    bin::WriteString(os, group.group_id);
    bin::WriteU32(os, static_cast<uint32_t>(group.members.size()));
    for (const PeerMemberState& member : group.members) {
      WritePeerMember(os, member);
    }
  }
  bin::WriteU32(os, static_cast<uint32_t>(checkpoint.pending_faults.size()));
  for (const QuarantinedSensor& sensor : checkpoint.pending_faults) {
    WriteQuarantined(os, sensor);
  }
  WriteBool(os, checkpoint.outage_active);
  bin::WriteF64(os, checkpoint.outage_since);
  bin::WriteU32(os, static_cast<uint32_t>(checkpoint.outage_members.size()));
  for (const std::string& member : checkpoint.outage_members) {
    bin::WriteString(os, member);
  }
  bin::WriteF64(os, checkpoint.collector_frontier);

  bin::WriteU32(os, static_cast<uint32_t>(checkpoint.recent_shifts.size()));
  for (const ConceptShiftEvent& shift : checkpoint.recent_shifts) {
    WriteShiftEvent(os, shift);
  }
  bin::WriteU64(os, checkpoint.concept_shifts_total);

  bin::WriteU32(os, static_cast<uint32_t>(checkpoint.findings.size()));
  for (const core::OutlierFinding& finding : checkpoint.findings) {
    WriteFinding(os, finding);
  }

  WriteStats(os, checkpoint.stats);
  if (!os.good()) return Status::Internal("checkpoint stream write failed");
  return Status::Ok();
}

StatusOr<EngineCheckpoint> ReadEngineCheckpoint(std::istream& is) {
  HOD_ASSIGN_OR_RETURN(uint32_t magic, bin::ReadU32(is));
  if (magic != kMagic) {
    return Status::InvalidArgument("not an engine checkpoint (bad magic)");
  }
  HOD_ASSIGN_OR_RETURN(uint32_t version, bin::ReadU32(is));
  if (version < kMinVersion || version > kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  EngineCheckpoint checkpoint;
  HOD_RETURN_IF_ERROR(ReadMonitorOptions(is, checkpoint.monitor));
  HOD_ASSIGN_OR_RETURN(checkpoint.out_of_order_tolerance, bin::ReadF64(is));
  if (version >= 5) {
    HOD_ASSIGN_OR_RETURN(checkpoint.shift_enabled, ReadBool(is));
    HOD_RETURN_IF_ERROR(ReadBocpdOptions(is, checkpoint.bocpd));
  }

  HOD_ASSIGN_OR_RETURN(uint32_t num_sensors, bin::ReadU32(is));
  if (num_sensors > (1u << 22)) {
    return Status::InvalidArgument("implausible sensor count");
  }
  checkpoint.sensors.reserve(num_sensors);
  for (uint32_t i = 0; i < num_sensors; ++i) {
    EngineCheckpoint::SensorState sensor;
    HOD_ASSIGN_OR_RETURN(sensor.sensor_id, bin::ReadString(is));
    HOD_ASSIGN_OR_RETURN(sensor.level, ReadLevel(is));
    HOD_ASSIGN_OR_RETURN(sensor.has_policy, ReadBool(is));
    HOD_ASSIGN_OR_RETURN(
        sensor.policy,
        ReadEnum<BackpressurePolicy>(is, kMaxPolicy, "backpressure policy"));
    HOD_ASSIGN_OR_RETURN(sensor.frontier, bin::ReadF64(is));
    HOD_RETURN_IF_ERROR(ReadHealthStatus(is, sensor.health));
    sensor.health.sensor_id = sensor.sensor_id;
    sensor.health.level = sensor.level;
    HOD_RETURN_IF_ERROR(ReadMonitorState(is, version, sensor.monitor));
    if (version >= 5) {
      HOD_ASSIGN_OR_RETURN(sensor.has_bocpd, ReadBool(is));
      if (sensor.has_bocpd) {
        HOD_RETURN_IF_ERROR(ReadBocpdState(is, sensor.bocpd));
      }
    }
    checkpoint.sensors.push_back(std::move(sensor));
  }

  for (LevelOutlierState& level : checkpoint.levels) {
    HOD_RETURN_IF_ERROR(ReadLevelState(is, level));
  }
  HOD_ASSIGN_OR_RETURN(uint32_t num_alarms, bin::ReadU32(is));
  if (num_alarms > (1u << 22)) {
    return Status::InvalidArgument("implausible alarm count");
  }
  checkpoint.active_alarms.reserve(num_alarms);
  for (uint32_t i = 0; i < num_alarms; ++i) {
    ActiveAlarm alarm;
    HOD_ASSIGN_OR_RETURN(alarm.sensor_id, bin::ReadString(is));
    HOD_ASSIGN_OR_RETURN(alarm.level, ReadLevel(is));
    HOD_ASSIGN_OR_RETURN(alarm.since, bin::ReadF64(is));
    HOD_ASSIGN_OR_RETURN(alarm.peak_score, bin::ReadF64(is));
    checkpoint.active_alarms.push_back(std::move(alarm));
  }
  HOD_ASSIGN_OR_RETURN(uint32_t num_quarantined, bin::ReadU32(is));
  if (num_quarantined > (1u << 22)) {
    return Status::InvalidArgument("implausible quarantine count");
  }
  checkpoint.quarantined.reserve(num_quarantined);
  for (uint32_t i = 0; i < num_quarantined; ++i) {
    QuarantinedSensor sensor;
    HOD_ASSIGN_OR_RETURN(sensor.sensor_id, bin::ReadString(is));
    HOD_ASSIGN_OR_RETURN(sensor.level, ReadLevel(is));
    HOD_ASSIGN_OR_RETURN(sensor.since, bin::ReadF64(is));
    HOD_ASSIGN_OR_RETURN(
        sensor.reason,
        ReadEnum<HealthSignal>(is, static_cast<uint8_t>(HealthSignal::kStale),
                               "health signal"));
    checkpoint.quarantined.push_back(std::move(sensor));
  }
  HOD_ASSIGN_OR_RETURN(checkpoint.events_seen, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(checkpoint.events_at_last_snapshot, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(checkpoint.next_sequence, bin::ReadU64(is));

  HOD_ASSIGN_OR_RETURN(uint32_t num_groups, bin::ReadU32(is));
  if (num_groups > (1u << 20)) {
    return Status::InvalidArgument("implausible peer-group count");
  }
  checkpoint.peer_groups.reserve(num_groups);
  for (uint32_t i = 0; i < num_groups; ++i) {
    PeerGroupState group;
    HOD_ASSIGN_OR_RETURN(group.group_id, bin::ReadString(is));
    HOD_ASSIGN_OR_RETURN(uint32_t num_members, bin::ReadU32(is));
    if (num_members > (1u << 20)) {
      return Status::InvalidArgument("implausible peer-member count");
    }
    group.members.resize(num_members);
    for (uint32_t j = 0; j < num_members; ++j) {
      HOD_RETURN_IF_ERROR(ReadPeerMember(is, group.members[j]));
    }
    checkpoint.peer_groups.push_back(std::move(group));
  }
  HOD_ASSIGN_OR_RETURN(uint32_t num_pending, bin::ReadU32(is));
  if (num_pending > (1u << 22)) {
    return Status::InvalidArgument("implausible pending-fault count");
  }
  checkpoint.pending_faults.resize(num_pending);
  for (uint32_t i = 0; i < num_pending; ++i) {
    HOD_RETURN_IF_ERROR(ReadQuarantined(is, checkpoint.pending_faults[i]));
  }
  HOD_ASSIGN_OR_RETURN(checkpoint.outage_active, ReadBool(is));
  HOD_ASSIGN_OR_RETURN(checkpoint.outage_since, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(uint32_t num_outage_members, bin::ReadU32(is));
  if (num_outage_members > (1u << 22)) {
    return Status::InvalidArgument("implausible outage-member count");
  }
  checkpoint.outage_members.reserve(num_outage_members);
  for (uint32_t i = 0; i < num_outage_members; ++i) {
    HOD_ASSIGN_OR_RETURN(std::string member, bin::ReadString(is));
    checkpoint.outage_members.push_back(std::move(member));
  }
  HOD_ASSIGN_OR_RETURN(checkpoint.collector_frontier, bin::ReadF64(is));

  if (version >= 5) {
    HOD_ASSIGN_OR_RETURN(uint32_t num_shifts, bin::ReadU32(is));
    if (num_shifts > (1u << 20)) {
      return Status::InvalidArgument("implausible shift count");
    }
    checkpoint.recent_shifts.resize(num_shifts);
    for (uint32_t i = 0; i < num_shifts; ++i) {
      HOD_RETURN_IF_ERROR(ReadShiftEvent(is, checkpoint.recent_shifts[i]));
    }
    HOD_ASSIGN_OR_RETURN(checkpoint.concept_shifts_total, bin::ReadU64(is));
  }

  HOD_ASSIGN_OR_RETURN(uint32_t num_findings, bin::ReadU32(is));
  if (num_findings > (1u << 24)) {
    return Status::InvalidArgument("implausible finding count");
  }
  checkpoint.findings.resize(num_findings);
  for (uint32_t i = 0; i < num_findings; ++i) {
    HOD_RETURN_IF_ERROR(ReadFinding(is, checkpoint.findings[i]));
  }

  HOD_RETURN_IF_ERROR(ReadStats(is, version, checkpoint.stats));
  return checkpoint;
}

}  // namespace hod::stream
