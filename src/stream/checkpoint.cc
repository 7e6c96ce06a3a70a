#include "stream/checkpoint.h"

#include <string>
#include <string_view>

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

void WriteLevel(bin::ByteWriter& out, hierarchy::ProductionLevel level) {
  out.WriteU8(static_cast<uint8_t>(hierarchy::LevelValue(level)));
}

StatusOr<hierarchy::ProductionLevel> ReadLevel(bin::ByteReader& in) {
  HOD_ASSIGN_OR_RETURN(uint8_t value, in.ReadU8());
  return hierarchy::LevelFromValue(static_cast<int>(value));
}

template <typename Enum>
StatusOr<Enum> ReadEnum(bin::ByteReader& in, uint8_t max_value,
                        const char* what) {
  HOD_ASSIGN_OR_RETURN(uint8_t value, in.ReadU8());
  if (value > max_value) {
    return Status::InvalidArgument(std::string("out-of-range ") + what);
  }
  return static_cast<Enum>(value);
}

// Minimum encoded size of each counted record: empty strings and vectors,
// and the oldest supported (v4) layout. A count read from an image is
// refused before anything is reserved for it when the bytes left could
// not hold that many records.
constexpr size_t kMinStringBytes = 4;  // u32 length
// id 4, level 1, has_policy 1, policy 1, frontier 8; health 59 (state 1,
// three u64 24, has_last 1, three f64 24, reason 1, quarantines 8); v4
// monitor 62 (three vector counts 12, two f64 16, two bools 2, four u64 32).
constexpr size_t kMinSensorBytes = 15 + 59 + 62;
constexpr size_t kMinAlarmBytes = 4 + 1 + 8 + 8;
constexpr size_t kMinQuarantinedBytes = 4 + 1 + 8 + 1;
constexpr size_t kMinPeerGroupBytes = 4 + 4;  // id, member count
// id 4, has_last 1, last_ts 8, last_value 8, two ring counts 8, two
// streaks 16, fired 1, deviations 8.
constexpr size_t kMinPeerMemberBytes = 4 + 1 + 8 + 8 + 8 + 16 + 1 + 8;
constexpr size_t kMinShiftBytes = 4 + 1 + 5 * 8 + 8;
// kind 1, level 1, entity 4, index 8, time 8, score 8, global score 4,
// outlierness 8, support 8, corresponding 8, two bools 2, two counts 8.
constexpr size_t kMinFindingBytes = 1 + 1 + 4 + 8 + 8 + 8 + 4 + 8 + 8 + 8 +
                                    2 + 8;

void WriteMonitorOptions(bin::ByteWriter& out,
                         const core::OnlineMonitorOptions& options) {
  out.WriteU64(options.warmup);
  out.WriteU64(options.ar_order);
  out.WriteF64(options.threshold);
  out.WriteU64(options.raise_after);
  out.WriteU64(options.clear_after);
  out.WriteF64(options.sigma_scale);
  out.WriteF64(options.scale_forgetting);
}

Status ReadMonitorOptions(bin::ByteReader& in,
                          core::OnlineMonitorOptions& options) {
  HOD_ASSIGN_OR_RETURN(uint64_t warmup, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(uint64_t ar_order, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(options.threshold, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(uint64_t raise_after, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(uint64_t clear_after, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(options.sigma_scale, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(options.scale_forgetting, in.ReadF64());
  options.warmup = static_cast<size_t>(warmup);
  options.ar_order = static_cast<size_t>(ar_order);
  options.raise_after = static_cast<size_t>(raise_after);
  options.clear_after = static_cast<size_t>(clear_after);
  return Status::Ok();
}

void WriteMonitorState(bin::ByteWriter& out,
                       const core::OnlineMonitorState& state) {
  out.WriteF64Vector(state.warmup_buffer);
  out.WriteF64Vector(state.recent);
  out.WriteF64Vector(state.phi);
  out.WriteF64(state.intercept);
  out.WriteF64(state.residual_sigma);
  out.WriteBool(state.model_ready);
  out.WriteBool(state.alarm);
  out.WriteU64(state.above_streak);
  out.WriteU64(state.below_streak);
  out.WriteU64(state.samples_seen);
  out.WriteU64(state.alarms_raised);
  // v5: baseline lifecycle.
  out.WriteU64(state.baseline_epoch);
  out.WriteBool(state.frozen);
  out.WriteU8(state.pending_reset);
  out.WriteF64(state.pending_level);
  out.WriteF64(state.pending_sigma);
  out.WriteU64(state.pending_support);
}

Status ReadMonitorState(bin::ByteReader& in, uint32_t version,
                        core::OnlineMonitorState& state) {
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(state.warmup_buffer));
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(state.recent));
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(state.phi));
  HOD_ASSIGN_OR_RETURN(state.intercept, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(state.residual_sigma, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(state.model_ready, in.ReadBool());
  HOD_ASSIGN_OR_RETURN(state.alarm, in.ReadBool());
  HOD_ASSIGN_OR_RETURN(state.above_streak, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(state.below_streak, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(state.samples_seen, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(state.alarms_raised, in.ReadU64());
  if (version >= 5) {
    HOD_ASSIGN_OR_RETURN(state.baseline_epoch, in.ReadU64());
    HOD_ASSIGN_OR_RETURN(state.frozen, in.ReadBool());
    HOD_ASSIGN_OR_RETURN(state.pending_reset, in.ReadU8());
    if (state.pending_reset > 2) {
      return Status::InvalidArgument("bad pending-reset byte");
    }
    HOD_ASSIGN_OR_RETURN(state.pending_level, in.ReadF64());
    HOD_ASSIGN_OR_RETURN(state.pending_sigma, in.ReadF64());
    HOD_ASSIGN_OR_RETURN(state.pending_support, in.ReadU64());
  }
  return Status::Ok();
}

void WriteBocpdOptions(bin::ByteWriter& out,
                       const core::BocpdOptions& options) {
  out.WriteF64(options.hazard_lambda);
  out.WriteU64(options.max_run_length);
  out.WriteU64(options.warmup);
  out.WriteU64(options.min_run_for_shift);
  out.WriteF64(options.shift_posterior);
  out.WriteF64(options.min_magnitude_sigmas);
  out.WriteU64(options.cooldown);
  out.WriteF64(options.prior_kappa);
  out.WriteF64(options.prior_alpha);
  out.WriteF64(options.prior_beta);
  out.WriteF64(options.prior_mean);
}

Status ReadBocpdOptions(bin::ByteReader& in, core::BocpdOptions& options) {
  HOD_ASSIGN_OR_RETURN(options.hazard_lambda, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(uint64_t max_run_length, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(options.warmup, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(uint64_t min_run_for_shift, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(options.shift_posterior, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(options.min_magnitude_sigmas, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(options.cooldown, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(options.prior_kappa, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(options.prior_alpha, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(options.prior_beta, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(options.prior_mean, in.ReadF64());
  options.max_run_length = static_cast<size_t>(max_run_length);
  options.min_run_for_shift = static_cast<size_t>(min_run_for_shift);
  return Status::Ok();
}

void WriteBocpdState(bin::ByteWriter& out, const core::BocpdState& state) {
  out.WriteF64Vector(state.weight);
  out.WriteF64Vector(state.mu);
  out.WriteF64Vector(state.kappa);
  out.WriteF64Vector(state.alpha);
  out.WriteF64Vector(state.beta);
  out.WriteU64Vector(state.run_length);
  out.WriteU64(state.samples_seen);
  out.WriteU64(state.shifts_confirmed);
  out.WriteU64(state.cooldown_left);
  out.WriteBool(state.prior_seeded);
  out.WriteF64(state.prior_mean);
  out.WriteF64(state.stable_mean);
  out.WriteF64(state.stable_sigma);
  out.WriteU64(state.stable_support);
}

Status ReadBocpdState(bin::ByteReader& in, core::BocpdState& state) {
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(state.weight));
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(state.mu));
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(state.kappa));
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(state.alpha));
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(state.beta));
  HOD_RETURN_IF_ERROR(in.ReadU64Vector(state.run_length));
  HOD_ASSIGN_OR_RETURN(state.samples_seen, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(state.shifts_confirmed, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(state.cooldown_left, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(state.prior_seeded, in.ReadBool());
  HOD_ASSIGN_OR_RETURN(state.prior_mean, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(state.stable_mean, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(state.stable_sigma, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(state.stable_support, in.ReadU64());
  return Status::Ok();
}

void WriteShiftEvent(bin::ByteWriter& out, const ConceptShiftEvent& shift) {
  out.WriteString(shift.sensor_id);
  WriteLevel(out, shift.level);
  out.WriteF64(shift.ts);
  out.WriteF64(shift.before_mean);
  out.WriteF64(shift.after_mean);
  out.WriteF64(shift.magnitude_sigmas);
  out.WriteF64(shift.evidence);
  out.WriteU64(shift.run_length);
}

Status ReadShiftEvent(bin::ByteReader& in, ConceptShiftEvent& shift) {
  HOD_ASSIGN_OR_RETURN(shift.sensor_id, in.ReadString());
  HOD_ASSIGN_OR_RETURN(shift.level, ReadLevel(in));
  HOD_ASSIGN_OR_RETURN(shift.ts, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(shift.before_mean, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(shift.after_mean, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(shift.magnitude_sigmas, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(shift.evidence, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(shift.run_length, in.ReadU64());
  return Status::Ok();
}

void WriteHealthStatus(bin::ByteWriter& out, const SensorHealthStatus& status) {
  out.WriteU8(static_cast<uint8_t>(status.state));
  out.WriteU64(status.fault_evidence);
  out.WriteU64(status.clean_streak);
  out.WriteU64(status.flatline_run);
  out.WriteBool(status.has_last_value);
  out.WriteF64(status.last_value);
  out.WriteF64(status.last_seen_ts);
  out.WriteF64(status.last_transition_ts);
  out.WriteU8(static_cast<uint8_t>(status.last_reason));
  out.WriteU64(status.quarantines);
}

Status ReadHealthStatus(bin::ByteReader& in, SensorHealthStatus& status) {
  HOD_ASSIGN_OR_RETURN(
      status.state,
      ReadEnum<SensorHealthState>(
          in, static_cast<uint8_t>(SensorHealthState::kRecovering),
          "health state"));
  HOD_ASSIGN_OR_RETURN(status.fault_evidence, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(status.clean_streak, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(status.flatline_run, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(status.has_last_value, in.ReadBool());
  HOD_ASSIGN_OR_RETURN(status.last_value, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(status.last_seen_ts, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(status.last_transition_ts, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(
      status.last_reason,
      ReadEnum<HealthSignal>(in, static_cast<uint8_t>(HealthSignal::kStale),
                             "health signal"));
  HOD_ASSIGN_OR_RETURN(status.quarantines, in.ReadU64());
  return Status::Ok();
}

void WriteLevelState(bin::ByteWriter& out, const LevelOutlierState& level) {
  out.WriteU64(level.outlier_samples);
  out.WriteU64(level.alarms_raised);
  out.WriteU64(level.alarms_cleared);
  out.WriteU64(level.active_alarms);
  out.WriteU64(level.sensor_faults);
  out.WriteU64(level.quarantined_sensors);
  out.WriteF64(level.peak_score);
  out.WriteF64(level.last_outlier_ts);
}

Status ReadLevelState(bin::ByteReader& in, LevelOutlierState& level) {
  HOD_ASSIGN_OR_RETURN(level.outlier_samples, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(level.alarms_raised, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(level.alarms_cleared, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(level.active_alarms, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(level.sensor_faults, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(level.quarantined_sensors, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(level.peak_score, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(level.last_outlier_ts, in.ReadF64());
  return Status::Ok();
}

void WriteFinding(bin::ByteWriter& out, const core::OutlierFinding& finding) {
  out.WriteU8(static_cast<uint8_t>(finding.kind));
  WriteLevel(out, finding.origin.level);
  out.WriteString(finding.origin.entity);
  out.WriteU64(finding.origin.index);
  out.WriteF64(finding.origin.time);
  out.WriteF64(finding.origin.score);
  out.WriteU32(static_cast<uint32_t>(finding.global_score));
  out.WriteF64(finding.outlierness);
  out.WriteF64(finding.support);
  out.WriteU64(finding.corresponding_sensors);
  out.WriteBool(finding.measurement_error_warning);
  out.WriteBool(finding.escalated);
  out.WriteU32(static_cast<uint32_t>(finding.confirmed_levels.size()));
  for (hierarchy::ProductionLevel level : finding.confirmed_levels) {
    WriteLevel(out, level);
  }
  out.WriteU32(static_cast<uint32_t>(finding.warnings.size()));
  for (const std::string& warning : finding.warnings) {
    out.WriteString(warning);
  }
}

Status ReadFinding(bin::ByteReader& in, core::OutlierFinding& finding) {
  HOD_ASSIGN_OR_RETURN(
      finding.kind,
      ReadEnum<core::FindingKind>(
          in, static_cast<uint8_t>(core::FindingKind::kConceptShift),
          "finding kind"));
  HOD_ASSIGN_OR_RETURN(finding.origin.level, ReadLevel(in));
  HOD_ASSIGN_OR_RETURN(finding.origin.entity, in.ReadString());
  HOD_ASSIGN_OR_RETURN(uint64_t index, in.ReadU64());
  finding.origin.index = static_cast<size_t>(index);
  HOD_ASSIGN_OR_RETURN(finding.origin.time, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(finding.origin.score, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(uint32_t global_score, in.ReadU32());
  finding.global_score = static_cast<int>(global_score);
  HOD_ASSIGN_OR_RETURN(finding.outlierness, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(finding.support, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(uint64_t corresponding, in.ReadU64());
  finding.corresponding_sensors = static_cast<size_t>(corresponding);
  HOD_ASSIGN_OR_RETURN(finding.measurement_error_warning, in.ReadBool());
  HOD_ASSIGN_OR_RETURN(finding.escalated, in.ReadBool());
  HOD_ASSIGN_OR_RETURN(uint32_t num_levels, in.ReadU32());
  HOD_RETURN_IF_ERROR(in.CheckCount(num_levels, 1, "confirmed-level count"));
  finding.confirmed_levels.clear();
  finding.confirmed_levels.reserve(num_levels);
  for (uint32_t i = 0; i < num_levels; ++i) {
    HOD_ASSIGN_OR_RETURN(hierarchy::ProductionLevel level, ReadLevel(in));
    finding.confirmed_levels.push_back(level);
  }
  HOD_ASSIGN_OR_RETURN(uint32_t num_warnings, in.ReadU32());
  HOD_RETURN_IF_ERROR(
      in.CheckCount(num_warnings, kMinStringBytes, "warning count"));
  finding.warnings.clear();
  finding.warnings.reserve(num_warnings);
  for (uint32_t i = 0; i < num_warnings; ++i) {
    HOD_ASSIGN_OR_RETURN(std::string warning, in.ReadString());
    finding.warnings.push_back(std::move(warning));
  }
  return Status::Ok();
}

void WriteStats(bin::ByteWriter& out, const StreamStatsSnapshot& stats) {
  for (const CounterInfo& row : kCounters) out.WriteU64(stats.*row.field);
  for (uint64_t count : stats.level_dropped) out.WriteU64(count);
  for (uint64_t count : stats.level_rejected) out.WriteU64(count);
  for (uint64_t count : stats.level_quarantined) out.WriteU64(count);
  for (uint64_t count : stats.batch_size_histogram) out.WriteU64(count);
}

Status ReadStats(bin::ByteReader& in, uint32_t version,
                 StreamStatsSnapshot& stats) {
  // A row absent from an older image resumes at zero.
  for (const CounterInfo& row : kCounters) {
    if (version >= row.since) {
      HOD_ASSIGN_OR_RETURN(stats.*row.field, in.ReadU64());
    }
  }
  for (uint64_t& count : stats.level_dropped) {
    HOD_ASSIGN_OR_RETURN(count, in.ReadU64());
  }
  for (uint64_t& count : stats.level_rejected) {
    HOD_ASSIGN_OR_RETURN(count, in.ReadU64());
  }
  for (uint64_t& count : stats.level_quarantined) {
    HOD_ASSIGN_OR_RETURN(count, in.ReadU64());
  }
  for (uint64_t& count : stats.batch_size_histogram) {
    HOD_ASSIGN_OR_RETURN(count, in.ReadU64());
  }
  return Status::Ok();
}

constexpr uint8_t kMaxPolicy =
    static_cast<uint8_t>(BackpressurePolicy::kBlockWithTimeout);

void WriteQuarantined(bin::ByteWriter& out, const QuarantinedSensor& sensor) {
  out.WriteString(sensor.sensor_id);
  WriteLevel(out, sensor.level);
  out.WriteF64(sensor.since);
  out.WriteU8(static_cast<uint8_t>(sensor.reason));
}

Status ReadQuarantined(bin::ByteReader& in, QuarantinedSensor& sensor) {
  HOD_ASSIGN_OR_RETURN(sensor.sensor_id, in.ReadString());
  HOD_ASSIGN_OR_RETURN(sensor.level, ReadLevel(in));
  HOD_ASSIGN_OR_RETURN(sensor.since, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(
      sensor.reason,
      ReadEnum<HealthSignal>(in, static_cast<uint8_t>(HealthSignal::kStale),
                             "health signal"));
  return Status::Ok();
}

void WritePeerMember(bin::ByteWriter& out, const PeerMemberState& member) {
  out.WriteString(member.sensor_id);
  out.WriteBool(member.has_last);
  out.WriteF64(member.last_ts);
  out.WriteF64(member.last_value);
  out.WriteF64Vector(member.ring_ts);
  out.WriteF64Vector(member.ring_residual);
  out.WriteU64(member.breach_streak);
  out.WriteU64(member.calm_streak);
  out.WriteBool(member.fired);
  out.WriteU64(member.deviations);
}

Status ReadPeerMember(bin::ByteReader& in, PeerMemberState& member) {
  HOD_ASSIGN_OR_RETURN(member.sensor_id, in.ReadString());
  HOD_ASSIGN_OR_RETURN(member.has_last, in.ReadBool());
  HOD_ASSIGN_OR_RETURN(member.last_ts, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(member.last_value, in.ReadF64());
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(member.ring_ts));
  HOD_RETURN_IF_ERROR(in.ReadF64Vector(member.ring_residual));
  if (member.ring_ts.size() != member.ring_residual.size()) {
    return Status::InvalidArgument("peer ring length mismatch");
  }
  HOD_ASSIGN_OR_RETURN(member.breach_streak, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(member.calm_streak, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(member.fired, in.ReadBool());
  HOD_ASSIGN_OR_RETURN(member.deviations, in.ReadU64());
  return Status::Ok();
}

}  // namespace

void WriteEngineCheckpoint(const EngineCheckpoint& checkpoint,
                           bin::ByteWriter& out) {
  out.WriteU32(kMagic);
  out.WriteU32(kVersion);
  WriteMonitorOptions(out, checkpoint.monitor);
  out.WriteF64(checkpoint.out_of_order_tolerance);
  out.WriteBool(checkpoint.shift_enabled);
  WriteBocpdOptions(out, checkpoint.bocpd);

  out.WriteU32(static_cast<uint32_t>(checkpoint.sensors.size()));
  for (const EngineCheckpoint::SensorState& sensor : checkpoint.sensors) {
    out.WriteString(sensor.sensor_id);
    WriteLevel(out, sensor.level);
    out.WriteBool(sensor.has_policy);
    out.WriteU8(static_cast<uint8_t>(sensor.policy));
    out.WriteF64(sensor.frontier);
    WriteHealthStatus(out, sensor.health);
    WriteMonitorState(out, sensor.monitor);
    out.WriteBool(sensor.has_bocpd);
    if (sensor.has_bocpd) WriteBocpdState(out, sensor.bocpd);
  }

  for (const LevelOutlierState& level : checkpoint.levels) {
    WriteLevelState(out, level);
  }
  out.WriteU32(static_cast<uint32_t>(checkpoint.active_alarms.size()));
  for (const ActiveAlarm& alarm : checkpoint.active_alarms) {
    out.WriteString(alarm.sensor_id);
    WriteLevel(out, alarm.level);
    out.WriteF64(alarm.since);
    out.WriteF64(alarm.peak_score);
  }
  out.WriteU32(static_cast<uint32_t>(checkpoint.quarantined.size()));
  for (const QuarantinedSensor& sensor : checkpoint.quarantined) {
    WriteQuarantined(out, sensor);
  }
  out.WriteU64(checkpoint.events_seen);
  out.WriteU64(checkpoint.events_at_last_snapshot);
  out.WriteU64(checkpoint.next_sequence);

  out.WriteU32(static_cast<uint32_t>(checkpoint.peer_groups.size()));
  for (const PeerGroupState& group : checkpoint.peer_groups) {
    out.WriteString(group.group_id);
    out.WriteU32(static_cast<uint32_t>(group.members.size()));
    for (const PeerMemberState& member : group.members) {
      WritePeerMember(out, member);
    }
  }
  out.WriteU32(static_cast<uint32_t>(checkpoint.pending_faults.size()));
  for (const QuarantinedSensor& sensor : checkpoint.pending_faults) {
    WriteQuarantined(out, sensor);
  }
  out.WriteBool(checkpoint.outage_active);
  out.WriteF64(checkpoint.outage_since);
  out.WriteU32(static_cast<uint32_t>(checkpoint.outage_members.size()));
  for (const std::string& member : checkpoint.outage_members) {
    out.WriteString(member);
  }
  out.WriteF64(checkpoint.collector_frontier);

  out.WriteU32(static_cast<uint32_t>(checkpoint.recent_shifts.size()));
  for (const ConceptShiftEvent& shift : checkpoint.recent_shifts) {
    WriteShiftEvent(out, shift);
  }
  out.WriteU64(checkpoint.concept_shifts_total);

  out.WriteU32(static_cast<uint32_t>(checkpoint.findings.size()));
  for (const core::OutlierFinding& finding : checkpoint.findings) {
    WriteFinding(out, finding);
  }

  WriteStats(out, checkpoint.stats);
}

Status WriteEngineCheckpoint(const EngineCheckpoint& checkpoint,
                             std::ostream& os) {
  bin::ByteWriter out;
  WriteEngineCheckpoint(checkpoint, out);
  os.write(out.bytes().data(), static_cast<std::streamsize>(out.size()));
  if (!os.good()) return Status::Internal("checkpoint stream write failed");
  return Status::Ok();
}

StatusOr<EngineCheckpoint> ReadEngineCheckpoint(std::string_view image) {
  bin::ByteReader in(image);
  HOD_ASSIGN_OR_RETURN(uint32_t magic, in.ReadU32());
  if (magic != kMagic) {
    return Status::InvalidArgument("not an engine checkpoint (bad magic)");
  }
  HOD_ASSIGN_OR_RETURN(uint32_t version, in.ReadU32());
  if (version < kMinVersion || version > kVersion) {
    return Status::InvalidArgument("unsupported checkpoint version " +
                                   std::to_string(version));
  }
  EngineCheckpoint checkpoint;
  HOD_RETURN_IF_ERROR(ReadMonitorOptions(in, checkpoint.monitor));
  HOD_ASSIGN_OR_RETURN(checkpoint.out_of_order_tolerance, in.ReadF64());
  if (version >= 5) {
    HOD_ASSIGN_OR_RETURN(checkpoint.shift_enabled, in.ReadBool());
    HOD_RETURN_IF_ERROR(ReadBocpdOptions(in, checkpoint.bocpd));
  }

  HOD_ASSIGN_OR_RETURN(uint32_t num_sensors, in.ReadU32());
  HOD_RETURN_IF_ERROR(
      in.CheckCount(num_sensors, kMinSensorBytes, "sensor count"));
  checkpoint.sensors.resize(num_sensors);
  for (EngineCheckpoint::SensorState& sensor : checkpoint.sensors) {
    HOD_ASSIGN_OR_RETURN(sensor.sensor_id, in.ReadString());
    HOD_ASSIGN_OR_RETURN(sensor.level, ReadLevel(in));
    HOD_ASSIGN_OR_RETURN(sensor.has_policy, in.ReadBool());
    HOD_ASSIGN_OR_RETURN(
        sensor.policy,
        ReadEnum<BackpressurePolicy>(in, kMaxPolicy, "backpressure policy"));
    HOD_ASSIGN_OR_RETURN(sensor.frontier, in.ReadF64());
    HOD_RETURN_IF_ERROR(ReadHealthStatus(in, sensor.health));
    sensor.health.sensor_id = sensor.sensor_id;
    sensor.health.level = sensor.level;
    HOD_RETURN_IF_ERROR(ReadMonitorState(in, version, sensor.monitor));
    if (version >= 5) {
      HOD_ASSIGN_OR_RETURN(sensor.has_bocpd, in.ReadBool());
      if (sensor.has_bocpd) {
        HOD_RETURN_IF_ERROR(ReadBocpdState(in, sensor.bocpd));
      }
    }
  }

  for (LevelOutlierState& level : checkpoint.levels) {
    HOD_RETURN_IF_ERROR(ReadLevelState(in, level));
  }
  HOD_ASSIGN_OR_RETURN(uint32_t num_alarms, in.ReadU32());
  HOD_RETURN_IF_ERROR(in.CheckCount(num_alarms, kMinAlarmBytes, "alarm count"));
  checkpoint.active_alarms.resize(num_alarms);
  for (ActiveAlarm& alarm : checkpoint.active_alarms) {
    HOD_ASSIGN_OR_RETURN(alarm.sensor_id, in.ReadString());
    HOD_ASSIGN_OR_RETURN(alarm.level, ReadLevel(in));
    HOD_ASSIGN_OR_RETURN(alarm.since, in.ReadF64());
    HOD_ASSIGN_OR_RETURN(alarm.peak_score, in.ReadF64());
  }
  HOD_ASSIGN_OR_RETURN(uint32_t num_quarantined, in.ReadU32());
  HOD_RETURN_IF_ERROR(in.CheckCount(num_quarantined, kMinQuarantinedBytes,
                                    "quarantine count"));
  checkpoint.quarantined.resize(num_quarantined);
  for (QuarantinedSensor& sensor : checkpoint.quarantined) {
    HOD_RETURN_IF_ERROR(ReadQuarantined(in, sensor));
  }
  HOD_ASSIGN_OR_RETURN(checkpoint.events_seen, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(checkpoint.events_at_last_snapshot, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(checkpoint.next_sequence, in.ReadU64());

  HOD_ASSIGN_OR_RETURN(uint32_t num_groups, in.ReadU32());
  HOD_RETURN_IF_ERROR(
      in.CheckCount(num_groups, kMinPeerGroupBytes, "peer-group count"));
  checkpoint.peer_groups.resize(num_groups);
  for (PeerGroupState& group : checkpoint.peer_groups) {
    HOD_ASSIGN_OR_RETURN(group.group_id, in.ReadString());
    HOD_ASSIGN_OR_RETURN(uint32_t num_members, in.ReadU32());
    HOD_RETURN_IF_ERROR(in.CheckCount(num_members, kMinPeerMemberBytes,
                                      "peer-member count"));
    group.members.resize(num_members);
    for (PeerMemberState& member : group.members) {
      HOD_RETURN_IF_ERROR(ReadPeerMember(in, member));
    }
  }
  HOD_ASSIGN_OR_RETURN(uint32_t num_pending, in.ReadU32());
  HOD_RETURN_IF_ERROR(in.CheckCount(num_pending, kMinQuarantinedBytes,
                                    "pending-fault count"));
  checkpoint.pending_faults.resize(num_pending);
  for (QuarantinedSensor& sensor : checkpoint.pending_faults) {
    HOD_RETURN_IF_ERROR(ReadQuarantined(in, sensor));
  }
  HOD_ASSIGN_OR_RETURN(checkpoint.outage_active, in.ReadBool());
  HOD_ASSIGN_OR_RETURN(checkpoint.outage_since, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(uint32_t num_outage_members, in.ReadU32());
  HOD_RETURN_IF_ERROR(in.CheckCount(num_outage_members, kMinStringBytes,
                                    "outage-member count"));
  checkpoint.outage_members.resize(num_outage_members);
  for (std::string& member : checkpoint.outage_members) {
    HOD_ASSIGN_OR_RETURN(member, in.ReadString());
  }
  HOD_ASSIGN_OR_RETURN(checkpoint.collector_frontier, in.ReadF64());

  if (version >= 5) {
    HOD_ASSIGN_OR_RETURN(uint32_t num_shifts, in.ReadU32());
    HOD_RETURN_IF_ERROR(
        in.CheckCount(num_shifts, kMinShiftBytes, "shift count"));
    checkpoint.recent_shifts.resize(num_shifts);
    for (ConceptShiftEvent& shift : checkpoint.recent_shifts) {
      HOD_RETURN_IF_ERROR(ReadShiftEvent(in, shift));
    }
    HOD_ASSIGN_OR_RETURN(checkpoint.concept_shifts_total, in.ReadU64());
  }

  HOD_ASSIGN_OR_RETURN(uint32_t num_findings, in.ReadU32());
  HOD_RETURN_IF_ERROR(
      in.CheckCount(num_findings, kMinFindingBytes, "finding count"));
  checkpoint.findings.resize(num_findings);
  for (core::OutlierFinding& finding : checkpoint.findings) {
    HOD_RETURN_IF_ERROR(ReadFinding(in, finding));
  }

  HOD_RETURN_IF_ERROR(ReadStats(in, version, checkpoint.stats));
  return checkpoint;
}

StatusOr<EngineCheckpoint> ReadEngineCheckpoint(std::istream& is) {
  return ReadEngineCheckpoint(bin::ReadToEnd(is));
}

}  // namespace hod::stream
