#ifndef HOD_TESTS_IOSTREAM_CODEC_ORACLE_H_
#define HOD_TESTS_IOSTREAM_CODEC_ORACLE_H_

// Test oracle: the per-value iostream writers the binary images were
// produced by before they moved onto hierarchy::bin::ByteWriter, kept
// verbatim. The buffer codec must reproduce their bytes exactly, and its
// reader must parse them back to the same state.

#include <cstdint>
#include <cstring>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "hierarchy/level.h"
#include "serve/history.h"
#include "stream/checkpoint.h"
#include "stream/engine.h"

namespace hod::oracle {

// ---- Primitives -----------------------------------------------------------

inline void PutBytes(std::ostream& os, const unsigned char* bytes, size_t n) {
  os.write(reinterpret_cast<const char*>(bytes),
           static_cast<std::streamsize>(n));
}

inline void WriteU8(std::ostream& os, uint8_t value) {
  PutBytes(os, &value, 1);
}
       
       inline void WriteU32(std::ostream& os, uint32_t value) {
  unsigned char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = (value >> (8 * i)) & 0xff;
  PutBytes(os, bytes, 4);
}

inline void WriteU64(std::ostream& os, uint64_t value) {
  unsigned char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = (value >> (8 * i)) & 0xff;
  PutBytes(os, bytes, 8);
}

inline void WriteF64(std::ostream& os, double value) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU64(os, bits);
}

inline void WriteString(std::ostream& os, const std::string& value) {
  WriteU32(os, static_cast<uint32_t>(value.size()));
  os.write(value.data(), static_cast<std::streamsize>(value.size()));
}

// ---- Engine checkpoint (HODC v6) ------------------------------------------

namespace checkpoint {

using namespace ::hod::stream;  // NOLINT: verbatim writer bodies

constexpr uint32_t kMagic = 0x43444F48u;  // "HODC"
constexpr uint32_t kVersion = 6;

inline void WriteBool(std::ostream& os, bool value) {
  WriteU8(os, value ? 1 : 0);
}

inline void WriteLevel(std::ostream& os, hierarchy::ProductionLevel level) {
  WriteU8(os, static_cast<uint8_t>(hierarchy::LevelValue(level)));
}

inline void WriteF64Vector(std::ostream& os,
                           const std::vector<double>& values) {
  WriteU32(os, static_cast<uint32_t>(values.size()));
  for (double value : values) WriteF64(os, value);
}

inline void WriteU64Vector(std::ostream& os,
                           const std::vector<uint64_t>& values) {
  WriteU32(os, static_cast<uint32_t>(values.size()));
  for (uint64_t value : values) WriteU64(os, value);
}

inline void WriteMonitorOptions(std::ostream& os,
                                const core::OnlineMonitorOptions& options) {
  WriteU64(os, options.warmup);
  WriteU64(os, options.ar_order);
  WriteF64(os, options.threshold);
  WriteU64(os, options.raise_after);
  WriteU64(os, options.clear_after);
  WriteF64(os, options.sigma_scale);
  WriteF64(os, options.scale_forgetting);
}

inline void WriteMonitorState(std::ostream& os,
                              const core::OnlineMonitorState& state) {
  WriteF64Vector(os, state.warmup_buffer);
  WriteF64Vector(os, state.recent);
  WriteF64Vector(os, state.phi);
  WriteF64(os, state.intercept);
  WriteF64(os, state.residual_sigma);
  WriteBool(os, state.model_ready);
  WriteBool(os, state.alarm);
  WriteU64(os, state.above_streak);
  WriteU64(os, state.below_streak);
  WriteU64(os, state.samples_seen);
  WriteU64(os, state.alarms_raised);
  // v5: baseline lifecycle.
  WriteU64(os, state.baseline_epoch);
  WriteBool(os, state.frozen);
  WriteU8(os, state.pending_reset);
  WriteF64(os, state.pending_level);
  WriteF64(os, state.pending_sigma);
  WriteU64(os, state.pending_support);
}

inline void WriteBocpdOptions(std::ostream& os,
                              const core::BocpdOptions& options) {
  WriteF64(os, options.hazard_lambda);
  WriteU64(os, options.max_run_length);
  WriteU64(os, options.warmup);
  WriteU64(os, options.min_run_for_shift);
  WriteF64(os, options.shift_posterior);
  WriteF64(os, options.min_magnitude_sigmas);
  WriteU64(os, options.cooldown);
  WriteF64(os, options.prior_kappa);
  WriteF64(os, options.prior_alpha);
  WriteF64(os, options.prior_beta);
  WriteF64(os, options.prior_mean);
}

inline void WriteBocpdState(std::ostream& os, const core::BocpdState& state) {
  WriteF64Vector(os, state.weight);
  WriteF64Vector(os, state.mu);
  WriteF64Vector(os, state.kappa);
  WriteF64Vector(os, state.alpha);
  WriteF64Vector(os, state.beta);
  WriteU64Vector(os, state.run_length);
  WriteU64(os, state.samples_seen);
  WriteU64(os, state.shifts_confirmed);
  WriteU64(os, state.cooldown_left);
  WriteBool(os, state.prior_seeded);
  WriteF64(os, state.prior_mean);
  WriteF64(os, state.stable_mean);
  WriteF64(os, state.stable_sigma);
  WriteU64(os, state.stable_support);
}

inline void WriteShiftEvent(std::ostream& os, const ConceptShiftEvent& shift) {
  WriteString(os, shift.sensor_id);
  WriteLevel(os, shift.level);
  WriteF64(os, shift.ts);
  WriteF64(os, shift.before_mean);
  WriteF64(os, shift.after_mean);
  WriteF64(os, shift.magnitude_sigmas);
  WriteF64(os, shift.evidence);
  WriteU64(os, shift.run_length);
}

inline void WriteHealthStatus(std::ostream& os,
                              const SensorHealthStatus& status) {
  WriteU8(os, static_cast<uint8_t>(status.state));
  WriteU64(os, status.fault_evidence);
  WriteU64(os, status.clean_streak);
  WriteU64(os, status.flatline_run);
  WriteBool(os, status.has_last_value);
  WriteF64(os, status.last_value);
  WriteF64(os, status.last_seen_ts);
  WriteF64(os, status.last_transition_ts);
  WriteU8(os, static_cast<uint8_t>(status.last_reason));
  WriteU64(os, status.quarantines);
}

inline void WriteLevelState(std::ostream& os, const LevelOutlierState& level) {
  WriteU64(os, level.outlier_samples);
  WriteU64(os, level.alarms_raised);
  WriteU64(os, level.alarms_cleared);
  WriteU64(os, level.active_alarms);
  WriteU64(os, level.sensor_faults);
  WriteU64(os, level.quarantined_sensors);
  WriteF64(os, level.peak_score);
  WriteF64(os, level.last_outlier_ts);
}

inline void WriteFinding(std::ostream& os,
                         const core::OutlierFinding& finding) {
  WriteU8(os, static_cast<uint8_t>(finding.kind));
  WriteLevel(os, finding.origin.level);
  WriteString(os, finding.origin.entity);
  WriteU64(os, finding.origin.index);
  WriteF64(os, finding.origin.time);
  WriteF64(os, finding.origin.score);
  WriteU32(os, static_cast<uint32_t>(finding.global_score));
  WriteF64(os, finding.outlierness);
  WriteF64(os, finding.support);
  WriteU64(os, finding.corresponding_sensors);
  WriteBool(os, finding.measurement_error_warning);
  WriteBool(os, finding.escalated);
  WriteU32(os, static_cast<uint32_t>(finding.confirmed_levels.size()));
  for (hierarchy::ProductionLevel level : finding.confirmed_levels) {
    WriteLevel(os, level);
  }
  WriteU32(os, static_cast<uint32_t>(finding.warnings.size()));
  for (const std::string& warning : finding.warnings) {
    WriteString(os, warning);
  }
}

inline void WriteStats(std::ostream& os, const StreamStatsSnapshot& stats) {
  for (const CounterInfo& row : kCounters) WriteU64(os, stats.*row.field);
  for (uint64_t count : stats.level_dropped) WriteU64(os, count);
  for (uint64_t count : stats.level_rejected) WriteU64(os, count);
  for (uint64_t count : stats.level_quarantined) WriteU64(os, count);
  for (uint64_t count : stats.batch_size_histogram) WriteU64(os, count);
}

inline void WriteQuarantined(std::ostream& os,
                             const QuarantinedSensor& sensor) {
  WriteString(os, sensor.sensor_id);
  WriteLevel(os, sensor.level);
  WriteF64(os, sensor.since);
  WriteU8(os, static_cast<uint8_t>(sensor.reason));
}

inline void WritePeerMember(std::ostream& os, const PeerMemberState& member) {
  WriteString(os, member.sensor_id);
  WriteBool(os, member.has_last);
  WriteF64(os, member.last_ts);
  WriteF64(os, member.last_value);
  WriteF64Vector(os, member.ring_ts);
  WriteF64Vector(os, member.ring_residual);
  WriteU64(os, member.breach_streak);
  WriteU64(os, member.calm_streak);
  WriteBool(os, member.fired);
  WriteU64(os, member.deviations);
}

inline Status WriteEngineCheckpoint(const EngineCheckpoint& checkpoint,
                                    std::ostream& os) {
  WriteU32(os, kMagic);
  WriteU32(os, kVersion);
  WriteMonitorOptions(os, checkpoint.monitor);
  WriteF64(os, checkpoint.out_of_order_tolerance);
  WriteBool(os, checkpoint.shift_enabled);
  WriteBocpdOptions(os, checkpoint.bocpd);

  WriteU32(os, static_cast<uint32_t>(checkpoint.sensors.size()));
  for (const EngineCheckpoint::SensorState& sensor : checkpoint.sensors) {
    WriteString(os, sensor.sensor_id);
    WriteLevel(os, sensor.level);
    WriteBool(os, sensor.has_policy);
    WriteU8(os, static_cast<uint8_t>(sensor.policy));
    WriteF64(os, sensor.frontier);
    WriteHealthStatus(os, sensor.health);
    WriteMonitorState(os, sensor.monitor);
    WriteBool(os, sensor.has_bocpd);
    if (sensor.has_bocpd) WriteBocpdState(os, sensor.bocpd);
  }

  for (const LevelOutlierState& level : checkpoint.levels) {
    WriteLevelState(os, level);
  }
  WriteU32(os, static_cast<uint32_t>(checkpoint.active_alarms.size()));
  for (const ActiveAlarm& alarm : checkpoint.active_alarms) {
    WriteString(os, alarm.sensor_id);
    WriteLevel(os, alarm.level);
    WriteF64(os, alarm.since);
    WriteF64(os, alarm.peak_score);
  }
  WriteU32(os, static_cast<uint32_t>(checkpoint.quarantined.size()));
  for (const QuarantinedSensor& sensor : checkpoint.quarantined) {
    WriteString(os, sensor.sensor_id);
    WriteLevel(os, sensor.level);
    WriteF64(os, sensor.since);
    WriteU8(os, static_cast<uint8_t>(sensor.reason));
  }
  WriteU64(os, checkpoint.events_seen);
  WriteU64(os, checkpoint.events_at_last_snapshot);
  WriteU64(os, checkpoint.next_sequence);

  WriteU32(os, static_cast<uint32_t>(checkpoint.peer_groups.size()));
  for (const PeerGroupState& group : checkpoint.peer_groups) {
    WriteString(os, group.group_id);
    WriteU32(os, static_cast<uint32_t>(group.members.size()));
    for (const PeerMemberState& member : group.members) {
      WritePeerMember(os, member);
    }
  }
  WriteU32(os, static_cast<uint32_t>(checkpoint.pending_faults.size()));
  for (const QuarantinedSensor& sensor : checkpoint.pending_faults) {
    WriteQuarantined(os, sensor);
  }
  WriteBool(os, checkpoint.outage_active);
  WriteF64(os, checkpoint.outage_since);
  WriteU32(os, static_cast<uint32_t>(checkpoint.outage_members.size()));
  for (const std::string& member : checkpoint.outage_members) {
    WriteString(os, member);
  }
  WriteF64(os, checkpoint.collector_frontier);

  WriteU32(os, static_cast<uint32_t>(checkpoint.recent_shifts.size()));
  for (const ConceptShiftEvent& shift : checkpoint.recent_shifts) {
    WriteShiftEvent(os, shift);
  }
  WriteU64(os, checkpoint.concept_shifts_total);

  WriteU32(os, static_cast<uint32_t>(checkpoint.findings.size()));
  for (const core::OutlierFinding& finding : checkpoint.findings) {
    WriteFinding(os, finding);
  }

  WriteStats(os, checkpoint.stats);
  if (!os.good()) return Status::Internal("checkpoint stream write failed");
  return Status::Ok();
}

}  // namespace checkpoint

inline std::string EngineCheckpointBytes(
           const stream::EngineCheckpoint& checkpoint) {
  std::ostringstream os;
  (void)checkpoint::WriteEngineCheckpoint(checkpoint, os);
  return os.str();
}

// ---- Served snapshot and hub state (HODS v1) ------------------------------

namespace snapshot {

inline void WriteLevelState(std::ostream& os,
                            const stream::LevelOutlierState& s) {
  WriteU64(os, s.outlier_samples);
  WriteU64(os, s.alarms_raised);
  WriteU64(os, s.alarms_cleared);
  WriteU64(os, s.active_alarms);
  WriteU64(os, s.sensor_faults);
  WriteU64(os, s.quarantined_sensors);
  WriteF64(os, s.peak_score);
  WriteF64(os, s.last_outlier_ts);
}

inline void WriteAlarm(std::ostream& os, const stream::ActiveAlarm& a) {
  WriteString(os, a.sensor_id);
  WriteU8(os, static_cast<uint8_t>(hierarchy::LevelValue(a.level)));
  WriteF64(os, a.since);
  WriteF64(os, a.peak_score);
}

inline void WriteQuarantine(std::ostream& os,
                            const stream::QuarantinedSensor& q) {
  WriteString(os, q.sensor_id);
  WriteU8(os, static_cast<uint8_t>(hierarchy::LevelValue(q.level)));
  WriteF64(os, q.since);
  WriteU8(os, static_cast<uint8_t>(q.reason));
}

inline void WriteShift(std::ostream& os, const stream::ConceptShiftEvent& e) {
  WriteString(os, e.sensor_id);
  WriteU8(os, static_cast<uint8_t>(hierarchy::LevelValue(e.level)));
  WriteF64(os, e.ts);
  WriteF64(os, e.before_mean);
  WriteF64(os, e.after_mean);
  WriteF64(os, e.magnitude_sigmas);
  WriteF64(os, e.evidence);
  WriteU64(os, e.run_length);
}

inline void WriteSnapshot(std::ostream& os,
                          const stream::EngineSnapshot& snapshot) {
  WriteU64(os, snapshot.sequence);
  WriteU64(os, snapshot.events_seen);
  WriteF64(os, snapshot.ts);
  for (const stream::LevelOutlierState& level : snapshot.levels) {
    WriteLevelState(os, level);
  }
  WriteU32(os, static_cast<uint32_t>(snapshot.active_alarms.size()));
  for (const stream::ActiveAlarm& alarm : snapshot.active_alarms) {
    WriteAlarm(os, alarm);
  }
  WriteU32(os, static_cast<uint32_t>(snapshot.quarantined.size()));
  for (const stream::QuarantinedSensor& q : snapshot.quarantined) {
    WriteQuarantine(os, q);
  }
  WriteU8(os, snapshot.group_outage_active ? 1 : 0);
  WriteString(os, snapshot.group_outage_entity);
  WriteF64(os, snapshot.group_outage_since);
  WriteU64(os, snapshot.group_outage_sensors);
  WriteU32(os, static_cast<uint32_t>(snapshot.concept_shifts.size()));
  for (const stream::ConceptShiftEvent& shift : snapshot.concept_shifts) {
    WriteShift(os, shift);
  }
  WriteU64(os, snapshot.concept_shifts_total);
}

}  // namespace snapshot

inline std::string SnapshotBytes(const stream::EngineSnapshot& snapshot) {
  std::ostringstream os;
  snapshot::WriteSnapshot(os, snapshot);
  return os.str();
}

/// The state image SnapshotHub::SaveState wrote for a synchronous hub that
/// processed exactly `published`, in order, with rings of
/// `history_capacity` entries: the last snapshot, then per level the
/// newest `history_capacity` (ts, level state) entries, oldest first.
inline std::string HubStateBytes(
           const std::vector<stream::EngineSnapshot>& published,
           size_t history_capacity) {
  std::ostringstream os;
  WriteU32(os, 0x53444F48u);  // "HODS"
  WriteU32(os, 1u);
  WriteU8(os, published.empty() ? 0 : 1);
  if (!published.empty()) snapshot::WriteSnapshot(os, published.back());
  const size_t first = published.size() > history_capacity
                           ? published.size() - history_capacity
                           : 0;
  for (int level = 0; level < hierarchy::kNumLevels; ++level) {
    WriteU32(os, static_cast<uint32_t>(published.size() - first));
    for (size_t i = first; i < published.size(); ++i) {
      const stream::LevelOutlierState& value = published[i].levels[level];
      WriteF64(os, published[i].ts);
      WriteU64(os, value.outlier_samples);
      WriteU64(os, value.alarms_raised);
      WriteU64(os, value.alarms_cleared);
      WriteU64(os, value.active_alarms);
      WriteU64(os, value.sensor_faults);
      WriteU64(os, value.quarantined_sensors);
      WriteF64(os, value.peak_score);
      WriteF64(os, value.last_outlier_ts);
    }
  }
  return os.str();
}

}  // namespace hod::oracle

#endif  // HOD_TESTS_IOSTREAM_CODEC_ORACLE_H_
