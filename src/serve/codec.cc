#include "serve/codec.h"

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <utility>

#include "hierarchy/level.h"
#include "hierarchy/serialization.h"

namespace hod::serve {

namespace {

namespace bin = hierarchy::bin;

bool Equal(const stream::LevelOutlierState& a,
           const stream::LevelOutlierState& b) {
  return a.outlier_samples == b.outlier_samples &&
         a.alarms_raised == b.alarms_raised &&
         a.alarms_cleared == b.alarms_cleared &&
         a.active_alarms == b.active_alarms &&
         a.sensor_faults == b.sensor_faults &&
         a.quarantined_sensors == b.quarantined_sensors &&
         a.peak_score == b.peak_score && a.last_outlier_ts == b.last_outlier_ts;
}

bool Equal(const stream::ActiveAlarm& a, const stream::ActiveAlarm& b) {
  return a.sensor_id == b.sensor_id && a.level == b.level &&
         a.since == b.since && a.peak_score == b.peak_score;
}

bool Equal(const stream::QuarantinedSensor& a,
           const stream::QuarantinedSensor& b) {
  return a.sensor_id == b.sensor_id && a.level == b.level &&
         a.since == b.since && a.reason == b.reason;
}

bool Equal(const stream::ConceptShiftEvent& a,
           const stream::ConceptShiftEvent& b) {
  return a.sensor_id == b.sensor_id && a.level == b.level && a.ts == b.ts &&
         a.before_mean == b.before_mean && a.after_mean == b.after_mean &&
         a.magnitude_sigmas == b.magnitude_sigmas &&
         a.evidence == b.evidence && a.run_length == b.run_length;
}

/// Sorted-merge set diff keyed on sensor_id: entries of `next` that are
/// absent from `base` or changed become upserts; ids of `base` missing
/// from `next` become removals.
template <typename T>
void DiffById(const std::vector<T>& base, const std::vector<T>& next,
              std::vector<T>* upserts, std::vector<std::string>* removals) {
  size_t i = 0;
  size_t j = 0;
  while (i < base.size() && j < next.size()) {
    if (base[i].sensor_id < next[j].sensor_id) {
      removals->push_back(base[i].sensor_id);
      ++i;
    } else if (next[j].sensor_id < base[i].sensor_id) {
      upserts->push_back(next[j]);
      ++j;
    } else {
      if (!Equal(base[i], next[j])) upserts->push_back(next[j]);
      ++i;
      ++j;
    }
  }
  for (; i < base.size(); ++i) removals->push_back(base[i].sensor_id);
  for (; j < next.size(); ++j) upserts->push_back(next[j]);
}

/// Applies removals, then upserts, to a sorted-by-id vector in place,
/// keeping it sorted: an upsert replaces the entry with its id or is
/// inserted at its sorted position (the id-keyed merge, without a map).
template <typename T>
void ApplyById(std::vector<T>& entries, const std::vector<T>& upserts,
               const std::vector<std::string>& removals) {
  const auto find = [&](const std::string& id) {
    return std::lower_bound(
        entries.begin(), entries.end(), id,
        [](const T& entry, const std::string& key) {
          return entry.sensor_id < key;
        });
  };
  for (const std::string& id : removals) {
    auto it = find(id);
    if (it != entries.end() && it->sensor_id == id) entries.erase(it);
  }
  for (const T& entry : upserts) {
    auto it = find(entry.sensor_id);
    if (it != entries.end() && it->sensor_id == entry.sensor_id) {
      *it = entry;
    } else {
      entries.insert(it, entry);
    }
  }
}

void WriteLevelState(std::ostream& os, const stream::LevelOutlierState& s) {
  bin::WriteU64(os, s.outlier_samples);
  bin::WriteU64(os, s.alarms_raised);
  bin::WriteU64(os, s.alarms_cleared);
  bin::WriteU64(os, s.active_alarms);
  bin::WriteU64(os, s.sensor_faults);
  bin::WriteU64(os, s.quarantined_sensors);
  bin::WriteF64(os, s.peak_score);
  bin::WriteF64(os, s.last_outlier_ts);
}

StatusOr<stream::LevelOutlierState> ReadLevelState(std::istream& is) {
  stream::LevelOutlierState s;
  HOD_ASSIGN_OR_RETURN(s.outlier_samples, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(s.alarms_raised, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(s.alarms_cleared, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(s.active_alarms, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(s.sensor_faults, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(s.quarantined_sensors, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(s.peak_score, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(s.last_outlier_ts, bin::ReadF64(is));
  return s;
}

void WriteAlarm(std::ostream& os, const stream::ActiveAlarm& a) {
  bin::WriteString(os, a.sensor_id);
  bin::WriteU8(os, static_cast<uint8_t>(hierarchy::LevelValue(a.level)));
  bin::WriteF64(os, a.since);
  bin::WriteF64(os, a.peak_score);
}

StatusOr<stream::ActiveAlarm> ReadAlarm(std::istream& is) {
  stream::ActiveAlarm a;
  HOD_ASSIGN_OR_RETURN(a.sensor_id, bin::ReadString(is));
  uint8_t level = 0;
  HOD_ASSIGN_OR_RETURN(level, bin::ReadU8(is));
  HOD_ASSIGN_OR_RETURN(a.level, hierarchy::LevelFromValue(level));
  HOD_ASSIGN_OR_RETURN(a.since, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(a.peak_score, bin::ReadF64(is));
  return a;
}

void WriteQuarantine(std::ostream& os, const stream::QuarantinedSensor& q) {
  bin::WriteString(os, q.sensor_id);
  bin::WriteU8(os, static_cast<uint8_t>(hierarchy::LevelValue(q.level)));
  bin::WriteF64(os, q.since);
  bin::WriteU8(os, static_cast<uint8_t>(q.reason));
}

StatusOr<stream::QuarantinedSensor> ReadQuarantine(std::istream& is) {
  stream::QuarantinedSensor q;
  HOD_ASSIGN_OR_RETURN(q.sensor_id, bin::ReadString(is));
  uint8_t level = 0;
  HOD_ASSIGN_OR_RETURN(level, bin::ReadU8(is));
  HOD_ASSIGN_OR_RETURN(q.level, hierarchy::LevelFromValue(level));
  HOD_ASSIGN_OR_RETURN(q.since, bin::ReadF64(is));
  uint8_t reason = 0;
  HOD_ASSIGN_OR_RETURN(reason, bin::ReadU8(is));
  if (reason > static_cast<uint8_t>(stream::HealthSignal::kStale)) {
    return Status::InvalidArgument("bad health signal byte");
  }
  q.reason = static_cast<stream::HealthSignal>(reason);
  return q;
}

void WriteShift(std::ostream& os, const stream::ConceptShiftEvent& e) {
  bin::WriteString(os, e.sensor_id);
  bin::WriteU8(os, static_cast<uint8_t>(hierarchy::LevelValue(e.level)));
  bin::WriteF64(os, e.ts);
  bin::WriteF64(os, e.before_mean);
  bin::WriteF64(os, e.after_mean);
  bin::WriteF64(os, e.magnitude_sigmas);
  bin::WriteF64(os, e.evidence);
  bin::WriteU64(os, e.run_length);
}

StatusOr<stream::ConceptShiftEvent> ReadShift(std::istream& is) {
  stream::ConceptShiftEvent e;
  HOD_ASSIGN_OR_RETURN(e.sensor_id, bin::ReadString(is));
  uint8_t level = 0;
  HOD_ASSIGN_OR_RETURN(level, bin::ReadU8(is));
  HOD_ASSIGN_OR_RETURN(e.level, hierarchy::LevelFromValue(level));
  HOD_ASSIGN_OR_RETURN(e.ts, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(e.before_mean, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(e.after_mean, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(e.magnitude_sigmas, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(e.evidence, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(e.run_length, bin::ReadU64(is));
  return e;
}

}  // namespace

SnapshotDelta EncodeDelta(const stream::EngineSnapshot& base,
                          const stream::EngineSnapshot& next) {
  SnapshotDelta delta;
  delta.base_sequence = base.sequence;
  delta.sequence = next.sequence;
  delta.events_seen = next.events_seen;
  delta.ts = next.ts;

  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    if (!Equal(base.levels[i], next.levels[i])) {
      delta.levels.push_back({static_cast<uint8_t>(i), next.levels[i]});
    }
  }

  DiffById(base.active_alarms, next.active_alarms, &delta.alarm_upserts,
           &delta.alarm_removals);
  DiffById(base.quarantined, next.quarantined, &delta.quarantine_upserts,
           &delta.quarantine_removals);

  if (base.group_outage_active != next.group_outage_active ||
      base.group_outage_entity != next.group_outage_entity ||
      base.group_outage_since != next.group_outage_since ||
      base.group_outage_sensors != next.group_outage_sensors) {
    delta.outage_changed = true;
    delta.group_outage_active = next.group_outage_active;
    delta.group_outage_entity = next.group_outage_entity;
    delta.group_outage_since = next.group_outage_since;
    delta.group_outage_sensors = next.group_outage_sensors;
  }

  // Concept-shift ring: ship only the appended tail when the base's ring
  // is a consistent predecessor of the next one; ship the whole ring
  // otherwise (total regressed, ring overflow past capacity, or the rings
  // simply disagree — possible when the pair is not producer-consecutive).
  delta.concept_shifts_total = next.concept_shifts_total;
  delta.shift_ring_size = static_cast<uint32_t>(next.concept_shifts.size());
  bool incremental = false;
  if (next.concept_shifts_total >= base.concept_shifts_total) {
    const uint64_t appended =
        next.concept_shifts_total - base.concept_shifts_total;
    if (appended <= next.concept_shifts.size()) {
      const size_t keep =
          next.concept_shifts.size() - static_cast<size_t>(appended);
      if (keep <= base.concept_shifts.size()) {
        const size_t base_off = base.concept_shifts.size() - keep;
        incremental = true;
        for (size_t i = 0; i < keep; ++i) {
          if (!Equal(base.concept_shifts[base_off + i],
                     next.concept_shifts[i])) {
            incremental = false;
            break;
          }
        }
        if (incremental) {
          delta.shift_events.assign(next.concept_shifts.begin() + keep,
                                    next.concept_shifts.end());
        }
      }
    }
  }
  if (!incremental) {
    delta.shifts_full = true;
    delta.shift_events = next.concept_shifts;
  }
  return delta;
}

Status ApplyDeltaInPlace(stream::EngineSnapshot& view,
                         const SnapshotDelta& delta) {
  // Validate everything first: a rejected delta leaves the view as it was.
  if (view.sequence != delta.base_sequence) {
    return Status::FailedPrecondition(
        "delta base mismatch: subscriber must resync from a keyframe");
  }
  for (const LevelDelta& change : delta.levels) {
    if (change.index >= hierarchy::kNumLevels) {
      return Status::InvalidArgument("level index out of range");
    }
  }
  if (!delta.shifts_full &&
      view.concept_shifts.size() + delta.shift_events.size() <
          delta.shift_ring_size) {
    return Status::InvalidArgument("delta shift ring accounting inconsistent");
  }

  view.sequence = delta.sequence;
  view.events_seen = delta.events_seen;
  view.ts = delta.ts;
  for (const LevelDelta& change : delta.levels) {
    view.levels[change.index] = change.state;
  }
  ApplyById(view.active_alarms, delta.alarm_upserts, delta.alarm_removals);
  ApplyById(view.quarantined, delta.quarantine_upserts,
            delta.quarantine_removals);
  if (delta.outage_changed) {
    view.group_outage_active = delta.group_outage_active;
    view.group_outage_entity = delta.group_outage_entity;
    view.group_outage_since = delta.group_outage_since;
    view.group_outage_sensors = delta.group_outage_sensors;
  }
  view.concept_shifts_total = delta.concept_shifts_total;
  if (delta.shifts_full) {
    view.concept_shifts = delta.shift_events;
  } else {
    std::vector<stream::ConceptShiftEvent>& ring = view.concept_shifts;
    ring.insert(ring.end(), delta.shift_events.begin(),
                delta.shift_events.end());
    ring.erase(ring.begin(),
               ring.begin() + (ring.size() - delta.shift_ring_size));
  }
  return Status::Ok();
}

StatusOr<stream::EngineSnapshot> ApplyDelta(const stream::EngineSnapshot& base,
                                            const SnapshotDelta& delta) {
  stream::EngineSnapshot next = base;
  HOD_RETURN_IF_ERROR(ApplyDeltaInPlace(next, delta));
  return next;
}

void WriteSnapshot(std::ostream& os, const stream::EngineSnapshot& snapshot) {
  bin::WriteU64(os, snapshot.sequence);
  bin::WriteU64(os, snapshot.events_seen);
  bin::WriteF64(os, snapshot.ts);
  for (const stream::LevelOutlierState& level : snapshot.levels) {
    WriteLevelState(os, level);
  }
  bin::WriteU32(os, static_cast<uint32_t>(snapshot.active_alarms.size()));
  for (const stream::ActiveAlarm& alarm : snapshot.active_alarms) {
    WriteAlarm(os, alarm);
  }
  bin::WriteU32(os, static_cast<uint32_t>(snapshot.quarantined.size()));
  for (const stream::QuarantinedSensor& q : snapshot.quarantined) {
    WriteQuarantine(os, q);
  }
  bin::WriteU8(os, snapshot.group_outage_active ? 1 : 0);
  bin::WriteString(os, snapshot.group_outage_entity);
  bin::WriteF64(os, snapshot.group_outage_since);
  bin::WriteU64(os, snapshot.group_outage_sensors);
  bin::WriteU32(os, static_cast<uint32_t>(snapshot.concept_shifts.size()));
  for (const stream::ConceptShiftEvent& shift : snapshot.concept_shifts) {
    WriteShift(os, shift);
  }
  bin::WriteU64(os, snapshot.concept_shifts_total);
}

StatusOr<stream::EngineSnapshot> ReadSnapshot(std::istream& is) {
  // The counts below are untrusted: nothing is reserved from them, so a
  // forged count fails at the first short read instead of allocating.
  stream::EngineSnapshot snapshot;
  HOD_ASSIGN_OR_RETURN(snapshot.sequence, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(snapshot.events_seen, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(snapshot.ts, bin::ReadF64(is));
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    HOD_ASSIGN_OR_RETURN(snapshot.levels[i], ReadLevelState(is));
  }
  uint32_t count = 0;
  HOD_ASSIGN_OR_RETURN(count, bin::ReadU32(is));
  for (uint32_t i = 0; i < count; ++i) {
    stream::ActiveAlarm alarm;
    HOD_ASSIGN_OR_RETURN(alarm, ReadAlarm(is));
    snapshot.active_alarms.push_back(std::move(alarm));
  }
  HOD_ASSIGN_OR_RETURN(count, bin::ReadU32(is));
  for (uint32_t i = 0; i < count; ++i) {
    stream::QuarantinedSensor q;
    HOD_ASSIGN_OR_RETURN(q, ReadQuarantine(is));
    snapshot.quarantined.push_back(std::move(q));
  }
  uint8_t active = 0;
  HOD_ASSIGN_OR_RETURN(active, bin::ReadU8(is));
  snapshot.group_outage_active = active != 0;
  HOD_ASSIGN_OR_RETURN(snapshot.group_outage_entity, bin::ReadString(is));
  HOD_ASSIGN_OR_RETURN(snapshot.group_outage_since, bin::ReadF64(is));
  HOD_ASSIGN_OR_RETURN(snapshot.group_outage_sensors, bin::ReadU64(is));
  HOD_ASSIGN_OR_RETURN(count, bin::ReadU32(is));
  for (uint32_t i = 0; i < count; ++i) {
    stream::ConceptShiftEvent shift;
    HOD_ASSIGN_OR_RETURN(shift, ReadShift(is));
    snapshot.concept_shifts.push_back(std::move(shift));
  }
  HOD_ASSIGN_OR_RETURN(snapshot.concept_shifts_total, bin::ReadU64(is));
  return snapshot;
}

std::string EncodeSnapshotBytes(const stream::EngineSnapshot& snapshot) {
  std::ostringstream os;
  WriteSnapshot(os, snapshot);
  return os.str();
}

std::string EncodeDeltaBytes(const SnapshotDelta& delta) {
  std::ostringstream os;
  bin::WriteU64(os, delta.base_sequence);
  bin::WriteU64(os, delta.sequence);
  bin::WriteU64(os, delta.events_seen);
  bin::WriteF64(os, delta.ts);
  bin::WriteU32(os, static_cast<uint32_t>(delta.levels.size()));
  for (const LevelDelta& level : delta.levels) {
    bin::WriteU8(os, level.index);
    WriteLevelState(os, level.state);
  }
  bin::WriteU32(os, static_cast<uint32_t>(delta.alarm_upserts.size()));
  for (const stream::ActiveAlarm& alarm : delta.alarm_upserts) {
    WriteAlarm(os, alarm);
  }
  bin::WriteU32(os, static_cast<uint32_t>(delta.alarm_removals.size()));
  for (const std::string& id : delta.alarm_removals) bin::WriteString(os, id);
  bin::WriteU32(os, static_cast<uint32_t>(delta.quarantine_upserts.size()));
  for (const stream::QuarantinedSensor& q : delta.quarantine_upserts) {
    WriteQuarantine(os, q);
  }
  bin::WriteU32(os, static_cast<uint32_t>(delta.quarantine_removals.size()));
  for (const std::string& id : delta.quarantine_removals) {
    bin::WriteString(os, id);
  }
  bin::WriteU8(os, delta.outage_changed ? 1 : 0);
  if (delta.outage_changed) {
    bin::WriteU8(os, delta.group_outage_active ? 1 : 0);
    bin::WriteString(os, delta.group_outage_entity);
    bin::WriteF64(os, delta.group_outage_since);
    bin::WriteU64(os, delta.group_outage_sensors);
  }
  bin::WriteU8(os, delta.shifts_full ? 1 : 0);
  bin::WriteU32(os, static_cast<uint32_t>(delta.shift_events.size()));
  for (const stream::ConceptShiftEvent& shift : delta.shift_events) {
    WriteShift(os, shift);
  }
  bin::WriteU32(os, delta.shift_ring_size);
  bin::WriteU64(os, delta.concept_shifts_total);
  return os.str();
}

}  // namespace hod::serve
