#include "serve/codec.h"

#include <algorithm>
#include <cstddef>
#include <istream>
#include <ostream>
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

// Minimum encoded size of each counted record (empty strings): a count
// the bytes left cannot hold is refused before anything is reserved.
constexpr size_t kMinAlarmBytes = 4 + 1 + 8 + 8;
constexpr size_t kMinQuarantineBytes = 4 + 1 + 8 + 1;
constexpr size_t kMinShiftBytes = 4 + 1 + 5 * 8 + 8;

void WriteLevelState(bin::ByteWriter& out, const stream::LevelOutlierState& s) {
  out.WriteU64(s.outlier_samples);
  out.WriteU64(s.alarms_raised);
  out.WriteU64(s.alarms_cleared);
  out.WriteU64(s.active_alarms);
  out.WriteU64(s.sensor_faults);
  out.WriteU64(s.quarantined_sensors);
  out.WriteF64(s.peak_score);
  out.WriteF64(s.last_outlier_ts);
}

StatusOr<stream::LevelOutlierState> ReadLevelState(bin::ByteReader& in) {
  stream::LevelOutlierState s;
  HOD_ASSIGN_OR_RETURN(s.outlier_samples, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(s.alarms_raised, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(s.alarms_cleared, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(s.active_alarms, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(s.sensor_faults, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(s.quarantined_sensors, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(s.peak_score, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(s.last_outlier_ts, in.ReadF64());
  return s;
}

void WriteAlarm(bin::ByteWriter& out, const stream::ActiveAlarm& a) {
  out.WriteString(a.sensor_id);
  out.WriteU8(static_cast<uint8_t>(hierarchy::LevelValue(a.level)));
  out.WriteF64(a.since);
  out.WriteF64(a.peak_score);
}

StatusOr<stream::ActiveAlarm> ReadAlarm(bin::ByteReader& in) {
  stream::ActiveAlarm a;
  HOD_ASSIGN_OR_RETURN(a.sensor_id, in.ReadString());
  uint8_t level = 0;
  HOD_ASSIGN_OR_RETURN(level, in.ReadU8());
  HOD_ASSIGN_OR_RETURN(a.level, hierarchy::LevelFromValue(level));
  HOD_ASSIGN_OR_RETURN(a.since, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(a.peak_score, in.ReadF64());
  return a;
}

void WriteQuarantine(bin::ByteWriter& out, const stream::QuarantinedSensor& q) {
  out.WriteString(q.sensor_id);
  out.WriteU8(static_cast<uint8_t>(hierarchy::LevelValue(q.level)));
  out.WriteF64(q.since);
  out.WriteU8(static_cast<uint8_t>(q.reason));
}

StatusOr<stream::QuarantinedSensor> ReadQuarantine(bin::ByteReader& in) {
  stream::QuarantinedSensor q;
  HOD_ASSIGN_OR_RETURN(q.sensor_id, in.ReadString());
  uint8_t level = 0;
  HOD_ASSIGN_OR_RETURN(level, in.ReadU8());
  HOD_ASSIGN_OR_RETURN(q.level, hierarchy::LevelFromValue(level));
  HOD_ASSIGN_OR_RETURN(q.since, in.ReadF64());
  uint8_t reason = 0;
  HOD_ASSIGN_OR_RETURN(reason, in.ReadU8());
  if (reason > static_cast<uint8_t>(stream::HealthSignal::kStale)) {
    return Status::InvalidArgument("bad health signal byte");
  }
  q.reason = static_cast<stream::HealthSignal>(reason);
  return q;
}

void WriteShift(bin::ByteWriter& out, const stream::ConceptShiftEvent& e) {
  out.WriteString(e.sensor_id);
  out.WriteU8(static_cast<uint8_t>(hierarchy::LevelValue(e.level)));
  out.WriteF64(e.ts);
  out.WriteF64(e.before_mean);
  out.WriteF64(e.after_mean);
  out.WriteF64(e.magnitude_sigmas);
  out.WriteF64(e.evidence);
  out.WriteU64(e.run_length);
}

StatusOr<stream::ConceptShiftEvent> ReadShift(bin::ByteReader& in) {
  stream::ConceptShiftEvent e;
  HOD_ASSIGN_OR_RETURN(e.sensor_id, in.ReadString());
  uint8_t level = 0;
  HOD_ASSIGN_OR_RETURN(level, in.ReadU8());
  HOD_ASSIGN_OR_RETURN(e.level, hierarchy::LevelFromValue(level));
  HOD_ASSIGN_OR_RETURN(e.ts, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(e.before_mean, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(e.after_mean, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(e.magnitude_sigmas, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(e.evidence, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(e.run_length, in.ReadU64());
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

void WriteSnapshot(bin::ByteWriter& out,
                   const stream::EngineSnapshot& snapshot) {
  out.WriteU64(snapshot.sequence);
  out.WriteU64(snapshot.events_seen);
  out.WriteF64(snapshot.ts);
  for (const stream::LevelOutlierState& level : snapshot.levels) {
    WriteLevelState(out, level);
  }
  out.WriteU32(static_cast<uint32_t>(snapshot.active_alarms.size()));
  for (const stream::ActiveAlarm& alarm : snapshot.active_alarms) {
    WriteAlarm(out, alarm);
  }
  out.WriteU32(static_cast<uint32_t>(snapshot.quarantined.size()));
  for (const stream::QuarantinedSensor& q : snapshot.quarantined) {
    WriteQuarantine(out, q);
  }
  out.WriteU8(snapshot.group_outage_active ? 1 : 0);
  out.WriteString(snapshot.group_outage_entity);
  out.WriteF64(snapshot.group_outage_since);
  out.WriteU64(snapshot.group_outage_sensors);
  out.WriteU32(static_cast<uint32_t>(snapshot.concept_shifts.size()));
  for (const stream::ConceptShiftEvent& shift : snapshot.concept_shifts) {
    WriteShift(out, shift);
  }
  out.WriteU64(snapshot.concept_shifts_total);
}

StatusOr<stream::EngineSnapshot> ReadSnapshot(bin::ByteReader& in) {
  // The counts below are untrusted: each is checked against the bytes
  // left before anything is reserved for it.
  stream::EngineSnapshot snapshot;
  HOD_ASSIGN_OR_RETURN(snapshot.sequence, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(snapshot.events_seen, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(snapshot.ts, in.ReadF64());
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    HOD_ASSIGN_OR_RETURN(snapshot.levels[i], ReadLevelState(in));
  }
  uint32_t count = 0;
  HOD_ASSIGN_OR_RETURN(count, in.ReadU32());
  HOD_RETURN_IF_ERROR(in.CheckCount(count, kMinAlarmBytes, "alarm count"));
  snapshot.active_alarms.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HOD_ASSIGN_OR_RETURN(stream::ActiveAlarm alarm, ReadAlarm(in));
    snapshot.active_alarms.push_back(std::move(alarm));
  }
  HOD_ASSIGN_OR_RETURN(count, in.ReadU32());
  HOD_RETURN_IF_ERROR(
      in.CheckCount(count, kMinQuarantineBytes, "quarantine count"));
  snapshot.quarantined.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HOD_ASSIGN_OR_RETURN(stream::QuarantinedSensor q, ReadQuarantine(in));
    snapshot.quarantined.push_back(std::move(q));
  }
  uint8_t active = 0;
  HOD_ASSIGN_OR_RETURN(active, in.ReadU8());
  snapshot.group_outage_active = active != 0;
  HOD_ASSIGN_OR_RETURN(snapshot.group_outage_entity, in.ReadString());
  HOD_ASSIGN_OR_RETURN(snapshot.group_outage_since, in.ReadF64());
  HOD_ASSIGN_OR_RETURN(snapshot.group_outage_sensors, in.ReadU64());
  HOD_ASSIGN_OR_RETURN(count, in.ReadU32());
  HOD_RETURN_IF_ERROR(in.CheckCount(count, kMinShiftBytes, "shift count"));
  snapshot.concept_shifts.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    HOD_ASSIGN_OR_RETURN(stream::ConceptShiftEvent shift, ReadShift(in));
    snapshot.concept_shifts.push_back(std::move(shift));
  }
  HOD_ASSIGN_OR_RETURN(snapshot.concept_shifts_total, in.ReadU64());
  return snapshot;
}

void WriteSnapshot(std::ostream& os, const stream::EngineSnapshot& snapshot) {
  const std::string bytes = EncodeSnapshotBytes(snapshot);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

StatusOr<stream::EngineSnapshot> ReadSnapshot(std::istream& is) {
  const std::string bytes = bin::ReadToEnd(is);
  bin::ByteReader in(bytes);
  return ReadSnapshot(in);
}

std::string EncodeSnapshotBytes(const stream::EngineSnapshot& snapshot) {
  bin::ByteWriter out;
  WriteSnapshot(out, snapshot);
  return out.Release();
}

std::string EncodeDeltaBytes(const SnapshotDelta& delta) {
  bin::ByteWriter out;
  out.WriteU64(delta.base_sequence);
  out.WriteU64(delta.sequence);
  out.WriteU64(delta.events_seen);
  out.WriteF64(delta.ts);
  out.WriteU32(static_cast<uint32_t>(delta.levels.size()));
  for (const LevelDelta& level : delta.levels) {
    out.WriteU8(level.index);
    WriteLevelState(out, level.state);
  }
  out.WriteU32(static_cast<uint32_t>(delta.alarm_upserts.size()));
  for (const stream::ActiveAlarm& alarm : delta.alarm_upserts) {
    WriteAlarm(out, alarm);
  }
  out.WriteU32(static_cast<uint32_t>(delta.alarm_removals.size()));
  for (const std::string& id : delta.alarm_removals) out.WriteString(id);
  out.WriteU32(static_cast<uint32_t>(delta.quarantine_upserts.size()));
  for (const stream::QuarantinedSensor& q : delta.quarantine_upserts) {
    WriteQuarantine(out, q);
  }
  out.WriteU32(static_cast<uint32_t>(delta.quarantine_removals.size()));
  for (const std::string& id : delta.quarantine_removals) {
    out.WriteString(id);
  }
  out.WriteU8(delta.outage_changed ? 1 : 0);
  if (delta.outage_changed) {
    out.WriteU8(delta.group_outage_active ? 1 : 0);
    out.WriteString(delta.group_outage_entity);
    out.WriteF64(delta.group_outage_since);
    out.WriteU64(delta.group_outage_sensors);
  }
  out.WriteU8(delta.shifts_full ? 1 : 0);
  out.WriteU32(static_cast<uint32_t>(delta.shift_events.size()));
  for (const stream::ConceptShiftEvent& shift : delta.shift_events) {
    WriteShift(out, shift);
  }
  out.WriteU32(delta.shift_ring_size);
  out.WriteU64(delta.concept_shifts_total);
  return out.Release();
}

}  // namespace hod::serve
