#ifndef HOD_SERVE_CODEC_H_
#define HOD_SERVE_CODEC_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stream/engine.h"
#include "timeseries/time_series.h"
#include "util/status.h"
#include "util/statusor.h"

namespace hod::hierarchy::bin {
class ByteReader;
class ByteWriter;
}  // namespace hod::hierarchy::bin

namespace hod::serve {

/// One changed hierarchy level inside a delta: index into
/// EngineSnapshot::levels plus the full replacement state (the per-level
/// struct is small and flat, so field-level diffing buys nothing).
struct LevelDelta {
  uint8_t index = 0;
  stream::LevelOutlierState state;
};

/// Difference between two consecutively published EngineSnapshots.
/// Applying it to the exact base snapshot (matched by `base_sequence`)
/// reconstructs the next snapshot byte-for-byte — the serve tier's parity
/// contract, pinned by EncodeSnapshotBytes equality in tests and bench.
///
/// Sorted-vector diffing relies on the engine's invariant that
/// `active_alarms` and `quarantined` are sorted by sensor id (they are
/// emitted from std::map iteration); ApplyDeltaInPlace keeps them sorted.
struct SnapshotDelta {
  uint64_t base_sequence = 0;  ///< snapshot this delta applies on top of
  uint64_t sequence = 0;       ///< resulting snapshot's sequence
  uint64_t events_seen = 0;
  ts::TimePoint ts = 0.0;

  /// Levels whose counters changed since the base (usually 0–2 of 5).
  std::vector<LevelDelta> levels;

  /// Alarm set edits: upserts carry the full entry (new alarm or changed
  /// peak/since), removals carry just the sensor id.
  std::vector<stream::ActiveAlarm> alarm_upserts;
  std::vector<std::string> alarm_removals;
  std::vector<stream::QuarantinedSensor> quarantine_upserts;
  std::vector<std::string> quarantine_removals;

  /// Group-outage correlation fields travel whole when any of them moved
  /// (one bool + short string + two scalars — not worth per-field bits).
  bool outage_changed = false;
  bool group_outage_active = false;
  std::string group_outage_entity;
  ts::TimePoint group_outage_since = 0.0;
  uint64_t group_outage_sensors = 0;

  /// Concept-shift ring: normally only the events appended since the base
  /// travel (`shifts_full == false`) and the receiver trims its ring down
  /// to `shift_ring_size`. When the ring advanced by more than its
  /// capacity — or the base's tail does not prefix the next ring (foreign
  /// base) — the whole ring travels instead.
  bool shifts_full = false;
  std::vector<stream::ConceptShiftEvent> shift_events;
  uint32_t shift_ring_size = 0;
  uint64_t concept_shifts_total = 0;
};

/// Computes the delta that turns `base` into `next`. Works for any pair of
/// snapshots (not just consecutive sequences); consecutive pairs simply
/// produce the smallest deltas.
SnapshotDelta EncodeDelta(const stream::EngineSnapshot& base,
                          const stream::EngineSnapshot& next);

/// Patches `view` (the delta's base, its alarm and quarantine vectors
/// sorted by sensor id as the engine publishes them) into the next
/// snapshot in place.
/// Fails with FailedPrecondition when `view.sequence !=
/// delta.base_sequence` (stale base — the subscriber must resync from a
/// keyframe) and InvalidArgument when a level index is out of range or
/// the delta's shift-ring accounting is inconsistent. Every check runs
/// before the first write, so a rejected delta leaves `view` untouched.
Status ApplyDeltaInPlace(stream::EngineSnapshot& view,
                         const SnapshotDelta& delta);

/// Copying form of ApplyDeltaInPlace: reconstructs the next snapshot from
/// `base` + `delta`, same checks.
StatusOr<stream::EngineSnapshot> ApplyDelta(const stream::EngineSnapshot& base,
                                            const SnapshotDelta& delta);

/// Canonical little-endian serialization of every EngineSnapshot field.
/// Two snapshots are byte-identical under this encoding iff they are
/// field-identical — the equality oracle for delta-reconstruction parity.
/// ReadSnapshot checks every count against the bytes left before it
/// reserves for it.
void WriteSnapshot(hierarchy::bin::ByteWriter& out,
                   const stream::EngineSnapshot& snapshot);
StatusOr<stream::EngineSnapshot> ReadSnapshot(hierarchy::bin::ByteReader& in);
/// Stream adapters: one write of the encoded bytes; read to the end of
/// `is` and parse the span.
void WriteSnapshot(std::ostream& os, const stream::EngineSnapshot& snapshot);
StatusOr<stream::EngineSnapshot> ReadSnapshot(std::istream& is);
std::string EncodeSnapshotBytes(const stream::EngineSnapshot& snapshot);

/// Wire encoding of a delta — used for size accounting (delta bytes vs
/// keyframe bytes) in the serving bench; not needed to apply a delta
/// in-process.
std::string EncodeDeltaBytes(const SnapshotDelta& delta);

}  // namespace hod::serve

#endif  // HOD_SERVE_CODEC_H_
