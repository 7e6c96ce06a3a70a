#ifndef HOD_STREAM_CHECKPOINT_H_
#define HOD_STREAM_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/bocpd.h"
#include "core/monitor.h"
#include "core/report.h"
#include "stream/engine.h"
#include "stream/health.h"
#include "stream/stats.h"
#include "util/statusor.h"

namespace hod::hierarchy::bin {
class ByteWriter;
}  // namespace hod::hierarchy::bin

namespace hod::stream {

/// Everything a StreamEngine must persist to resume where it left off:
/// per-sensor monitor baselines, timestamp frontiers, and health FSMs,
/// plus the collector's aggregates, the alert manager's findings, and the
/// stats counters. The monitor configuration travels along as a
/// fingerprint — restore refuses a checkpoint taken under different
/// scoring options, because "resume byte-identically" would be a lie.
struct EngineCheckpoint {
  /// Configuration fingerprint (validated on restore).
  core::OnlineMonitorOptions monitor;
  double out_of_order_tolerance = 0.0;
  /// Concept-shift layer fingerprint (v5): whether BOCPD ran, and under
  /// which tuning — restoring a shift-enabled image under different BOCPD
  /// options would silently change detection behavior, so it is refused
  /// like a monitor-options mismatch.
  bool shift_enabled = false;
  core::BocpdOptions bocpd;

  struct SensorState {
    std::string sensor_id;
    hierarchy::ProductionLevel level = hierarchy::ProductionLevel::kPhase;
    bool has_policy = false;
    BackpressurePolicy policy = BackpressurePolicy::kBlock;
    /// Router out-of-order frontier (may be -inf: nothing accepted yet).
    ts::TimePoint frontier = 0.0;
    SensorHealthStatus health;
    core::OnlineMonitorState monitor;
    /// v5: the sensor's BOCPD run-length posterior, present iff the
    /// engine ran with the concept-shift layer enabled.
    bool has_bocpd = false;
    core::BocpdState bocpd;
  };
  /// Sorted by sensor id (deterministic bytes for identical state).
  std::vector<SensorState> sensors;

  /// Collector aggregates.
  std::array<LevelOutlierState, hierarchy::kNumLevels> levels{};
  std::vector<ActiveAlarm> active_alarms;
  std::vector<QuarantinedSensor> quarantined;
  uint64_t events_seen = 0;
  uint64_t events_at_last_snapshot = 0;
  uint64_t next_sequence = 1;

  /// Space-axis layer (v4): peer-group membership + rolling state, the
  /// quarantine-onset correlation deque, and the open outage, if any.
  std::vector<PeerGroupState> peer_groups;
  std::vector<QuarantinedSensor> pending_faults;
  bool outage_active = false;
  ts::TimePoint outage_since = 0.0;
  std::vector<std::string> outage_members;
  ts::TimePoint collector_frontier =
      -std::numeric_limits<ts::TimePoint>::infinity();

  /// Concept-shift audit ring + lifetime total (v5): what the snapshot
  /// publishes so a restored engine's EscalationBridge still sees shifts
  /// that confirmed before the kill.
  std::vector<ConceptShiftEvent> recent_shifts;
  uint64_t concept_shifts_total = 0;

  /// Alert manager input (episodes are re-derived on demand).
  std::vector<core::OutlierFinding> findings;

  StreamStatsSnapshot stats;
};

/// Appends a versioned little-endian binary image of `checkpoint` to
/// `out`. The encoding is deterministic: identical state -> identical
/// bytes.
void WriteEngineCheckpoint(const EngineCheckpoint& checkpoint,
                           hierarchy::bin::ByteWriter& out);

/// Parses an image written by WriteEngineCheckpoint from one contiguous
/// span (trailing bytes are ignored). Typed errors on truncation, bad
/// magic, unsupported version, or out-of-range enums; a record count the
/// remaining bytes cannot hold is refused (InvalidArgument) before
/// anything is allocated for it.
StatusOr<EngineCheckpoint> ReadEngineCheckpoint(std::string_view image);

/// Stream adapters: the image is built in memory and written with one
/// call, or read to the end of `is` and parsed as one span.
Status WriteEngineCheckpoint(const EngineCheckpoint& checkpoint,
                             std::ostream& os);
StatusOr<EngineCheckpoint> ReadEngineCheckpoint(std::istream& is);

}  // namespace hod::stream

#endif  // HOD_STREAM_CHECKPOINT_H_
