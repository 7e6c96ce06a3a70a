#ifndef HOD_STREAM_ESCALATION_H_
#define HOD_STREAM_ESCALATION_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/hierarchical_detector.h"
#include "stream/engine.h"
#include "util/statusor.h"

namespace hod::stream {

struct EscalationOptions {
  /// Snapshot poll cadence of the background thread (Start()). Manual
  /// callers (tests, synchronous replay) just call Poll() directly.
  std::chrono::milliseconds poll_interval{200};
};

/// Poll's diff step, one merge walk over two sequences ordered by sensor
/// id: `active` (an EngineSnapshot's active_alarms, built from the
/// engine's map) and `escalated` (sensor id -> alarm-since already
/// escalated). Returns the alarms not yet escalated at their `since` and
/// records them in `escalated`; ids absent from `active` are cleared
/// alarms and are pruned, so a later re-raise of the same sensor is fresh
/// even if its `since` collides, and the map stays bounded. The returned
/// pointers point into `active`.
std::vector<const ActiveAlarm*> TakeFreshAlarms(
    const std::vector<ActiveAlarm>& active,
    std::map<std::string, ts::TimePoint>& escalated);

/// The bridge between the cheap stream tier and the paper's Algorithm 1:
/// diffs consecutive EngineSnapshots and runs
/// core::HierarchicalDetector::EscalateAlarm over every NEWLY-flagged
/// entity, so each alarm gets its full ⟨global score, outlierness,
/// support⟩ triple exactly once — the detector's epoch cache makes the
/// marginal cost one entity, not one plant.
///
/// Findings flow back into the engine's alert board (marked
/// `escalated = true`, merged into the same per-entity episodes as the raw
/// stream alarms) and the run counters land in StreamStatsSnapshot via
/// StreamEngine::ReportEscalation.
///
/// Threading: the detector is owned exclusively by the bridge — Poll() and
/// the background loop are the only callers, and Start()/Stop()/Poll()
/// must not race each other. The engine side (Snapshot, ReportEscalation)
/// is thread-safe, so a bridge thread can run alongside producers, the
/// collector, and the checkpoint timer.
class EscalationBridge {
 public:
  /// `engine` and `detector` must outlive the bridge.
  EscalationBridge(StreamEngine* engine, core::HierarchicalDetector* detector,
                   EscalationOptions options = {});
  ~EscalationBridge();

  EscalationBridge(const EscalationBridge&) = delete;
  EscalationBridge& operator=(const EscalationBridge&) = delete;

  /// Spawns the background poll loop. Idempotent.
  void Start();
  /// Joins the loop. Idempotent; safe without Start().
  void Stop();

  /// One escalation pass: fetch the engine's latest snapshot, diff its
  /// active alarms against what this bridge already escalated, run the
  /// detector over the fresh ones, and report the results to the engine.
  /// Returns the number of newly-escalated entities (0 when the snapshot
  /// is unchanged or shows nothing new).
  StatusOr<size_t> Poll();

  /// Escalation passes that found at least one fresh alarm.
  uint64_t runs() const { return runs_; }

  /// Concept shifts consumed from snapshots so far — each one MarkDirty'd
  /// its sensor's covering scopes so the epoch cache rebuilds them against
  /// the post-shift data instead of serving models fit to the old regime.
  uint64_t shifts_marked() const { return shifts_marked_; }

 private:
  void Loop(const std::stop_token& stop);

  StreamEngine* engine_;
  core::HierarchicalDetector* detector_;
  EscalationOptions options_;

  /// Last snapshot sequence consumed (skip unchanged snapshots).
  uint64_t last_sequence_ = 0;
  /// sensor/entity id -> alarm-since timestamp already escalated. A new
  /// alarm on the same sensor (different `since`) escalates again; a
  /// cleared alarm is pruned so a later re-raise is fresh.
  std::map<std::string, ts::TimePoint> escalated_;
  uint64_t runs_ = 0;
  /// sensor id -> confirm timestamp of the last concept shift already
  /// MarkDirty'd, so one shift dirties its scopes exactly once however
  /// many snapshots re-publish it from the bounded ring.
  std::map<std::string, ts::TimePoint> shifts_consumed_;
  uint64_t shifts_marked_ = 0;

  std::jthread worker_;
};

}  // namespace hod::stream

#endif  // HOD_STREAM_ESCALATION_H_
