#ifndef HOD_STREAM_PEER_GROUP_H_
#define HOD_STREAM_PEER_GROUP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "hierarchy/level.h"
#include "hierarchy/production.h"
#include "hierarchy/sensor_registry.h"
#include "stream/stats.h"
#include "timeseries/time_series.h"
#include "util/statusor.h"

namespace hod::stream {

/// Space-axis comparison options (the sysTrace-failslow split: per-sensor
/// monitors compare a channel against its own history — *time* axis —
/// which absorbs slow drifts; this layer compares it against the live
/// distribution of its redundancy group — *space* axis — where a drifting
/// channel leaves the band long before its own baseline notices).
struct PeerGroupOptions {
  /// Master switch; a disabled monitor costs one branch per sample.
  bool enabled = true;
  /// Residual ring capacity per member (the rolling robust summary).
  size_t window = 64;
  /// Residuals a member must accumulate before it is scored.
  size_t warmup = 16;
  /// Fresh peers required to form a reference; below this the sample only
  /// refreshes the member's last-value cache.
  size_t min_peers = 1;
  /// A peer whose last sample is further than this (stream time) behind
  /// the observed sample is too stale to serve as a reference.
  double peer_freshness = 64.0;
  /// Robust z threshold on the deviation of the current residual from the
  /// member's own residual history (median/MAD).
  double deviation_z = 6.0;
  /// Threshold on the slope statistic |OLS slope| * span / detrended-MAD
  /// over the residual ring — the gain-drift test: a ramp relative to the
  /// peers shows up here even while each individual residual stays in
  /// band. The scale is measured around the fitted line, so the ramp
  /// cannot inflate its own denominator.
  double slope_z = 4.0;
  /// Consecutive breaching observations before a deviation fires.
  size_t deviation_after = 4;
  /// Clean observations after a fire before the member may fire again.
  size_t rearm_streak = 64;
  /// Floor on the MAD-derived scale (degenerate identical-peer windows).
  double min_scale = 1e-3;
  /// ---- Quarantine-onset correlation (collector side) ------------------
  /// Declare a group outage when at least this many distinct sensors'
  /// quarantine onsets land within `outage_window` of each other. 0
  /// disables correlation entirely: every quarantine keeps emitting its
  /// own kSensorFault finding, exactly as before this layer existed.
  size_t outage_min_sensors = 0;
  /// Onset clustering window (stream time).
  double outage_window = 32.0;
  /// Entity name the single kGroupOutage finding is filed under.
  std::string outage_entity = "plant";
};

/// Same-configuration cohorts derived from machine-configuration
/// similarity: machines are greedily clustered (hierarchy order, each
/// joining the first cluster whose representative shares its
/// configuration schema with L2 value distance <= `tolerance`), and each
/// sensor role (name|unit) spanning >= 2 machines of a cluster becomes
/// one cohort "cfg:<representative machine>:<role>". Deterministic:
/// clustering visits machines in hierarchy order and emits sorted map
/// keys. This is the paper's "same configuration" comparison basis —
/// peers need not be redundant sensors of one machine, just like sensors
/// on machines doing the same work.
std::map<std::string, std::vector<std::string>> ConfigurationCohorts(
    const hierarchy::Production& production, double tolerance = 1e-6);

/// One fired space-axis deviation.
struct PeerDeviation {
  std::string sensor_id;
  std::string group_id;
  hierarchy::ProductionLevel level = hierarchy::ProductionLevel::kPhase;
  ts::TimePoint ts = 0.0;
  double value = 0.0;
  /// value - median(fresh peer values), the scored quantity.
  double residual = 0.0;
  /// Robust z of the residual against the member's residual history.
  double value_z = 0.0;
  /// Slope statistic of the residual ring (the drift test).
  double slope_z = 0.0;
};

/// Checkpoint unit: one member's complete rolling state.
struct PeerMemberState {
  std::string sensor_id;
  bool has_last = false;
  ts::TimePoint last_ts = 0.0;
  double last_value = 0.0;
  std::vector<ts::TimePoint> ring_ts;
  std::vector<double> ring_residual;
  uint64_t breach_streak = 0;
  uint64_t calm_streak = 0;
  bool fired = false;
  uint64_t deviations = 0;
};

/// Checkpoint unit: one group.
struct PeerGroupState {
  std::string group_id;
  std::vector<PeerMemberState> members;
};

/// Streaming peer-group comparison: per redundancy group (or any caller-
/// defined same-configuration cohort), keeps each member's last value and
/// a rolling ring of residuals against the group median, and scores every
/// observation's deviation and slope against that robust summary.
///
/// Thread model: groups are sealed before the engine starts (AddGroup and
/// RestoreState are not thread-safe against Observe). Every sensor is
/// observed by exactly one thread at a time — its shard's drain thread, or
/// the caller in synchronous mode. Each group's mutex guards only the
/// members' last-value caches (`has_last`, `last_ts`, `last_value`): an
/// observation takes it once to read its fresh peers' values and write its
/// own, and scores outside it. A member's residual ring, streaks and
/// `fired` flag are written only by its sensor's observing thread, so they
/// need no lock; SaveState reads them only at a quiescent point (after the
/// scorer's Flush, or with no observer running), whose release/acquire
/// chain orders those writes before the read. A sensor may belong to
/// several groups; Observe visits each in turn (locks never nested) and
/// returns the strongest fired deviation.
class PeerGroupMonitor {
 public:
  /// `stats` may be nullptr (no counting); must outlive the monitor.
  explicit PeerGroupMonitor(PeerGroupOptions options = {},
                            StreamStats* stats = nullptr);

  /// Registers one peer group. InvalidArgument on an empty group id,
  /// fewer than two distinct members, or a duplicate group id.
  Status AddGroup(const std::string& group_id,
                  const std::vector<std::string>& members);

  /// Registers every redundancy group of `registry` with >= 2 members.
  Status AddGroupsFromRegistry(const hierarchy::SensorRegistry& registry);

  /// Registers every ConfigurationCohorts group of `production` — the
  /// machine-configuration-similarity counterpart of the redundancy-group
  /// path above.
  Status AddGroupsFromConfiguration(const hierarchy::Production& production,
                                    double tolerance = 1e-6);

  bool enabled() const { return options_.enabled; }
  const PeerGroupOptions& options() const { return options_; }
  size_t num_groups() const { return groups_.size(); }

  /// True when `sensor_id` belongs to at least one group.
  bool Tracks(const std::string& sensor_id) const {
    return index_.find(sensor_id) != index_.end();
  }

  /// Feeds one accepted sample (the sensor's scoring thread). Returns the
  /// strongest deviation fired by this observation, if any.
  std::optional<PeerDeviation> Observe(const std::string& sensor_id,
                                       hierarchy::ProductionLevel level,
                                       ts::TimePoint ts, double value);

  /// Every fired deviation so far, in fire order.
  std::vector<PeerDeviation> Deviations() const;

  /// Checkpoint support. RestoreState requires every group and member to
  /// already be registered (AddGroup with the same membership).
  std::vector<PeerGroupState> SaveState() const;
  Status RestoreState(const std::vector<PeerGroupState>& groups);

 private:
  struct Member {
    std::string sensor_id;
    /// Last-value cache, read by the peers' observers: guarded by
    /// Group::mu.
    bool has_last = false;
    ts::TimePoint last_ts = 0.0;
    double last_value = 0.0;
    /// Residual ring, oldest to newest: entries [ring_begin, size()) of
    /// these parallel buffers. Appends go to the back; the dead prefix is
    /// erased once it is a full window long, so the live ring is always
    /// contiguous and allocation stops after warm-up. Private to the
    /// member's observing thread.
    std::vector<ts::TimePoint> ring_ts;
    std::vector<double> ring_residual;
    size_t ring_begin = 0;
    /// The live ring's residuals in ascending order (derived state, not
    /// checkpointed: RestoreState empties it and the next observation
    /// rebuilds it). Capacity window + 1, reserved once: an observation
    /// inserts its residual at upper_bound and erases the evicted one at
    /// lower_bound, and the ring's median and MAD are read from it without
    /// a selection.
    std::vector<double> ring_sorted;
    uint64_t breach_streak = 0;
    uint64_t calm_streak = 0;
    bool fired = false;
    uint64_t deviations = 0;

    size_t ring_size() const { return ring_residual.size() - ring_begin; }
  };

  struct Group {
    std::string group_id;
    mutable std::mutex mu;
    std::vector<Member> members;
    std::map<std::string, size_t> member_index;
  };

  /// Scores one observation within one group. Takes `group.mu` only for
  /// the last-value exchange.
  std::optional<PeerDeviation> ObserveInGroup(
      Group& group, size_t member_index, hierarchy::ProductionLevel level,
      ts::TimePoint ts, double value);
  void LogDeviation(const PeerDeviation& deviation);

  PeerGroupOptions options_;
  StreamStats* stats_;
  /// std::map: deterministic iteration for SaveState.
  std::map<std::string, std::unique_ptr<Group>> groups_;
  /// sensor id -> (group, member slot) for every membership.
  std::map<std::string, std::vector<std::pair<Group*, size_t>>> index_;

  mutable std::mutex log_mu_;
  std::vector<PeerDeviation> log_;
};

}  // namespace hod::stream

#endif  // HOD_STREAM_PEER_GROUP_H_
