#ifndef HOD_STREAM_STATS_H_
#define HOD_STREAM_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "hierarchy/level.h"

namespace hod::stream {

/// Number of log2 buckets in the drain-batch-size histogram: bucket i
/// counts batches of size [2^i, 2^(i+1)).
inline constexpr size_t kBatchBuckets = 16;

/// Per-level counter array, indexed by LevelValue(level) - 1.
using LevelCounters = std::array<uint64_t, hierarchy::kNumLevels>;

/// Every scalar engine counter, declared once: X(name, since, help), where
/// `since` is the engine-checkpoint version that first carried the counter.
/// The snapshot fields, StreamStats' atomics, Snapshot/Restore, the
/// fleet roll-up, ToString and the checkpoint section are all expanded
/// from this table. Rows are in checkpoint order, so a new counter goes at
/// the end together with a checkpoint version bump. Every scalar counter
/// sums in the roll-up; rows named `rejected_*` make up rejected_total().
#define HOD_STREAM_COUNTERS(X)                                                \
  X(ingested, 4, "samples that passed router validation")                    \
  X(scored, 4, "samples scored by a shard worker")                           \
  X(dropped, 4,                                                               \
    "samples evicted by kDropOldest backpressure (the live count comes "     \
    "from the shard queues; this row holds a restored checkpoint's base)")   \
  X(rejected_queue_full, 4, "samples refused by kReject backpressure")       \
  X(rejected_timeout, 4, "kBlockWithTimeout pushes that expired")            \
  X(rejected_non_finite, 4, "samples with a NaN or infinite value")          \
  X(rejected_unknown_sensor, 4, "samples from a never-registered sensor")    \
  X(rejected_level_mismatch, 4,                                               \
    "samples whose level differs from the sensor's registration")            \
  X(rejected_out_of_order, 4,                                                 \
    "samples whose timestamp regressed beyond the tolerance")                \
  X(rejected_closed, 4,                                                       \
    "samples submitted after the shard queue closed (shutdown); keeps the "  \
    "conservation identity exact across shutdown races")                     \
  X(alarms_raised, 4, "monitor alarms raised")                               \
  X(alarms_cleared, 4, "monitor alarms cleared")                             \
  X(quarantined_samples, 4,                                                   \
    "samples of quarantined sensors withheld from their monitors")           \
  X(sensor_faults, 4, "sensor-fault findings emitted (quarantine entries)")  \
  X(sensor_recoveries, 4, "quarantined sensors fully recovered")             \
  X(watchdog_stall_events, 4,                                                 \
    "shard workers the watchdog has ever flagged as stalled")                \
  X(forward_failed, 4,                                                        \
    "scores or health events the collector refused (shutdown); not "         \
    "counted as forwarded, so the collector's books stay exact")             \
  X(escalation_runs, 4,                                                       \
    "Algorithm-1 runs over a snapshot diff with newly flagged alarms")       \
  X(escalation_entities, 4, "alarmed entities re-scored across all runs")    \
  X(escalation_findings, 4, "hierarchical findings the runs produced")       \
  X(escalation_unresolved, 4,                                                 \
    "alarms the detector could not resolve to a production scope")          \
  X(escalation_cache_hits, 4,                                                 \
    "detector models and score vectors reused by escalation")                \
  X(escalation_cache_misses, 4,                                               \
    "detector models and score vectors rebuilt by escalation")               \
  X(escalation_latency_us, 4, "wall time inside EscalateAlarm calls, us")    \
  X(checkpoints_written, 4, "background checkpoints written")                \
  X(checkpoint_failures, 4, "background checkpoints that failed")            \
  X(peer_deviations, 4,                                                       \
    "channels that left their redundancy group's band, by level or slope")   \
  X(group_outages, 4, "group outages declared by quarantine-onset "          \
                      "correlation")                                         \
  X(group_outage_recoveries, 4,                                               \
    "group outages fully recovered (every member back from quarantine)")     \
  X(suppressed_sensor_faults, 4,                                              \
    "sensor-fault findings folded into a group outage (their quarantine "    \
    "entries still count as sensor faults)")                                 \
  X(concept_shifts, 5, "shifts the per-lane BOCPD detectors confirmed")      \
  X(baseline_resets, 5,                                                       \
    "baseline resets applied (a deferred reset counts when the thaw "        \
    "applies it)")                                                           \
  X(baseline_resets_deferred, 5,                                              \
    "concept-shift resets parked until a quarantined lane thaws")            \
  X(snapshots_published, 6,                                                   \
    "EngineSnapshots the collector published to the serve tier")

/// Names a row of HOD_STREAM_COUNTERS: `Counter::<name>`.
enum class Counter : size_t {
#define HOD_COUNTER_ENUM(name, since, help) name,
  HOD_STREAM_COUNTERS(HOD_COUNTER_ENUM)
#undef HOD_COUNTER_ENUM
};

/// A coherent copy of every engine counter, safe to hold across the
/// engine's lifetime. In synchronous mode (and after `Stop()` in threaded
/// mode) the values are exact and deterministic, so tests can assert them.
struct StreamStatsSnapshot {
#define HOD_COUNTER_FIELD(name, since, help) uint64_t name = 0;
  HOD_STREAM_COUNTERS(HOD_COUNTER_FIELD)
#undef HOD_COUNTER_FIELD
  /// Per-level accounting (indexed by LevelValue(level) - 1): what was
  /// lost (drops + rejects) and what was withheld (quarantine) at each
  /// hierarchy level — the observability half of per-sensor-class
  /// backpressure.
  LevelCounters level_dropped{};
  LevelCounters level_rejected{};
  LevelCounters level_quarantined{};
  /// Deepest each shard's queue has ever been.
  std::vector<uint64_t> shard_queue_high_water;
  /// Shards the watchdog currently considers stalled (threaded mode with
  /// the watchdog enabled; empty otherwise).
  std::vector<uint8_t> shard_stalled;
  /// Histogram of worker drain batch sizes (log2 buckets).
  std::array<uint64_t, kBatchBuckets> batch_size_histogram{};

  /// Sum of the `rejected_*` rows.
  uint64_t rejected_total() const;

  /// The sample conservation identity: every sample that passed router
  /// validation (`ingested`) was scored, dropped by backpressure, refused
  /// by its shard queue (full, timed out or closed) or withheld by
  /// quarantine. Router-level rejects (non-finite, unknown sensor, level
  /// mismatch, out of order) never reach `ingested`, so they take no part.
  /// Exact in synchronous mode and after Stop(); survives operator+=.
  bool ConservesSamples() const;

  /// Folds another engine's snapshot into this one (fleet roll-up).
  /// Every table row and the per-level / batch-histogram arrays add
  /// elementwise, so a conservation identity that holds for each operand
  /// holds for the sum. Non-additive vectors merge by shape: `shard_queue_high_water` takes the per-index MAX (a depth,
  /// not a count) and `shard_stalled` the per-index OR, both extended to
  /// the longer operand — fleet plants need not share a shard count.
  StreamStatsSnapshot& operator+=(const StreamStatsSnapshot& other);

  bool operator==(const StreamStatsSnapshot&) const = default;

  /// Multi-line human-readable rendering for examples/benches.
  std::string ToString() const;
};

inline StreamStatsSnapshot operator+(StreamStatsSnapshot lhs,
                                     const StreamStatsSnapshot& rhs) {
  lhs += rhs;
  return lhs;
}

/// One row of HOD_STREAM_COUNTERS as data, with the snapshot field it
/// expands to.
struct CounterInfo {
  const char* name;
  uint32_t since;
  const char* help;
  uint64_t StreamStatsSnapshot::*field;
};

/// The counter table in row (= checkpoint) order; kCounters[i] describes
/// `static_cast<Counter>(i)`.
inline constexpr CounterInfo kCounters[] = {
#define HOD_COUNTER_INFO(name, since, help) \
  {#name, since, help, &StreamStatsSnapshot::name},
    HOD_STREAM_COUNTERS(HOD_COUNTER_INFO)
#undef HOD_COUNTER_INFO
};
inline constexpr size_t kNumCounters = std::size(kCounters);

/// Lock-free counter block shared by router, shard workers, and collector.
/// Every member is a relaxed atomic: counters are monotone event counts
/// with no cross-counter invariant enforced mid-flight, so relaxed order
/// is sufficient; `Snapshot()` taken at a quiescent point is exact.
class StreamStats {
 public:
  void Add(Counter counter, uint64_t n = 1) {
    counters_[static_cast<size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }
  void RecordLevelDropped(hierarchy::ProductionLevel level) {
    Bump(level_dropped_[LevelIndex(level)]);
  }
  void RecordLevelRejected(hierarchy::ProductionLevel level) {
    Bump(level_rejected_[LevelIndex(level)]);
  }
  void RecordLevelQuarantined(hierarchy::ProductionLevel level) {
    Bump(level_quarantined_[LevelIndex(level)]);
  }
  /// Records one worker drain of `batch` samples into the histogram.
  void RecordBatch(size_t batch);

  /// Every counter except the per-shard vectors, which the engine fills
  /// from its shard queues and watchdog.
  StreamStatsSnapshot Snapshot() const;

  /// Overwrites every counter from a snapshot (checkpoint restore).
  void Restore(const StreamStatsSnapshot& snapshot);

  /// Clamps a level to a valid per-level counter index.
  static size_t LevelIndex(hierarchy::ProductionLevel level) {
    const int value = hierarchy::LevelValue(level);
    if (value < 1) return 0;
    if (value > hierarchy::kNumLevels) return hierarchy::kNumLevels - 1;
    return static_cast<size_t>(value) - 1;
  }

 private:
  static void Bump(std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  std::array<std::atomic<uint64_t>, kNumCounters> counters_{};
  std::array<std::atomic<uint64_t>, hierarchy::kNumLevels> level_dropped_{};
  std::array<std::atomic<uint64_t>, hierarchy::kNumLevels> level_rejected_{};
  std::array<std::atomic<uint64_t>, hierarchy::kNumLevels>
      level_quarantined_{};
  std::array<std::atomic<uint64_t>, kBatchBuckets> batch_histogram_{};
};

}  // namespace hod::stream

#endif  // HOD_STREAM_STATS_H_
