#ifndef HOD_STREAM_SHARDED_SCORER_H_
#define HOD_STREAM_SHARDED_SCORER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_monitor.h"
#include "core/bocpd.h"
#include "core/monitor.h"
#include "stream/health.h"
#include "stream/queue.h"
#include "stream/router.h"
#include "stream/spsc_ring.h"
#include "stream/stats.h"
#include "util/statusor.h"

namespace hod::util {
class ThreadPool;
}  // namespace hod::util

namespace hod::stream {

class PeerGroupMonitor;

/// What one collector event means. Score events carry a monitor verdict;
/// health events mark a sensor entering quarantine (the stream tier's
/// measurement-error verdict) or completing recovery; peer-deviation
/// events mark a channel drifting away from its redundancy group (the
/// space-axis verdict — see stream/peer_group.h); concept-shift events
/// mark a BOCPD-confirmed regime change that re-baselined the channel
/// (see core/bocpd.h).
enum class StreamEventKind {
  kScore,
  kSensorFault,
  kSensorRecovered,
  kPeerDeviation,
  kConceptShift,
};

/// A scored sample forwarded to the collector: the original reading plus
/// the per-sensor monitor's verdict. Only interesting samples travel this
/// path (alarm transitions, scores above the forwarding threshold, and
/// sensor health transitions), so collector traffic stays proportional to
/// outliers, not throughput.
struct ScoredSample {
  StreamEventKind kind = StreamEventKind::kScore;
  std::string sensor_id;
  hierarchy::ProductionLevel level = hierarchy::ProductionLevel::kPhase;
  ts::TimePoint ts = 0.0;
  double value = 0.0;
  core::MonitorUpdate update;
  /// Set on kSensorFault events: what tripped the quarantine.
  HealthSignal fault_reason = HealthSignal::kClean;
  /// Set on kPeerDeviation events: the redundancy group the channel broke
  /// from, and the robust deviation / slope statistics that fired.
  std::string peer_group;
  double peer_value_z = 0.0;
  double peer_slope_z = 0.0;
  /// Set on kConceptShift events: the confirmed pre/post level estimates,
  /// the magnitude in pre-shift sigmas, and the run-length evidence
  /// (posterior mass on a recent changepoint, and samples since it).
  double shift_before = 0.0;
  double shift_after = 0.0;
  double shift_magnitude = 0.0;
  double shift_evidence = 0.0;
  uint64_t shift_run_length = 0;
};

/// Read-only view of one sensor's monitor, for tests and diagnostics.
/// Only coherent while no drain task owns the monitor (synchronous mode,
/// or a stopped engine).
struct SensorProbe {
  uint64_t samples_seen = 0;
  uint64_t alarms_raised = 0;
  bool alarm = false;
  bool model_ready = false;
};

/// Result of scoring one sample inline (synchronous mode).
struct InlineScore {
  /// False when the sensor is quarantined and the sample was withheld
  /// from its monitor.
  bool scored = false;
  core::MonitorUpdate update;
};

struct ShardedScorerOptions {
  size_t num_shards = 4;
  /// Per-shard queue capacity (samples).
  size_t queue_capacity = 1024;
  /// Max samples a drain task takes per queue acquisition.
  size_t max_batch = 64;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Producer wait bound under kBlockWithTimeout.
  std::chrono::milliseconds block_timeout{100};
  /// How many threads push to each shard. With kSinglePerShard the shard
  /// ingress queue is the lock-free SpscRing instead of the mutex-based
  /// BoundedQueue — same backpressure/accounting semantics, no lock on
  /// the per-sample fast path. The caller owns the guarantee (e.g. one
  /// replay thread, or producers partitioned by the router's StableHash64).
  ProducerHint producer_hint = ProducerHint::kUnknown;
  /// Configuration of every per-sensor OnlineMonitor.
  core::OnlineMonitorOptions monitor;
  /// Scores above this are forwarded to the collector even without an
  /// alarm transition (feeds the per-level outlier snapshot).
  double forward_threshold = 0.5;
  /// Online concept-shift detection: when enabled, every scored sample
  /// also feeds a per-lane core::BocpdDetector, and a confirmed shift
  /// re-baselines the lane (seeded from the post-shift posterior; deferred
  /// while the lane's baseline is frozen by quarantine) and forwards a
  /// kConceptShift event. Disabled by default — the scoring path is then
  /// byte-identical to a scorer built before this option existed.
  bool shift_enabled = false;
  core::BocpdOptions bocpd;
  /// Test seam: called by each drain task once per micro-batch with its
  /// shard index. Lets liveness tests wedge a shard deterministically
  /// (watchdog / shutdown-under-saturation coverage). Must be cheap and
  /// thread-safe; leave empty in production.
  std::function<void(size_t)> worker_tick_hook;
  /// Called after every collector batch push, and before a push blocks
  /// on a full collector queue: the engine uses it to arm its pooled
  /// collector-drain task, which runs only when notified.
  std::function<void()> collector_notify;
};

/// The scoring tier: N shards, each owning a bounded queue, one pooled
/// drain task (at most one in flight), and a `core::BatchMonitorBank`
/// holding the monitors of the sensors hashed to it in structure-of-arrays
/// form. Shard state is task-private — a sensor's samples are only ever
/// scored by its shard's drain task, so the hot path touches no shared
/// mutable state
/// and takes no lock (the queue mutex is amortized over micro-batches;
/// the optional health tracker adds one uncontended per-sensor mutex
/// acquisition per sample). A drained micro-batch is scored in one
/// BatchMonitorBank::PushBatch call, so the residual/z/EWMA-sigma math
/// runs through the vectorized util/simd.h kernels instead of a map
/// lookup and scalar update per sample; scores, counters, and checkpoint
/// state are bit-identical to the per-sample path.
class ShardedScorer {
 public:
  /// `stats`, `collector`, `health`, and `peers` must outlive the scorer.
  /// `collector` receives forwarded ScoredSamples and may be nullptr
  /// (forwarding disabled); `health` may be nullptr (no health gating);
  /// `peers` may be nullptr (no peer-group comparison). Peer observation
  /// happens on the scoring thread, after the health gate: a quarantined
  /// channel's samples never move its peers' reference medians.
  ShardedScorer(const ShardedScorerOptions& options, StreamStats* stats,
                BoundedQueue<ScoredSample>* collector,
                SensorHealthTracker* health,
                PeerGroupMonitor* peers = nullptr);
  ~ShardedScorer();

  ShardedScorer(const ShardedScorer&) = delete;
  ShardedScorer& operator=(const ShardedScorer&) = delete;

  /// Creates the monitor for one sensor on its shard. Call before Start().
  Status AddSensor(size_t shard, const std::string& sensor_id);

  /// Starts scoring on `executor`: shard drains run as notify-driven
  /// tasks on its worker lane, armed by Submit. Spawns no thread. The
  /// executor must outlive the scorer and must not shut down before
  /// Stop() returns. Without Start() the scorer is usable synchronously
  /// via ScoreNow().
  Status Start(util::ThreadPool& executor);

  /// Enqueues a routed sample onto its shard under `policy` (the sensor
  /// class's backpressure), accounting evictions and timeouts.
  Status Submit(size_t shard, SensorSample sample, BackpressurePolicy policy);

  /// Scores a sample inline on the caller's thread (synchronous mode).
  /// Must not be mixed with a started scorer. A quarantined sensor's
  /// sample is withheld from its monitor (result.scored == false).
  /// `lane_hint` (the router's cached lane, kNoLane when unresolved)
  /// skips the string-keyed lane lookup when valid.
  StatusOr<InlineScore> ScoreNow(size_t shard, const SensorSample& sample,
                                 uint32_t lane_hint = kNoLane);

  /// Lane of a sensor on one shard, or BatchMonitorBank::kNotFound. Used
  /// by the engine to publish the sensor-id → (shard, lane) cache to the
  /// router after the banks are populated.
  size_t LaneOf(size_t shard, const std::string& sensor_id) const;

  /// Blocks until every submitted sample has been scored. Producers must
  /// be quiescent for the post-condition to be meaningful.
  Status Flush();

  /// Closes every queue and waits until the drain tasks have scored what
  /// was accepted and retired. Idempotent.
  void Stop();

  /// Sets `snapshot`'s per-shard queue high-water marks and adds the
  /// queues' kDropOldest evictions to its `dropped` count (both live in
  /// the queues, not in StreamStats).
  void FillQueueStats(StreamStatsSnapshot& snapshot) const;

  bool running() const { return running_.load(std::memory_order_acquire); }
  size_t num_shards() const { return shards_.size(); }
  /// Samples forwarded to the collector so far. Counts only pushes the
  /// collector accepted — failed forwards land in forward_failed().
  uint64_t forwarded() const {
    return forwarded_.load(std::memory_order_acquire);
  }
  /// Forwards the collector refused (normally: closed during shutdown).
  uint64_t forward_failed() const {
    return forward_failed_.load(std::memory_order_acquire);
  }
  /// Implementation tag of a shard's ingress queue ("mpsc" or "spsc").
  std::string_view QueueKind(size_t shard) const {
    return shard < shards_.size() ? shards_[shard]->queue->kind()
                                  : std::string_view{"?"};
  }

  /// Liveness telemetry for the engine watchdog: a shard's heartbeat
  /// advances once per scored micro-batch; a queue with waiting samples
  /// whose heartbeat stands still is a stalled shard.
  uint64_t ShardHeartbeat(size_t shard) const;
  size_t ShardQueueDepth(size_t shard) const;

  /// Monitor state of one sensor. FailedPrecondition while the scorer runs.
  StatusOr<SensorProbe> Probe(const std::string& sensor_id) const;

  /// Checkpoint support: copy a sensor's monitor state out / in.
  /// FailedPrecondition while the scorer runs.
  StatusOr<core::OnlineMonitorState> SaveMonitor(
      const std::string& sensor_id) const;
  /// SaveMonitor for a running-but-quiesced scorer (background
  /// checkpointing): drain tasks may be armed, but the caller guarantees
  /// every submitted sample has been scored (Flush returned) and no
  /// producer can submit until the save completes. The Flush
  /// release/acquire chain on the shard `processed` counters makes the
  /// monitor reads safe; without that guarantee this is a data race.
  StatusOr<core::OnlineMonitorState> SaveMonitorQuiesced(
      const std::string& sensor_id) const;
  Status RestoreMonitor(const std::string& sensor_id,
                        const core::OnlineMonitorState& state);

  /// Checkpoint support for the per-lane BOCPD detectors. Same quiescence
  /// contract as SaveMonitorQuiesced. NotFound when the sensor is unknown
  /// or shift detection is disabled.
  StatusOr<core::BocpdState> SaveBocpdQuiesced(
      const std::string& sensor_id) const;
  Status RestoreBocpd(const std::string& sensor_id,
                      const core::BocpdState& state);
  bool shift_enabled() const { return options_.shift_enabled; }

 private:
  struct Shard {
    Shard(ProducerHint hint, size_t capacity, BackpressurePolicy policy,
          std::chrono::milliseconds block_timeout,
          const core::OnlineMonitorOptions& monitor_options)
        : queue(MakeShardQueue<SensorSample>(hint, capacity, policy,
                                            block_timeout)),
          bank(monitor_options) {}
    std::unique_ptr<ShardQueue<SensorSample>> queue;
    /// SoA bank of this shard's per-sensor monitors. Touched only by the
    /// shard's drain task (or the caller in synchronous mode).
    core::BatchMonitorBank bank;
    /// Per-lane BOCPD detectors (same indexing as the bank's lanes).
    /// Empty unless options.shift_enabled; task-private like the bank.
    std::vector<core::BocpdDetector> bocpd;
    /// Shifts confirmed in pass 1 of the current batch, by admitted-row
    /// index — pass 2 segments PushBatch at these rows so post-confirm
    /// samples score against the re-baselined model exactly as in
    /// synchronous mode, and pass 3 forwards the events in order.
    struct PendingShift {
      size_t admitted_row;
      size_t lane;
      core::BocpdShift shift;
      bool deferred;  ///< lane was frozen: reset parked until thaw
    };
    std::vector<PendingShift> batch_shifts;
    /// The drain task's pop buffer, kept across tasks so a task run
    /// allocates nothing (one task in flight: task-private).
    std::vector<SensorSample> drained;
    /// Health transitions of the current batch, by batch row — pass 3
    /// forwards each just before its row's own events.
    struct GateEvent {
      size_t row;
      StreamEventKind kind;
      HealthSignal reason;
    };
    std::vector<GateEvent> batch_gate_events;
    /// ProcessBatch scratch, parallel over the health-admitted samples of
    /// one micro-batch. Owned by the drain task; reused across batches.
    std::vector<size_t> batch_rows;     ///< positions in the drained batch
    std::vector<size_t> batch_lanes;
    std::vector<double> batch_values;
    std::vector<unsigned char> batch_forward;
    std::vector<core::MonitorUpdate> batch_updates;
    std::vector<unsigned char> batch_scored;
    /// Collector events of the batch being scored, in emission order;
    /// FlushOutbox hands them to the collector in one push.
    std::vector<ScoredSample> outbox;
    std::atomic<uint64_t> submitted{0};
    std::atomic<uint64_t> processed{0};
    std::atomic<uint64_t> heartbeat{0};
    /// kTaskIdle / kTaskArmed / kTaskRunning (see NotifyShard). At most
    /// one drain task is in flight per shard.
    std::atomic<int> task_state{0};
  };

  /// Pooled-task state machine. A shard (or the engine's
  /// collector) has at most one drain task in flight; a notify while the
  /// task runs re-arms it so no push is ever missed:
  ///   Idle    --notify-->  Armed (+ submit task)
  ///   Armed   --notify-->  Armed (task already pending)
  ///   Running --notify-->  Armed (task loops instead of exiting)
  enum TaskState : int { kTaskIdle = 0, kTaskArmed = 1, kTaskRunning = 2 };
  /// Batches per slice: at the end of each, a drain task with work left
  /// resubmits itself if other tasks wait in the pool — bounds a busy
  /// shard's slice so co-scheduled plants share the pool fairly.
  static constexpr size_t kBatchesPerSlice = 4;

  /// Arms shard `shard_index`'s drain task (no-op when one is already
  /// armed). Called after every successful Submit push.
  void NotifyShard(size_t shard_index);
  /// The pooled drain body for one shard.
  void DrainTask(size_t shard_index);
  /// True when every submitted sample was scored or evicted. Flush and
  /// Stop wait on it under flush_mu_.
  bool AllProcessed() const;
  /// Scores one drained batch on the calling thread and publishes the
  /// shard's progress counters. Three passes: health-gate in sample order
  /// (transitions are recorded by row), one vectorized
  /// BatchMonitorBank::PushBatch over the admitted samples, then health
  /// events, peer observation, alarm accounting and collector forwarding
  /// in sample order. Every sensor's events leave in the order the
  /// per-sample path emits them.
  void ProcessBatch(size_t shard_index, std::vector<SensorSample>& batch);
  /// Scores one sample for ScoreNow once its lane is resolved; events go
  /// to the shard's outbox.
  StatusOr<InlineScore> ScoreInline(Shard& shard, size_t lane,
                                    const SensorSample& sample);
  /// Queues one collector event on the shard's outbox (no-op without a
  /// collector).
  void Emit(Shard& shard, ScoredSample event);
  /// Hands the shard's outbox to the collector in one batch push (one
  /// lock, one wakeup; the collector is notified before the push would
  /// block on a full queue). Accepted events count in forwarded_, refused
  /// ones (closed collector) in forward_failed_ and the stats. Called
  /// before the batch's `processed` bump, so Flush never sees a scored
  /// batch whose events are not yet counted.
  void FlushOutbox(Shard& shard);
  /// Health-gates one sample: reports whether to score it, whether its
  /// results may feed the collector, and the health transition (quarantine
  /// entry or completed recovery) the sample caused, which the caller
  /// forwards ahead of the sample's own events.
  struct HealthGateResult {
    bool score = true;    ///< feed the sample to the monitor
    bool forward = true;  ///< let scores/alarms reach the collector
    std::optional<StreamEventKind> transition;
    HealthSignal reason = HealthSignal::kClean;
  };
  HealthGateResult HealthGate(const SensorSample& sample);
  /// Baseline-lifecycle transitions driven by the health gate: the first
  /// quarantined sample freezes the lane's baseline, the first admitted
  /// sample after quarantine thaws it (applying any reset a concept shift
  /// parked during the freeze). Call after HealthGate, before scoring.
  void SyncBaselineFreeze(Shard& shard, size_t lane, bool admitted);
  /// Feeds one scored sample to the lane's BOCPD detector; a confirmed
  /// shift is returned with the sample's timestamp stamped. When
  /// `deferred` is non-null the re-baseline is applied immediately
  /// (synchronous path); when null the caller sequences ApplyShiftReset
  /// itself (ProcessBatch applies it between PushBatch segments so
  /// post-confirm samples score against the new model, exactly as in
  /// synchronous mode).
  std::optional<core::BocpdShift> FeedBocpd(Shard& shard, size_t lane,
                                            const SensorSample& sample,
                                            bool* deferred);
  /// Re-baselines one lane from a confirmed shift's posterior (deferred
  /// while frozen) and bumps the shift counters. Returns whether the
  /// reset was parked for the thaw.
  bool ApplyShiftReset(Shard& shard, size_t lane,
                       const core::BocpdShift& shift);
  /// Builds and emits one kConceptShift collector event.
  void ForwardShiftEvent(Shard& shard, const SensorSample& sample,
                         const core::BocpdShift& shift);
  void ForwardEvent(Shard& shard, StreamEventKind kind,
                    const SensorSample& sample, HealthSignal reason);
  /// Feeds one health-admitted sample to the peer-group monitor; a fired
  /// deviation is emitted to the collector when `forward` allows it (a
  /// recovering channel still updates its peer state silently).
  void ObservePeers(Shard& shard, const SensorSample& sample, bool forward);

  ShardedScorerOptions options_;
  StreamStats* stats_;
  BoundedQueue<ScoredSample>* collector_;
  SensorHealthTracker* health_;
  PeerGroupMonitor* peers_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// The pool drain tasks run on; set by Start().
  util::ThreadPool* executor_ = nullptr;
  /// Pooled drain tasks currently submitted or running. Stop() waits for
  /// zero (release on task exit / acquire in the wait) before declaring
  /// the shards quiescent.
  std::atomic<uint64_t> tasks_in_flight_{0};
  std::atomic<uint64_t> forwarded_{0};
  std::atomic<uint64_t> forward_failed_{0};
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  // Atomics: running() / Submit / ScoreNow read these from caller threads
  // while Stop() writes them from another (e.g. a watchdog or a test
  // harness tearing down mid-stream).
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace hod::stream

#endif  // HOD_STREAM_SHARDED_SCORER_H_
