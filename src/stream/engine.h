#ifndef HOD_STREAM_ENGINE_H_
#define HOD_STREAM_ENGINE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/alert_manager.h"
#include "core/monitor.h"
#include "hierarchy/level.h"
#include "stream/health.h"
#include "stream/peer_group.h"
#include "stream/queue.h"
#include "stream/router.h"
#include "stream/sharded_scorer.h"
#include "stream/stats.h"
#include "util/statusor.h"

namespace hod::util {
class ThreadPool;
}  // namespace hod::util

namespace hod::stream {

struct EngineCheckpoint;
struct EngineSnapshot;

/// Configuration of the whole streaming engine.
struct StreamEngineOptions {
  /// Worker shards. Sensors are partitioned by stable hash of their id.
  size_t num_shards = 4;
  /// Per-shard ingress queue capacity (samples).
  size_t queue_capacity = 1024;
  /// Max samples a shard drain task scores per pop (micro-batch size).
  size_t max_batch = 64;
  /// What a full shard queue does with a new sample (engine default; a
  /// sensor class can override per sensor via AddSensor).
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Producer wait bound under kBlockWithTimeout before the push fails
  /// with DeadlineExceeded.
  std::chrono::milliseconds block_timeout{100};
  /// Promise about ingest concurrency. kSinglePerShard — exactly one
  /// thread pushes to each shard (a single ingest thread trivially
  /// qualifies, as do producers partitioned by the router's shard hash) —
  /// swaps each shard's ingress queue for the lock-free SPSC ring. The
  /// default keeps the mutex-based MPSC queue, correct for any number of
  /// concurrent Ingest callers. Never enters the checkpoint fingerprint:
  /// a checkpoint taken under either queue restores under the other.
  ProducerHint producer_hint = ProducerHint::kUnknown;
  /// Synchronous mode: no threads at all — Ingest validates, scores, and
  /// collects inline on the caller's thread, and the ack carries the
  /// monitor update. Deterministic; scores are byte-identical to feeding
  /// one core::OnlineMonitor per sensor. For tests and replay tools.
  /// Start() refuses periodic checkpointing here (it would need a timer
  /// thread); CheckpointToFile still works when called.
  bool synchronous = false;
  /// Seconds a sample's timestamp may regress behind its sensor's
  /// frontier before it is rejected as out-of-order.
  double out_of_order_tolerance = 0.0;
  /// Configuration applied to every per-sensor monitor.
  core::OnlineMonitorOptions monitor;
  /// Sensor health FSM thresholds (set health.enabled = false to run
  /// without the fault-tolerance layer).
  SensorHealthOptions health;
  /// Space-axis comparison layer (stream/peer_group.h): peer-group
  /// deviation scoring plus quarantine-onset correlation. Inert until
  /// groups are registered via AddPeerGroup / AddPeerGroupsFromRegistry;
  /// outage correlation stays off until peer.outage_min_sensors > 0.
  PeerGroupOptions peer;
  /// Time-axis concept-shift layer: one core::BocpdDetector per sensor
  /// watches the accepted sample stream; a confirmed setpoint change
  /// re-baselines that sensor's monitor in place (seeded from the
  /// post-shift posterior) and emits a single kConceptShift finding
  /// instead of an unbounded alarm storm on the new regime. Off by
  /// default — the scoring path is then byte-identical to an engine
  /// built before this option existed.
  struct ConceptShiftOptions {
    bool enabled = false;
    core::BocpdOptions bocpd;
  } shift;
  /// Resolve each sensor's string id to its (shard, lane) pair once at
  /// ingress and carry the lane with the sample, so the scorer skips its
  /// per-sample hash lookup. Lanes are write-once (assigned at Start,
  /// never moved by quarantine), so the cache needs no invalidation; off
  /// turns the fast path into a pure fallback for A/B measurement.
  bool lane_cache = true;
  /// Synchronous mode: run the staleness sweep every this many accepted
  /// samples. Threaded mode sweeps on the watchdog cadence instead.
  size_t health_sweep_every = 256;
  /// Watchdog period (threaded mode): stall detection over shard drain
  /// heartbeats plus the staleness sweep, run as a timer on the engine's
  /// pool. Zero disables the watchdog.
  std::chrono::milliseconds watchdog_interval{200};
  /// Alert episode building. Stream findings start at global score 1, so
  /// the default board admits INFO — otherwise weak-but-real alarm
  /// episodes would be invisible.
  core::AlertManagerOptions alerts{30.0, core::AlertSeverity::kInfo};
  /// Background periodic checkpointing (threaded mode): when
  /// `checkpoint_path` is non-empty and `checkpoint_interval` positive, a
  /// timer on the engine's pool calls CheckpointToFile(checkpoint_path) on
  /// that cadence. Each image is written to `<path>.tmp` and atomically
  /// renamed over the target, so a crash mid-write never corrupts the last
  /// good checkpoint. A non-empty path also arms the ingest gate
  /// CheckpointToFile needs, so manual calls on a live threaded engine
  /// work too (interval 0 = manual only).
  std::string checkpoint_path;
  std::chrono::milliseconds checkpoint_interval{0};
  /// Capacity of the scorer → collector queue (always lossless/blocking).
  size_t collector_queue_capacity = 4096;
  /// Collector publishes a fresh EngineSnapshot every this many outlier
  /// events (and always on Flush/Stop).
  size_t snapshot_every = 256;
  /// Read-side publish hook. When set, every published EngineSnapshot is
  /// also handed to this sink (after it became visible via Snapshot()),
  /// on the collector task — the serve tier's SnapshotHub attaches
  /// here. The sink MUST be cheap and non-blocking (a bounded ring push):
  /// it runs on the pipeline's single consumer, so a slow sink stalls
  /// collection exactly like a slow collector would.
  std::function<void(const EngineSnapshot&)> snapshot_sink;
  /// The pool a threaded engine runs on. Every threaded engine runs the
  /// same way: shard drains as tasks on the pool's worker lane, the
  /// collector drain on its reserved service lane, and the watchdog and
  /// periodic checkpoint as pool timers. Null (the default): Start()
  /// builds an owned pool of `num_shards` worker threads, one service
  /// thread and the timer thread, and Stop() shuts it down. Set (fleet
  /// mode): the engine borrows it and spawns no thread of its own, so N
  /// engines on one pool cost pool-size threads; the pool must outlive
  /// the engine, and the engine must be Stop()ped before the pool shuts
  /// down. Ignored in synchronous mode (no threads either way).
  util::ThreadPool* executor = nullptr;
  /// Initial delay before the FIRST periodic checkpoint (subsequent ones
  /// fire every `checkpoint_interval`). The fleet tier derives this from
  /// the stable hash of the plant id, so a thousand plants spread their
  /// checkpoint I/O across the interval instead of writing in lockstep —
  /// and the stagger survives restarts. Zero = first write after one
  /// full interval.
  std::chrono::milliseconds checkpoint_phase{0};
  /// Test seam, forwarded to ShardedScorerOptions::worker_tick_hook.
  std::function<void(size_t)> worker_tick_hook_for_test;
};

/// Result of one Ingest call.
struct IngestAck {
  /// True when the sample was enqueued (threaded) or scored (synchronous).
  bool enqueued = false;
  /// Synchronous mode only: the monitor's verdict for this sample. Empty
  /// when the sensor is quarantined and the sample was withheld.
  std::optional<core::MonitorUpdate> update;
};

/// Aggregate outlier state of one hierarchy level.
struct LevelOutlierState {
  uint64_t outlier_samples = 0;  ///< forwarded samples above threshold
  uint64_t alarms_raised = 0;
  uint64_t alarms_cleared = 0;
  uint64_t active_alarms = 0;
  /// Sensor-fault findings emitted at this level (quarantine entries).
  uint64_t sensor_faults = 0;
  /// Sensors of this level currently quarantined (excluded from the
  /// aggregates above until they recover).
  uint64_t quarantined_sensors = 0;
  double peak_score = 0.0;
  ts::TimePoint last_outlier_ts = 0.0;
};

/// One sensor currently in alarm.
struct ActiveAlarm {
  std::string sensor_id;
  hierarchy::ProductionLevel level = hierarchy::ProductionLevel::kPhase;
  ts::TimePoint since = 0.0;
  double peak_score = 0.0;
};

/// One sensor currently quarantined by the health layer.
struct QuarantinedSensor {
  std::string sensor_id;
  hierarchy::ProductionLevel level = hierarchy::ProductionLevel::kPhase;
  ts::TimePoint since = 0.0;
  HealthSignal reason = HealthSignal::kClean;
};

/// One confirmed concept shift (online re-baseline). The snapshot carries
/// the most recent ones so the EscalationBridge can MarkDirty the covering
/// hierarchy scopes — their cached models were fit to the old regime.
struct ConceptShiftEvent {
  std::string sensor_id;
  hierarchy::ProductionLevel level = hierarchy::ProductionLevel::kPhase;
  ts::TimePoint ts = 0.0;            ///< confirming sample's timestamp
  double before_mean = 0.0;          ///< stable level before the shift
  double after_mean = 0.0;           ///< post-shift level estimate
  double magnitude_sigmas = 0.0;     ///< |after - before| / sigma_before
  double evidence = 0.0;             ///< posterior mass behind the shift
  uint64_t run_length = 0;           ///< post-shift run length at confirm
};

/// Periodic cross-level outlier snapshot — the escalation hook: the
/// EscalationBridge (stream/escalation.h) diffs consecutive snapshots'
/// active alarms and runs core::HierarchicalDetector::EscalateAlarm over
/// the newly-flagged entities to compute the full ⟨global score,
/// outlierness, support⟩ triple for what the stream tier flagged cheaply.
struct EngineSnapshot {
  /// Monotone snapshot counter (0 = nothing published yet).
  uint64_t sequence = 0;
  /// Collector events consumed when this snapshot was taken.
  uint64_t events_seen = 0;
  /// Event-time frontier at publish (max event timestamp consumed; 0.0
  /// until the first event) — the time axis of the serve tier's history
  /// rings.
  ts::TimePoint ts = 0.0;
  /// Indexed by LevelValue(level) - 1.
  std::array<LevelOutlierState, hierarchy::kNumLevels> levels{};
  /// Sensors in alarm right now, sorted by id.
  std::vector<ActiveAlarm> active_alarms;
  /// Sensors quarantined right now, sorted by id.
  std::vector<QuarantinedSensor> quarantined;
  /// Quarantine-onset correlation: a declared, still-open group outage.
  bool group_outage_active = false;
  std::string group_outage_entity;
  ts::TimePoint group_outage_since = 0.0;
  uint64_t group_outage_sensors = 0;
  /// Most recent confirmed concept shifts (bounded ring; newest last) and
  /// the total confirmed since start — the EscalationBridge diffs these to
  /// MarkDirty the covering hierarchy scopes.
  std::vector<ConceptShiftEvent> concept_shifts;
  uint64_t concept_shifts_total = 0;
};

/// Aggregate result of one escalation pass (one snapshot diff), reported
/// by the EscalationBridge so the counters land in StreamStatsSnapshot.
struct EscalationRunStats {
  uint64_t entities = 0;      ///< newly-flagged alarms re-scored
  uint64_t findings = 0;      ///< hierarchical findings produced
  uint64_t unresolved = 0;    ///< alarms the detector could not resolve
  uint64_t cache_hits = 0;    ///< detector cache entries reused
  uint64_t cache_misses = 0;  ///< detector models/scores (re)built
  uint64_t latency_us = 0;    ///< wall time inside the detector
};

/// The streaming facade: router → sharded scorer → collector, wrapped in
/// the fault-tolerance layer (sensor health FSM, liveness watchdog,
/// checkpoint/restore).
///
///   StreamEngine engine(options);
///   engine.AddSensor("m1.bed_temp_a", hierarchy::ProductionLevel::kPhase);
///   engine.Start();
///   engine.Ingest({"m1.bed_temp_a", level, ts, value});   // any thread
///   engine.Stop();                // drains every queue, retires the tasks
///   auto episodes = engine.Episodes();
///
/// Threading: Ingest is safe from any number of producer threads. Each
/// sensor's samples are scored in arrival order by its shard's drain task
/// (stable hash → shard; at most one task in flight per shard), so
/// per-sensor results are identical to a single-threaded run. The
/// collector task (at most one in flight) is the only one touching the
/// AlertManager and the snapshot state; the watchdog timer only reads
/// shard heartbeats and drives health transitions through the tracker's
/// per-sensor locks.
class StreamEngine {
 public:
  explicit StreamEngine(StreamEngineOptions options = {});
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Registers a sensor before Start(). Unregistered sensors are rejected
  /// at ingest with NotFound. `policy` overrides the engine-wide
  /// backpressure for this sensor's pushes (per-sensor-class QoS:
  /// critical channels kBlock, best-effort ones kDropOldest).
  Status AddSensor(const std::string& sensor_id,
                   hierarchy::ProductionLevel level =
                       hierarchy::ProductionLevel::kPhase,
                   std::optional<BackpressurePolicy> policy = std::nullopt);

  /// Registers a redundancy group for space-axis comparison. Every member
  /// must already be registered via AddSensor. Call before Start().
  Status AddPeerGroup(const std::string& group_id,
                      const std::vector<std::string>& members);

  /// Registers every redundancy group of `registry` with at least two
  /// engine-registered members (sensors the registry knows but the engine
  /// does not are skipped, as are singleton groups). Call before Start().
  Status AddPeerGroupsFromRegistry(const hierarchy::SensorRegistry& registry);

  /// Registers every machine-configuration-similarity cohort of
  /// `production` (see stream::ConfigurationCohorts) whose engine-
  /// registered membership still spans at least two sensors. Closes the
  /// gap the redundancy-group path leaves: machines doing the same work
  /// with the same configuration are peers even without shared redundancy
  /// groups. Call before Start().
  Status AddPeerGroupsFromConfiguration(const hierarchy::Production& production,
                                        double tolerance = 1e-6);

  /// Seals the registry and (threaded mode) starts the pipeline on the
  /// engine's pool: borrowed `options.executor`, or an owned one built
  /// here. A synchronous engine starts no thread; with `checkpoint_path`
  /// and a positive `checkpoint_interval` it returns InvalidArgument.
  Status Start();

  /// Validates, routes, and scores (sync) or enqueues (threaded) one
  /// sample. Typed errors: InvalidArgument (non-finite, level mismatch),
  /// NotFound (unknown sensor), OutOfRange (out-of-order or queue full
  /// under kReject), DeadlineExceeded (kBlockWithTimeout expired).
  /// Rejections feed the sensor's health FSM as fault evidence.
  StatusOr<IngestAck> Ingest(const SensorSample& sample);

  /// Blocks until every accepted sample has been scored and collected,
  /// then publishes a fresh snapshot. Call with producers quiescent.
  Status Flush();

  /// Drains all queues, retires every task and timer (and shuts an owned
  /// pool down), publishes the final snapshot. Idempotent; the engine
  /// cannot be restarted.
  Status Stop();

  /// Serializes the engine's complete mutable state (monitor baselines,
  /// timestamp frontiers, health FSMs, collector aggregates, open alert
  /// findings, counters) as a versioned binary snapshot. Requires a
  /// quiescent engine: synchronous mode (between Ingest calls) or a
  /// stopped engine. A restored engine resumes byte-identically in
  /// synchronous mode.
  Status Checkpoint(std::ostream& os) const;

  /// Checkpoints a LIVE engine to `path` (write-to-temp + atomic rename).
  /// Unlike Checkpoint(), this also works while a threaded engine runs: it
  /// closes the ingest gate (producers block for the duration), drains the
  /// scorer and collector, and serializes the quiesced state. Requires
  /// `options.checkpoint_path` non-empty on a threaded engine (that is
  /// what arms the gate Ingest honors); synchronous and stopped engines
  /// need no gate. This is what the background checkpoint timer calls.
  Status CheckpointToFile(const std::string& path);

  /// Ingests an escalation pass's findings into the alert board (merged
  /// into the same per-entity episodes as the stream tier's raw alarms)
  /// and folds its counters into the engine stats. Thread-safe; called by
  /// the EscalationBridge.
  void ReportEscalation(const EscalationRunStats& run,
                        const std::vector<core::OutlierFinding>& findings);

  /// Rebuilds an engine from a checkpoint. `options` must describe the
  /// same monitor configuration and out-of-order tolerance the checkpoint
  /// was taken under (validated; InvalidArgument on mismatch); threading
  /// options may differ. The restored engine is started and ready to
  /// ingest. The stream form reads `is` to its end and parses that span.
  static StatusOr<std::unique_ptr<StreamEngine>> Restore(
      std::istream& is, StreamEngineOptions options);
  /// Same, from an image already in memory. The engine takes the buffer
  /// over and frees it once parsed, before it allocates its own state.
  static StatusOr<std::unique_ptr<StreamEngine>> Restore(
      std::string image, StreamEngineOptions options);

  bool running() const { return state_.load() == kRunning; }
  size_t num_shards() const { return scorer_.num_shards(); }
  size_t num_sensors() const { return router_.num_sensors(); }
  const StreamEngineOptions& options() const { return options_; }

  /// Counter snapshot. Exact in synchronous mode and after Stop();
  /// instantaneous-but-consistent-enough while threads run.
  StreamStatsSnapshot stats() const;

  /// Latest published per-level outlier snapshot (sequence 0 if none).
  EngineSnapshot Snapshot() const;

  /// The same snapshot without the copy: published snapshots are
  /// immutable, so readers share the engine's own (never null).
  std::shared_ptr<const EngineSnapshot> SharedSnapshot() const;

  /// Per-sensor health states (safe from any thread).
  SensorHealthSnapshot Health() const { return health_.Snapshot(); }

  /// Current health FSM state of one sensor.
  SensorHealthState HealthStateOf(const std::string& sensor_id) const {
    return health_.StateOf(sensor_id);
  }

  /// Every health FSM transition so far, in order — the audit trail fault
  /// drills and detection-latency benchmarks measure against.
  std::vector<HealthTransition> HealthTransitions() const {
    return health_.Transitions();
  }

  /// Every fired space-axis (peer-group) deviation so far, in fire order —
  /// the fail-slow audit trail bench_failslow measures lead time against.
  std::vector<PeerDeviation> PeerDeviations() const {
    return peers_.Deviations();
  }

  size_t num_peer_groups() const { return peers_.num_groups(); }

  /// Raw findings ingested into the alert board so far (stream alarms,
  /// sensor faults, peer drifts, group outages, escalations), in arrival
  /// order. Thread-safe.
  std::vector<core::OutlierFinding> Findings() const;

  /// Alert episodes built from forwarded outlier findings.
  std::vector<core::AlertEpisode> Episodes() const;

  /// Suspected-measurement-error episodes (the calibration queue) — the
  /// sensor-fault half of the board that Episodes() filters out.
  std::vector<core::AlertEpisode> CalibrationQueue() const;

  /// Monitor state of one sensor. FailedPrecondition while a threaded
  /// engine runs (stop or flush-in-sync-mode first).
  StatusOr<SensorProbe> Probe(const std::string& sensor_id) const;

 private:
  enum State { kConfiguring, kRunning, kStopped };
  /// Collector-task states — same machine as the scorer's shard drain
  /// tasks (see ShardedScorer::NotifyShard).
  enum CollectorTaskState : int {
    kCollectorIdle = 0,
    kCollectorArmed = 1,
    kCollectorRunning = 2,
  };

  /// Builds the scorer configuration, wiring the engine's collector
  /// notify hook on a threaded engine.
  static ShardedScorerOptions MakeScorerOptions(
      const StreamEngineOptions& options, StreamEngine* engine);

  /// Builds each shard's monitors from the router registry. Split out of
  /// Start() so Restore can inject monitor state before threads exist.
  Status PopulateScorer();

  /// One watchdog pass: stall detection over shard heartbeats + the
  /// staleness sweep. Body of the watchdog timer.
  void WatchdogTick();
  /// Arms the collector drain task (no-op if already armed). Called by
  /// the scorer after each micro-batch's collector push and before that
  /// push blocks on a full queue, and by PushHealthEvent.
  void NotifyCollector();
  /// The collector drain body, run on the pool's service lane.
  void CollectorDrainTask();
  /// Collector task only (or caller thread in synchronous mode).
  void ConsumeScored(const ScoredSample& scored);
  void PublishSnapshot();
  /// Drains the collector queue inline (synchronous mode only).
  void DrainCollectorQueueSync();
  /// Feeds one ingest rejection into the health FSM and forwards any
  /// resulting quarantine to the collector. Safe from producer threads.
  void RecordIngestFault(const SensorSample& sample, HealthSignal signal);
  /// Pushes one health transition as a collector event (any thread).
  void PushHealthEvent(const HealthTransition& transition);
  /// Converts a quarantine entry into a kSensorFault finding + bookkeeping.
  void ConsumeSensorFault(const ScoredSample& event);
  void ConsumeSensorRecovery(const ScoredSample& event);
  /// Converts a fired peer deviation into a kPeerDrift finding.
  void ConsumePeerDeviation(const ScoredSample& event);
  /// Converts a confirmed concept shift into exactly one kConceptShift
  /// finding, retracts the sensor's now-stale active alarm (the old
  /// baseline raised it against the new regime), and records the event
  /// for snapshot publication.
  void ConsumeConceptShift(const ScoredSample& event);
  /// Quarantine-onset correlation (collector-private). With correlation
  /// off (peer.outage_min_sensors == 0) every quarantine emits its own
  /// kSensorFault finding immediately; with it on, staleness onsets are
  /// held in `pending_faults_` and either cluster into one kGroupOutage
  /// finding or expire into individual findings.
  void EmitSensorFaultFinding(const QuarantinedSensor& onset);
  void DeclareGroupOutage(ts::TimePoint ts);
  void ExpirePendingFaults(ts::TimePoint now);
  /// End-of-stream: emit every still-pending onset individually (they
  /// never clustered; losing them would hide real sensor faults).
  void FlushPendingFaults();
  /// Moves pending_findings_ into the alert manager (takes alerts_mu_).
  void IngestPendingFindings();

  Status FillCheckpoint(EngineCheckpoint& checkpoint) const;
  /// Encodes one checkpoint image into a buffer reserved from the last
  /// image's size and records the new image's size.
  std::string EncodeImage(const EngineCheckpoint& checkpoint) const;
  Status ApplyCheckpoint(const EngineCheckpoint& checkpoint);

  StreamEngineOptions options_;
  StreamStats stats_;
  BoundedQueue<ScoredSample> collector_queue_;
  IngestRouter router_;
  SensorHealthTracker health_;
  PeerGroupMonitor peers_;
  /// The pool a threaded engine builds in Start() when it borrows none.
  /// Declared before scorer_ so it outlives every drain task.
  std::unique_ptr<util::ThreadPool> owned_pool_;
  ShardedScorer scorer_;
  /// The pool the pipeline runs on (borrowed or owned_pool_); null until
  /// a threaded Start() and in synchronous mode.
  util::ThreadPool* pool_ = nullptr;
  /// Pool timer registrations (0 = not scheduled) and the collector task
  /// state machine.
  uint64_t watchdog_timer_id_ = 0;
  uint64_t checkpoint_timer_id_ = 0;
  std::atomic<int> collector_task_state_{kCollectorIdle};
  std::atomic<uint64_t> collector_tasks_in_flight_{0};
  /// Set once Stop() has fully quiesced the pipeline: the "is Stop still
  /// in flight?" check in CheckpointToFile.
  std::atomic<bool> stop_complete_{false};
  /// Watchdog stall-detection baseline. Written only by the watchdog
  /// timer, on the pool's timer thread.
  std::vector<uint64_t> watchdog_last_heartbeat_;
  std::atomic<int> state_{kConfiguring};
  bool scorer_populated_ = false;

  /// Quiescence gate for live checkpointing. Ingest holds it shared (only
  /// when `checkpoint_gate_enabled_`, keeping the lock off the hot path
  /// for engines that never checkpoint); the watchdog's staleness sweep
  /// try-locks it shared; CheckpointToFile holds it exclusively while
  /// draining and serializing.
  mutable std::shared_mutex ingest_gate_;
  const bool checkpoint_gate_enabled_;
  /// Size of the last image this engine wrote or was restored from:
  /// Checkpoint and CheckpointToFile reserve their buffer from it.
  mutable std::atomic<size_t> last_image_bytes_{0};

  /// Watchdog state: per-shard stall flags (read by stats()).
  std::vector<std::atomic<uint8_t>> stalled_;

  /// Collector-private (unsynchronized: single consumer — the collector
  /// task, or the caller thread in synchronous mode).
  std::array<LevelOutlierState, hierarchy::kNumLevels> levels_{};
  std::map<std::string, ActiveAlarm> active_alarms_;
  std::map<std::string, QuarantinedSensor> quarantined_;
  /// Quarantine-onset correlation state (collector-private, like the
  /// aggregates above). `collector_frontier_` is the max event timestamp
  /// consumed so far — the clock pending onsets expire against.
  struct ActiveOutage {
    ts::TimePoint since = 0.0;
    std::set<std::string> members;
  };
  std::deque<QuarantinedSensor> pending_faults_;
  std::optional<ActiveOutage> outage_;
  /// Concept-shift audit ring (collector-private, bounded) + lifetime
  /// total; published into EngineSnapshot.
  std::deque<ConceptShiftEvent> recent_shifts_;
  uint64_t concept_shifts_total_ = 0;
  ts::TimePoint collector_frontier_ =
      -std::numeric_limits<ts::TimePoint>::infinity();
  /// The collector task's pop buffer, kept across tasks.
  std::vector<ScoredSample> collector_batch_;
  uint64_t events_seen_ = 0;
  uint64_t events_at_last_snapshot_ = 0;
  uint64_t next_sequence_ = 1;

  /// Synchronous-mode staleness sweep cadence counter.
  uint64_t ingested_since_sweep_ = 0;

  /// Collector drain tracking, for Flush. `health_events_pushed_` counts
  /// collector events originating outside the scorer (ingest-side faults,
  /// watchdog staleness sweeps) so Flush can wait for exactly
  /// forwarded() + health_events_pushed_ events.
  std::mutex collector_mu_;
  std::condition_variable collector_cv_;
  std::atomic<uint64_t> collected_{0};
  std::atomic<uint64_t> health_events_pushed_{0};

  mutable std::mutex alerts_mu_;
  core::AlertManager alerts_;
  std::vector<core::OutlierFinding> pending_findings_;

  /// Guards the pointer only; the snapshot behind it is never mutated.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const EngineSnapshot> published_ =
      std::make_shared<const EngineSnapshot>();
};

}  // namespace hod::stream

#endif  // HOD_STREAM_ENGINE_H_
