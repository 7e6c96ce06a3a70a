#include "stream/checkpoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hierarchy/serialization.h"
#include "iostream_codec_oracle.h"
#include "serve/codec.h"
#include "serve/hub.h"
#include "stream/engine.h"
#include "util/rng.h"

namespace hod::stream {
namespace {

using hierarchy::ProductionLevel;

StreamEngineOptions SyncOptions() {
  StreamEngineOptions options;
  options.synchronous = true;
  options.monitor.warmup = 32;
  options.snapshot_every = 8;
  // These tests feed sensors sequentially, so the staleness sweep (which
  // compares each sensor against the *global* frontier) would quarantine
  // the later-fed ones. Staleness is covered by stream_health_test; here
  // we want serialization, not sweep artifacts.
  options.health.staleness_timeout = 0.0;
  return options;
}

/// Deterministic stream with a fault burst and a quarantine-worthy
/// flatline, so checkpoints carry non-trivial alarm and health state.
std::vector<double> MakeStream(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  double noise = 0.0;
  for (size_t t = 0; t < n; ++t) {
    noise = 0.7 * noise + rng.Gaussian(0.0, 0.25);
    double value = 50.0 + noise;
    if (t >= 200 && t < 215) value += 6.0;  // process fault burst
    values.push_back(value);
  }
  return values;
}

void Feed(StreamEngine& engine, const std::string& id,
          const std::vector<double>& values, size_t from, size_t to,
          ProductionLevel level = ProductionLevel::kPhase) {
  for (size_t t = from; t < to; ++t) {
    auto ack = engine.Ingest(
        {id, level, static_cast<double>(t), values[t]});
    ASSERT_TRUE(ack.ok()) << id << " t=" << t << ": "
                          << ack.status().ToString();
  }
}

std::string CheckpointBytes(const StreamEngine& engine) {
  std::ostringstream os;
  Status status = engine.Checkpoint(os);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return os.str();
}

TEST(EngineCheckpoint, WriteReadRoundTripsEveryField) {
  StreamEngineOptions options = SyncOptions();
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor("a", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine
                  .AddSensor("b", ProductionLevel::kEnvironment,
                             BackpressurePolicy::kDropOldest)
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::vector<double> values = MakeStream(21, 400);
  Feed(engine, "a", values, 0, 400);
  Feed(engine, "b", values, 0, 300, ProductionLevel::kEnvironment);
  ASSERT_TRUE(engine.Flush().ok());

  const std::string bytes = CheckpointBytes(engine);
  ASSERT_FALSE(bytes.empty());

  std::istringstream is(bytes);
  auto checkpoint = ReadEngineCheckpoint(is);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  ASSERT_EQ(checkpoint->sensors.size(), 2u);
  EXPECT_EQ(checkpoint->sensors[0].sensor_id, "a");
  EXPECT_EQ(checkpoint->sensors[1].sensor_id, "b");
  EXPECT_FALSE(checkpoint->sensors[0].has_policy);
  EXPECT_TRUE(checkpoint->sensors[1].has_policy);
  EXPECT_EQ(checkpoint->sensors[1].policy, BackpressurePolicy::kDropOldest);
  EXPECT_EQ(checkpoint->sensors[0].monitor.samples_seen, 400u);
  EXPECT_EQ(checkpoint->sensors[1].monitor.samples_seen, 300u);
  EXPECT_DOUBLE_EQ(checkpoint->sensors[0].frontier, 399.0);
  EXPECT_EQ(checkpoint->stats.ingested, 700u);
  EXPECT_GT(checkpoint->stats.alarms_raised, 0u);
  EXPECT_FALSE(checkpoint->findings.empty());

  // Re-encoding the parsed checkpoint reproduces the bytes exactly —
  // the encoding is canonical.
  std::ostringstream os;
  ASSERT_TRUE(WriteEngineCheckpoint(*checkpoint, os).ok());
  EXPECT_EQ(os.str(), bytes);
}

/// A small synchronous engine's checkpoint, parsed.
EngineCheckpoint SmallCheckpoint(const StreamEngineOptions& options) {
  StreamEngine engine(options);
  EXPECT_TRUE(engine.AddSensor("a", ProductionLevel::kPhase).ok());
  EXPECT_TRUE(engine.Start().ok());
  Feed(engine, "a", MakeStream(23, 100), 0, 100);
  EXPECT_TRUE(engine.Flush().ok());
  std::istringstream is(CheckpointBytes(engine));
  auto checkpoint = ReadEngineCheckpoint(is);
  EXPECT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  return *checkpoint;
}

/// Reference oracle: the v6 stats section in the field order the writer
/// used before the counters moved into one table.
std::string ReferenceV6StatsBytes(const StreamStatsSnapshot& stats) {
  namespace bin = oracle;  // the per-value iostream primitives
  std::ostringstream os;
  for (uint64_t value :
       {stats.ingested, stats.scored, stats.dropped, stats.rejected_queue_full,
        stats.rejected_timeout, stats.rejected_non_finite,
        stats.rejected_unknown_sensor, stats.rejected_level_mismatch,
        stats.rejected_out_of_order, stats.rejected_closed,
        stats.alarms_raised, stats.alarms_cleared, stats.quarantined_samples,
        stats.sensor_faults, stats.sensor_recoveries,
        stats.watchdog_stall_events, stats.forward_failed,
        stats.escalation_runs, stats.escalation_entities,
        stats.escalation_findings, stats.escalation_unresolved,
        stats.escalation_cache_hits, stats.escalation_cache_misses,
        stats.escalation_latency_us, stats.checkpoints_written,
        stats.checkpoint_failures, stats.peer_deviations, stats.group_outages,
        stats.group_outage_recoveries, stats.suppressed_sensor_faults,
        stats.concept_shifts, stats.baseline_resets,
        stats.baseline_resets_deferred, stats.snapshots_published}) {
    bin::WriteU64(os, value);
  }
  for (uint64_t count : stats.level_dropped) bin::WriteU64(os, count);
  for (uint64_t count : stats.level_rejected) bin::WriteU64(os, count);
  for (uint64_t count : stats.level_quarantined) bin::WriteU64(os, count);
  for (uint64_t count : stats.batch_size_histogram) bin::WriteU64(os, count);
  return os.str();
}

TEST(EngineCheckpoint, StatsSectionRoundTripsEveryCounterInV6ByteOrder) {
  EngineCheckpoint checkpoint = SmallCheckpoint(SyncOptions());
  // A distinct value in every table row, per-level slot and histogram
  // bucket, so a skipped or swapped field cannot round-trip.
  StreamStatsSnapshot& stats = checkpoint.stats;
  uint64_t v = 1000;
  for (const CounterInfo& row : kCounters) stats.*row.field = v++;
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    stats.level_dropped[i] = v++;
    stats.level_rejected[i] = v++;
    stats.level_quarantined[i] = v++;
  }
  for (uint64_t& count : stats.batch_size_histogram) count = v++;

  std::ostringstream os;
  ASSERT_TRUE(WriteEngineCheckpoint(checkpoint, os).ok());
  const std::string bytes = os.str();
  // The stats section closes the image.
  const std::string reference = ReferenceV6StatsBytes(stats);
  ASSERT_GE(bytes.size(), reference.size());
  EXPECT_EQ(bytes.substr(bytes.size() - reference.size()), reference);

  std::istringstream is(bytes);
  auto parsed = ReadEngineCheckpoint(is);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->stats, stats);
}

TEST(EngineCheckpoint, RestoredDroppedCountIsReportedBeforeAnyIngest) {
  const StreamEngineOptions options = SyncOptions();
  EngineCheckpoint checkpoint = SmallCheckpoint(options);
  checkpoint.stats.dropped = 7;
  std::ostringstream os;
  ASSERT_TRUE(WriteEngineCheckpoint(checkpoint, os).ok());
  std::istringstream is(os.str());
  auto restored = StreamEngine::Restore(is, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->stats().dropped, 7u);
}

TEST(EngineCheckpoint, KillAndRestoreResumesByteIdentically) {
  // The tentpole acceptance test: run A streams the whole sequence in one
  // uninterrupted life; run B ingests the identical sequence but is killed
  // at the midpoint and restored from its checkpoint. Their final
  // checkpoints must be byte-equal — the restore left no seam. (The
  // *global* ingest order must match between runs: the findings log and
  // snapshot cadence are faithful to arrival order by design.)
  const std::vector<double> s1 = MakeStream(31, 600);
  const std::vector<double> s2 = MakeStream(32, 600);

  StreamEngine run_a(SyncOptions());
  ASSERT_TRUE(run_a.AddSensor("s1", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(run_a.AddSensor("s2", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(run_a.Start().ok());
  Feed(run_a, "s1", s1, 0, 205);
  Feed(run_a, "s2", s2, 0, 205);
  Feed(run_a, "s1", s1, 205, 600);
  Feed(run_a, "s2", s2, 205, 600);
  const std::string final_a = CheckpointBytes(run_a);

  // Run B, first life: stop at the midpoint (mid-burst for s1, so alarm
  // state and monitor baselines are both "hot").
  std::string midpoint;
  {
    StreamEngine engine(SyncOptions());
    ASSERT_TRUE(engine.AddSensor("s1", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.AddSensor("s2", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.Start().ok());
    Feed(engine, "s1", s1, 0, 205);
    Feed(engine, "s2", s2, 0, 205);
    midpoint = CheckpointBytes(engine);
    // The engine is destroyed here without Stop(): the "kill".
  }

  // Run B, second life: restore and feed the identical remainder.
  std::istringstream is(midpoint);
  auto restored = StreamEngine::Restore(is, SyncOptions());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamEngine& run_b = **restored;
  EXPECT_TRUE(run_b.running());
  EXPECT_EQ(run_b.stats().ingested, 410u) << "counters carried over";
  Feed(run_b, "s1", s1, 205, 600);
  Feed(run_b, "s2", s2, 205, 600);
  const std::string final_b = CheckpointBytes(run_b);

  EXPECT_EQ(final_a.size(), final_b.size());
  EXPECT_TRUE(final_a == final_b)
      << "restore must resume byte-identically in synchronous mode";

  // And the domain-level state agrees too.
  auto probe_a = run_a.Probe("s1");
  auto probe_b = run_b.Probe("s1");
  ASSERT_TRUE(probe_a.ok());
  ASSERT_TRUE(probe_b.ok());
  EXPECT_EQ(probe_a->samples_seen, probe_b->samples_seen);
  EXPECT_EQ(probe_a->alarms_raised, probe_b->alarms_raised);
  EXPECT_EQ(run_a.Episodes().size(), run_b.Episodes().size());
}

void ExpectSameBoard(const std::vector<core::AlertEpisode>& got,
                     const std::vector<core::AlertEpisode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].entity, want[i].entity) << i;
    EXPECT_EQ(got[i].start_time, want[i].start_time) << i;
    EXPECT_EQ(got[i].end_time, want[i].end_time) << i;
    EXPECT_EQ(got[i].finding_count, want[i].finding_count) << i;
    EXPECT_EQ(got[i].peak_outlierness, want[i].peak_outlierness) << i;
    EXPECT_EQ(got[i].peak_global_score, want[i].peak_global_score) << i;
    EXPECT_EQ(got[i].peak_support, want[i].peak_support) << i;
    EXPECT_EQ(got[i].escalated_findings, want[i].escalated_findings) << i;
    EXPECT_EQ(got[i].severity, want[i].severity) << i;
    EXPECT_EQ(got[i].suspected_measurement_error,
              want[i].suspected_measurement_error)
        << i;
    EXPECT_EQ(got[i].group_outage, want[i].group_outage) << i;
  }
}

TEST(EngineCheckpoint, RestoredBoardEqualsBoardBeforeCheckpoint) {
  const std::vector<double> s1 = MakeStream(41, 600);
  const std::vector<double> s2 = MakeStream(42, 600);
  StreamEngine engine(SyncOptions());
  ASSERT_TRUE(engine.AddSensor("s1", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.AddSensor("s2", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  Feed(engine, "s1", s1, 0, 300);
  Feed(engine, "s2", s2, 0, 300);
  // Escalated findings land behind the stream's own: one confirmed
  // process triple inside s1's burst, one measurement-error suspicion.
  core::OutlierFinding late;
  late.origin.entity = "s1";
  late.origin.time = 201.0;
  late.global_score = 3;
  late.outlierness = 0.9;
  late.escalated = true;
  core::OutlierFinding suspect = late;
  suspect.origin.entity = "s2";
  suspect.measurement_error_warning = true;
  engine.ReportEscalation(EscalationRunStats{}, {late, suspect});
  const std::vector<core::AlertEpisode> board = engine.Episodes();
  const std::vector<core::AlertEpisode> calibration =
      engine.CalibrationQueue();
  ASSERT_FALSE(board.empty());
  ASSERT_FALSE(calibration.empty());

  std::istringstream is(CheckpointBytes(engine));
  auto restored = StreamEngine::Restore(is, SyncOptions());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSameBoard((*restored)->Episodes(), board);
  ExpectSameBoard((*restored)->CalibrationQueue(), calibration);

  // Both keep extending their episode index identically.
  Feed(engine, "s1", s1, 300, 600);
  Feed(**restored, "s1", s1, 300, 600);
  ExpectSameBoard((*restored)->Episodes(), engine.Episodes());
  EXPECT_EQ(CheckpointBytes(**restored), CheckpointBytes(engine));
}

TEST(EngineCheckpoint, RestoredIdleEngineDoesNotAgeChannelsStale) {
  // Regression: a checkpoint taken while one sensor lags the frontier
  // beyond the staleness timeout, restored into a threaded engine with a
  // fast watchdog. The restored engine is idle — no ingest advances stream
  // time — so the wall-clock sweep cadence must NOT quarantine the laggard:
  // staleness means "the plant moved on without you", and a paused plant
  // moves for nobody.
  StreamEngineOptions sync_options = SyncOptions();
  sync_options.health.staleness_timeout = 30.0;
  sync_options.health_sweep_every = 1 << 20;  // no sweep before the kill
  std::string bytes;
  {
    StreamEngine engine(sync_options);
    ASSERT_TRUE(engine.AddSensor("victim", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.AddSensor("live", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.Start().ok());
    const std::vector<double> values = MakeStream(41, 80);
    Feed(engine, "victim", values, 0, 10);
    Feed(engine, "live", values, 0, 60);  // victim now lags 49 > 30
    bytes = CheckpointBytes(engine);
  }

  StreamEngineOptions threaded = SyncOptions();
  threaded.synchronous = false;
  threaded.health.staleness_timeout = 30.0;
  threaded.watchdog_interval = std::chrono::milliseconds(5);
  std::istringstream is(bytes);
  auto restored = StreamEngine::Restore(is, threaded);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamEngine& engine = **restored;

  // Dozens of watchdog sweeps pass over the idle engine.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(engine.HealthStateOf("victim"), SensorHealthState::kHealthy)
      << "an idle restored engine quarantined a channel on wall-clock time";

  // Fresh ingest moves the frontier: the lag is now real staleness, and
  // the next sweep may quarantine the victim.
  const std::vector<double> values = MakeStream(41, 80);
  Feed(engine, "live", values, 60, 70);
  ASSERT_TRUE(engine.Flush().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (engine.HealthStateOf("victim") != SensorHealthState::kQuarantined &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(engine.HealthStateOf("victim"), SensorHealthState::kQuarantined);
  bool stale_transition = false;
  for (const HealthTransition& transition : engine.HealthTransitions()) {
    stale_transition |= transition.sensor_id == "victim" &&
                        transition.reason == HealthSignal::kStale;
  }
  EXPECT_TRUE(stale_transition);
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(EngineCheckpoint, RestoreRejectsMismatchedMonitorOptions) {
  StreamEngine engine(SyncOptions());
  ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::vector<double> values = MakeStream(41, 100);
  Feed(engine, "s", values, 0, 100);
  const std::string bytes = CheckpointBytes(engine);

  StreamEngineOptions different = SyncOptions();
  different.monitor.warmup = 99;  // different scoring configuration
  std::istringstream is(bytes);
  auto restored = StreamEngine::Restore(is, different);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);

  StreamEngineOptions tolerance = SyncOptions();
  tolerance.out_of_order_tolerance = 5.0;
  std::istringstream is2(bytes);
  EXPECT_FALSE(StreamEngine::Restore(is2, tolerance).ok());
}

TEST(EngineCheckpoint, RestoreToleratesDifferentThreadingOptions) {
  // Threading knobs are not part of the scoring fingerprint: a checkpoint
  // from a 1-shard sync engine restores into a 4-shard threaded one.
  StreamEngine engine(SyncOptions());
  ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::vector<double> values = MakeStream(51, 300);
  Feed(engine, "s", values, 0, 300);
  const std::string bytes = CheckpointBytes(engine);

  StreamEngineOptions threaded = SyncOptions();
  threaded.synchronous = false;
  threaded.num_shards = 4;
  threaded.queue_capacity = 64;
  std::istringstream is(bytes);
  auto restored = StreamEngine::Restore(is, threaded);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamEngine& run = **restored;
  for (size_t t = 300; t < 400; ++t) {
    ASSERT_TRUE(run.Ingest({"s", ProductionLevel::kPhase,
                            static_cast<double>(t), values[t % 300]})
                    .ok());
  }
  ASSERT_TRUE(run.Flush().ok());
  ASSERT_TRUE(run.Stop().ok());
  EXPECT_EQ(run.stats().ingested, 400u);
  auto probe = run.Probe("s");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->samples_seen, 400u);
}

TEST(EngineCheckpoint, QueueKindStaysOutOfTheFingerprint) {
  // The shard queue implementation (SPSC vs MPSC) is a threading detail,
  // like shard count: a checkpoint taken under the default MPSC queue must
  // restore into an engine running the lock-free SPSC ring, and resume
  // scoring identically.
  StreamEngine engine(SyncOptions());
  ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::vector<double> values = MakeStream(77, 300);
  Feed(engine, "s", values, 0, 300);
  const std::string bytes = CheckpointBytes(engine);

  StreamEngineOptions spsc = SyncOptions();
  spsc.synchronous = false;
  spsc.num_shards = 2;
  spsc.producer_hint = ProducerHint::kSinglePerShard;
  std::istringstream is(bytes);
  auto restored = StreamEngine::Restore(is, spsc);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamEngine& run = **restored;
  for (size_t t = 300; t < 400; ++t) {
    ASSERT_TRUE(run.Ingest({"s", ProductionLevel::kPhase,
                            static_cast<double>(t), values[t % 300]})
                    .ok());
  }
  ASSERT_TRUE(run.Flush().ok());
  ASSERT_TRUE(run.Stop().ok());
  EXPECT_EQ(run.stats().ingested, 400u);
  auto probe = run.Probe("s");
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->samples_seen, 400u);
}

TEST(EngineCheckpoint, CheckpointRequiresQuiescence) {
  // Never started: nothing meaningful to save.
  StreamEngine unstarted(SyncOptions());
  ASSERT_TRUE(unstarted.AddSensor("s").ok());
  std::ostringstream os;
  EXPECT_EQ(unstarted.Checkpoint(os).code(), StatusCode::kFailedPrecondition);

  // Threaded and running: refused (counters are in flight).
  StreamEngineOptions threaded = SyncOptions();
  threaded.synchronous = false;
  threaded.num_shards = 2;
  StreamEngine engine(threaded);
  ASSERT_TRUE(engine.AddSensor("s").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.Checkpoint(os).code(), StatusCode::kFailedPrecondition);
  // Stopped: allowed.
  ASSERT_TRUE(engine.Stop().ok());
  EXPECT_TRUE(engine.Checkpoint(os).ok());
}

TEST(EngineCheckpoint, ReadRejectsCorruptImages) {
  StreamEngine engine(SyncOptions());
  ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::vector<double> values = MakeStream(61, 100);
  Feed(engine, "s", values, 0, 100);
  const std::string bytes = CheckpointBytes(engine);

  {
    std::istringstream empty("");
    EXPECT_FALSE(ReadEngineCheckpoint(empty).ok());
  }
  {
    std::string bad_magic = bytes;
    bad_magic[0] = 'X';
    std::istringstream is(bad_magic);
    auto result = ReadEngineCheckpoint(is);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::string truncated = bytes.substr(0, bytes.size() / 2);
    std::istringstream is(truncated);
    EXPECT_FALSE(ReadEngineCheckpoint(is).ok());
  }
  // The pristine image still parses (the corruption tests aren't flaky).
  std::istringstream is(bytes);
  EXPECT_TRUE(ReadEngineCheckpoint(is).ok());
}

// ---- CheckpointToFile / background checkpointing ---------------------------

/// Fresh per-test checkpoint path with no leftovers from earlier runs.
std::string CheckpointPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

TEST(EngineCheckpoint, CheckpointToFileIsAtomicAndRestorable) {
  const std::string path = CheckpointPath("hod_ckpt_sync.bin");
  StreamEngineOptions options = SyncOptions();
  options.checkpoint_path = path;
  const std::vector<double> values = MakeStream(71, 600);

  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  Feed(engine, "s", values, 0, 300);
  Status status = engine.CheckpointToFile(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(engine.stats().checkpoints_written, 1u);
  EXPECT_EQ(engine.stats().checkpoint_failures, 0u);
  // Atomic publication: the temp image was renamed away, not left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  auto restored = StreamEngine::Restore(is, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->stats().ingested, 300u);

  // Both lives feed the identical remainder and perform the same number
  // of file checkpoints (the image is filled BEFORE the written-counter
  // increments, so the restored life starts one write behind); after the
  // restored engine's own write the two must end byte-equal.
  Feed(engine, "s", values, 300, 600);
  Feed(**restored, "s", values, 300, 600);
  status = (*restored)->CheckpointToFile(CheckpointPath("hod_ckpt_sync2.bin"));
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(CheckpointBytes(engine) == CheckpointBytes(**restored));
}

TEST(EngineCheckpoint, CheckpointToFileRequiresArmedGateOnThreadedEngine) {
  StreamEngineOptions options = SyncOptions();
  options.synchronous = false;
  options.num_shards = 2;
  // No checkpoint_path: the ingest gate is not armed, so a live threaded
  // checkpoint would race producers — refused, not raced.
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor("s").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine
                .CheckpointToFile(CheckpointPath("hod_ckpt_unarmed.bin"))
                .code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(EngineCheckpoint, CheckpointToFileWorksOnALiveThreadedEngine) {
  const std::string path = CheckpointPath("hod_ckpt_live.bin");
  StreamEngineOptions options = SyncOptions();
  options.synchronous = false;
  options.num_shards = 2;
  options.checkpoint_path = path;
  const std::vector<double> values = MakeStream(81, 600);

  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor("s1", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.AddSensor("s2", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  Feed(engine, "s1", values, 0, 200);
  Feed(engine, "s2", values, 0, 200);

  // Mid-stream, workers running: the call quiesces, serializes, resumes.
  Status status = engine.CheckpointToFile(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  // The engine keeps ingesting afterwards.
  Feed(engine, "s1", values, 200, 400);
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.Stop().ok());

  std::ifstream is(path, std::ios::binary);
  auto checkpoint = ReadEngineCheckpoint(is);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  ASSERT_EQ(checkpoint->sensors.size(), 2u);
  // Everything submitted before the call was drained into the image.
  EXPECT_EQ(checkpoint->sensors[0].monitor.samples_seen +
                checkpoint->sensors[1].monitor.samples_seen,
            400u);
  EXPECT_EQ(checkpoint->stats.ingested, 400u);
}

TEST(EngineCheckpoint, BackgroundTimerCheckpointsAndSurvivesKill) {
  const std::string path = CheckpointPath("hod_ckpt_timer.bin");
  StreamEngineOptions options = SyncOptions();
  options.synchronous = false;
  options.num_shards = 2;
  options.checkpoint_path = path;
  options.checkpoint_interval = std::chrono::milliseconds(5);
  const std::vector<double> values = MakeStream(91, 400);

  {
    StreamEngine engine(options);
    ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.Start().ok());
    Feed(engine, "s", values, 0, 400);
    ASSERT_TRUE(engine.Flush().ok());
    // Wait for TWO timer checkpoints after the flush: the second one must
    // have STARTED after the flush, so it provably contains all 400
    // samples (the first might have begun mid-feed).
    const uint64_t flushed_at = engine.stats().checkpoints_written;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine.stats().checkpoints_written < flushed_at + 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(engine.stats().checkpoints_written, flushed_at + 2)
        << "background timer produced no checkpoints";
    EXPECT_EQ(engine.stats().checkpoint_failures, 0u);
    // The "kill": drop the engine without asking for a final checkpoint.
  }

  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());
  auto restored = StreamEngine::Restore(is, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamEngine& engine = **restored;
  EXPECT_TRUE(engine.running());
  EXPECT_EQ(engine.stats().ingested, 400u);
  // The restored engine resumes ingesting (and its own timer is live).
  auto ack = engine.Ingest({"s", ProductionLevel::kPhase, 400.0, 50.0});
  EXPECT_TRUE(ack.ok()) << ack.status().ToString();
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(EngineCheckpoint, SynchronousEngineRefusesPeriodicCheckpointing) {
  // A synchronous engine starts no threads, so it has no timer to run a
  // periodic checkpoint on: Start() refuses the combination instead of
  // spawning one. Manual checkpoints keep working.
  const std::string path = CheckpointPath("hod_ckpt_sync_timer.bin");
  StreamEngineOptions options = SyncOptions();
  options.checkpoint_path = path;
  options.checkpoint_interval = std::chrono::milliseconds(5);
  const std::vector<double> values = MakeStream(93, 200);
  {
    StreamEngine engine(options);
    ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
    EXPECT_EQ(engine.Start().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(engine.running());
  }

  options.checkpoint_interval = std::chrono::milliseconds(0);
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  Feed(engine, "s", values, 0, 200);
  ASSERT_TRUE(engine.CheckpointToFile(path).ok());
  EXPECT_EQ(engine.stats().checkpoints_written, 1u);
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good());

  // Restoring under the refused options fails at the restored Start().
  StreamEngineOptions periodic = options;
  periodic.checkpoint_interval = std::chrono::milliseconds(5);
  auto refused = StreamEngine::Restore(is, periodic);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
}

// ---- Concept-shift layer (checkpoint v5) -----------------------------------

/// Sync engine options with the BOCPD layer on.
StreamEngineOptions ShiftOptions() {
  StreamEngineOptions options = SyncOptions();
  options.shift.enabled = true;
  return options;
}

/// Stream with a genuine setpoint change (not a burst): level `delta`
/// from `shift_at` on, so the shift layer confirms and re-baselines.
std::vector<double> MakeShiftStream(uint64_t seed, size_t n, size_t shift_at,
                                    double delta) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    const double base = t >= shift_at ? 50.0 + delta : 50.0;
    values.push_back(base + rng.Gaussian(0.0, 0.25));
  }
  return values;
}

TEST(EngineCheckpoint, V5RoundTripsBocpdAndLifecycleState) {
  StreamEngine engine(ShiftOptions());
  ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::vector<double> values = MakeShiftStream(101, 500, 300, 6.0);
  Feed(engine, "s", values, 0, 500);
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_EQ(engine.stats().concept_shifts, 1u) << "fixture must shift";

  const std::string bytes = CheckpointBytes(engine);
  std::istringstream is(bytes);
  auto checkpoint = ReadEngineCheckpoint(is);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();

  // The shift layer's full state is in the image...
  EXPECT_TRUE(checkpoint->shift_enabled);
  ASSERT_EQ(checkpoint->sensors.size(), 1u);
  ASSERT_TRUE(checkpoint->sensors[0].has_bocpd);
  EXPECT_GT(checkpoint->sensors[0].bocpd.samples_seen, 0u);
  EXPECT_EQ(checkpoint->sensors[0].bocpd.shifts_confirmed, 1u);
  EXPECT_FALSE(checkpoint->sensors[0].bocpd.weight.empty());
  EXPECT_EQ(checkpoint->sensors[0].monitor.baseline_epoch, 1u)
      << "the re-baseline must be visible in the lifecycle state";
  ASSERT_EQ(checkpoint->recent_shifts.size(), 1u);
  EXPECT_EQ(checkpoint->recent_shifts[0].sensor_id, "s");
  EXPECT_EQ(checkpoint->concept_shifts_total, 1u);
  EXPECT_EQ(checkpoint->stats.concept_shifts, 1u);
  EXPECT_EQ(checkpoint->stats.baseline_resets, 1u);

  // ...and the encoding stays canonical.
  std::ostringstream os;
  ASSERT_TRUE(WriteEngineCheckpoint(*checkpoint, os).ok());
  EXPECT_EQ(os.str(), bytes);
}

TEST(EngineCheckpoint, KillAndRestoreResumesByteIdenticallyWithShiftLayer) {
  // Same contract as KillAndRestoreResumesByteIdentically, but with BOCPD
  // running and the kill placed between two setpoint changes: the first
  // shift's re-baseline and hot run-length posterior must survive the
  // restore, and the second shift must confirm identically in both lives.
  const std::vector<double> s1 = MakeShiftStream(111, 600, 150, 5.0);
  std::vector<double> second = s1;
  for (size_t t = 450; t < second.size(); ++t) second[t] -= 4.0;

  StreamEngine run_a(ShiftOptions());
  ASSERT_TRUE(run_a.AddSensor("s1", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(run_a.Start().ok());
  Feed(run_a, "s1", second, 0, 600);
  const std::string final_a = CheckpointBytes(run_a);
  ASSERT_EQ(run_a.stats().concept_shifts, 2u) << "fixture must shift twice";

  std::string midpoint;
  {
    StreamEngine engine(ShiftOptions());
    ASSERT_TRUE(engine.AddSensor("s1", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.Start().ok());
    Feed(engine, "s1", second, 0, 300);
    EXPECT_EQ(engine.stats().concept_shifts, 1u);
    midpoint = CheckpointBytes(engine);
  }

  std::istringstream is(midpoint);
  auto restored = StreamEngine::Restore(is, ShiftOptions());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamEngine& run_b = **restored;
  Feed(run_b, "s1", second, 300, 600);
  const std::string final_b = CheckpointBytes(run_b);

  EXPECT_EQ(run_b.stats().concept_shifts, 2u);
  EXPECT_TRUE(final_a == final_b)
      << "restore with the shift layer must leave no seam";
}

TEST(EngineCheckpoint, RestoreRejectsShiftLayerMismatch) {
  // The shift layer is part of the scoring fingerprint: enabling,
  // disabling, or re-tuning it across a restore silently changes every
  // later score, so all three must be refused.
  StreamEngine engine(ShiftOptions());
  ASSERT_TRUE(engine.AddSensor("s", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::vector<double> values = MakeStream(103, 100);
  Feed(engine, "s", values, 0, 100);
  const std::string bytes = CheckpointBytes(engine);

  {
    std::istringstream is(bytes);
    auto restored = StreamEngine::Restore(is, SyncOptions());  // layer off
    EXPECT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  }
  {
    StreamEngineOptions retuned = ShiftOptions();
    retuned.shift.bocpd.cooldown += 1;
    std::istringstream is(bytes);
    EXPECT_FALSE(StreamEngine::Restore(is, retuned).ok());
  }
  {
    // And the reverse: a shift-free checkpoint into a shift-enabled engine.
    StreamEngine plain(SyncOptions());
    ASSERT_TRUE(plain.AddSensor("s", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(plain.Start().ok());
    Feed(plain, "s", values, 0, 100);
    const std::string plain_bytes = CheckpointBytes(plain);
    std::istringstream is(plain_bytes);
    EXPECT_FALSE(StreamEngine::Restore(is, ShiftOptions()).ok());
  }
}

/// Hand-serializes a minimal, valid v4 image (one fresh sensor, no shift
/// layer, zeroed aggregates) byte for byte — the compatibility contract
/// with images written before the concept-shift layer existed.
std::string MakeV4Image(const StreamEngineOptions& options) {
  namespace bin = oracle;  // the per-value iostream primitives
  const double neg_inf = -std::numeric_limits<double>::infinity();
  std::ostringstream os;
  bin::WriteU32(os, 0x43444F48u);  // "HODC"
  bin::WriteU32(os, 4u);
  bin::WriteU64(os, options.monitor.warmup);
  bin::WriteU64(os, options.monitor.ar_order);
  bin::WriteF64(os, options.monitor.threshold);
  bin::WriteU64(os, options.monitor.raise_after);
  bin::WriteU64(os, options.monitor.clear_after);
  bin::WriteF64(os, options.monitor.sigma_scale);
  bin::WriteF64(os, options.monitor.scale_forgetting);
  bin::WriteF64(os, options.out_of_order_tolerance);
  // v4 has no shift_enabled flag and no BocpdOptions here.
  bin::WriteU32(os, 1u);  // one sensor
  bin::WriteString(os, "legacy");
  bin::WriteU8(os, static_cast<uint8_t>(
                       hierarchy::LevelValue(ProductionLevel::kPhase)));
  bin::WriteU8(os, 0);  // has_policy = false
  bin::WriteU8(os, 0);  // policy byte (ignored)
  bin::WriteF64(os, neg_inf);  // frontier: nothing ingested yet
  // Health: healthy, no evidence, never seen.
  bin::WriteU8(os, 0);  // kHealthy
  bin::WriteU64(os, 0);
  bin::WriteU64(os, 0);
  bin::WriteU64(os, 0);
  bin::WriteU8(os, 0);  // has_last_value = false
  bin::WriteF64(os, 0.0);
  bin::WriteF64(os, neg_inf);
  bin::WriteF64(os, neg_inf);
  bin::WriteU8(os, 0);  // kClean
  bin::WriteU64(os, 0);
  // Monitor state, v4 layout: 3 vectors + scalars, NO lifecycle fields.
  bin::WriteU32(os, 0);  // warmup_buffer
  bin::WriteU32(os, 0);  // recent
  bin::WriteU32(os, 0);  // phi
  bin::WriteF64(os, 0.0);
  bin::WriteF64(os, 1.0);  // residual_sigma
  bin::WriteU8(os, 0);     // model_ready = false
  bin::WriteU8(os, 0);     // alarm = false
  bin::WriteU64(os, 0);
  bin::WriteU64(os, 0);
  bin::WriteU64(os, 0);
  bin::WriteU64(os, 0);
  // v4 has no has_bocpd byte.
  for (int level = 0; level < hierarchy::kNumLevels; ++level) {
    for (int field = 0; field < 6; ++field) bin::WriteU64(os, 0);
    bin::WriteF64(os, 0.0);
    bin::WriteF64(os, neg_inf);
  }
  bin::WriteU32(os, 0);    // active alarms
  bin::WriteU32(os, 0);    // quarantined
  bin::WriteU64(os, 0);    // events_seen
  bin::WriteU64(os, 0);    // events_at_last_snapshot
  bin::WriteU64(os, 1);    // next_sequence
  bin::WriteU32(os, 0);    // peer groups
  bin::WriteU32(os, 0);    // pending faults
  bin::WriteU8(os, 0);     // outage_active = false
  bin::WriteF64(os, 0.0);  // outage_since
  bin::WriteU32(os, 0);    // outage members
  bin::WriteF64(os, neg_inf);  // collector_frontier
  // v4 has no recent-shift ring or total.
  bin::WriteU32(os, 0);  // findings
  for (int i = 0; i < 30; ++i) bin::WriteU64(os, 0);  // v4 counters
  for (int i = 0; i < 3 * hierarchy::kNumLevels; ++i) bin::WriteU64(os, 0);
  for (size_t i = 0; i < kBatchBuckets; ++i) bin::WriteU64(os, 0);
  return os.str();
}

TEST(EngineCheckpoint, V4ImageStillRestoresWithShiftLayerDefaultedOff) {
  StreamEngineOptions options = SyncOptions();
  const std::string bytes = MakeV4Image(options);

  std::istringstream parse(bytes);
  auto checkpoint = ReadEngineCheckpoint(parse);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  // Every v5 field defaults to "layer off / nothing happened".
  EXPECT_FALSE(checkpoint->shift_enabled);
  ASSERT_EQ(checkpoint->sensors.size(), 1u);
  EXPECT_FALSE(checkpoint->sensors[0].has_bocpd);
  EXPECT_EQ(checkpoint->sensors[0].monitor.baseline_epoch, 0u);
  EXPECT_FALSE(checkpoint->sensors[0].monitor.frozen);
  EXPECT_TRUE(checkpoint->recent_shifts.empty());
  EXPECT_EQ(checkpoint->concept_shifts_total, 0u);
  EXPECT_EQ(checkpoint->stats.concept_shifts, 0u);
  EXPECT_EQ(checkpoint->stats.baseline_resets, 0u);

  // The engine accepts the old image and keeps scoring.
  std::istringstream is(bytes);
  auto restored = StreamEngine::Restore(is, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamEngine& engine = **restored;
  const std::vector<double> values = MakeStream(107, 100);
  Feed(engine, "legacy", values, 0, 100);
  EXPECT_EQ(engine.stats().ingested, 100u);

  // But a v4 image cannot enter a shift-enabled engine: the fingerprint
  // check treats "no shift layer recorded" as a mismatch, not a default.
  std::istringstream is2(bytes);
  EXPECT_FALSE(StreamEngine::Restore(is2, ShiftOptions()).ok());
}

TEST(EngineCheckpoint, KillAndRestoreRepublishesKeyframeToHubSubscribers) {
  // The serve-tier contract across an engine kill/restore: the restored
  // engine's snapshot sequence restarts behind what the hub already fanned
  // out, so the hub must detect the regression, force a keyframe, and
  // every subscriber must resync to the resumed engine's state — no delta
  // ever applies against a base from the previous life.
  serve::SnapshotHubOptions hub_options;
  hub_options.keyframe_every = 1000;  // cadence alone would never resync
  hub_options.subscriber_queue_capacity = 256;
  serve::SnapshotHub hub(hub_options);
  auto sub = hub.Subscribe();

  const std::vector<double> s1 = MakeStream(91, 400);
  StreamEngineOptions options = SyncOptions();
  options.snapshot_sink = [&hub](const EngineSnapshot& snapshot) {
    hub.Publish(snapshot);
  };

  std::string midpoint;
  {
    StreamEngine engine(options);
    ASSERT_TRUE(engine.AddSensor("s1", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.Start().ok());
    Feed(engine, "s1", s1, 0, 250);
    midpoint = CheckpointBytes(engine);
    // Publishes that the checkpoint does not know about: everything after
    // the image was taken still reaches the hub before the kill.
    Feed(engine, "s1", s1, 250, 300);
    ASSERT_TRUE(engine.Flush().ok());
    sub->Drain();
    ASSERT_TRUE(sub->has_view());
    // Killed here without Stop().
  }
  const uint64_t view_before_restore = sub->View().sequence;
  EXPECT_GT(view_before_restore, 0u);
  const uint64_t resyncs_before = hub.Stats().resyncs_forced;

  std::istringstream is(midpoint);
  auto restored = StreamEngine::Restore(is, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamEngine& engine = **restored;
  Feed(engine, "s1", s1, 250, 400);
  ASSERT_TRUE(engine.Flush().ok());

  // The resumed engine re-published from a sequence at or below what the
  // subscriber had already applied; the hub absorbed it as forced
  // keyframes and the subscriber's view now tracks the second life.
  EXPECT_GT(hub.Stats().resyncs_forced, resyncs_before);
  sub->Drain();
  ASSERT_TRUE(sub->has_view());
  EXPECT_EQ(serve::EncodeSnapshotBytes(sub->View()),
            serve::EncodeSnapshotBytes(engine.Snapshot()));
  EXPECT_EQ(sub->stale_skipped(), 0u);
  ASSERT_TRUE(engine.Stop().ok());
}

// ---- Buffer codec vs the per-value iostream oracle -------------------------

/// Sync engine with every section of the image populated: BOCPD on with a
/// confirmed concept shift, a peer group, a quarantine-onset outage still
/// open (six of eight line sensors silent), a peer deviation, router
/// rejects, a drop-oldest policy, and escalated findings carrying
/// warnings and confirmed levels.
StreamEngineOptions RichOptions() {
  StreamEngineOptions options = SyncOptions();
  options.shift.enabled = true;
  options.health.staleness_timeout = 30.0;
  options.health.recovery_clean_streak = 8;
  options.health_sweep_every = 16;
  options.peer.outage_min_sensors = 6;
  options.peer.outage_window = 20.0;
  options.peer.outage_entity = "line1";
  return options;
}

void BuildRichEngine(StreamEngine& engine) {
  std::vector<std::string> line;
  for (int i = 0; i < 8; ++i) line.push_back("line1.s" + std::to_string(i));
  for (const std::string& id : line) {
    ASSERT_TRUE(engine.AddSensor(id, ProductionLevel::kPhase).ok());
  }
  ASSERT_TRUE(engine.AddPeerGroup("line1.bed", line).ok());
  ASSERT_TRUE(engine.AddSensor("shift", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine
                  .AddSensor("env", ProductionLevel::kEnvironment,
                             BackpressurePolicy::kDropOldest)
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  const std::vector<double> shift = MakeShiftStream(131, 300, 100, 6.0);
  Rng rng(137);
  for (size_t t = 0; t < 300; ++t) {
    // The line's trunk dies at t = 200: six sensors go silent while two
    // survivors keep the frontier moving.
    const size_t live = t < 200 ? line.size() : 2;
    for (size_t i = 0; i < live; ++i) {
      double value = 50.0 + rng.Gaussian(0.0, 0.25);
      // A survivor's gain drifts away from its peers.
      if (i == 1 && t >= 40) {
        value *= 1.0 + 0.001 * static_cast<double>(t - 40);
      }
      ASSERT_TRUE(engine
                      .Ingest({line[i], ProductionLevel::kPhase,
                               static_cast<double>(t), value})
                      .ok());
    }
    ASSERT_TRUE(engine
                    .Ingest({"shift", ProductionLevel::kPhase,
                             static_cast<double>(t), shift[t]})
                    .ok());
    ASSERT_TRUE(engine
                    .Ingest({"env", ProductionLevel::kEnvironment,
                             static_cast<double>(t),
                             20.0 + rng.Gaussian(0.0, 0.1)})
                    .ok());
  }
  // Router rejects: an unknown sensor and a sample behind the frontier.
  EXPECT_FALSE(
      engine.Ingest({"ghost", ProductionLevel::kPhase, 300.0, 1.0}).ok());
  EXPECT_FALSE(
      engine.Ingest({"shift", ProductionLevel::kPhase, 10.0, 50.0}).ok());
  core::OutlierFinding triple;
  triple.origin.entity = "shift";
  triple.origin.level = ProductionLevel::kPhase;
  triple.origin.time = 120.0;
  triple.origin.index = 120;
  triple.origin.score = 7.5;
  triple.global_score = 3;
  triple.outlierness = 0.875;
  triple.support = 0.5;
  triple.corresponding_sensors = 2;
  triple.escalated = true;
  triple.confirmed_levels = {ProductionLevel::kJob,
                             ProductionLevel::kProductionLine};
  core::OutlierFinding suspect = triple;
  suspect.origin.entity = "line1.s3";
  suspect.measurement_error_warning = true;
  suspect.warnings = {"no lower-level evidence", "support below 0.5"};
  engine.ReportEscalation(EscalationRunStats{}, {triple, suspect});
  ASSERT_TRUE(engine.Flush().ok());
}

TEST(EngineCheckpoint, BufferCodecMatchesIostreamOracleOnARichEngine) {
  StreamEngine engine(RichOptions());
  BuildRichEngine(engine);
  const StreamStatsSnapshot stats = engine.stats();
  ASSERT_GE(stats.concept_shifts, 1u) << "fixture must shift";
  ASSERT_EQ(stats.group_outages, 1u) << "fixture must open an outage";
  ASSERT_GT(stats.rejected_unknown_sensor, 0u);
  ASSERT_GT(stats.rejected_out_of_order, 0u);
  ASSERT_GT(stats.peer_deviations, 0u) << "fixture must drift";

  const std::string bytes = CheckpointBytes(engine);
  auto parsed = ReadEngineCheckpoint(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Every section is populated, so no writer or reader branch is idle.
  EXPECT_TRUE(parsed->shift_enabled);
  EXPECT_TRUE(parsed->sensors[0].has_bocpd);
  EXPECT_FALSE(parsed->sensors[0].bocpd.run_length.empty());
  EXPECT_TRUE(parsed->outage_active);
  EXPECT_EQ(parsed->outage_members.size(), 6u);
  EXPECT_FALSE(parsed->quarantined.empty());
  ASSERT_EQ(parsed->peer_groups.size(), 1u);
  EXPECT_FALSE(parsed->peer_groups[0].members[0].ring_residual.empty());
  EXPECT_FALSE(parsed->recent_shifts.empty());
  bool warned = false;
  bool confirmed = false;
  for (const core::OutlierFinding& finding : parsed->findings) {
    warned |= !finding.warnings.empty();
    confirmed |= !finding.confirmed_levels.empty();
  }
  EXPECT_TRUE(warned);
  EXPECT_TRUE(confirmed);

  // The writers agree byte for byte on the same state, and the engine's
  // own image is that encoding.
  const std::string reference = oracle::EngineCheckpointBytes(*parsed);
  hierarchy::bin::ByteWriter out;
  WriteEngineCheckpoint(*parsed, out);
  EXPECT_TRUE(out.bytes() == reference);
  EXPECT_TRUE(bytes == reference);

  // The reader parses the oracle's bytes back to the same state.
  auto reparsed = ReadEngineCheckpoint(reference);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_TRUE(oracle::EngineCheckpointBytes(*reparsed) == reference);
  for (const EngineCheckpoint::SensorState& sensor : reparsed->sensors) {
    EXPECT_EQ(sensor.health.sensor_id, sensor.sensor_id);
    EXPECT_EQ(sensor.health.level, sensor.level);
  }

  // The stream adapters are the same codec: one write, read to the end.
  std::istringstream is(reference);
  auto streamed = ReadEngineCheckpoint(is);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_TRUE(oracle::EngineCheckpointBytes(*streamed) == reference);
  std::ostringstream os;
  ASSERT_TRUE(WriteEngineCheckpoint(*reparsed, os).ok());
  EXPECT_TRUE(os.str() == reference);
}

TEST(EngineCheckpoint, FileImageEqualsStreamImageAndRestoresFromASpan) {
  StreamEngineOptions options = RichOptions();
  StreamEngine engine(options);
  BuildRichEngine(engine);
  const std::string path = ::testing::TempDir() + "/rich_image.ckpt";
  std::remove(path.c_str());
  const std::string first = CheckpointBytes(engine);
  ASSERT_TRUE(engine.CheckpointToFile(path).ok());
  std::ifstream file(path, std::ios::binary);
  const std::string on_disk = hierarchy::bin::ReadToEnd(file);
  EXPECT_TRUE(on_disk == first);
  // The second image reserves from the first; only the written-image
  // counter moved in between.
  const std::string second = CheckpointBytes(engine);
  ASSERT_TRUE(engine.CheckpointToFile(path).ok());
  std::ifstream again(path, std::ios::binary);
  EXPECT_TRUE(hierarchy::bin::ReadToEnd(again) == second);

  // The span and stream entry points restore the same engine.
  auto from_span = StreamEngine::Restore(on_disk, options);
  ASSERT_TRUE(from_span.ok()) << from_span.status().ToString();
  std::istringstream is(on_disk);
  auto from_stream = StreamEngine::Restore(is, options);
  ASSERT_TRUE(from_stream.ok()) << from_stream.status().ToString();
  EXPECT_TRUE(CheckpointBytes(**from_span) == CheckpointBytes(**from_stream));
  std::remove(path.c_str());
}

/// Restore installs every section as it was saved, BOCPD posteriors
/// included, so checkpointing the restored engine gives the same image.
TEST(EngineCheckpoint, RestoredRichEngineCheckpointsByteIdentically) {
  const StreamEngineOptions options = RichOptions();
  StreamEngine engine(options);
  BuildRichEngine(engine);
  const std::string image = CheckpointBytes(engine);
  auto restored = StreamEngine::Restore(image, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const std::string again = CheckpointBytes(**restored);
  ASSERT_EQ(again.size(), image.size());
  const auto diverged =
      std::mismatch(image.begin(), image.end(), again.begin()).first;
  EXPECT_TRUE(diverged == image.end())
      << "first differing byte " << (diverged - image.begin()) << " of "
      << image.size();
}

/// The stream checkpoint grows its buffer on the first image and reserves
/// it from the last image after that; the bytes are the codec's either
/// way.
TEST(EngineCheckpoint, StreamImageIsTheCodecImageOnEveryCall) {
  StreamEngine engine(RichOptions());
  BuildRichEngine(engine);
  const std::string first = CheckpointBytes(engine);
  auto parsed = ReadEngineCheckpoint(first);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(first == oracle::EngineCheckpointBytes(*parsed));
  EXPECT_TRUE(CheckpointBytes(engine) == first);
}

}  // namespace
}  // namespace hod::stream
