#include "fleet/manager.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fleet/alert_board.h"
#include "fleet/router.h"
#include "stream/engine.h"
#include "stream/stats.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hod::fleet {
namespace {

using hierarchy::ProductionLevel;
using std::chrono::milliseconds;

/// A deterministic stream with one fault burst (same recipe as the
/// stream-tier tests).
std::vector<double> MakeStream(uint64_t seed, size_t n, size_t fault_at,
                               size_t fault_len, double fault_mag) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  double noise = 0.0;
  for (size_t t = 0; t < n; ++t) {
    noise = 0.7 * noise + rng.Gaussian(0.0, 0.25);
    double value = 55.0 + noise;
    if (t >= fault_at && t < fault_at + fault_len) value += fault_mag;
    values.push_back(value);
  }
  return values;
}

std::vector<PlantSensorSpec> MakeSensors(size_t n) {
  std::vector<PlantSensorSpec> sensors;
  for (size_t i = 0; i < n; ++i) {
    sensors.push_back({"s" + std::to_string(i), ProductionLevel::kPhase, {}});
  }
  return sensors;
}

stream::StreamEngineOptions SmallEngine() {
  stream::StreamEngineOptions engine;
  engine.num_shards = 2;
  engine.queue_capacity = 256;
  engine.monitor.warmup = 16;
  engine.watchdog_interval = milliseconds(0);  // determinism: no sweeps
  return engine;
}

#ifdef __linux__
size_t CountOsThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}
#endif

// ---------------------------------------------------------------------------
// FleetRouter: stable-hash placement
// ---------------------------------------------------------------------------

TEST(FleetRouter, PlacementIsDeterministicAcrossInstances) {
  // Place is a pure function of (id, slots): a restarted process — or a
  // different machine — computes the identical placement for every plant.
  const FleetRouter a(256);
  const FleetRouter b(256);
  for (int i = 0; i < 100; ++i) {
    const std::string id = "plant-" + std::to_string(i);
    const PlantPlacement pa = a.Place(id);
    const PlantPlacement pb = b.Place(id);
    EXPECT_EQ(pa.hash, pb.hash) << id;
    EXPECT_EQ(pa.slot, pb.slot) << id;
    EXPECT_EQ(pa.hash, stream::StableHash64(id));
    EXPECT_LT(pa.slot, 256u);
  }
}

TEST(FleetRouter, AddRemoveNeverMovesOtherPlants) {
  // Bounded redistribution, degenerate-and-desirable form: placement
  // depends only on the plant's own id, so adding or removing any plant
  // moves exactly zero others.
  FleetRouter router(64);
  std::vector<std::string> ids;
  std::vector<PlantPlacement> before;
  for (int i = 0; i < 50; ++i) {
    ids.push_back("line-" + std::to_string(i));
    before.push_back(router.Place(ids.back()));
    ASSERT_TRUE(router.Add(ids.back(), std::make_shared<PlantHandle>()).ok());
  }
  ASSERT_TRUE(router.Add("newcomer", std::make_shared<PlantHandle>()).ok());
  EXPECT_NE(router.Remove("line-17"), nullptr);
  for (size_t i = 0; i < ids.size(); ++i) {
    const PlantPlacement after = router.Place(ids[i]);
    EXPECT_EQ(after.hash, before[i].hash) << ids[i];
    EXPECT_EQ(after.slot, before[i].slot) << ids[i];
  }
  EXPECT_EQ(router.Resolve("line-17"), nullptr);
  EXPECT_NE(router.Resolve("line-18"), nullptr);
  EXPECT_EQ(router.size(), 50u);  // 50 + newcomer - line-17
}

TEST(FleetRouter, PlacementSpreadsAcrossSlots) {
  const FleetRouter router(64);
  std::vector<bool> hit(64, false);
  size_t distinct = 0;
  for (int i = 0; i < 200; ++i) {
    const size_t slot = router.Place("plant-" + std::to_string(i)).slot;
    if (!hit[slot]) {
      hit[slot] = true;
      ++distinct;
    }
  }
  // 200 ids into 64 slots: a healthy hash fills most of the space.
  EXPECT_GE(distinct, 48u);
}

// ---------------------------------------------------------------------------
// StreamStatsSnapshot merge (fleet roll-up arithmetic)
// ---------------------------------------------------------------------------

/// Fills every scalar counter with a distinct value derived from `base`
/// so a field accidentally skipped by operator+= shows up as a precise
/// mismatch, not a coincidental pass.
/// Every table row, per-level slot and histogram bucket gets a distinct
/// value, so a row the roll-up skipped or crossed with another shows.
stream::StreamStatsSnapshot FilledSnapshot(uint64_t base) {
  stream::StreamStatsSnapshot s;
  uint64_t v = base;
  for (const stream::CounterInfo& row : stream::kCounters) s.*row.field = v++;
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    s.level_dropped[i] = v++;
    s.level_rejected[i] = v++;
    s.level_quarantined[i] = v++;
  }
  for (size_t i = 0; i < stream::kBatchBuckets; ++i) {
    s.batch_size_histogram[i] = v++;
  }
  return s;
}

TEST(StreamStatsMerge, EveryCounterAddsIncludingEscalationAndCheckpoint) {
  const stream::StreamStatsSnapshot a = FilledSnapshot(1000);
  const stream::StreamStatsSnapshot b = FilledSnapshot(5000);
  stream::StreamStatsSnapshot sum = a;
  sum += b;
  for (const stream::CounterInfo& row : stream::kCounters) {
    EXPECT_EQ(sum.*row.field, a.*row.field + b.*row.field) << row.name;
  }
  // rejected_total() sums the rows by name prefix; pin it to the seven
  // rejection buckets the conservation identity means.
  EXPECT_EQ(a.rejected_total(),
            a.rejected_queue_full + a.rejected_timeout +
                a.rejected_non_finite + a.rejected_unknown_sensor +
                a.rejected_level_mismatch + a.rejected_out_of_order +
                a.rejected_closed);
  EXPECT_EQ(sum.rejected_total(), a.rejected_total() + b.rejected_total());
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    EXPECT_EQ(sum.level_dropped[i], a.level_dropped[i] + b.level_dropped[i]);
    EXPECT_EQ(sum.level_rejected[i],
              a.level_rejected[i] + b.level_rejected[i]);
    EXPECT_EQ(sum.level_quarantined[i],
              a.level_quarantined[i] + b.level_quarantined[i]);
  }
  for (size_t i = 0; i < stream::kBatchBuckets; ++i) {
    EXPECT_EQ(sum.batch_size_histogram[i],
              a.batch_size_histogram[i] + b.batch_size_histogram[i]);
  }
}

TEST(StreamStatsMerge, HighWaterTakesMaxAndStalledTakesOrAcrossShapes) {
  stream::StreamStatsSnapshot a;
  a.shard_queue_high_water = {10, 3};
  a.shard_stalled = {1, 0};
  stream::StreamStatsSnapshot b;
  b.shard_queue_high_water = {4, 9, 7};  // more shards than a
  b.shard_stalled = {0, 1, 0};
  a += b;
  ASSERT_EQ(a.shard_queue_high_water.size(), 3u);
  EXPECT_EQ(a.shard_queue_high_water[0], 10u);  // max, not sum
  EXPECT_EQ(a.shard_queue_high_water[1], 9u);
  EXPECT_EQ(a.shard_queue_high_water[2], 7u);
  ASSERT_EQ(a.shard_stalled.size(), 3u);
  EXPECT_EQ(a.shard_stalled[0], 1);  // OR
  EXPECT_EQ(a.shard_stalled[1], 1);
  EXPECT_EQ(a.shard_stalled[2], 0);
}

TEST(StreamStatsMerge, MergeOfExactSnapshotsPreservesConservation) {
  // Run two small synchronous engines, merge their exact snapshots, and
  // check the conservation identity survives the merge.
  auto run = [](uint64_t seed) {
    stream::StreamEngineOptions options;
    options.synchronous = true;
    options.monitor.warmup = 16;
    stream::StreamEngine engine(options);
    EXPECT_TRUE(engine.AddSensor("s0", ProductionLevel::kPhase).ok());
    EXPECT_TRUE(engine.Start().ok());
    const std::vector<double> values = MakeStream(seed, 300, 200, 6, 6.0);
    for (size_t t = 0; t < values.size(); ++t) {
      (void)engine.Ingest(
          {"s0", ProductionLevel::kPhase, static_cast<double>(t), values[t]});
    }
    EXPECT_TRUE(engine.Stop().ok());
    return engine.stats();
  };
  const stream::StreamStatsSnapshot a = run(3);
  const stream::StreamStatsSnapshot b = run(7);
  const stream::StreamStatsSnapshot sum = a + b;
  EXPECT_EQ(sum.ingested, a.ingested + b.ingested);
  EXPECT_TRUE(sum.ConservesSamples()) << sum.ToString();
}

TEST(StreamStatsMerge, ConservationHoldsWithRouterRejects) {
  // Router rejects (non-finite, unknown sensor, out of order) never reach
  // `ingested`; the identity must hold with them in the mix, in
  // synchronous and in threaded mode alike.
  for (const bool synchronous : {true, false}) {
    stream::StreamEngineOptions options = SmallEngine();
    options.synchronous = synchronous;
    stream::StreamEngine engine(options);
    ASSERT_TRUE(engine.AddSensor("s0", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.AddSensor("s1", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.Start().ok());
    const std::vector<double> values = MakeStream(5, 400, 250, 8, 6.0);
    for (size_t t = 0; t < values.size(); ++t) {
      const double ts = static_cast<double>(t);
      (void)engine.Ingest({"s0", ProductionLevel::kPhase, ts, values[t]});
      double value = values[t];
      if (t % 37 == 5) value = std::nan("");
      (void)engine.Ingest({"s1", ProductionLevel::kPhase, ts, value});
      if (t % 53 == 7) {
        (void)engine.Ingest({"ghost", ProductionLevel::kPhase, ts, 1.0});
      }
      if (t % 41 == 9 && t > 20) {
        (void)engine.Ingest({"s0", ProductionLevel::kPhase, ts - 20.0, 55.0});
      }
    }
    ASSERT_TRUE(engine.Flush().ok());
    ASSERT_TRUE(engine.Stop().ok());
    const stream::StreamStatsSnapshot stats = engine.stats();
    const std::string mode = synchronous ? "sync" : "threaded";
    EXPECT_GT(stats.rejected_non_finite, 0u) << mode;
    EXPECT_GT(stats.rejected_unknown_sensor, 0u) << mode;
    EXPECT_GT(stats.rejected_out_of_order, 0u) << mode;
    EXPECT_TRUE(stats.ConservesSamples()) << mode << "\n" << stats.ToString();
  }
}

// ---------------------------------------------------------------------------
// One threaded runtime: an engine on its owned pool vs one on a borrowed pool
// ---------------------------------------------------------------------------

TEST(PooledEngine, OwnedPoolMatchesBorrowedPoolExactly) {
  const std::vector<double> faulty = MakeStream(11, 500, 350, 8, 6.0);
  const std::vector<double> clean = MakeStream(13, 500, 0, 0, 0.0);

  auto run = [&](util::ThreadPool* pool) {
    stream::StreamEngineOptions options = SmallEngine();
    options.executor = pool;
    stream::StreamEngine engine(options);
    EXPECT_TRUE(engine.AddSensor("hot", ProductionLevel::kPhase).ok());
    EXPECT_TRUE(engine.AddSensor("cool", ProductionLevel::kJob).ok());
    EXPECT_TRUE(engine.Start().ok());
    for (size_t t = 0; t < faulty.size(); ++t) {
      const double ts = static_cast<double>(t);
      EXPECT_TRUE(
          engine.Ingest({"hot", ProductionLevel::kPhase, ts, faulty[t]}).ok());
      EXPECT_TRUE(
          engine.Ingest({"cool", ProductionLevel::kJob, ts, clean[t]}).ok());
    }
    EXPECT_TRUE(engine.Flush().ok());
    EXPECT_TRUE(engine.Stop().ok());
    return std::make_tuple(engine.stats(), engine.Episodes().size(),
                           engine.Snapshot().levels);
  };

  util::ThreadPool pool(util::ThreadPoolOptions{2, 1});
  // nullptr: the engine builds and owns its pool.
  const auto [legacy_stats, legacy_episodes, legacy_levels] = run(nullptr);
  const auto [pooled_stats, pooled_episodes, pooled_levels] = run(&pool);

  // Per-sensor sample order is identical (one producer, per-sensor shard
  // affinity), so every deterministic counter must agree bit-for-bit.
  EXPECT_EQ(pooled_stats.ingested, legacy_stats.ingested);
  EXPECT_EQ(pooled_stats.scored, legacy_stats.scored);
  EXPECT_EQ(pooled_stats.dropped, legacy_stats.dropped);
  EXPECT_EQ(pooled_stats.rejected_total(), legacy_stats.rejected_total());
  EXPECT_EQ(pooled_stats.alarms_raised, legacy_stats.alarms_raised);
  EXPECT_EQ(pooled_stats.alarms_cleared, legacy_stats.alarms_cleared);
  EXPECT_EQ(pooled_stats.quarantined_samples,
            legacy_stats.quarantined_samples);
  EXPECT_EQ(pooled_stats.sensor_faults, legacy_stats.sensor_faults);
  EXPECT_GE(legacy_stats.alarms_raised, 1u) << "fault burst must alarm";
  EXPECT_EQ(pooled_episodes, legacy_episodes);
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    EXPECT_EQ(pooled_levels[i].alarms_raised, legacy_levels[i].alarms_raised);
    EXPECT_EQ(pooled_levels[i].outlier_samples,
              legacy_levels[i].outlier_samples);
  }
  // Conservation holds in pooled mode too.
  EXPECT_TRUE(pooled_stats.ConservesSamples()) << pooled_stats.ToString();
}

/// Everything a pooled engine must reproduce from a synchronous one.
struct LayerOutcome {
  stream::StreamStatsSnapshot stats;
  std::vector<stream::PeerDeviation> deviations;
  std::array<stream::LevelOutlierState, hierarchy::kNumLevels> levels{};
};

void ExpectSameOutcome(const LayerOutcome& got, const LayerOutcome& want,
                       const std::string& where) {
  EXPECT_EQ(got.stats.ingested, want.stats.ingested) << where;
  EXPECT_EQ(got.stats.scored, want.stats.scored) << where;
  EXPECT_EQ(got.stats.alarms_raised, want.stats.alarms_raised) << where;
  EXPECT_EQ(got.stats.alarms_cleared, want.stats.alarms_cleared) << where;
  EXPECT_EQ(got.stats.concept_shifts, want.stats.concept_shifts) << where;
  EXPECT_EQ(got.stats.baseline_resets, want.stats.baseline_resets) << where;
  EXPECT_EQ(got.stats.peer_deviations, want.stats.peer_deviations) << where;
  ASSERT_EQ(got.deviations.size(), want.deviations.size()) << where;
  for (size_t i = 0; i < got.deviations.size(); ++i) {
    const stream::PeerDeviation& a = got.deviations[i];
    const stream::PeerDeviation& b = want.deviations[i];
    EXPECT_EQ(a.sensor_id, b.sensor_id) << where;
    EXPECT_EQ(a.group_id, b.group_id) << where;
    EXPECT_EQ(a.ts, b.ts) << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.residual),
              std::bit_cast<uint64_t>(b.residual)) << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.value_z),
              std::bit_cast<uint64_t>(b.value_z)) << where;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.slope_z),
              std::bit_cast<uint64_t>(b.slope_z)) << where;
  }
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    const stream::LevelOutlierState& a = got.levels[i];
    const stream::LevelOutlierState& b = want.levels[i];
    const std::string at = where + " level " + std::to_string(i);
    EXPECT_EQ(a.outlier_samples, b.outlier_samples) << at;
    EXPECT_EQ(a.alarms_raised, b.alarms_raised) << at;
    EXPECT_EQ(a.alarms_cleared, b.alarms_cleared) << at;
    EXPECT_EQ(a.active_alarms, b.active_alarms) << at;
    EXPECT_EQ(a.sensor_faults, b.sensor_faults) << at;
    EXPECT_EQ(a.quarantined_sensors, b.quarantined_sensors) << at;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.peak_score),
              std::bit_cast<uint64_t>(b.peak_score)) << at;
    EXPECT_EQ(a.last_outlier_ts, b.last_outlier_ts) << at;
  }
}

TEST(PooledEngine, ShiftAndPeerLayersMatchSynchronousEngine) {
  // Several engines with BOCPD and a peer group share one 2-worker pool,
  // so every lane's detector and every peer member is scored on whichever
  // worker runs its shard's drain task, hopping between the workers'
  // per-thread scratch. Each pooled engine holds one sample in flight
  // (Flush after every Ingest): peers then read the same last values as
  // in a synchronous engine, and the outcome must match one exactly.
  constexpr size_t kEngines = 4;
  constexpr size_t kTicks = 360;
  const std::vector<std::string> ids = {"bed.a", "bed.b", "bed.c"};
  const auto options_for = [](util::ThreadPool* pool) {
    stream::StreamEngineOptions options = SmallEngine();
    options.synchronous = pool == nullptr;
    options.executor = pool;
    options.shift.enabled = true;
    options.peer.warmup = 8;
    options.peer.deviation_after = 3;
    options.health.staleness_timeout = 0.0;
    return options;
  };
  // Engine e: common-mode wander on every member, a level step on member
  // 0 (confirms a shift) and a gain drift on member 1 (leaves the band).
  std::vector<std::vector<stream::SensorSample>> streams(kEngines);
  for (size_t e = 0; e < kEngines; ++e) {
    Rng rng(100 + e);
    double wander = 0.0;
    for (size_t t = 0; t < kTicks; ++t) {
      wander = 0.95 * wander + rng.Gaussian(0.0, 0.05);
      for (size_t m = 0; m < ids.size(); ++m) {
        double value = 40.0 + wander + rng.Gaussian(0.0, 0.1);
        if (m == 0 && t >= 150 + 20 * e) value += 4.0;
        if (m == 1 && t >= 220) {
          value *= 1.0 + 0.0005 * static_cast<double>(e + 1) *
                             static_cast<double>(t - 220);
        }
        streams[e].push_back({ids[m], ProductionLevel::kPhase,
                              static_cast<double>(t), value});
      }
    }
  }
  const auto make_engine = [&](util::ThreadPool* pool) {
    auto engine = std::make_unique<stream::StreamEngine>(options_for(pool));
    for (const std::string& id : ids) {
      EXPECT_TRUE(engine->AddSensor(id, ProductionLevel::kPhase).ok());
    }
    EXPECT_TRUE(engine->AddPeerGroup("bed", ids).ok());
    EXPECT_TRUE(engine->Start().ok());
    return engine;
  };
  const auto outcome_of = [](stream::StreamEngine& engine) {
    EXPECT_TRUE(engine.Flush().ok());
    EXPECT_TRUE(engine.Stop().ok());
    LayerOutcome outcome;
    outcome.stats = engine.stats();
    outcome.deviations = engine.PeerDeviations();
    outcome.levels = engine.Snapshot().levels;
    return outcome;
  };

  util::ThreadPool pool(util::ThreadPoolOptions{2, 1});
  std::vector<std::unique_ptr<stream::StreamEngine>> pooled;
  for (size_t e = 0; e < kEngines; ++e) pooled.push_back(make_engine(&pool));
  std::vector<std::thread> producers;
  for (size_t e = 0; e < kEngines; ++e) {
    producers.emplace_back([&, e] {
      for (const stream::SensorSample& sample : streams[e]) {
        EXPECT_TRUE(pooled[e]->Ingest(sample).ok());
        EXPECT_TRUE(pooled[e]->Flush().ok());
      }
    });
  }
  for (auto& producer : producers) producer.join();

  uint64_t shifts = 0;
  uint64_t deviations = 0;
  uint64_t alarms = 0;
  for (size_t e = 0; e < kEngines; ++e) {
    std::unique_ptr<stream::StreamEngine> sync = make_engine(nullptr);
    for (const stream::SensorSample& sample : streams[e]) {
      EXPECT_TRUE(sync->Ingest(sample).ok());
    }
    const LayerOutcome want = outcome_of(*sync);
    const LayerOutcome got = outcome_of(*pooled[e]);
    ExpectSameOutcome(got, want, "engine " + std::to_string(e));
    shifts += want.stats.concept_shifts;
    deviations += want.stats.peer_deviations;
    alarms += want.stats.alarms_raised;
  }
  // Both layers must actually fire for the comparison to mean anything.
  EXPECT_GE(shifts, kEngines);
  EXPECT_GE(deviations, kEngines);
  EXPECT_GE(alarms, 1u);
}

TEST(PooledEngine, ManyEnginesShareOnePoolConcurrently) {
  util::ThreadPool pool(util::ThreadPoolOptions{2, 1});
  constexpr size_t kEngines = 6;
  constexpr size_t kSamples = 300;
  std::vector<std::unique_ptr<stream::StreamEngine>> engines;
  for (size_t e = 0; e < kEngines; ++e) {
    stream::StreamEngineOptions options = SmallEngine();
    options.executor = &pool;
    engines.push_back(std::make_unique<stream::StreamEngine>(options));
    ASSERT_TRUE(
        engines[e]->AddSensor("s0", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engines[e]->Start().ok());
  }
  std::vector<std::thread> producers;
  for (size_t e = 0; e < kEngines; ++e) {
    producers.emplace_back([&, e] {
      const std::vector<double> values = MakeStream(e + 1, kSamples, 0, 0, 0);
      for (size_t t = 0; t < values.size(); ++t) {
        (void)engines[e]->Ingest(
            {"s0", ProductionLevel::kPhase, static_cast<double>(t),
             values[t]});
      }
    });
  }
  for (auto& producer : producers) producer.join();
  for (auto& engine : engines) {
    ASSERT_TRUE(engine->Flush().ok());
    ASSERT_TRUE(engine->Stop().ok());
    const stream::StreamStatsSnapshot stats = engine->stats();
    EXPECT_EQ(stats.ingested, kSamples);
    EXPECT_EQ(stats.scored, kSamples);
  }
}

#ifdef __linux__
/// Thread exit is reported to /proc a moment after join() returns, so a
/// count that must fall back waits (bounded) for it.
size_t OsThreadsSettledAt(size_t want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  size_t now = CountOsThreads();
  while (now != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(1));
    now = CountOsThreads();
  }
  return now;
}

TEST(PooledEngine, StandaloneEngineThreadBound) {
  const size_t baseline = CountOsThreads();
  ASSERT_GT(baseline, 0u);
  const std::vector<double> values = MakeStream(17, 200, 120, 6, 6.0);
  const auto feed = [&](stream::StreamEngine& engine) {
    for (size_t t = 0; t < values.size(); ++t) {
      ASSERT_TRUE(engine
                      .Ingest({"s0", ProductionLevel::kPhase,
                               static_cast<double>(t), values[t]})
                      .ok());
    }
  };

  // Configured but never started: no thread.
  stream::StreamEngineOptions options = SmallEngine();
  constexpr size_t kShards = 3;
  options.num_shards = kShards;
  options.watchdog_interval = milliseconds(5);
  options.checkpoint_path = ::testing::TempDir() + "/thread_bound_ckpt.bin";
  options.checkpoint_interval = milliseconds(10);
  {
    stream::StreamEngine idle(options);
    ASSERT_TRUE(idle.AddSensor("s0", ProductionLevel::kPhase).ok());
    EXPECT_EQ(CountOsThreads(), baseline) << "unstarted engine";
  }

  // Synchronous: no thread while running, checkpointing or stopping.
  {
    stream::StreamEngineOptions sync = options;
    sync.synchronous = true;
    sync.checkpoint_interval = milliseconds(0);  // manual only
    stream::StreamEngine engine(sync);
    ASSERT_TRUE(engine.AddSensor("s0", ProductionLevel::kPhase).ok());
    ASSERT_TRUE(engine.Start().ok());
    feed(engine);
    ASSERT_TRUE(engine.CheckpointToFile(sync.checkpoint_path).ok());
    EXPECT_EQ(CountOsThreads(), baseline) << "synchronous engine";
    ASSERT_TRUE(engine.Stop().ok());
    EXPECT_EQ(CountOsThreads(), baseline) << "synchronous engine";
  }

  // Threaded with a watchdog and a checkpoint timer: one worker per
  // shard, one service thread for the collector, one timer thread.
  {
    stream::StreamEngine engine(options);
    ASSERT_TRUE(engine.AddSensor("s0", ProductionLevel::kPhase).ok());
    EXPECT_EQ(CountOsThreads(), baseline) << "before Start";
    ASSERT_TRUE(engine.Start().ok());
    feed(engine);
    ASSERT_TRUE(engine.Flush().ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (engine.stats().checkpoints_written == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(milliseconds(2));
    }
    EXPECT_GT(engine.stats().checkpoints_written, 0u) << "timer never fired";
    EXPECT_EQ(CountOsThreads(), baseline + kShards + 2) << "threaded engine";
    ASSERT_TRUE(engine.Stop().ok());
    EXPECT_EQ(OsThreadsSettledAt(baseline), baseline) << "after Stop";
    EXPECT_EQ(engine.stats().scored, values.size());
  }
  EXPECT_EQ(OsThreadsSettledAt(baseline), baseline) << "after destruction";
}
#endif

// ---------------------------------------------------------------------------
// FleetAlertBoard
// ---------------------------------------------------------------------------

core::AlertEpisode Episode(const std::string& entity,
                           core::AlertSeverity severity, double outlierness) {
  core::AlertEpisode episode;
  episode.entity = entity;
  episode.severity = severity;
  episode.peak_outlierness = outlierness;
  episode.finding_count = 1;
  return episode;
}

TEST(FleetAlertBoard, RepeatedUpdatesDedupAndSortBySeverity) {
  FleetAlertBoard board;
  board.UpdatePlant("berlin",
                    {Episode("m1", core::AlertSeverity::kWarning, 2.0)});
  // Same plant refreshed: rows are replaced, not appended.
  board.UpdatePlant("berlin",
                    {Episode("m1", core::AlertSeverity::kWarning, 3.0),
                     Episode("m2", core::AlertSeverity::kInfo, 1.0)});
  board.UpdatePlant("oslo",
                    {Episode("m9", core::AlertSeverity::kCritical, 9.0)});
  const std::vector<FleetAlertRow> rows = board.Board();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].plant_id, "oslo");  // critical first
  EXPECT_EQ(rows[0].episode.entity, "m9");
  EXPECT_EQ(rows[1].plant_id, "berlin");
  EXPECT_EQ(rows[1].episode.entity, "m1");
  EXPECT_DOUBLE_EQ(rows[1].episode.peak_outlierness, 3.0);  // refreshed
  EXPECT_EQ(rows[2].episode.entity, "m2");
  EXPECT_FALSE(rows[0].archived);
}

TEST(FleetAlertBoard, ArchiveKeepsRowsFlaggedAndForgetDropsThem) {
  FleetAlertBoard board;
  board.UpdatePlant("berlin",
                    {Episode("m1", core::AlertSeverity::kWarning, 2.0)});
  board.ArchivePlant("berlin",
                     {Episode("m1", core::AlertSeverity::kWarning, 2.5)});
  std::vector<FleetAlertRow> rows = board.Board();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].archived);
  EXPECT_DOUBLE_EQ(rows[0].episode.peak_outlierness, 2.5);
  EXPECT_EQ(board.live_plants(), 0u);
  EXPECT_EQ(board.archived_plants(), 1u);
  // Re-admission forgets the predecessor's history.
  board.ForgetPlant("berlin");
  EXPECT_TRUE(board.Board().empty());
}

// ---------------------------------------------------------------------------
// FleetManager
// ---------------------------------------------------------------------------

FleetManagerOptions SmallFleet() {
  FleetManagerOptions options;
  options.engine = SmallEngine();
  options.pool_threads = 2;
  options.service_threads = 1;
  return options;
}

TEST(FleetManager, RoutesAndAggregatesAcrossPlants) {
  FleetManager fleet(SmallFleet());
  ASSERT_TRUE(fleet.AddPlant("berlin", MakeSensors(2)).ok());
  ASSERT_TRUE(fleet.AddPlant("oslo", MakeSensors(2)).ok());
  EXPECT_EQ(fleet.num_plants(), 2u);
  EXPECT_EQ(fleet.AddPlant("berlin", MakeSensors(1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fleet.Ingest("ghost", {"s0", ProductionLevel::kPhase, 0.0, 1.0})
                .status()
                .code(),
            StatusCode::kNotFound);

  const std::vector<double> values = MakeStream(5, 200, 0, 0, 0.0);
  for (size_t t = 0; t < values.size(); ++t) {
    const double ts = static_cast<double>(t);
    ASSERT_TRUE(
        fleet.Ingest("berlin", {"s0", ProductionLevel::kPhase, ts, values[t]})
            .ok());
    ASSERT_TRUE(
        fleet.Ingest("oslo", {"s1", ProductionLevel::kPhase, ts, values[t]})
            .ok());
  }
  ASSERT_TRUE(fleet.Flush().ok());
  const FleetStatsSnapshot stats = fleet.Stats();
  EXPECT_EQ(stats.plants, 2u);
  EXPECT_EQ(stats.removed_plants, 0u);
  EXPECT_EQ(stats.aggregate.ingested, 2 * values.size());
  EXPECT_EQ(stats.aggregate.scored, 2 * values.size());
  ASSERT_EQ(stats.per_plant.size(), 2u);
  EXPECT_EQ(stats.per_plant[0].plant_id, "berlin");
  EXPECT_EQ(stats.per_plant[0].stats.ingested, values.size());
  EXPECT_EQ(stats.per_plant[1].plant_id, "oslo");
  ASSERT_TRUE(fleet.Stop().ok());
}

TEST(FleetManager, RemovePlantDrainsArchivesAndKeepsAggregatesMonotone) {
  FleetManager fleet(SmallFleet());
  ASSERT_TRUE(fleet.AddPlant("berlin", MakeSensors(1)).ok());
  ASSERT_TRUE(fleet.AddPlant("oslo", MakeSensors(1)).ok());

  const std::vector<double> faulty = MakeStream(11, 400, 300, 8, 6.0);
  const std::vector<double> clean = MakeStream(13, 400, 0, 0, 0.0);
  for (size_t t = 0; t < faulty.size(); ++t) {
    const double ts = static_cast<double>(t);
    ASSERT_TRUE(
        fleet.Ingest("berlin", {"s0", ProductionLevel::kPhase, ts, faulty[t]})
            .ok());
    ASSERT_TRUE(
        fleet.Ingest("oslo", {"s0", ProductionLevel::kPhase, ts, clean[t]})
            .ok());
  }
  ASSERT_TRUE(fleet.Flush().ok());
  const FleetStatsSnapshot before = fleet.Stats();
  ASSERT_EQ(before.aggregate.ingested, 2 * faulty.size());
  ASSERT_GE(before.aggregate.alarms_raised, 1u);
  const std::vector<FleetAlertRow> live_board = fleet.AlertBoard();
  ASSERT_GE(live_board.size(), 1u);
  EXPECT_EQ(live_board[0].plant_id, "berlin");
  EXPECT_FALSE(live_board[0].archived);

  // Drain-on-remove: the berlin line leaves, its counters fold into the
  // retired roll-up, its episodes archive — nothing double-counts,
  // nothing vanishes.
  ASSERT_TRUE(fleet.RemovePlant("berlin").ok());
  EXPECT_EQ(fleet.RemovePlant("berlin").code(), StatusCode::kNotFound);
  EXPECT_EQ(fleet.num_plants(), 1u);
  const FleetStatsSnapshot after = fleet.Stats();
  EXPECT_EQ(after.plants, 1u);
  EXPECT_EQ(after.removed_plants, 1u);
  EXPECT_EQ(after.aggregate.ingested, before.aggregate.ingested);
  EXPECT_EQ(after.aggregate.scored, before.aggregate.scored);
  EXPECT_EQ(after.aggregate.alarms_raised, before.aggregate.alarms_raised);
  EXPECT_EQ(after.retired.ingested, faulty.size());

  const std::vector<FleetAlertRow> board = fleet.AlertBoard();
  ASSERT_GE(board.size(), 1u);
  EXPECT_EQ(board[0].plant_id, "berlin");
  EXPECT_TRUE(board[0].archived);

  // The removed id no longer ingests; the sibling is untouched.
  EXPECT_EQ(
      fleet.Ingest("berlin", {"s0", ProductionLevel::kPhase, 999.0, 55.0})
          .status()
          .code(),
      StatusCode::kNotFound);
  ASSERT_TRUE(
      fleet.Ingest("oslo", {"s0", ProductionLevel::kPhase, 999.0, 55.0}).ok());
  ASSERT_TRUE(fleet.Stop().ok());
}

#ifdef __linux__
TEST(FleetManager, OsThreadCountBoundedByPoolNotPlantCount) {
  const size_t baseline = CountOsThreads();
  ASSERT_GT(baseline, 0u);
  FleetManagerOptions options = SmallFleet();
  options.engine.num_shards = 4;
  options.pool_threads = 4;
  FleetManager fleet(options);
  constexpr size_t kPlants = 16;
  for (size_t p = 0; p < kPlants; ++p) {
    ASSERT_TRUE(
        fleet.AddPlant("plant-" + std::to_string(p), MakeSensors(2)).ok());
    for (int t = 0; t < 32; ++t) {
      ASSERT_TRUE(fleet
                      .Ingest("plant-" + std::to_string(p),
                              {"s0", ProductionLevel::kPhase,
                               static_cast<double>(t), 55.0})
                      .ok());
    }
  }
  ASSERT_TRUE(fleet.Flush().ok());
  // Threads-per-plant would cost kPlants * (4 shards + collector +
  // watchdog) = 96 threads. The pool costs workers + service + timer.
  const size_t with_fleet = CountOsThreads();
  EXPECT_LE(with_fleet, baseline + 4 + 1 + 1)
      << "fleet spawned per-plant threads";
  ASSERT_TRUE(fleet.Stop().ok());
}
#endif

TEST(FleetManager, CheckpointPhasesAreHashStaggeredAndRestartStable) {
  FleetManagerOptions options = SmallFleet();
  options.checkpoint_dir = ::testing::TempDir();
  options.checkpoint_interval = milliseconds(1000);
  options.checkpoint_stagger_slots = 8;
  FleetManager a(options);
  FleetManager b(options);  // "restarted process"
  std::vector<milliseconds> phases;
  for (int i = 0; i < 12; ++i) {
    const std::string id = "plant-" + std::to_string(i);
    const milliseconds phase = a.CheckpointPhaseOf(id);
    EXPECT_EQ(phase, b.CheckpointPhaseOf(id)) << id;
    EXPECT_GT(phase.count(), 0) << id;
    EXPECT_LE(phase.count(), 1000) << id;
    phases.push_back(phase);
  }
  // The whole point of staggering: the plants do NOT share one phase.
  size_t distinct = 0;
  std::vector<bool> seen(9, false);
  for (const milliseconds phase : phases) {
    const size_t slot = static_cast<size_t>(phase.count() * 8 / 1000);
    if (slot < seen.size() && !seen[slot]) {
      seen[slot] = true;
      ++distinct;
    }
  }
  EXPECT_GE(distinct, 3u);
}

TEST(FleetManager, PeriodicStaggeredCheckpointsLandOnDisk) {
  FleetManagerOptions options = SmallFleet();
  options.checkpoint_dir = ::testing::TempDir();
  options.checkpoint_interval = milliseconds(40);
  options.checkpoint_stagger_slots = 4;
  FleetManager fleet(options);
  ASSERT_TRUE(fleet.AddPlant("ckpt-a", MakeSensors(1)).ok());
  ASSERT_TRUE(fleet.AddPlant("ckpt-b", MakeSensors(1)).ok());
  for (int t = 0; t < 64; ++t) {
    ASSERT_TRUE(fleet
                    .Ingest("ckpt-a", {"s0", ProductionLevel::kPhase,
                                       static_cast<double>(t), 55.0})
                    .ok());
    ASSERT_TRUE(fleet
                    .Ingest("ckpt-b", {"s0", ProductionLevel::kPhase,
                                       static_cast<double>(t), 55.0})
                    .ok());
  }
  // Several intervals' worth of wall time for the executor timer.
  std::this_thread::sleep_for(milliseconds(400));
  ASSERT_TRUE(fleet.Stop().ok());
  const FleetStatsSnapshot stats = fleet.Stats();
  EXPECT_GE(stats.aggregate.checkpoints_written, 2u);
  for (const char* id : {"ckpt-a", "ckpt-b"}) {
    std::ifstream is(fleet.CheckpointPathFor(id), std::ios::binary);
    EXPECT_TRUE(is.good()) << fleet.CheckpointPathFor(id);
  }
}

TEST(FleetManager, KillAndRestoreOnePlantWithoutPausingSiblings) {
  FleetManagerOptions options = SmallFleet();
  options.checkpoint_dir = ::testing::TempDir();
  options.checkpoint_interval = milliseconds(0);  // manual checkpoints only
  FleetManager fleet(options);
  ASSERT_TRUE(fleet.AddPlant("victim", MakeSensors(1)).ok());
  ASSERT_TRUE(fleet.AddPlant("sibling", MakeSensors(1)).ok());

  constexpr size_t kBefore = 200;
  for (size_t t = 0; t < kBefore; ++t) {
    ASSERT_TRUE(fleet
                    .Ingest("victim", {"s0", ProductionLevel::kPhase,
                                       static_cast<double>(t), 55.0})
                    .ok());
  }
  ASSERT_TRUE(fleet.CheckpointPlant("victim").ok());

  // The sibling ingests continuously through the victim's whole
  // kill-and-restore cycle; every sample must be accepted.
  std::atomic<bool> stop_producer{false};
  std::atomic<uint64_t> sibling_pushed{0};
  std::thread producer([&] {
    double ts = 0.0;
    while (!stop_producer.load(std::memory_order_acquire)) {
      if (fleet.Ingest("sibling",
                       {"s0", ProductionLevel::kPhase, ts, 55.0})
              .ok()) {
        sibling_pushed.fetch_add(1, std::memory_order_relaxed);
      }
      ts += 1.0;
    }
  });

  // Kill only once the sibling is demonstrably ingesting, so the cycle
  // overlaps its traffic however the producer thread gets scheduled.
  while (sibling_pushed.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(fleet.RemovePlant("victim").ok());  // "kill"
  ASSERT_TRUE(fleet.RestorePlant("victim").ok());
  EXPECT_EQ(fleet.RestorePlant("victim").code(),
            StatusCode::kInvalidArgument);  // already routed again

  // The restored engine resumes from the checkpointed counters and keeps
  // ingesting.
  constexpr size_t kAfter = 50;
  for (size_t t = 0; t < kAfter; ++t) {
    ASSERT_TRUE(fleet
                    .Ingest("victim", {"s0", ProductionLevel::kPhase,
                                       static_cast<double>(kBefore + t), 55.0})
                    .ok());
  }
  stop_producer.store(true, std::memory_order_release);
  producer.join();
  ASSERT_TRUE(fleet.Flush().ok());

  const FleetStatsSnapshot stats = fleet.Stats();
  ASSERT_EQ(stats.per_plant.size(), 2u);
  const PlantStats& sibling = stats.per_plant[0];
  const PlantStats& victim = stats.per_plant[1];
  ASSERT_EQ(sibling.plant_id, "sibling");
  ASSERT_EQ(victim.plant_id, "victim");
  EXPECT_EQ(victim.stats.ingested, kBefore + kAfter);
  EXPECT_GE(sibling_pushed.load(), 1u);
  EXPECT_EQ(sibling.stats.ingested, sibling_pushed.load());
  // The drained victim's first life is in the retired fold.
  EXPECT_EQ(stats.removed_plants, 1u);
  EXPECT_EQ(stats.retired.ingested, kBefore);
  ASSERT_TRUE(fleet.Stop().ok());
}

}  // namespace
}  // namespace hod::fleet
