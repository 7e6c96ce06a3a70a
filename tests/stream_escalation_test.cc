// EscalationBridge behaviour: snapshot diffing, one-shot escalation per
// alarm, stats accounting, alert-board integration, and thread-safety of
// the bridge loop against producers, the collector, and the checkpoint
// timer.

#include "stream/escalation.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hierarchical_detector.h"
#include "sim/plant.h"
#include "stream/engine.h"
#include "util/rng.h"

namespace hod::stream {
namespace {

using hierarchy::ProductionLevel;

class StreamEscalationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim::PlantOptions options;
    options.num_lines = 1;
    options.machines_per_line = 2;
    options.jobs_per_machine = 6;
    options.seed = 41;
    sim::ScenarioOptions scenario;
    scenario.process_anomaly_rate = 0.3;
    scenario.glitch_rate = 0.2;
    plant_ = sim::BuildPlant(options, scenario).value();
  }

  StreamEngineOptions SyncOptions() const {
    StreamEngineOptions options;
    options.synchronous = true;
    options.monitor.warmup = 32;
    options.snapshot_every = 8;
    options.health.staleness_timeout = 0.0;
    return options;
  }

  /// Feeds baseline noise then a spike, timestamped inside the machine's
  /// first job so the escalated alarm resolves to a real production scope.
  void FeedAlarm(StreamEngine& engine, const std::string& sensor_id,
                 double t0) {
    Rng rng(7);
    double noise = 0.0;
    for (size_t i = 0; i < 120; ++i) {
      noise = 0.7 * noise + rng.Gaussian(0.0, 0.25);
      double value = 50.0 + noise;
      if (i >= 100) value += 8.0;  // sustained spike -> alarm
      auto ack = engine.Ingest(
          {sensor_id, ProductionLevel::kPhase, t0 + i, value});
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    }
  }

  sim::SimulatedPlant plant_;
};

TEST_F(StreamEscalationTest, PollEscalatesEachNewAlarmExactlyOnce) {
  const auto& machine = plant_.production.lines[0].machines[0];
  const std::string sensor = machine.id + ".bed_temp_a";
  const double t0 = machine.jobs.front().start_time;

  StreamEngine engine(SyncOptions());
  ASSERT_TRUE(engine.AddSensor(sensor, ProductionLevel::kPhase).ok());
  // A sensor the detector's production does not know: escalation must
  // count it as unresolved, not fail the run.
  ASSERT_TRUE(engine.AddSensor("ghost.x", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  FeedAlarm(engine, sensor, t0);
  FeedAlarm(engine, "ghost.x", t0);
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_EQ(engine.Snapshot().active_alarms.size(), 2u);

  core::HierarchicalDetector detector(&plant_.production);
  EscalationBridge bridge(&engine, &detector);
  auto escalated = bridge.Poll();
  ASSERT_TRUE(escalated.ok()) << escalated.status().ToString();
  EXPECT_EQ(escalated.value(), 2u);

  const StreamStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.escalation_runs, 1u);
  EXPECT_EQ(stats.escalation_entities, 2u);
  EXPECT_EQ(stats.escalation_unresolved, 1u);
  EXPECT_GT(stats.escalation_cache_misses, 0u);

  // Same snapshot: nothing to do.
  EXPECT_EQ(bridge.Poll().value(), 0u);
  // A fresh snapshot with the SAME alarms must not re-escalate them.
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_EQ(bridge.Poll().value(), 0u);
  EXPECT_EQ(engine.stats().escalation_runs, 1u);
}

TEST_F(StreamEscalationTest, EscalatedTripleLandsOnTheAlertBoard) {
  auto& machine = plant_.production.lines[0].machines[0];
  const std::string sensor = machine.id + ".bed_temp_a";
  const double t0 = machine.jobs.front().start_time;

  // Plant a real anomaly in the production data (whole redundancy group,
  // so the triple carries support) — the stream alarm below is what
  // triggers escalation, but the detector scores the plant's own series.
  for (auto& phase : machine.jobs.front().phases) {
    for (auto& [series_sensor, series] : phase.sensor_series) {
      if (series.empty()) continue;
      series[series.size() / 2] += 1000.0;
    }
  }

  StreamEngine engine(SyncOptions());
  ASSERT_TRUE(engine.AddSensor(sensor, ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  FeedAlarm(engine, sensor, t0);
  ASSERT_TRUE(engine.Flush().ok());

  core::HierarchicalDetector detector(&plant_.production);
  EscalationBridge bridge(&engine, &detector);
  ASSERT_TRUE(bridge.Poll().ok());
  const StreamStatsSnapshot stats = engine.stats();
  ASSERT_GT(stats.escalation_findings, 0u);

  // The hierarchical findings merge into the sensor's episode and carry
  // the Algorithm-1 triple (support is unreachable for raw stream
  // findings, which always report support 0).
  bool found_escalated = false;
  for (const auto& episode : engine.Episodes()) {
    if (episode.entity != sensor) continue;
    if (episode.escalated_findings == 0) continue;
    found_escalated = true;
    EXPECT_GE(episode.peak_global_score, 1);
    EXPECT_GT(episode.peak_outlierness, 0.0);
  }
  EXPECT_TRUE(found_escalated);
}

TEST_F(StreamEscalationTest, ReRaisedAlarmEscalatesAgain) {
  const auto& machine = plant_.production.lines[0].machines[0];
  const std::string sensor = machine.id + ".bed_temp_a";
  const double t0 = machine.jobs.front().start_time;

  StreamEngineOptions options = SyncOptions();
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor(sensor, ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  FeedAlarm(engine, sensor, t0);
  ASSERT_TRUE(engine.Flush().ok());

  core::HierarchicalDetector detector(&plant_.production);
  EscalationBridge bridge(&engine, &detector);
  EXPECT_EQ(bridge.Poll().value(), 1u);

  // Let the alarm clear (baseline values), then re-raise it later in the
  // same job: a NEW alarm (different `since`) must escalate again.
  Rng rng(9);
  double noise = 0.0;
  for (size_t i = 0; i < 40; ++i) {
    noise = 0.7 * noise + rng.Gaussian(0.0, 0.25);
    auto ack = engine.Ingest(
        {sensor, ProductionLevel::kPhase, t0 + 120 + i, 50.0 + noise});
    ASSERT_TRUE(ack.ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.Snapshot().active_alarms.empty());
  EXPECT_EQ(bridge.Poll().value(), 0u);  // cleared, pruned

  for (size_t i = 0; i < 10; ++i) {
    auto ack = engine.Ingest(
        {sensor, ProductionLevel::kPhase, t0 + 160 + i, 58.0});
    ASSERT_TRUE(ack.ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_EQ(engine.Snapshot().active_alarms.size(), 1u);
  EXPECT_EQ(bridge.Poll().value(), 1u);
  EXPECT_EQ(engine.stats().escalation_runs, 2u);
}

TEST_F(StreamEscalationTest, PollBeforeAnySnapshotIsANoop) {
  StreamEngine engine(SyncOptions());
  ASSERT_TRUE(engine.AddSensor("a", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  core::HierarchicalDetector detector(&plant_.production);
  EscalationBridge bridge(&engine, &detector);
  EXPECT_EQ(bridge.Poll().value(), 0u);
  EXPECT_EQ(engine.stats().escalation_runs, 0u);
}

TEST_F(StreamEscalationTest, BridgeThreadRunsAgainstLiveEngine) {
  // Thread-safety soak for TSan: two producers, the collector, the
  // watchdog, the background checkpoint timer, and the bridge loop all
  // run concurrently against one engine.
  const auto& machine = plant_.production.lines[0].machines[0];
  const std::string sensor_a = machine.id + ".bed_temp_a";
  const std::string sensor_b = machine.id + ".bed_temp_b";
  const double t0 = machine.jobs.front().start_time;

  StreamEngineOptions options;
  options.num_shards = 2;
  options.monitor.warmup = 32;
  options.snapshot_every = 8;
  options.health.staleness_timeout = 0.0;
  options.watchdog_interval = std::chrono::milliseconds(5);
  options.checkpoint_path =
      ::testing::TempDir() + "/escalation_soak_checkpoint.bin";
  options.checkpoint_interval = std::chrono::milliseconds(5);
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor(sensor_a, ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.AddSensor(sensor_b, ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());

  core::HierarchicalDetector detector(&plant_.production);
  EscalationOptions bridge_options;
  bridge_options.poll_interval = std::chrono::milliseconds(2);
  EscalationBridge bridge(&engine, &detector, bridge_options);
  bridge.Start();

  auto produce = [&](const std::string& sensor_id, uint64_t seed) {
    Rng rng(seed);
    double noise = 0.0;
    for (size_t i = 0; i < 400; ++i) {
      noise = 0.7 * noise + rng.Gaussian(0.0, 0.25);
      double value = 50.0 + noise;
      if (i % 100 >= 80) value += 8.0;  // periodic alarm bursts
      (void)engine.Ingest(
          {sensor_id, ProductionLevel::kPhase, t0 + i, value});
    }
  };
  std::thread producer_a(produce, sensor_a, 11);
  std::thread producer_b(produce, sensor_b, 12);
  producer_a.join();
  producer_b.join();
  ASSERT_TRUE(engine.Flush().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  bridge.Stop();
  ASSERT_TRUE(engine.Stop().ok());
  const StreamStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.ingested, 800u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);
}

TEST_F(StreamEscalationTest, ConceptShiftMarksCoveringScopesDirtyOnce) {
  const auto& machine = plant_.production.lines[0].machines[0];
  const std::string sensor = machine.id + ".bed_temp_a";
  const double t0 = machine.jobs.front().start_time;

  StreamEngineOptions options = SyncOptions();
  options.shift.enabled = true;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor(sensor, ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.AddSensor("ghost.x", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  // A genuine setpoint change on both: +6 units from sample 300 on.
  auto feed_shift = [&](const std::string& id, uint64_t seed) {
    Rng rng(seed);
    for (size_t i = 0; i < 500; ++i) {
      const double base = i >= 300 ? 56.0 : 50.0;
      auto ack = engine.Ingest({id, ProductionLevel::kPhase, t0 + i,
                                base + rng.Gaussian(0.0, 0.25)});
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    }
  };
  feed_shift(sensor, 7);
  feed_shift("ghost.x", 9);
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_EQ(engine.stats().concept_shifts, 2u);

  core::HierarchicalDetector detector(&plant_.production);
  const uint64_t epoch_before = detector.cache_stats().epoch;
  EscalationBridge bridge(&engine, &detector);
  ASSERT_TRUE(bridge.Poll().ok());
  // Both shifts were consumed; only the one the production knows dirtied
  // a scope (ghost.x is NotFound — tolerated, not fatal).
  EXPECT_EQ(bridge.shifts_marked(), 2u);
  EXPECT_EQ(detector.cache_stats().invalidations, 1u);
  EXPECT_GT(detector.cache_stats().epoch, epoch_before)
      << "MarkDirty must bump the epoch so stale models rebuild";

  // Re-published snapshots must not re-dirty the same shift.
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(bridge.Poll().ok());
  EXPECT_EQ(bridge.shifts_marked(), 2u);
  EXPECT_EQ(detector.cache_stats().invalidations, 1u);
  ASSERT_TRUE(engine.Stop().ok());
}

/// Poll's diff step as it was written before the merge walk: a std::set
/// of the snapshot's ids, a lookup per alarm, then a prune pass. The
/// reference the walk must match.
std::vector<ActiveAlarm> ReferenceFresh(
    const std::vector<ActiveAlarm>& active,
    std::map<std::string, ts::TimePoint>& escalated) {
  std::vector<ActiveAlarm> fresh;
  std::set<std::string> active_ids;
  for (const ActiveAlarm& alarm : active) {
    active_ids.insert(alarm.sensor_id);
    auto it = escalated.find(alarm.sensor_id);
    if (it == escalated.end() || it->second != alarm.since) {
      fresh.push_back(alarm);
    }
  }
  for (auto it = escalated.begin(); it != escalated.end();) {
    if (active_ids.count(it->first) == 0) {
      it = escalated.erase(it);
    } else {
      ++it;
    }
  }
  for (const ActiveAlarm& alarm : fresh) {
    escalated[alarm.sensor_id] = alarm.since;
  }
  return fresh;
}

std::vector<std::string> FreshIds(const std::vector<const ActiveAlarm*>& got) {
  std::vector<std::string> ids;
  for (const ActiveAlarm* alarm : got) ids.push_back(alarm->sensor_id);
  return ids;
}

ActiveAlarm Alarm(const std::string& id, ts::TimePoint since) {
  ActiveAlarm alarm;
  alarm.sensor_id = id;
  alarm.since = since;
  return alarm;
}

TEST(TakeFreshAlarms, ReRaiseClearAndPrune) {
  std::map<std::string, ts::TimePoint> escalated;
  EXPECT_EQ(FreshIds(TakeFreshAlarms({Alarm("a", 1.0), Alarm("c", 2.0)},
                                     escalated)),
            (std::vector<std::string>{"a", "c"}));
  // Same sensor, same since: already escalated.
  EXPECT_TRUE(TakeFreshAlarms({Alarm("a", 1.0), Alarm("c", 2.0)}, escalated)
                  .empty());
  // Same sensor re-raised with a new since: fresh again.
  EXPECT_EQ(FreshIds(TakeFreshAlarms({Alarm("a", 5.0), Alarm("c", 2.0)},
                                     escalated)),
            (std::vector<std::string>{"a"}));
  // "a" clears (pruned), "b" appears between the two known ids.
  EXPECT_EQ(FreshIds(TakeFreshAlarms({Alarm("b", 3.0), Alarm("c", 2.0)},
                                     escalated)),
            (std::vector<std::string>{"b"}));
  EXPECT_EQ(escalated, (std::map<std::string, ts::TimePoint>{{"b", 3.0},
                                                             {"c", 2.0}}));
  // Clear then re-raise with the colliding since: fresh, because the
  // clear pruned it.
  EXPECT_EQ(FreshIds(TakeFreshAlarms({Alarm("a", 5.0)}, escalated)),
            (std::vector<std::string>{"a"}));
  EXPECT_EQ(escalated, (std::map<std::string, ts::TimePoint>{{"a", 5.0}}));
  // Everything clears.
  EXPECT_TRUE(TakeFreshAlarms({}, escalated).empty());
  EXPECT_TRUE(escalated.empty());
}

TEST(TakeFreshAlarms, MatchesSetReferenceOnRandomPolls) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::map<std::string, ts::TimePoint> walked;
    std::map<std::string, ts::TimePoint> reference;
    for (int poll = 0; poll < 50; ++poll) {
      // A snapshot's active_alarms come from the engine's map: ordered
      // and unique by sensor id.
      std::map<std::string, ActiveAlarm> raised;
      const uint64_t count = rng.NextBelow(9);
      for (uint64_t i = 0; i < count; ++i) {
        const std::string id = "s" + std::to_string(rng.NextBelow(12));
        raised[id] = Alarm(id, static_cast<double>(rng.NextBelow(3)));
      }
      std::vector<ActiveAlarm> active;
      for (const auto& [id, alarm] : raised) active.push_back(alarm);

      const std::vector<const ActiveAlarm*> got =
          TakeFreshAlarms(active, walked);
      const std::vector<ActiveAlarm> want = ReferenceFresh(active, reference);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i]->sensor_id, want[i].sensor_id);
        EXPECT_EQ(got[i]->since, want[i].since);
      }
      ASSERT_EQ(walked, reference) << "seed " << seed << " poll " << poll;
    }
  }
}

}  // namespace
}  // namespace hod::stream
