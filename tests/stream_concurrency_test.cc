// Multi-threaded smoke tests for hod::stream — these are the tests the CI
// ThreadSanitizer job runs. Assertions avoid timing-dependent quantities:
// per-sensor results are deterministic because each sensor's samples are
// produced by one thread and scored by one worker, in order.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor.h"
#include "stream/engine.h"
#include "stream/health.h"
#include "stream/sharded_scorer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hod::stream {
namespace {

using hierarchy::ProductionLevel;

/// Per-sensor deterministic stream: stationary noise plus one fault burst
/// at a sensor-dependent position.
std::vector<double> SensorStream(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  double noise = 0.0;
  const size_t fault_at = 300 + static_cast<size_t>(seed % 7) * 50;
  for (size_t t = 0; t < n; ++t) {
    noise = 0.7 * noise + rng.Gaussian(0.0, 0.25);
    double value = 50.0 + noise;
    if (t >= fault_at && t < fault_at + 12) value += 6.0;
    values.push_back(value);
  }
  return values;
}

std::string SensorId(size_t i) { return "sensor_" + std::to_string(i); }

TEST(StreamConcurrency, MultiProducerParityWithSerialReference) {
  constexpr size_t kSensors = 8;
  constexpr size_t kProducers = 4;
  constexpr size_t kSamplesPerSensor = 1200;

  StreamEngineOptions options;
  options.num_shards = 4;
  options.queue_capacity = 256;
  options.max_batch = 32;
  options.monitor.warmup = 64;
  StreamEngine engine(options);
  for (size_t i = 0; i < kSensors; ++i) {
    ASSERT_TRUE(engine.AddSensor(SensorId(i), ProductionLevel::kPhase).ok());
  }
  ASSERT_TRUE(engine.Start().ok());

  // Each producer owns a disjoint set of sensors, so per-sensor sample
  // order is well-defined.
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (size_t i = p; i < kSensors; i += kProducers) {
        const std::vector<double> values = SensorStream(i + 1, kSamplesPerSensor);
        for (size_t t = 0; t < values.size(); ++t) {
          auto ack = engine.Ingest({SensorId(i), ProductionLevel::kPhase,
                                    static_cast<double>(t), values[t]});
          ASSERT_TRUE(ack.ok()) << ack.status().ToString();
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.Stop().ok());

  StreamStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.ingested, kSensors * kSamplesPerSensor);
  EXPECT_EQ(stats.scored, kSensors * kSamplesPerSensor)
      << "Stop() must drain every queue";
  EXPECT_EQ(stats.dropped, 0u) << "kBlock loses nothing";
  EXPECT_EQ(stats.rejected_total(), 0u);

  // Every sensor's monitor must agree exactly with a serial reference run:
  // the sharded engine may not reorder any sensor's samples.
  uint64_t total_alarms = 0;
  for (size_t i = 0; i < kSensors; ++i) {
    core::OnlineMonitor reference(options.monitor);
    for (double value : SensorStream(i + 1, kSamplesPerSensor)) {
      ASSERT_TRUE(reference.Push(value).ok());
    }
    auto probe = engine.Probe(SensorId(i));
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_EQ(probe->samples_seen, kSamplesPerSensor) << SensorId(i);
    EXPECT_EQ(probe->alarms_raised, reference.alarms_raised()) << SensorId(i);
    EXPECT_EQ(probe->alarm, reference.alarm()) << SensorId(i);
    total_alarms += probe->alarms_raised;
  }
  EXPECT_GE(total_alarms, kSensors) << "every fault burst must alarm";
  EXPECT_EQ(stats.alarms_raised, total_alarms);

  // The collector saw the alarms too.
  EngineSnapshot snapshot = engine.Snapshot();
  EXPECT_GT(snapshot.sequence, 0u);
  const LevelOutlierState& phase =
      snapshot.levels[hierarchy::LevelValue(ProductionLevel::kPhase) - 1];
  EXPECT_EQ(phase.alarms_raised, total_alarms);
  EXPECT_FALSE(engine.Episodes().empty());
}

TEST(StreamConcurrency, FlushMakesCountersExactMidStream) {
  StreamEngineOptions options;
  options.num_shards = 2;
  options.queue_capacity = 64;
  options.monitor.warmup = 32;
  // Constant-value feeds would trip the flatline quarantine; this test is
  // about drain accounting only.
  options.health.enabled = false;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor("a").ok());
  ASSERT_TRUE(engine.AddSensor("b").ok());
  ASSERT_TRUE(engine.Start().ok());
  for (size_t t = 0; t < 500; ++t) {
    ASSERT_TRUE(engine
                    .Ingest({"a", ProductionLevel::kPhase,
                             static_cast<double>(t), 50.0})
                    .ok());
    ASSERT_TRUE(engine
                    .Ingest({"b", ProductionLevel::kPhase,
                             static_cast<double>(t), 60.0})
                    .ok());
  }
  ASSERT_TRUE(engine.Flush().ok());
  StreamStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.ingested, 1000u);
  EXPECT_EQ(stats.scored, 1000u) << "Flush waits for full drain";
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(StreamConcurrency, DropOldestShedsLoadButTerminates) {
  StreamEngineOptions options;
  options.num_shards = 2;
  options.queue_capacity = 4;  // deliberately starved
  options.max_batch = 2;
  options.backpressure = BackpressurePolicy::kDropOldest;
  options.monitor.warmup = 16;
  // This test is about eviction accounting, not sensor health: the
  // constant-value feed would flatline-quarantine the sensors once the
  // worker outpaces ~48 samples (timing-dependent — it reliably happens
  // under TSan's slowdown), and quarantined samples are deliberately
  // neither scored nor dropped.
  options.health.enabled = false;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor("a").ok());
  ASSERT_TRUE(engine.AddSensor("b").ok());
  ASSERT_TRUE(engine.Start().ok());
  constexpr size_t kTotal = 4000;
  for (size_t t = 0; t < kTotal; ++t) {
    const std::string& id = (t % 2 == 0) ? "a" : "b";
    ASSERT_TRUE(engine
                    .Ingest({id, ProductionLevel::kPhase,
                             static_cast<double>(t), 50.0})
                    .ok());
  }
  ASSERT_TRUE(engine.Stop().ok());
  StreamStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.ingested, kTotal);
  // Conservation: every accepted sample was either scored or evicted.
  EXPECT_EQ(stats.scored + stats.dropped, kTotal);
  EXPECT_EQ(stats.rejected_total(), 0u);
}

TEST(StreamConcurrency, RejectPolicyConservesSamples) {
  StreamEngineOptions options;
  options.num_shards = 1;
  options.queue_capacity = 8;
  options.backpressure = BackpressurePolicy::kReject;
  options.monitor.warmup = 16;
  // Same as above: isolate the backpressure policy from the flatline
  // quarantine a constant feed would otherwise (timing-dependently) earn.
  options.health.enabled = false;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor("a").ok());
  ASSERT_TRUE(engine.Start().ok());
  size_t accepted = 0;
  for (size_t t = 0; t < 2000; ++t) {
    auto ack = engine.Ingest(
        {"a", ProductionLevel::kPhase, static_cast<double>(t), 50.0});
    if (ack.ok()) {
      ++accepted;
    } else {
      ASSERT_EQ(ack.status().code(), StatusCode::kOutOfRange);
    }
  }
  ASSERT_TRUE(engine.Stop().ok());
  StreamStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.ingested, 2000u) << "reject happens after validation";
  EXPECT_EQ(stats.scored, accepted);
  EXPECT_EQ(stats.rejected_queue_full, 2000u - accepted);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GT(stats.scored, 0u);
}

TEST(StreamConcurrency, StopWithoutFlushDrainsEverything) {
  StreamEngineOptions options;
  options.num_shards = 4;
  options.queue_capacity = 1024;
  options.monitor.warmup = 32;
  // Constant-value feeds would trip the flatline quarantine; this test is
  // about drain-on-stop accounting only.
  options.health.enabled = false;
  StreamEngine engine(options);
  for (size_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.AddSensor(SensorId(i)).ok());
  }
  ASSERT_TRUE(engine.Start().ok());
  for (size_t t = 0; t < 300; ++t) {
    for (size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(engine
                      .Ingest({SensorId(i), ProductionLevel::kPhase,
                               static_cast<double>(t), 50.0})
                      .ok());
    }
  }
  // No Flush: Stop alone must not lose queued samples.
  ASSERT_TRUE(engine.Stop().ok());
  StreamStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.ingested, 1800u);
  EXPECT_EQ(stats.scored, 1800u);
}

TEST(StreamConcurrency, SpscEnginePartityWithSerialReference) {
  // producer_hint = kSinglePerShard with producers partitioned by the
  // router's own shard hash: each shard's queue genuinely has exactly one
  // producer, so the SPSC ring is legal — and per-sensor results must
  // still match a serial reference exactly.
  constexpr size_t kSensors = 8;
  constexpr size_t kSamplesPerSensor = 1200;

  StreamEngineOptions options;
  options.num_shards = 4;
  options.queue_capacity = 256;
  options.max_batch = 32;
  options.monitor.warmup = 64;
  options.producer_hint = ProducerHint::kSinglePerShard;
  StreamEngine engine(options);
  for (size_t i = 0; i < kSensors; ++i) {
    ASSERT_TRUE(engine.AddSensor(SensorId(i), ProductionLevel::kPhase).ok());
  }
  ASSERT_TRUE(engine.Start().ok());

  // One producer thread per shard, owning exactly the sensors the router
  // hashes there.
  std::vector<std::thread> producers;
  for (size_t shard = 0; shard < options.num_shards; ++shard) {
    producers.emplace_back([&engine, &options, shard] {
      for (size_t i = 0; i < kSensors; ++i) {
        if (StableHash64(SensorId(i)) % options.num_shards != shard) continue;
        const std::vector<double> values =
            SensorStream(i + 1, kSamplesPerSensor);
        for (size_t t = 0; t < values.size(); ++t) {
          auto ack = engine.Ingest({SensorId(i), ProductionLevel::kPhase,
                                    static_cast<double>(t), values[t]});
          ASSERT_TRUE(ack.ok()) << ack.status().ToString();
        }
      }
    });
  }
  for (auto& producer : producers) producer.join();
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.Stop().ok());

  StreamStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.ingested, kSensors * kSamplesPerSensor);
  EXPECT_EQ(stats.scored, kSensors * kSamplesPerSensor);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.rejected_total(), 0u);
  EXPECT_EQ(stats.forward_failed, 0u);

  for (size_t i = 0; i < kSensors; ++i) {
    core::OnlineMonitor reference(options.monitor);
    for (double value : SensorStream(i + 1, kSamplesPerSensor)) {
      ASSERT_TRUE(reference.Push(value).ok());
    }
    auto probe = engine.Probe(SensorId(i));
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    EXPECT_EQ(probe->samples_seen, kSamplesPerSensor) << SensorId(i);
    EXPECT_EQ(probe->alarms_raised, reference.alarms_raised()) << SensorId(i);
    EXPECT_EQ(probe->alarm, reference.alarm()) << SensorId(i);
  }
}

// Direct-scorer fixture for the bugfix regressions: its own stats block,
// collector queue and pool, no engine around it, so the collector can be
// closed mid-stream deterministically. The pool is declared first so it
// outlives the scorer's drain tasks.
struct ScorerHarness {
  explicit ScorerHarness(ShardedScorerOptions options)
      : collector(1 << 16, BackpressurePolicy::kBlock),
        scorer(options, &stats, &collector, nullptr) {}
  util::ThreadPool pool{util::ThreadPoolOptions{2, 1}};
  StreamStats stats;
  BoundedQueue<ScoredSample> collector;
  ShardedScorer scorer;
};

ShardedScorerOptions TinyScorerOptions(ProducerHint hint) {
  ShardedScorerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 32;
  options.max_batch = 8;
  // Enough warmup rows for the AR(4) fit: an underdetermined fit makes
  // the warmup-completing Push fail, which is monitor behavior, not what
  // these tests are about.
  options.monitor.warmup = 32;
  // Forward every scored sample, so collector failures are exercised hard.
  options.forward_threshold = -1.0;
  options.producer_hint = hint;
  return options;
}

TEST(StreamConcurrency, ClosedCollectorCountsForwardFailuresNotForwards) {
  // Regression (sharded_scorer.cc bugfix): forwarded_ used to increment
  // even when collector_->Push failed, so forwarded() overstated what the
  // collector would ever see and the engine's Flush could wait forever.
  for (ProducerHint hint :
       {ProducerHint::kUnknown, ProducerHint::kSinglePerShard}) {
    ScorerHarness h(TinyScorerOptions(hint));
    ASSERT_TRUE(h.scorer.AddSensor(0, "a").ok());
    ASSERT_TRUE(h.scorer.Start(h.pool).ok());
    constexpr size_t kBefore = 400, kAfter = 400;
    for (size_t t = 0; t < kBefore; ++t) {
      ASSERT_TRUE(h.scorer
                      .Submit(0,
                              {"a", ProductionLevel::kPhase,
                               static_cast<double>(t), 50.0},
                              BackpressurePolicy::kBlock)
                      .ok());
    }
    ASSERT_TRUE(h.scorer.Flush().ok());
    const uint64_t forwarded_before = h.scorer.forwarded();
    EXPECT_EQ(h.scorer.forward_failed(), 0u);

    // Close the collector mid-stream; every further forward must fail.
    h.collector.Close();
    for (size_t t = kBefore; t < kBefore + kAfter; ++t) {
      ASSERT_TRUE(h.scorer
                      .Submit(0,
                              {"a", ProductionLevel::kPhase,
                               static_cast<double>(t), 50.0},
                              BackpressurePolicy::kBlock)
                      .ok());
    }
    ASSERT_TRUE(h.scorer.Flush().ok());  // must not hang
    h.scorer.Stop();

    StreamStatsSnapshot stats = h.stats.Snapshot();
    EXPECT_EQ(stats.scored, kBefore + kAfter) << "scoring is unaffected";
    EXPECT_EQ(h.scorer.forwarded(), forwarded_before)
        << "failed pushes must not count as forwarded";
    EXPECT_EQ(h.scorer.forward_failed(), kAfter)
        << "warmup is over, every post-close sample forwards and fails";
    EXPECT_EQ(stats.forward_failed, h.scorer.forward_failed());
    // Conservation: the collector received exactly forwarded() events.
    std::vector<ScoredSample> received;
    while (h.collector.TryPopBatch(received, 1024) > 0) {
    }
    EXPECT_EQ(received.size(), h.scorer.forwarded());
  }
}

TEST(StreamConcurrency, StartScoreStopInterleavingIsRaceFree) {
  // Regression (sharded_scorer.h bugfix): running_/stopped_ were plain
  // bools written by Stop() while Submit callers read them — a data race
  // TSan flags. Now atomics: hammer Submit from two threads while another
  // stops the scorer mid-stream; every sample must still be accounted.
  for (ProducerHint hint :
       {ProducerHint::kUnknown, ProducerHint::kSinglePerShard}) {
    ShardedScorerOptions options = TinyScorerOptions(hint);
    options.num_shards = 2;
    ScorerHarness h(options);
    ASSERT_TRUE(h.scorer.AddSensor(0, "a").ok());
    ASSERT_TRUE(h.scorer.AddSensor(1, "b").ok());
    ASSERT_TRUE(h.scorer.Start(h.pool).ok());
    EXPECT_TRUE(h.scorer.running());

    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> rejected_closed{0};
    auto submitter = [&](size_t shard, const char* id) {
      for (size_t t = 0; t < 20000; ++t) {
        Status status = h.scorer.Submit(
            shard,
            {id, ProductionLevel::kPhase, static_cast<double>(t), 50.0},
            BackpressurePolicy::kBlock);
        if (status.ok()) {
          accepted.fetch_add(1);
        } else {
          ASSERT_EQ(status.code(), StatusCode::kFailedPrecondition);
          rejected_closed.fetch_add(1);
          break;  // queue closed under us: the scorer is stopping
        }
        if (!h.scorer.running()) break;  // racy read — the point of the test
      }
    };
    std::thread p1(submitter, 0, "a");
    std::thread p2(submitter, 1, "b");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    h.scorer.Stop();
    p1.join();
    p2.join();
    EXPECT_FALSE(h.scorer.running());

    // Conservation across the shutdown race: every accepted sample was
    // scored (kBlock drops nothing), every refused one was counted.
    StreamStatsSnapshot stats = h.stats.Snapshot();
    EXPECT_EQ(stats.scored, accepted.load());
    EXPECT_EQ(stats.rejected_closed, rejected_closed.load());
  }
}

TEST(StreamConcurrency, SubmitOnClosedQueueIsRecordedAsRejected) {
  // Regression (sharded_scorer.cc bugfix): Submit on a closed queue used
  // to silently vanish — submitted was decremented but nothing recorded,
  // so `ingested == scored + dropped + rejected + quarantined` broke on
  // every shutdown race.
  ScorerHarness h(TinyScorerOptions(ProducerHint::kUnknown));
  ASSERT_TRUE(h.scorer.AddSensor(0, "a").ok());
  ASSERT_TRUE(h.scorer.Start(h.pool).ok());
  h.scorer.Stop();
  Status status = h.scorer.Submit(
      0, {"a", ProductionLevel::kPhase, 0.0, 50.0},
      BackpressurePolicy::kBlock);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  StreamStatsSnapshot stats = h.stats.Snapshot();
  EXPECT_EQ(stats.rejected_closed, 1u);
  EXPECT_EQ(stats.rejected_total(), 1u);
  const size_t phase_index =
      StreamStats::LevelIndex(ProductionLevel::kPhase);
  EXPECT_EQ(stats.level_rejected[phase_index], 1u);
}

TEST(StreamConcurrency, FlushConvergesUnderEvictionStorm) {
  // Flush's predicate is processed + dropped == submitted per shard;
  // kDropOldest evictions move the `dropped` term concurrently with the
  // drain loop. Flush must still return, for both queue kinds.
  for (ProducerHint hint :
       {ProducerHint::kUnknown, ProducerHint::kSinglePerShard}) {
    ShardedScorerOptions options = TinyScorerOptions(hint);
    options.num_shards = 1;
    options.queue_capacity = 8;  // deliberately starved: constant eviction
    options.max_batch = 4;
    ScorerHarness h(options);
    ASSERT_TRUE(h.scorer.AddSensor(0, "a").ok());
    ASSERT_TRUE(h.scorer.Start(h.pool).ok());

    std::atomic<bool> done{false};
    std::thread producer([&] {
      for (size_t t = 0; t < 30000; ++t) {
        ASSERT_TRUE(h.scorer
                        .Submit(0,
                                {"a", ProductionLevel::kPhase,
                                 static_cast<double>(t), 50.0},
                                BackpressurePolicy::kDropOldest)
                        .ok());
      }
      done.store(true);
    });
    // Flush repeatedly while evictions race the drain loop. Each call must
    // return (the wait predicate converges between pushes), not deadlock.
    while (!done.load()) {
      ASSERT_TRUE(h.scorer.Flush().ok());
    }
    producer.join();
    ASSERT_TRUE(h.scorer.Flush().ok());
    h.scorer.Stop();

    StreamStatsSnapshot stats = h.stats.Snapshot();
    h.scorer.FillQueueStats(stats);
    EXPECT_EQ(stats.scored + stats.dropped, 30000u)
        << "hint=" << ProducerHintName(hint);
  }
}

// Forwarding liveness: a collector queue of two slots against 64-sample
// micro-batches makes every shard's batch push block many times over. The
// pooled collector runs only when notified, so a shard that parks on the
// full queue without notifying first would wait forever; an engine on its
// owned pool and one on a borrowed pool must both reach Flush and Stop
// with the conservation identities intact.
TEST(StreamConcurrency, TinyCollectorQueueStaysLiveOnOwnedAndBorrowedPools) {
  constexpr size_t kSensors = 6;
  constexpr size_t kSamplesPerSensor = 1500;
  for (bool borrowed : {false, true}) {
    // borrowed=false: the engine builds its own pool.
    util::ThreadPool pool(util::ThreadPoolOptions{2, 1});
    StreamEngineOptions options;
    options.num_shards = 2;
    options.queue_capacity = 256;
    options.max_batch = 64;
    options.collector_queue_capacity = 2;
    options.monitor.warmup = 64;
    // Every scored sample is forwarded: collector traffic equals scoring.
    options.monitor.threshold = -1.0;
    options.health.staleness_timeout = 0.0;
    if (borrowed) options.executor = &pool;
    StreamEngine engine(options);
    for (size_t i = 0; i < kSensors; ++i) {
      ASSERT_TRUE(engine.AddSensor(SensorId(i), ProductionLevel::kPhase).ok());
    }
    ASSERT_TRUE(engine.Start().ok());
    std::vector<std::vector<double>> streams;
    for (size_t i = 0; i < kSensors; ++i) {
      streams.push_back(SensorStream(i + 1, kSamplesPerSensor));
    }
    for (size_t t = 0; t < kSamplesPerSensor; ++t) {
      for (size_t i = 0; i < kSensors; ++i) {
        ASSERT_TRUE(engine
                        .Ingest({SensorId(i), ProductionLevel::kPhase,
                                 static_cast<double>(t), streams[i][t]})
                        .ok());
      }
      if (t == kSamplesPerSensor / 2) {
        ASSERT_TRUE(engine.Flush().ok());
      }
    }
    ASSERT_TRUE(engine.Flush().ok());
    const uint64_t seen_at_flush = engine.Snapshot().events_seen;
    ASSERT_TRUE(engine.Stop().ok());

    const StreamStatsSnapshot stats = engine.stats();
    EXPECT_EQ(stats.ingested, kSensors * kSamplesPerSensor)
        << "borrowed=" << borrowed;
    EXPECT_EQ(stats.ingested, stats.scored + stats.dropped +
                                  stats.rejected_total() +
                                  stats.quarantined_samples)
        << "borrowed=" << borrowed;
    EXPECT_EQ(stats.forward_failed, 0u) << "borrowed=" << borrowed;
    // collected == forwarded + health events: one event per scored sample.
    EXPECT_EQ(seen_at_flush, stats.scored) << "borrowed=" << borrowed;
    EXPECT_EQ(engine.Snapshot().events_seen, stats.scored)
        << "borrowed=" << borrowed;
  }
}

// Per-sensor event order at the collector, with batched forwarding under
// a two-slot collector queue: every sensor's events arrive in sample
// order, as a synchronous engine emits them — a quarantine follows the
// scores of the sensor's earlier samples in its micro-batch and precedes
// every later one, and a concept-shift event directly follows the score
// event of the sample that confirmed it.
TEST(StreamConcurrency, CollectorSeesPerSensorEventOrder) {
  ShardedScorerOptions options;
  options.num_shards = 2;
  options.queue_capacity = 128;
  options.max_batch = 64;
  options.monitor.warmup = 64;
  options.forward_threshold = -1.0;  // every admitted score is forwarded
  options.shift_enabled = true;
  StreamStats stats;
  BoundedQueue<ScoredSample> collector(2, BackpressurePolicy::kBlock);
  SensorHealthOptions health_options;
  health_options.staleness_timeout = 0.0;
  SensorHealthTracker health(health_options, &stats);
  util::ThreadPool pool(util::ThreadPoolOptions{2, 1});
  ShardedScorer scorer(options, &stats, &collector, &health);
  const std::vector<std::string> ids = {"shift_a", "stuck_b", "shift_c",
                                        "stuck_d"};
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(health.AddSensor(ids[i], ProductionLevel::kPhase).ok());
    ASSERT_TRUE(scorer.AddSensor(i % 2, ids[i]).ok());
  }
  std::vector<ScoredSample> received;
  std::thread consumer([&] {
    std::vector<ScoredSample> batch;
    while (collector.PopBatch(batch, 3)) {
      for (ScoredSample& event : batch) received.push_back(std::move(event));
      batch.clear();
    }
  });
  ASSERT_TRUE(scorer.Start(pool).ok());
  constexpr size_t kSamples = 900;
  Rng rng(99);
  for (size_t t = 0; t < kSamples; ++t) {
    for (size_t i = 0; i < ids.size(); ++i) {
      double value = 55.0 + rng.Gaussian(0.0, 0.25);
      const bool shifter = i % 2 == 0;
      if (shifter && t >= 400) value += 6.0;  // setpoint change
      if (!shifter && t >= 300 && t < 500) value = 55.0;  // stuck channel
      ASSERT_TRUE(scorer
                      .Submit(i % 2,
                              {ids[i], ProductionLevel::kPhase,
                               static_cast<double>(t), value},
                              BackpressurePolicy::kBlock)
                      .ok());
    }
  }
  ASSERT_TRUE(scorer.Flush().ok());
  scorer.Stop();
  collector.Close();
  consumer.join();
  EXPECT_EQ(scorer.forwarded(), received.size());

  size_t shifts = 0;
  size_t faults = 0;
  for (const std::string& id : ids) {
    std::vector<const ScoredSample*> events;
    for (const ScoredSample& event : received) {
      if (event.sensor_id == id) events.push_back(&event);
    }
    ASSERT_FALSE(events.empty()) << id;
    for (size_t k = 0; k < events.size(); ++k) {
      const ScoredSample& event = *events[k];
      if (event.kind == StreamEventKind::kConceptShift) {
        ++shifts;
        ASSERT_GT(k, 0u) << id;
        EXPECT_EQ(events[k - 1]->kind, StreamEventKind::kScore) << id;
        EXPECT_EQ(events[k - 1]->ts, event.ts)
            << id << ": shift must follow its confirming score";
      }
      if (event.kind == StreamEventKind::kSensorFault) {
        ++faults;
        // No later sample's score may precede the quarantine.
        for (size_t j = 0; j < k; ++j) {
          if (events[j]->kind != StreamEventKind::kScore) continue;
          EXPECT_LT(events[j]->ts, event.ts)
              << id << ": a later score preceded the quarantine";
        }
      }
    }
    // Every event keeps sample order: a health event is forwarded at its
    // sample's position in the micro-batch, after the scores of the
    // sensor's earlier samples, never ahead of them.
    for (size_t k = 1; k < events.size(); ++k) {
      EXPECT_LE(events[k - 1]->ts, events[k]->ts)
          << id << ": event for ts " << events[k]->ts << " arrived after ts "
          << events[k - 1]->ts;
    }
    // Score events keep sample order.
    double last_score_ts = -1.0;
    for (const ScoredSample* event : events) {
      if (event->kind != StreamEventKind::kScore) continue;
      ASSERT_LT(last_score_ts, event->ts) << id;
      last_score_ts = event->ts;
    }
  }
  EXPECT_GE(shifts, 2u) << "both setpoint changes must confirm a shift";
  EXPECT_GE(faults, 2u) << "both stuck channels must be quarantined";
}

}  // namespace
}  // namespace hod::stream
