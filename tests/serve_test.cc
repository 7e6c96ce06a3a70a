#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "detect/olap_cube.h"
#include "hierarchy/serialization.h"
#include "iostream_codec_oracle.h"
#include "serve/codec.h"
#include "serve/fleet_hub.h"
#include "serve/history.h"
#include "serve/hub.h"
#include "serve/query.h"
#include "stream/engine.h"
#include "util/rng.h"

namespace hod::serve {
namespace {

using stream::EngineSnapshot;

hierarchy::ProductionLevel LevelAt(int index) {
  return hierarchy::LevelFromValue(index + 1).value();
}

/// A random but *internally consistent* snapshot: sorted alarm /
/// quarantine vectors, bounded shift ring — the shapes the engine
/// actually publishes.
EngineSnapshot RandomSnapshot(Rng& rng, uint64_t sequence) {
  EngineSnapshot snap;
  snap.sequence = sequence;
  snap.events_seen = rng.NextBelow(1 << 20);
  snap.ts = rng.Uniform(0.0, 1e6);
  for (auto& level : snap.levels) {
    level.outlier_samples = rng.NextBelow(1000);
    level.alarms_raised = rng.NextBelow(100);
    level.alarms_cleared = rng.NextBelow(100);
    level.active_alarms = rng.NextBelow(10);
    level.sensor_faults = rng.NextBelow(10);
    level.quarantined_sensors = rng.NextBelow(5);
    level.peak_score = rng.NextDouble();
    level.last_outlier_ts = rng.Uniform(0.0, 1e6);
  }
  const size_t alarms = rng.NextBelow(6);
  for (size_t i = 0; i < alarms; ++i) {
    stream::ActiveAlarm alarm;
    alarm.sensor_id = "s" + std::to_string(rng.NextBelow(16));
    alarm.level = LevelAt(static_cast<int>(rng.NextBelow(5)));
    alarm.since = rng.Uniform(0.0, 1e6);
    alarm.peak_score = rng.NextDouble();
    snap.active_alarms.push_back(std::move(alarm));
  }
  std::sort(snap.active_alarms.begin(), snap.active_alarms.end(),
            [](const auto& a, const auto& b) { return a.sensor_id < b.sensor_id; });
  snap.active_alarms.erase(
      std::unique(snap.active_alarms.begin(), snap.active_alarms.end(),
                  [](const auto& a, const auto& b) {
                    return a.sensor_id == b.sensor_id;
                  }),
      snap.active_alarms.end());
  const size_t quarantined = rng.NextBelow(4);
  for (size_t i = 0; i < quarantined; ++i) {
    stream::QuarantinedSensor q;
    q.sensor_id = "q" + std::to_string(rng.NextBelow(12));
    q.level = LevelAt(static_cast<int>(rng.NextBelow(5)));
    q.since = rng.Uniform(0.0, 1e6);
    q.reason = static_cast<stream::HealthSignal>(rng.NextBelow(6));
    snap.quarantined.push_back(std::move(q));
  }
  std::sort(snap.quarantined.begin(), snap.quarantined.end(),
            [](const auto& a, const auto& b) { return a.sensor_id < b.sensor_id; });
  snap.quarantined.erase(
      std::unique(snap.quarantined.begin(), snap.quarantined.end(),
                  [](const auto& a, const auto& b) {
                    return a.sensor_id == b.sensor_id;
                  }),
      snap.quarantined.end());
  snap.group_outage_active = rng.NextBelow(2) == 1;
  if (snap.group_outage_active) {
    snap.group_outage_entity = "plant" + std::to_string(rng.NextBelow(3));
    snap.group_outage_since = rng.Uniform(0.0, 1e6);
    snap.group_outage_sensors = rng.NextBelow(8) + 2;
  }
  const size_t shifts = rng.NextBelow(5);
  for (size_t i = 0; i < shifts; ++i) {
    stream::ConceptShiftEvent shift;
    shift.sensor_id = "c" + std::to_string(rng.NextBelow(8));
    shift.level = LevelAt(static_cast<int>(rng.NextBelow(5)));
    shift.ts = rng.Uniform(0.0, 1e6);
    shift.before_mean = rng.Uniform(-10.0, 10.0);
    shift.after_mean = rng.Uniform(-10.0, 10.0);
    shift.magnitude_sigmas = rng.Uniform(0.0, 12.0);
    shift.evidence = rng.NextDouble();
    shift.run_length = rng.NextBelow(64);
    snap.concept_shifts.push_back(std::move(shift));
  }
  snap.concept_shifts_total = snap.concept_shifts.size() + rng.NextBelow(100);
  return snap;
}

/// Evolves `base` the way one engine publish cadence would: bump
/// counters, mutate some level states, append shifts.
EngineSnapshot EvolveSnapshot(Rng& rng, const EngineSnapshot& base) {
  EngineSnapshot next = base;
  next.sequence = base.sequence + 1;
  next.events_seen = base.events_seen + rng.NextBelow(256);
  next.ts = base.ts + rng.Uniform(0.0, 10.0);
  for (auto& level : next.levels) {
    if (rng.NextBelow(3) == 0) {
      level.outlier_samples += rng.NextBelow(8);
      level.peak_score = std::max(level.peak_score, rng.NextDouble());
    }
  }
  if (rng.NextBelow(2) == 0 && !next.active_alarms.empty()) {
    next.active_alarms.erase(next.active_alarms.begin() +
                             rng.NextBelow(next.active_alarms.size()));
  }
  if (rng.NextBelow(2) == 0) {
    stream::ActiveAlarm alarm;
    alarm.sensor_id = "s" + std::to_string(rng.NextBelow(16));
    alarm.level = LevelAt(static_cast<int>(rng.NextBelow(5)));
    alarm.since = next.ts;
    alarm.peak_score = rng.NextDouble();
    auto pos = std::lower_bound(
        next.active_alarms.begin(), next.active_alarms.end(), alarm,
        [](const auto& a, const auto& b) { return a.sensor_id < b.sensor_id; });
    if (pos != next.active_alarms.end() && pos->sensor_id == alarm.sensor_id) {
      *pos = alarm;
    } else {
      next.active_alarms.insert(pos, alarm);
    }
  }
  const size_t appended = rng.NextBelow(3);
  for (size_t i = 0; i < appended; ++i) {
    stream::ConceptShiftEvent shift;
    shift.sensor_id = "c" + std::to_string(rng.NextBelow(8));
    shift.level = LevelAt(static_cast<int>(rng.NextBelow(5)));
    shift.ts = next.ts;
    shift.magnitude_sigmas = rng.Uniform(0.0, 12.0);
    next.concept_shifts.push_back(std::move(shift));
    ++next.concept_shifts_total;
  }
  while (next.concept_shifts.size() > 64) {
    next.concept_shifts.erase(next.concept_shifts.begin());
  }
  return next;
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(ServeCodec, SnapshotBytesRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const EngineSnapshot snap = RandomSnapshot(rng, i + 1);
    const std::string bytes = EncodeSnapshotBytes(snap);
    std::istringstream is(bytes);
    auto decoded = ReadSnapshot(is);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(EncodeSnapshotBytes(decoded.value()), bytes);
  }
}

TEST(ServeCodec, DeltaOmitsUnchangedState) {
  Rng rng(3);
  const EngineSnapshot base = RandomSnapshot(rng, 5);
  EngineSnapshot next = base;
  next.sequence = 6;
  next.events_seen += 10;
  next.levels[2].outlier_samples += 1;
  const SnapshotDelta delta = EncodeDelta(base, next);
  EXPECT_EQ(delta.levels.size(), 1u);
  EXPECT_EQ(delta.levels[0].index, 2);
  EXPECT_TRUE(delta.alarm_upserts.empty());
  EXPECT_TRUE(delta.alarm_removals.empty());
  EXPECT_FALSE(delta.outage_changed);
  EXPECT_FALSE(delta.shifts_full);
  EXPECT_TRUE(delta.shift_events.empty());
  // And the wire form is far smaller than the keyframe.
  EXPECT_LT(EncodeDeltaBytes(delta).size(),
            EncodeSnapshotBytes(next).size());
}

TEST(ServeCodec, ApplyRejectsStaleBase) {
  Rng rng(11);
  const EngineSnapshot base = RandomSnapshot(rng, 5);
  const EngineSnapshot next = EvolveSnapshot(rng, base);
  const SnapshotDelta delta = EncodeDelta(base, next);
  EngineSnapshot wrong = base;
  wrong.sequence = 4;
  const auto applied = ApplyDelta(wrong, delta);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
}

/// The id-keyed map merge ApplyDelta used before the in-place apply: the
/// oracle the in-place form must match.
template <typename T>
std::vector<T> MapApplyById(const std::vector<T>& base,
                            const std::vector<T>& upserts,
                            const std::vector<std::string>& removals) {
  std::map<std::string, T> merged;
  for (const T& entry : base) merged[entry.sensor_id] = entry;
  for (const std::string& id : removals) merged.erase(id);
  for (const T& entry : upserts) merged[entry.sensor_id] = entry;
  std::vector<T> out;
  for (auto& [id, entry] : merged) out.push_back(std::move(entry));
  return out;
}

std::optional<EngineSnapshot> MapApplyDelta(const EngineSnapshot& base,
                                            const SnapshotDelta& delta) {
  if (base.sequence != delta.base_sequence) return std::nullopt;
  EngineSnapshot next = base;
  next.sequence = delta.sequence;
  next.events_seen = delta.events_seen;
  next.ts = delta.ts;
  for (const LevelDelta& change : delta.levels) {
    if (change.index >= hierarchy::kNumLevels) return std::nullopt;
    next.levels[change.index] = change.state;
  }
  next.active_alarms =
      MapApplyById(base.active_alarms, delta.alarm_upserts, delta.alarm_removals);
  next.quarantined = MapApplyById(base.quarantined, delta.quarantine_upserts,
                                  delta.quarantine_removals);
  if (delta.outage_changed) {
    next.group_outage_active = delta.group_outage_active;
    next.group_outage_entity = delta.group_outage_entity;
    next.group_outage_since = delta.group_outage_since;
    next.group_outage_sensors = delta.group_outage_sensors;
  }
  next.concept_shifts_total = delta.concept_shifts_total;
  if (delta.shifts_full) {
    next.concept_shifts = delta.shift_events;
  } else {
    next.concept_shifts.insert(next.concept_shifts.end(),
                               delta.shift_events.begin(),
                               delta.shift_events.end());
    if (next.concept_shifts.size() < delta.shift_ring_size) return std::nullopt;
    next.concept_shifts.erase(
        next.concept_shifts.begin(),
        next.concept_shifts.begin() +
            (next.concept_shifts.size() - delta.shift_ring_size));
  }
  return next;
}

/// The parity property the whole tier rests on: for 1k random snapshot
/// pairs — both evolution chains (producer-consecutive) and entirely
/// unrelated pairs — the copying apply, the in-place apply and the
/// map-merge oracle all reconstruct the target byte-for-byte. Each pair's
/// delta is also corrupted three ways (stale base, level index past the
/// last level, shift ring shorter than its accounting); every rejected
/// in-place apply must leave the view byte-identical.
TEST(ServeCodec, DeltaApplyEqualsFullSnapshotOn1kRandomPairs) {
  Rng rng(42);
  EngineSnapshot chained = RandomSnapshot(rng, 1);
  for (int i = 0; i < 1000; ++i) {
    EngineSnapshot base;
    EngineSnapshot next;
    if (i % 2 == 0) {
      base = chained;
      next = EvolveSnapshot(rng, base);
      chained = next;
    } else {
      base = RandomSnapshot(rng, rng.NextBelow(1000) + 1);
      next = RandomSnapshot(rng, base.sequence + 1 + rng.NextBelow(10));
    }
    const std::string base_bytes = EncodeSnapshotBytes(base);
    const std::string next_bytes = EncodeSnapshotBytes(next);
    const SnapshotDelta delta = EncodeDelta(base, next);

    auto copied = ApplyDelta(base, delta);
    ASSERT_TRUE(copied.ok()) << copied.status().ToString();
    ASSERT_EQ(EncodeSnapshotBytes(copied.value()), next_bytes) << "pair " << i;
    EngineSnapshot view = base;
    ASSERT_TRUE(ApplyDeltaInPlace(view, delta).ok()) << "pair " << i;
    ASSERT_EQ(EncodeSnapshotBytes(view), next_bytes) << "pair " << i;
    const std::optional<EngineSnapshot> oracle = MapApplyDelta(base, delta);
    ASSERT_TRUE(oracle.has_value());
    ASSERT_EQ(EncodeSnapshotBytes(*oracle), next_bytes) << "pair " << i;

    SnapshotDelta stale = delta;
    stale.base_sequence = base.sequence + 1;
    SnapshotDelta bad_level = delta;
    LevelDelta level;
    level.index = static_cast<uint8_t>(hierarchy::kNumLevels +
                                       rng.NextBelow(250));
    bad_level.levels.push_back(level);
    SnapshotDelta short_ring = delta;
    short_ring.shifts_full = false;
    short_ring.shift_ring_size = static_cast<uint32_t>(
        base.concept_shifts.size() + short_ring.shift_events.size() + 1 +
        rng.NextBelow(8));
    for (const SnapshotDelta* rejected : {&stale, &bad_level, &short_ring}) {
      EngineSnapshot untouched = base;
      const Status status = ApplyDeltaInPlace(untouched, *rejected);
      ASSERT_FALSE(status.ok()) << "pair " << i;
      ASSERT_EQ(EncodeSnapshotBytes(untouched), base_bytes) << "pair " << i;
      ASSERT_FALSE(ApplyDelta(base, *rejected).ok()) << "pair " << i;
      ASSERT_FALSE(MapApplyDelta(base, *rejected).has_value()) << "pair " << i;
    }
  }
}

/// A Status-returning decoder must not throw: every 4-byte window of a
/// serialized snapshot with alarms, quarantines and shifts is set to 0xFF
/// (forged counts, string lengths, level bytes, scalars) and decoded.
TEST(ServeCodec, ReadSnapshotNeverThrowsOnForgedWords) {
  Rng rng(17);
  EngineSnapshot snap;
  while (snap.active_alarms.empty() || snap.quarantined.empty() ||
         snap.concept_shifts.empty()) {
    snap = RandomSnapshot(rng, 3);
  }
  const std::string bytes = EncodeSnapshotBytes(snap);
  size_t rejected = 0;
  for (size_t offset = 0; offset + 4 <= bytes.size(); ++offset) {
    std::string forged = bytes;
    for (size_t k = 0; k < 4; ++k) forged[offset + k] = '\xFF';
    std::istringstream is(forged);
    StatusOr<EngineSnapshot> decoded = EngineSnapshot{};
    EXPECT_NO_THROW(decoded = ReadSnapshot(is)) << "offset " << offset;
    if (!decoded.ok()) ++rejected;
  }
  EXPECT_GT(rejected, 0u);
}

/// The buffer codec against the per-value iostream writer it replaced:
/// the same bytes for every snapshot shape, and the reader parses the
/// oracle's bytes back to the same snapshot.
TEST(ServeCodec, BufferCodecMatchesIostreamOracle) {
  Rng rng(19);
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  for (int i = 0; i < 200; ++i) {
    snap = i % 4 == 0 ? RandomSnapshot(rng, i + 2) : EvolveSnapshot(rng, snap);
    const std::string reference = oracle::SnapshotBytes(snap);
    ASSERT_EQ(EncodeSnapshotBytes(snap), reference) << "snapshot " << i;
    std::ostringstream os;
    WriteSnapshot(os, snap);
    ASSERT_EQ(os.str(), reference) << "snapshot " << i;

    hierarchy::bin::ByteReader in(reference);
    auto decoded = ReadSnapshot(in);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(in.remaining(), 0u);
    ASSERT_EQ(oracle::SnapshotBytes(*decoded), reference) << "snapshot " << i;
  }
}

// ---------------------------------------------------------------------------
// History ring
// ---------------------------------------------------------------------------

TEST(HistoryRing, AppendEvictLookup) {
  HistoryRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 6; ++i) ring.Append(10.0 * i, i);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.evicted(), 2u);
  EXPECT_EQ(ring.Oldest().value, 2);
  EXPECT_EQ(ring.Newest().value, 5);

  const auto window = ring.Window(25.0, 45.0);
  ASSERT_EQ(window.size(), 2u);
  EXPECT_EQ(window[0].value, 3);
  EXPECT_EQ(window[1].value, 4);

  const auto before = ring.Before(35.0);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->value, 3);
  EXPECT_FALSE(ring.Before(20.0).has_value());

  ring.Clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.evicted(), 0u);
}

// ---------------------------------------------------------------------------
// Hub fan-out
// ---------------------------------------------------------------------------

SnapshotHubOptions SyncHub(uint64_t keyframe_every = 4,
                           size_t queue_capacity = 64) {
  SnapshotHubOptions options;
  options.keyframe_every = keyframe_every;
  options.subscriber_queue_capacity = queue_capacity;
  options.history_capacity = 128;
  options.async = false;
  return options;
}

TEST(SnapshotHub, SubscriberTracksPublisherThroughDeltas) {
  SnapshotHub hub(SyncHub());
  auto sub = hub.Subscribe();
  Rng rng(17);
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  hub.Publish(snap);
  for (int i = 0; i < 40; ++i) {
    snap = EvolveSnapshot(rng, snap);
    hub.Publish(snap);
  }
  sub->Drain();
  ASSERT_TRUE(sub->has_view());
  EXPECT_EQ(EncodeSnapshotBytes(sub->View()), EncodeSnapshotBytes(snap));
  EXPECT_GT(sub->deltas_applied(), 0u);
  EXPECT_GT(sub->keyframes_applied(), 0u);
  EXPECT_EQ(sub->stale_skipped(), 0u);

  const HubStatsSnapshot stats = hub.Stats();
  EXPECT_EQ(stats.publishes_seen, 41u);
  EXPECT_EQ(stats.publishes_processed, 41u);
  EXPECT_EQ(stats.keyframes_encoded + stats.deltas_encoded, 41u);
}

TEST(SnapshotHub, LateJoinerIsSeededWithKeyframe) {
  SnapshotHub hub(SyncHub(/*keyframe_every=*/1000));
  Rng rng(23);
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  hub.Publish(snap);
  for (int i = 0; i < 10; ++i) {
    snap = EvolveSnapshot(rng, snap);
    hub.Publish(snap);
  }
  auto sub = hub.Subscribe();
  sub->Drain();
  ASSERT_TRUE(sub->has_view());
  EXPECT_EQ(EncodeSnapshotBytes(sub->View()), EncodeSnapshotBytes(snap));
  EXPECT_EQ(hub.Stats().seed_keyframes, 1u);
}

/// Slow reader: never drains until the end. Its queue fills, deltas are
/// dropped (never blocking the publisher), and the drop-to-keyframe
/// accounting reconciles exactly: every offer has exactly one outcome.
TEST(SnapshotHub, SlowReaderDropToKeyframeAccountingReconciles) {
  SnapshotHub hub(SyncHub(/*keyframe_every=*/8, /*queue_capacity=*/4));
  auto sub = hub.Subscribe();
  Rng rng(29);
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  hub.Publish(snap);
  const int kPublishes = 200;
  for (int i = 1; i < kPublishes; ++i) {
    snap = EvolveSnapshot(rng, snap);
    hub.Publish(snap);
  }
  const SubscriberChannelStats channel = sub->ChannelStats();
  EXPECT_EQ(channel.offers, static_cast<uint64_t>(kPublishes));
  EXPECT_EQ(channel.offers, channel.deltas_served + channel.keyframes_served +
                                channel.delta_dropped +
                                channel.keyframes_dropped);
  EXPECT_GT(channel.delta_dropped, 0u);
  EXPECT_TRUE(channel.awaiting_keyframe);

  const HubStatsSnapshot stats = hub.Stats();
  EXPECT_EQ(stats.delta_dropped, channel.delta_dropped);
  EXPECT_EQ(stats.deltas_served + stats.keyframes_served +
                stats.delta_dropped + stats.keyframes_dropped,
            static_cast<uint64_t>(kPublishes));

  // The reader catches up: it drains its (stale) backlog, and the next
  // publish reaches it as a resync keyframe — not a delta against a base
  // it never saw — after which its view matches the live state again.
  sub->Drain();
  ASSERT_TRUE(sub->has_view());
  snap = EvolveSnapshot(rng, snap);
  hub.Publish(snap);
  sub->Drain();
  EXPECT_EQ(EncodeSnapshotBytes(sub->View()), EncodeSnapshotBytes(snap));
  EXPECT_EQ(sub->stale_skipped(), 0u);
}

/// A reader that keeps pace plus one that never drains: the slow one
/// must not affect the fast one's delivery.
TEST(SnapshotHub, SlowReaderDoesNotStallFastReader) {
  SnapshotHub hub(SyncHub(/*keyframe_every=*/16, /*queue_capacity=*/2));
  auto fast = hub.Subscribe();
  auto slow = hub.Subscribe();
  Rng rng(31);
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  for (int i = 0; i < 100; ++i) {
    hub.Publish(snap);
    fast->Drain();
    snap = EvolveSnapshot(rng, snap);
  }
  const SubscriberChannelStats fast_channel = fast->ChannelStats();
  EXPECT_EQ(fast_channel.delta_dropped + fast_channel.keyframes_dropped, 0u);
  EXPECT_GT(slow->ChannelStats().delta_dropped, 0u);
  ASSERT_TRUE(fast->has_view());
}

TEST(SnapshotHub, SequenceRegressionForcesKeyframeResync) {
  SnapshotHub hub(SyncHub(/*keyframe_every=*/1000));
  auto sub = hub.Subscribe();
  Rng rng(37);
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  hub.Publish(snap);
  for (int i = 0; i < 5; ++i) {
    snap = EvolveSnapshot(rng, snap);
    hub.Publish(snap);
  }
  sub->Drain();
  // A restored engine re-publishes from an older sequence: the hub must
  // broadcast a keyframe, not a delta against a base subscribers lack.
  Rng rng2(99);
  EngineSnapshot restored = RandomSnapshot(rng2, 3);
  hub.Publish(restored);
  sub->Drain();
  ASSERT_TRUE(sub->has_view());
  EXPECT_EQ(EncodeSnapshotBytes(sub->View()), EncodeSnapshotBytes(restored));
  EXPECT_EQ(hub.Stats().resyncs_forced, 1u);
  EXPECT_EQ(sub->stale_skipped(), 0u);
}

TEST(SnapshotHub, HistoryRingsFollowPublishes) {
  SnapshotHub hub(SyncHub());
  Rng rng(41);
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  snap.ts = 0.0;
  for (int i = 0; i < 20; ++i) {
    snap.ts = 10.0 * i;
    snap.levels[0].outlier_samples = 5 * i;
    hub.Publish(snap);
    snap.sequence++;
  }
  EXPECT_EQ(hub.HistorySize(0), 20u);
  // One 10 s bucket per entry: the window [50, 100) holds five entries
  // (counters 25..45), and the first one diffs against the entry before
  // the window (counter 20).
  const OutlierBuckets buckets = hub.FoldOutlierBuckets({0}, 50.0, 100.0, 10.0);
  ASSERT_EQ(buckets.size(), 5u);
  EXPECT_EQ(buckets.begin()->first, (std::pair<int, int64_t>{0, 0}));
  EXPECT_EQ(buckets.begin()->second, 25.0 - 20.0);
  for (const auto& [cell, outliers] : buckets) EXPECT_EQ(outliers, 5.0);
}

/// Subscribe/unsubscribe churn racing a publisher: no crashes, no lost
/// hub invariants, and every surviving subscriber converges.
TEST(SnapshotHub, SubscriberChurnRacingPublish) {
  SnapshotHubOptions options = SyncHub(/*keyframe_every=*/4,
                                       /*queue_capacity=*/8);
  SnapshotHub hub(options);
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    Rng rng(51);
    EngineSnapshot snap = RandomSnapshot(rng, 1);
    while (!stop.load()) {
      hub.Publish(snap);
      snap = EvolveSnapshot(rng, snap);
    }
  });
  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&hub, t] {
      for (int i = 0; i < 200; ++i) {
        auto sub = hub.Subscribe();
        sub->Drain();
        if ((i + t) % 3 == 0) {
          sub->Drain();
        }
        // Subscription destructor unsubscribes while publishes race.
      }
    });
  }
  for (auto& churner : churners) churner.join();
  stop.store(true);
  publisher.join();
  const HubStatsSnapshot stats = hub.Stats();
  EXPECT_EQ(stats.subscribes, 800u);
  EXPECT_EQ(stats.unsubscribes, 800u);
  EXPECT_EQ(stats.subscribers, 0u);
  // A fresh subscriber still syncs cleanly after the storm.
  auto sub = hub.Subscribe();
  sub->Drain();
  EXPECT_TRUE(sub->has_view());
}

/// Regression: a reader that drains its full queue empty in the window
/// between the hub's failed push and the hub marking the channel full
/// must not be skipped forever. Before the pop counter, the drain's "slots
/// freed" mark could land before the hub's "queue full" mark; the channel
/// then sat empty, awaiting a keyframe the hub never tried to push again.
TEST(SnapshotHub, ReaderDrainingAFullQueueIsNeverParked) {
  constexpr int kTrials = 100;
  constexpr int kReaders = 4;
  constexpr int kPublishes = 2000;
  int parked = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SnapshotHub hub(SyncHub(/*keyframe_every=*/1000, /*queue_capacity=*/2));
    std::vector<std::unique_ptr<Subscription>> subs;
    for (int r = 0; r < kReaders; ++r) subs.push_back(hub.Subscribe());
    std::atomic<bool> stop{false};
    std::thread drainer([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& sub : subs) sub->Drain();
      }
    });
    Rng rng(1000 + trial);
    EngineSnapshot snap = RandomSnapshot(rng, 1);
    for (int i = 0; i < kPublishes; ++i) {
      hub.Publish(snap);
      snap = EvolveSnapshot(rng, snap);
    }
    stop.store(true);
    drainer.join();
    // Quiet now: a few publish + drain rounds must resync every reader.
    for (int i = 0; i < 10; ++i) {
      hub.Publish(snap);
      snap = EvolveSnapshot(rng, snap);
      for (auto& sub : subs) sub->Drain();
    }
    const std::optional<EngineSnapshot> latest = hub.Latest();
    ASSERT_TRUE(latest.has_value());
    for (auto& sub : subs) {
      if (sub->ChannelStats().awaiting_keyframe || !sub->has_view() ||
          EncodeSnapshotBytes(sub->View()) != EncodeSnapshotBytes(*latest)) {
        ++parked;
      }
    }
  }
  EXPECT_EQ(parked, 0) << "readers left parked over " << kTrials
                       << " trials of " << kReaders;
}

TEST(SnapshotHub, AsyncModeDeliversAndQuiesces) {
  SnapshotHubOptions options = SyncHub(/*keyframe_every=*/8);
  options.async = true;
  options.intake_capacity = 16;
  SnapshotHub hub(options);
  auto sub = hub.Subscribe();
  Rng rng(61);
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  for (int i = 0; i < 50; ++i) {
    hub.Publish(snap);
    snap = EvolveSnapshot(rng, snap);
  }
  hub.Quiesce();
  const HubStatsSnapshot stats = hub.Stats();
  EXPECT_EQ(stats.publishes_seen, 50u);
  EXPECT_EQ(stats.publishes_processed + stats.intake_dropped, 50u);
  sub->Drain();
  EXPECT_TRUE(sub->has_view());
}

TEST(SnapshotHub, SaveRestoreForcesKeyframeAndKeepsHistory) {
  SnapshotHub hub(SyncHub(/*keyframe_every=*/1000));
  Rng rng(71);
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  snap.ts = 0.0;
  for (int i = 0; i < 10; ++i) {
    snap.ts = 5.0 * i;
    hub.Publish(snap);
    snap = EvolveSnapshot(rng, snap);
    snap.ts = 5.0 * (i + 1);
  }
  std::ostringstream os;
  ASSERT_TRUE(hub.SaveState(os).ok());

  SnapshotHub revived(SyncHub(/*keyframe_every=*/1000));
  std::istringstream is(os.str());
  ASSERT_TRUE(revived.RestoreState(is).ok());
  EXPECT_EQ(revived.HistorySize(0), hub.HistorySize(0));
  const auto latest = revived.Latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(EncodeSnapshotBytes(*latest),
            EncodeSnapshotBytes(*hub.Latest()));

  // First publish after restore reaches a fresh subscriber as a keyframe
  // even though the cadence would have said delta.
  auto sub = revived.Subscribe();
  sub->Drain();  // seeded view from the restored state
  EngineSnapshot resumed = EvolveSnapshot(rng, *latest);
  revived.Publish(resumed);
  sub->Drain();
  ASSERT_TRUE(sub->has_view());
  EXPECT_EQ(EncodeSnapshotBytes(sub->View()), EncodeSnapshotBytes(resumed));
  EXPECT_GE(revived.Stats().keyframes_encoded, 1u);
}

TEST(SnapshotHub, SaveStateMatchesIostreamOracle) {
  SnapshotHubOptions options = SyncHub(/*keyframe_every=*/3);
  options.history_capacity = 4;
  {
    SnapshotHub empty(options);
    std::ostringstream os;
    ASSERT_TRUE(empty.SaveState(os).ok());
    EXPECT_EQ(os.str(), oracle::HubStateBytes({}, options.history_capacity));
  }
  SnapshotHub hub(options);
  Rng rng(73);
  std::vector<EngineSnapshot> published;
  EngineSnapshot snap = RandomSnapshot(rng, 1);
  for (int i = 0; i < 10; ++i) {
    snap.ts = 2.5 * i;
    hub.Publish(snap);
    published.push_back(snap);
    snap = EvolveSnapshot(rng, snap);
  }
  const std::string reference =
      oracle::HubStateBytes(published, options.history_capacity);
  std::ostringstream os;
  ASSERT_TRUE(hub.SaveState(os).ok());
  EXPECT_EQ(os.str(), reference) << "rings wrapped past their capacity";

  SnapshotHub revived(options);
  std::istringstream is(reference);
  ASSERT_TRUE(revived.RestoreState(is).ok());
  std::ostringstream again;
  ASSERT_TRUE(revived.SaveState(again).ok());
  EXPECT_EQ(again.str(), reference);
}

// ---------------------------------------------------------------------------
// Query service
// ---------------------------------------------------------------------------

TEST(QueryService, RollupBucketsAndCacheEpoch) {
  SnapshotHub hub(SyncHub());
  EngineSnapshot snap;
  // Level 0 gains 1 outlier per publish; level 1 is quiet except one
  // violent burst at t = 40 (bucket 8 under a width of 5).
  for (int i = 0; i < 60; ++i) {
    snap.sequence = i + 1;
    snap.ts = static_cast<double>(i);
    snap.levels[0].outlier_samples = i;
    snap.levels[1].outlier_samples = (i >= 40) ? 1000 : 0;
    hub.Publish(snap);
  }
  QueryService service(&hub);
  RollupQuery query;
  query.start = 0.0;
  query.end = 60.0;
  query.bucket_width = 5.0;
  query.levels = {0, 1};
  auto result = service.Rollup(query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->cache_hit);
  EXPECT_FALSE(result->cells.empty());
  // The burst bucket (level 1, t in [40,45)) must be flagged; the steady
  // drip on level 0 must not.
  bool burst_flagged = false;
  for (const RollupCell& cell : result->cells) {
    if (cell.level == 1 && cell.bucket == 8) {
      EXPECT_GT(cell.outliers, 500.0);
      burst_flagged = cell.anomalous;
    } else {
      EXPECT_FALSE(cell.anomalous)
          << "level " << cell.level << " bucket " << cell.bucket;
    }
  }
  EXPECT_TRUE(burst_flagged);

  // Second identical query: cache hit, same epoch.
  auto again = service.Rollup(query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->cache_hit);
  EXPECT_EQ(service.cache_hits(), 1u);
  EXPECT_EQ(service.cache_misses(), 1u);

  // A new publish moves the epoch and invalidates the cache.
  snap.sequence++;
  snap.ts = 60.0;
  hub.Publish(snap);
  auto after = service.Rollup(query);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  EXPECT_EQ(service.cache_misses(), 2u);
}

TEST(QueryService, RejectsBadWindows) {
  SnapshotHub hub(SyncHub());
  QueryService service(&hub);
  RollupQuery query;
  query.start = 10.0;
  query.end = 10.0;
  EXPECT_EQ(service.Rollup(query).status().code(),
            StatusCode::kInvalidArgument);
  query.end = 20.0;
  query.bucket_width = 0.0;
  EXPECT_EQ(service.Rollup(query).status().code(),
            StatusCode::kInvalidArgument);
  query.bucket_width = 5.0;
  query.levels = {7};
  EXPECT_EQ(service.Rollup(query).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Fleet hub
// ---------------------------------------------------------------------------

TEST(FleetHub, MergedBoardAndCrossPlantRollup) {
  FleetHub fleet(SyncHub());
  SnapshotHub* berlin = fleet.AddPlant("berlin");
  SnapshotHub* munich = fleet.AddPlant("munich");
  ASSERT_NE(berlin, nullptr);
  ASSERT_NE(munich, nullptr);
  EXPECT_EQ(fleet.AddPlant("berlin"), berlin);  // idempotent

  EngineSnapshot snap;
  for (int i = 0; i < 60; ++i) {
    snap.sequence = i + 1;
    snap.ts = static_cast<double>(i);
    snap.levels[0].outlier_samples = i;  // steady
    berlin->Publish(snap);
  }
  EngineSnapshot hot;
  for (int i = 0; i < 60; ++i) {
    hot.sequence = i + 1;
    hot.ts = static_cast<double>(i);
    // Steady like berlin until t = 40, then one violent burst.
    hot.levels[0].outlier_samples = (i >= 40) ? 1000 : i;
    hot.active_alarms.clear();
    if (i >= 40) {
      stream::ActiveAlarm alarm;
      alarm.sensor_id = "m7.temp";
      alarm.since = hot.ts;
      alarm.peak_score = 0.9;
      hot.active_alarms.push_back(alarm);
    }
    munich->Publish(hot);
  }

  const auto board = fleet.BoardSince(0);
  ASSERT_TRUE(board.has_value());
  ASSERT_EQ(board->alarms.size(), 1u);
  EXPECT_EQ(board->alarms[0].plant_id, "munich");
  EXPECT_EQ(board->alarms[0].alarm.sensor_id, "m7.temp");
  // Unchanged version -> no refetch.
  EXPECT_FALSE(fleet.BoardSince(board->version).has_value());

  RollupQuery query;
  query.start = 0.0;
  query.end = 60.0;
  query.bucket_width = 5.0;
  query.levels = {0};
  auto rollup = fleet.Rollup(query);
  ASSERT_TRUE(rollup.ok()) << rollup.status().ToString();
  EXPECT_FALSE(rollup->cells.empty());
  bool munich_hot = false;
  bool berlin_hot = false;
  for (const FleetRollupCell& cell : rollup->cells) {
    if (!cell.cell.anomalous) continue;
    if (cell.plant_id == "munich") munich_hot = true;
    if (cell.plant_id == "berlin") berlin_hot = true;
  }
  EXPECT_TRUE(munich_hot);
  EXPECT_FALSE(berlin_hot);

  fleet.RemovePlant("munich");
  EXPECT_EQ(fleet.Hub("munich"), nullptr);
  EXPECT_EQ(fleet.Plants().size(), 1u);
}

// ---------------------------------------------------------------------------
// Roll-up fold parity
// ---------------------------------------------------------------------------

using LevelRing = HistoryRing<stream::LevelOutlierState>;

/// The per-level bucket sums as computed before the hub folded them: copy
/// the window and the baseline entry out of the history, then diff. Runs
/// on the test's own mirror of the hub's rings.
std::map<std::pair<int, int64_t>, double> ReferenceBuckets(
    const std::vector<LevelRing>& rings, const RollupQuery& query) {
  std::vector<int> levels = query.levels;
  if (levels.empty()) {
    for (int i = 0; i < hierarchy::kNumLevels; ++i) levels.push_back(i);
  }
  std::map<std::pair<int, int64_t>, double> buckets;
  for (int level : levels) {
    const auto window = rings[level].Window(query.start, query.end);
    if (window.empty()) continue;
    const auto before = rings[level].Before(query.start);
    uint64_t prev = before ? before->value.outlier_samples
                           : window.front().value.outlier_samples;
    for (const auto& entry : window) {
      const uint64_t cur = entry.value.outlier_samples;
      const double gained =
          cur >= prev ? static_cast<double>(cur - prev) : 0.0;
      prev = cur;
      const int64_t bucket = static_cast<int64_t>(
          std::floor((entry.ts - query.start) / query.bucket_width));
      buckets[{level, bucket}] += gained;
    }
  }
  return buckets;
}

/// Scores reference cells keyed by their dims, as both roll-ups did.
std::vector<double> ReferenceScores(
    const std::map<std::vector<int64_t>, double>& cells, size_t* cube_cells) {
  std::vector<detect::CubeRecord> records;
  for (const auto& [dims, outliers] : cells) {
    detect::CubeRecord record;
    record.dims = dims;
    record.measure = outliers;
    records.push_back(std::move(record));
  }
  if (records.empty()) return {};
  detect::OlapCubeDetector cube;
  EXPECT_TRUE(cube.TrainRecords(records).ok());
  auto scores = cube.ScoreRecords(records);
  EXPECT_TRUE(scores.ok());
  *cube_cells = cube.num_cells();
  return scores.value();
}

/// Publishes a random history into `hubs`, mirroring each hub's rings.
/// Level 4 never moves; level 3 jumps backwards once (a counter reset).
void PublishRandomHistory(Rng& rng, const std::vector<SnapshotHub*>& hubs,
                          size_t capacity,
                          std::vector<std::vector<LevelRing>>& mirrors) {
  mirrors.assign(hubs.size(), {});
  for (size_t h = 0; h < hubs.size(); ++h) {
    for (int i = 0; i < hierarchy::kNumLevels; ++i) {
      mirrors[h].emplace_back(capacity);
    }
    EngineSnapshot snap;
    snap.ts = 100.0;
    const int publishes = 40 + static_cast<int>(rng.NextBelow(80));
    for (int p = 0; p < publishes; ++p) {
      snap.sequence = p + 1;
      snap.ts += static_cast<double>(rng.NextBelow(4));  // equal ts too
      for (int level = 0; level < 4; ++level) {
        snap.levels[level].outlier_samples += rng.NextBelow(6);
      }
      if (p == publishes / 2) snap.levels[3].outlier_samples /= 2;
      hubs[h]->Publish(snap);
      for (int level = 0; level < hierarchy::kNumLevels; ++level) {
        mirrors[h][level].Append(snap.ts, snap.levels[level]);
      }
    }
  }
}

RollupQuery RandomQuery(Rng& rng) {
  RollupQuery query;
  // From before the oldest retained entry (no baseline) to past the
  // newest (empty window).
  query.start = 90.0 + static_cast<double>(rng.NextBelow(400));
  query.end = query.start + 1.0 + static_cast<double>(rng.NextBelow(200));
  query.bucket_width = 1.0 + static_cast<double>(rng.NextBelow(40));
  const uint64_t pick = rng.NextBelow(4);
  if (pick == 1) query.levels = {0, 4};
  if (pick == 2) query.levels = {3};
  if (pick == 3) query.levels = {2, 1, 2};
  return query;
}

TEST(RollupFold, QueryServiceMatchesWindowCopyComputation) {
  size_t with_baseline = 0;
  size_t empty = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    SnapshotHubOptions options = SyncHub();
    options.history_capacity = 64;  // long runs evict the oldest entries
    SnapshotHub hub(options);
    std::vector<std::vector<LevelRing>> mirrors;
    PublishRandomHistory(rng, {&hub}, options.history_capacity, mirrors);
    for (int q = 0; q < 20; ++q) {
      const RollupQuery query = RandomQuery(rng);
      QueryService service(&hub);
      auto got = service.Rollup(query);
      ASSERT_TRUE(got.ok()) << got.status().ToString();

      const auto buckets = ReferenceBuckets(mirrors[0], query);
      std::map<std::vector<int64_t>, double> cells;
      for (const auto& [cell, outliers] : buckets) {
        cells[{cell.first, cell.second}] = outliers;
      }
      size_t cube_cells = 0;
      const std::vector<double> scores = ReferenceScores(cells, &cube_cells);
      ASSERT_EQ(got->cells.size(), buckets.size()) << "seed " << seed;
      EXPECT_EQ(got->cube_cells, cube_cells);
      size_t i = 0;
      for (const auto& [cell, outliers] : buckets) {
        const RollupCell& out = got->cells[i];
        EXPECT_EQ(out.level, cell.first);
        EXPECT_EQ(out.bucket, cell.second);
        EXPECT_EQ(out.bucket_start,
                  query.start + cell.second * query.bucket_width);
        EXPECT_EQ(out.outliers, outliers);
        EXPECT_EQ(out.score, scores[i]);
        EXPECT_EQ(out.anomalous, scores[i] >= 0.5);
        ++i;
      }
      if (buckets.empty()) ++empty;
      if (mirrors[0][0].Before(query.start).has_value() && !buckets.empty()) {
        ++with_baseline;
      }
    }
  }
  EXPECT_GT(with_baseline, 50u);
  EXPECT_GT(empty, 20u);
}

TEST(RollupFold, FleetRollupMatchesWindowCopyComputation) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SnapshotHubOptions options = SyncHub();
    options.history_capacity = 64;
    FleetHub fleet(options);
    // Map order, as FleetHub walks its plants.
    const std::vector<std::string> plants = {"augsburg", "berlin", "munich"};
    std::vector<SnapshotHub*> hubs;
    for (const std::string& plant : plants) hubs.push_back(fleet.AddPlant(plant));
    std::vector<std::vector<LevelRing>> mirrors;
    PublishRandomHistory(rng, hubs, options.history_capacity, mirrors);
    for (int q = 0; q < 10; ++q) {
      const RollupQuery query = RandomQuery(rng);
      auto got = fleet.Rollup(query);
      ASSERT_TRUE(got.ok()) << got.status().ToString();

      std::map<std::vector<int64_t>, double> cells;
      for (size_t p = 0; p < plants.size(); ++p) {
        for (const auto& [cell, outliers] : ReferenceBuckets(mirrors[p], query)) {
          cells[{static_cast<int64_t>(p), cell.first, cell.second}] = outliers;
        }
      }
      size_t cube_cells = 0;
      const std::vector<double> scores = ReferenceScores(cells, &cube_cells);
      ASSERT_EQ(got->cells.size(), cells.size()) << "seed " << seed;
      EXPECT_EQ(got->cube_cells, cube_cells);
      size_t i = 0;
      for (const auto& [dims, outliers] : cells) {
        const FleetRollupCell& out = got->cells[i];
        EXPECT_EQ(out.plant_id, plants[static_cast<size_t>(dims[0])]);
        EXPECT_EQ(out.cell.level, dims[1]);
        EXPECT_EQ(out.cell.bucket, dims[2]);
        EXPECT_EQ(out.cell.outliers, outliers);
        EXPECT_EQ(out.cell.score, scores[i]);
        EXPECT_EQ(out.cell.anomalous, scores[i] >= 0.5);
        ++i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end: engine -> hub via snapshot_sink
// ---------------------------------------------------------------------------

TEST(ServeEndToEnd, EngineSinkFeedsHubAndSubscriberMatchesEngineSnapshot) {
  SnapshotHub hub(SyncHub(/*keyframe_every=*/4));
  stream::StreamEngineOptions options;
  options.synchronous = true;
  options.snapshot_every = 16;
  options.monitor.warmup = 64;
  options.snapshot_sink = [&hub](const EngineSnapshot& snapshot) {
    hub.Publish(snapshot);
  };
  stream::StreamEngine engine(options);
  ASSERT_TRUE(
      engine.AddSensor("s1", hierarchy::ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.Start().ok());
  auto sub = hub.Subscribe();
  Rng rng(87);
  for (int i = 0; i < 400; ++i) {
    const double value =
        (i % 97 == 96) ? 40.0 : rng.Uniform(-0.1, 0.1);
    auto ack = engine.Ingest({"s1", hierarchy::ProductionLevel::kPhase,
                              static_cast<double>(i), value});
    ASSERT_TRUE(ack.ok()) << "sample " << i << ": "
                          << ack.status().ToString();
  }
  ASSERT_TRUE(engine.Flush().ok());
  sub->Drain();
  ASSERT_TRUE(sub->has_view());
  const EngineSnapshot direct = engine.Snapshot();
  EXPECT_EQ(EncodeSnapshotBytes(sub->View()), EncodeSnapshotBytes(direct));
  EXPECT_EQ(engine.stats().snapshots_published, hub.Stats().publishes_seen);
  EXPECT_GT(hub.Stats().publishes_seen, 0u);
  ASSERT_TRUE(engine.Stop().ok());
}

}  // namespace
}  // namespace hod::serve
