#ifndef HOD_SERVE_HUB_H_
#define HOD_SERVE_HUB_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "hierarchy/level.h"
#include "serve/codec.h"
#include "serve/history.h"
#include "stream/engine.h"
#include "stream/spsc_ring.h"
#include "util/status.h"
#include "util/statusor.h"

namespace hod::serve {

struct SnapshotHubOptions {
  /// A full keyframe is broadcast every this-many processed publishes;
  /// publishes in between travel as deltas. Late joiners and droppy
  /// readers get out-of-cadence keyframes on top.
  uint64_t keyframe_every = 32;
  /// Per-subscriber update queue depth. When full the subscriber starts
  /// dropping (never the publisher): it is marked for keyframe resync and
  /// receives no further deltas until a keyframe lands.
  size_t subscriber_queue_capacity = 8;
  /// Per-level history ring length (one entry per processed publish).
  size_t history_capacity = 256;
  /// When true, Publish() is one bounded ring push (newest-wins) and a
  /// dedicated fan-out thread runs delta encoding + subscriber delivery —
  /// the mode that keeps ingest retention flat at 10k subscribers. When
  /// false everything happens inline in Publish() (deterministic; tests).
  bool async = false;
  /// Async-mode intake ring depth. Overflow drops the *oldest* queued
  /// snapshot (the newest state always wins; skipped intermediates just
  /// widen one delta).
  size_t intake_capacity = 64;
};

/// One fan-out payload: either a full keyframe or a delta against the
/// previously processed snapshot. Shared read-only across subscriber
/// queues, so fanning to N readers is N shared_ptr copies, not N deep
/// copies.
struct ServedUpdate {
  bool is_keyframe = false;
  stream::EngineSnapshot keyframe;  ///< set when is_keyframe
  SnapshotDelta delta;              ///< set when !is_keyframe
};

/// Outlier samples per (level index, time bucket) roll-up cell.
using OutlierBuckets = std::map<std::pair<int, int64_t>, double>;

/// Hub-side aggregate counters. The per-publish outcome identity — every
/// processed publish offers each live subscriber exactly one update —
/// makes the fan-out auditable:
///
///   Σ per-subscriber offers == deltas_served + keyframes_served
///                              + delta_dropped + keyframes_dropped
struct HubStatsSnapshot {
  uint64_t publishes_seen = 0;    ///< snapshots handed to Publish()
  uint64_t intake_dropped = 0;    ///< async intake overflow (newest wins)
  uint64_t publishes_processed = 0;  ///< fanned out (== seen when sync)
  uint64_t keyframes_encoded = 0;
  uint64_t deltas_encoded = 0;
  uint64_t deltas_served = 0;
  uint64_t keyframes_served = 0;
  uint64_t delta_dropped = 0;     ///< slow reader: delta skipped, resync armed
  uint64_t keyframes_dropped = 0;  ///< resync keyframe also found queue full
  uint64_t resyncs_forced = 0;    ///< sequence regressions (engine restore)
  uint64_t seed_keyframes = 0;    ///< late-joiner seeds (outside the identity)
  uint64_t subscribes = 0;
  uint64_t unsubscribes = 0;
  size_t subscribers = 0;
};

/// Per-subscriber channel counters (hub side of the queue). For any
/// subscriber, offers == deltas_served + keyframes_served + delta_dropped
/// + keyframes_dropped — the drop-to-keyframe accounting pinned in tests.
struct SubscriberChannelStats {
  uint64_t offers = 0;
  uint64_t deltas_served = 0;
  uint64_t keyframes_served = 0;
  uint64_t delta_dropped = 0;
  uint64_t keyframes_dropped = 0;
  bool awaiting_keyframe = false;
};

class SnapshotHub;

/// A read handle: drains the per-subscriber queue and maintains a local
/// reconstruction of the engine snapshot (keyframes replace it, deltas
/// patch it). Single-consumer: one thread per subscription. Must not
/// outlive its hub. Dropping the handle unsubscribes.
class Subscription {
 public:
  ~Subscription();
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  /// Applies every queued update to the local view; returns how many.
  size_t Drain();

  bool has_view() const { return has_view_; }
  /// Latest reconstructed snapshot (valid once has_view()).
  const stream::EngineSnapshot& View() const { return view_; }

  uint64_t keyframes_applied() const { return keyframes_applied_; }
  uint64_t deltas_applied() const { return deltas_applied_; }
  /// Deltas discarded because their base did not match the local view
  /// (possible only between a queue-full drop and the resync keyframe).
  uint64_t stale_skipped() const { return stale_skipped_; }

  /// Hub-side counters for this channel (takes the hub lock).
  SubscriberChannelStats ChannelStats() const;

 private:
  friend class SnapshotHub;
  struct Channel;

  Subscription(SnapshotHub* hub, uint64_t id, std::shared_ptr<Channel> channel)
      : hub_(hub), id_(id), channel_(std::move(channel)) {}

  SnapshotHub* hub_;
  uint64_t id_;
  std::shared_ptr<Channel> channel_;
  stream::EngineSnapshot view_;
  bool has_view_ = false;
  uint64_t keyframes_applied_ = 0;
  uint64_t deltas_applied_ = 0;
  uint64_t stale_skipped_ = 0;
  std::vector<std::shared_ptr<const ServedUpdate>> scratch_;
};

/// Read-side fan-out hub for one StreamEngine: consumes the publish
/// sequence once (attach Publish via StreamEngineOptions::snapshot_sink),
/// delta-encodes consecutive snapshots, and serves N subscribers through
/// bounded per-subscriber rings with drop-to-keyframe backpressure — a
/// slow dashboard can never stall the collector or another reader. Also
/// keeps per-hierarchy-level history rings feeding the OLAP roll-up
/// QueryService.
///
/// Threading: Publish is called by exactly one producer (the engine's
/// collector — every publish site is serialized). Subscribe/Unsubscribe/
/// Stats are safe from any thread. Each Subscription is drained by one
/// consumer thread. In async mode a dedicated jthread performs the
/// fan-out; the producer pays one lock-free ring push per publish.
class SnapshotHub {
 public:
  explicit SnapshotHub(SnapshotHubOptions options = {});
  ~SnapshotHub();

  SnapshotHub(const SnapshotHub&) = delete;
  SnapshotHub& operator=(const SnapshotHub&) = delete;

  /// The engine-facing sink. Wire it up as
  ///   options.snapshot_sink = [&hub](const auto& s) { hub.Publish(s); };
  void Publish(const stream::EngineSnapshot& snapshot);

  /// Registers a reader. The new subscriber is immediately seeded with a
  /// keyframe of the latest processed snapshot (late joiners do not wait
  /// for the next cadence keyframe).
  std::unique_ptr<Subscription> Subscribe();

  /// Blocks until every publish handed in so far has been fanned out
  /// (no-op in sync mode). Test/bench hook.
  void Quiesce();

  HubStatsSnapshot Stats() const;

  /// Count of processed publishes — the epoch that stamps query-cache
  /// entries; any new publish invalidates them.
  uint64_t PublishEpoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Latest processed snapshot, if any.
  std::optional<stream::EngineSnapshot> Latest() const;

  /// The roll-up fold over the history rings, for the query tier. For
  /// each level index in `levels` (LevelValue(level) - 1, matching
  /// EngineSnapshot::levels; out-of-range indices are skipped), the
  /// cumulative outlier counter of the entries with t0 <= ts < t1 is
  /// diffed entry to entry, seeded from the newest entry before t0, and
  /// the gains are summed per (level, floor((ts - t0) / bucket_width)).
  /// A level with no entry in the window contributes no cell. One pass
  /// under one hub lock: no entry is copied, and a concurrent publish
  /// cannot evict entries between a level's baseline and its window.
  OutlierBuckets FoldOutlierBuckets(const std::vector<int>& levels,
                                    ts::TimePoint t0, ts::TimePoint t1,
                                    double bucket_width) const;
  size_t HistorySize(int level_index) const;
  uint64_t HistoryEvicted(int level_index) const;

  /// Persists the serving state (last processed snapshot + history rings)
  /// so a restarted serving process resumes with warm history. After
  /// RestoreState the next publish is always broadcast as a keyframe:
  /// subscribers resync instead of applying deltas against a stale base —
  /// same path that absorbs an engine checkpoint/restore sequence
  /// regression. SaveState writes the image with one call; RestoreState
  /// reads `is` to its end and refuses a history count the bytes cannot
  /// hold before reserving for it.
  Status SaveState(std::ostream& os) const;
  Status RestoreState(std::istream& is);

 private:
  friend class Subscription;

  void Process(const stream::EngineSnapshot& snapshot);
  void FanOutLoop();
  void Unsubscribe(uint64_t id);

  const SnapshotHubOptions options_;

  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<Subscription::Channel>> subscribers_;
  /// Dense fan-out view of subscribers_ (swap-remove on unsubscribe).
  /// Process() walks this contiguous array instead of chasing map nodes —
  /// at 10k subscribers the tree walk alone was ~1ms of dependent cache
  /// misses per publish, which on a small host comes straight out of the
  /// collector's budget.
  std::vector<Subscription::Channel*> channel_cache_;
  uint64_t next_subscriber_id_ = 1;
  bool have_last_ = false;
  bool force_keyframe_ = false;
  stream::EngineSnapshot last_;
  std::vector<HistoryRing<stream::LevelOutlierState>> history_;
  HubStatsSnapshot stats_;

  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> intake_seen_{0};

  /// Async mode only. Declared after everything FanOutLoop touches; the
  /// jthread joins in the destructor before members are torn down.
  std::unique_ptr<stream::SpscRing<stream::EngineSnapshot>> intake_;
  std::jthread fanout_;
};

}  // namespace hod::serve

#endif  // HOD_SERVE_HUB_H_
