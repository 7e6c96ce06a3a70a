#include "serve/hub.h"

#include <chrono>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "hierarchy/serialization.h"

namespace hod::serve {

namespace {
namespace bin = hierarchy::bin;
constexpr uint32_t kHubStateMagic = 0x53444F48u;  // "HODS"
constexpr uint32_t kHubStateVersion = 1;
/// One history entry: its timestamp and the level's eight fields.
constexpr size_t kHistoryEntryBytes = 9 * 8;
}  // namespace

/// Hub-side half of one subscriber: the bounded SPSC queue (producer = hub
/// under its mutex, consumer = the subscriber's drain thread) plus the
/// backpressure bookkeeping, guarded by the hub mutex except the
/// consumer's atomic pop count.
/// Member order matters: the sweep-hot fields (the skip counters, stats)
/// lead so the parked-reader skip path lives entirely in the object's
/// first 64 bytes — the cache line the fan-out loop prefetches — and never
/// touches the ring behind it.
struct Subscription::Channel {
  explicit Channel(size_t capacity)
      : ring(capacity, stream::BackpressurePolicy::kReject) {}
  /// Count of non-empty pops; only the consumer writes it. A pop the failed
  /// push did not see bumps the count after the hub read it, so the next
  /// publish retries the push: a reader that drained its queue empty is
  /// never skipped forever.
  std::atomic<uint64_t> pops{0};
  /// Hub-only: `pops` as read just before the push that found the queue
  /// full. While `pops` still equals it and the channel awaits a keyframe,
  /// the consumer has freed no slot since, so the queue is provably still
  /// full and the hub skips the doomed push instead of reading the ring —
  /// at 10k parked dashboards that skip is most of the fan-out sweep.
  uint64_t pops_at_full = 0;
  SubscriberChannelStats stats;
  size_t cache_slot = 0;  ///< index into SnapshotHub::channel_cache_
  stream::SpscRing<std::shared_ptr<const ServedUpdate>> ring;
};

Subscription::~Subscription() {
  if (hub_ != nullptr) hub_->Unsubscribe(id_);
}

size_t Subscription::Drain() {
  size_t applied = 0;
  while (true) {
    scratch_.clear();
    if (channel_->ring.TryPopBatch(scratch_, 64) == 0) break;
    // Freed queue slots: tell the hub this channel is worth pushing to
    // again (it skips channels that are provably still full).
    channel_->pops.fetch_add(1);
    for (const std::shared_ptr<const ServedUpdate>& update : scratch_) {
      if (update->is_keyframe) {
        view_ = update->keyframe;
        has_view_ = true;
        ++keyframes_applied_;
        ++applied;
        continue;
      }
      if (!has_view_ || view_.sequence != update->delta.base_sequence) {
        // Possible only in the window between a queue-full drop and the
        // resync keyframe; the keyframe is already on its way.
        ++stale_skipped_;
        continue;
      }
      if (!ApplyDeltaInPlace(view_, update->delta).ok()) {
        ++stale_skipped_;
        continue;
      }
      ++deltas_applied_;
      ++applied;
    }
  }
  return applied;
}

SubscriberChannelStats Subscription::ChannelStats() const {
  std::lock_guard<std::mutex> lock(hub_->mu_);
  return channel_->stats;
}

SnapshotHub::SnapshotHub(SnapshotHubOptions options)
    : options_(options) {
  history_.reserve(hierarchy::kNumLevels);
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    history_.emplace_back(options_.history_capacity);
  }
  if (options_.async) {
    intake_ = std::make_unique<stream::SpscRing<stream::EngineSnapshot>>(
        options_.intake_capacity, stream::BackpressurePolicy::kDropOldest);
    fanout_ = std::jthread([this] { FanOutLoop(); });
  }
}

SnapshotHub::~SnapshotHub() {
  if (intake_) {
    intake_->Close();
    if (fanout_.joinable()) fanout_.join();
  }
}

void SnapshotHub::Publish(const stream::EngineSnapshot& snapshot) {
  intake_seen_.fetch_add(1, std::memory_order_relaxed);
  if (intake_) {
    // The collector pays exactly one lock-free ring push, never the
    // fan-out. Overflow drops the oldest queued snapshot: the newest
    // state wins and the skipped one is absorbed into a wider delta.
    (void)intake_->Push(snapshot, stream::BackpressurePolicy::kDropOldest,
                        nullptr);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  Process(snapshot);
}

void SnapshotHub::FanOutLoop() {
  std::vector<stream::EngineSnapshot> batch;
  while (intake_->PopBatch(batch, 16)) {
    std::lock_guard<std::mutex> lock(mu_);
    for (stream::EngineSnapshot& snapshot : batch) Process(snapshot);
    batch.clear();
  }
}

void SnapshotHub::Process(const stream::EngineSnapshot& snapshot) {
  const bool regression = have_last_ && snapshot.sequence <= last_.sequence;
  if (regression) ++stats_.resyncs_forced;
  const bool keyframe_due =
      !have_last_ || force_keyframe_ || regression ||
      (options_.keyframe_every != 0 &&
       stats_.publishes_processed % options_.keyframe_every == 0);

  std::shared_ptr<const ServedUpdate> keyframe;
  std::shared_ptr<const ServedUpdate> delta;
  auto make_keyframe = [&]() -> const std::shared_ptr<const ServedUpdate>& {
    if (!keyframe) {
      auto update = std::make_shared<ServedUpdate>();
      update->is_keyframe = true;
      update->keyframe = snapshot;
      keyframe = std::move(update);
    }
    return keyframe;
  };
  if (keyframe_due) {
    make_keyframe();
    ++stats_.keyframes_encoded;
  } else {
    auto update = std::make_shared<ServedUpdate>();
    update->is_keyframe = false;
    update->delta = EncodeDelta(last_, snapshot);
    delta = std::move(update);
    ++stats_.deltas_encoded;
  }

  const size_t fanout_n = channel_cache_.size();
  for (size_t i = 0; i < fanout_n; ++i) {
    // The dense array knows upcoming channel addresses; hide the miss
    // latency of each scattered Channel behind the current push.
    if (i + 8 < fanout_n) {
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(channel_cache_[i + 8]);
#endif
    }
    Subscription::Channel* channel = channel_cache_[i];
    ++channel->stats.offers;
    // Read before the push: a pop that lands after this load changes the
    // count, so a failed push can never park the channel for good.
    const uint64_t pops = channel->pops.load();
    if (keyframe_due || channel->stats.awaiting_keyframe) {
      if (channel->stats.awaiting_keyframe && pops == channel->pops_at_full) {
        // The queue filled and the consumer has not popped since: a push
        // can only fail, so account the dropped keyframe without touching
        // the ring. This keeps the sweep O(1) cache lines per parked
        // reader.
        ++stats_.keyframes_dropped;
        ++channel->stats.keyframes_dropped;
        continue;
      }
      const Status pushed = channel->ring.Push(
          make_keyframe(), stream::BackpressurePolicy::kReject, nullptr);
      if (pushed.ok()) {
        ++stats_.keyframes_served;
        ++channel->stats.keyframes_served;
        channel->stats.awaiting_keyframe = false;
      } else {
        ++stats_.keyframes_dropped;
        ++channel->stats.keyframes_dropped;
        channel->stats.awaiting_keyframe = true;
        channel->pops_at_full = pops;
      }
      continue;
    }
    const Status pushed = channel->ring.Push(
        delta, stream::BackpressurePolicy::kReject, nullptr);
    if (pushed.ok()) {
      ++stats_.deltas_served;
      ++channel->stats.deltas_served;
    } else {
      // Drop-to-keyframe: this reader never sees a delta it cannot apply;
      // it waits (without stalling anyone) for a keyframe that fits.
      ++stats_.delta_dropped;
      ++channel->stats.delta_dropped;
      channel->stats.awaiting_keyframe = true;
      channel->pops_at_full = pops;
    }
  }

  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    history_[i].Append(snapshot.ts, snapshot.levels[i]);
  }
  last_ = snapshot;
  have_last_ = true;
  force_keyframe_ = false;
  ++stats_.publishes_processed;
  epoch_.store(stats_.publishes_processed, std::memory_order_release);
}

std::unique_ptr<Subscription> SnapshotHub::Subscribe() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_subscriber_id_++;
  auto channel = std::make_shared<Subscription::Channel>(
      options_.subscriber_queue_capacity);
  if (have_last_) {
    // Seed the late joiner so it has a view before the next cadence
    // keyframe. Outside the offer/outcome identity (not a publish).
    auto update = std::make_shared<ServedUpdate>();
    update->is_keyframe = true;
    update->keyframe = last_;
    (void)channel->ring.Push(std::move(update),
                             stream::BackpressurePolicy::kReject, nullptr);
    ++stats_.seed_keyframes;
  }
  channel->cache_slot = channel_cache_.size();
  channel_cache_.push_back(channel.get());
  subscribers_.emplace(id, channel);
  ++stats_.subscribes;
  return std::unique_ptr<Subscription>(
      new Subscription(this, id, std::move(channel)));
}

void SnapshotHub::Unsubscribe(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = subscribers_.find(id);
  if (it == subscribers_.end()) return;
  const size_t slot = it->second->cache_slot;
  channel_cache_[slot] = channel_cache_.back();
  channel_cache_[slot]->cache_slot = slot;
  channel_cache_.pop_back();
  subscribers_.erase(it);
  ++stats_.unsubscribes;
}

void SnapshotHub::Quiesce() {
  if (!intake_) return;
  // Intake eviction counts as "handled": the evicted snapshot's state is
  // carried by a later one still in the ring.
  while (epoch_.load(std::memory_order_acquire) + intake_->dropped() <
         intake_seen_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

HubStatsSnapshot SnapshotHub::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  HubStatsSnapshot out = stats_;
  out.publishes_seen = intake_seen_.load(std::memory_order_relaxed);
  out.intake_dropped = intake_ ? intake_->dropped() : 0;
  out.subscribers = subscribers_.size();
  return out;
}

std::optional<stream::EngineSnapshot> SnapshotHub::Latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!have_last_) return std::nullopt;
  return last_;
}

OutlierBuckets SnapshotHub::FoldOutlierBuckets(const std::vector<int>& levels,
                                               ts::TimePoint t0,
                                               ts::TimePoint t1,
                                               double bucket_width) const {
  OutlierBuckets sums;
  std::lock_guard<std::mutex> lock(mu_);
  for (const int level : levels) {
    if (level < 0 || level >= hierarchy::kNumLevels) continue;
    const HistoryRing<stream::LevelOutlierState>& ring = history_[level];
    size_t i = ring.LowerBound(t0);
    if (i == ring.size() || ring.At(i).ts >= t1) continue;
    // Baseline: the newest entry before the window, else the window's
    // first entry (which then gains nothing).
    uint64_t prev = ring.At(i == 0 ? 0 : i - 1).value.outlier_samples;
    for (; i < ring.size(); ++i) {
      const HistoryRing<stream::LevelOutlierState>::Entry& entry = ring.At(i);
      if (entry.ts >= t1) break;
      const uint64_t cur = entry.value.outlier_samples;
      const double gained =
          cur >= prev ? static_cast<double>(cur - prev) : 0.0;
      prev = cur;
      const int64_t bucket =
          static_cast<int64_t>(std::floor((entry.ts - t0) / bucket_width));
      sums[{level, bucket}] += gained;
    }
  }
  return sums;
}

size_t SnapshotHub::HistorySize(int level_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (level_index < 0 || level_index >= hierarchy::kNumLevels) return 0;
  return history_[level_index].size();
}

uint64_t SnapshotHub::HistoryEvicted(int level_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (level_index < 0 || level_index >= hierarchy::kNumLevels) return 0;
  return history_[level_index].evicted();
}

Status SnapshotHub::SaveState(std::ostream& os) const {
  bin::ByteWriter out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.WriteU32(kHubStateMagic);
    out.WriteU32(kHubStateVersion);
    out.WriteU8(have_last_ ? 1 : 0);
    if (have_last_) WriteSnapshot(out, last_);
    for (const auto& ring : history_) {
      out.WriteU32(static_cast<uint32_t>(ring.size()));
      for (size_t i = 0; i < ring.size(); ++i) {
        const auto& entry = ring.At(i);
        out.WriteF64(entry.ts);
        out.WriteU64(entry.value.outlier_samples);
        out.WriteU64(entry.value.alarms_raised);
        out.WriteU64(entry.value.alarms_cleared);
        out.WriteU64(entry.value.active_alarms);
        out.WriteU64(entry.value.sensor_faults);
        out.WriteU64(entry.value.quarantined_sensors);
        out.WriteF64(entry.value.peak_score);
        out.WriteF64(entry.value.last_outlier_ts);
      }
    }
  }
  os.write(out.bytes().data(), static_cast<std::streamsize>(out.size()));
  if (!os.good()) return Status::Internal("hub state write failed");
  return Status::Ok();
}

Status SnapshotHub::RestoreState(std::istream& is) {
  const std::string bytes = bin::ReadToEnd(is);
  bin::ByteReader in(bytes);
  uint32_t magic = 0;
  HOD_ASSIGN_OR_RETURN(magic, in.ReadU32());
  if (magic != kHubStateMagic) {
    return Status::InvalidArgument("not a hub state image");
  }
  uint32_t version = 0;
  HOD_ASSIGN_OR_RETURN(version, in.ReadU32());
  if (version != kHubStateVersion) {
    return Status::InvalidArgument("unsupported hub state version");
  }
  uint8_t have_last = 0;
  HOD_ASSIGN_OR_RETURN(have_last, in.ReadU8());
  stream::EngineSnapshot last;
  if (have_last != 0) {
    HOD_ASSIGN_OR_RETURN(last, ReadSnapshot(in));
  }
  std::vector<std::vector<HistoryRing<stream::LevelOutlierState>::Entry>>
      rings(hierarchy::kNumLevels);
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    uint32_t count = 0;
    HOD_ASSIGN_OR_RETURN(count, in.ReadU32());
    HOD_RETURN_IF_ERROR(
        in.CheckCount(count, kHistoryEntryBytes, "history entry count"));
    rings[i].resize(count);
    for (auto& entry : rings[i]) {
      HOD_ASSIGN_OR_RETURN(entry.ts, in.ReadF64());
      HOD_ASSIGN_OR_RETURN(entry.value.outlier_samples, in.ReadU64());
      HOD_ASSIGN_OR_RETURN(entry.value.alarms_raised, in.ReadU64());
      HOD_ASSIGN_OR_RETURN(entry.value.alarms_cleared, in.ReadU64());
      HOD_ASSIGN_OR_RETURN(entry.value.active_alarms, in.ReadU64());
      HOD_ASSIGN_OR_RETURN(entry.value.sensor_faults, in.ReadU64());
      HOD_ASSIGN_OR_RETURN(entry.value.quarantined_sensors, in.ReadU64());
      HOD_ASSIGN_OR_RETURN(entry.value.peak_score, in.ReadF64());
      HOD_ASSIGN_OR_RETURN(entry.value.last_outlier_ts, in.ReadF64());
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  have_last_ = have_last != 0;
  if (have_last_) last_ = std::move(last);
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    history_[i].Clear();
    for (auto& entry : rings[i]) history_[i].Append(entry.ts, entry.value);
  }
  // Whatever this hub serves next cannot be a delta: any subscriber that
  // survived the restart holds a view from the previous incarnation.
  force_keyframe_ = true;
  return Status::Ok();
}

}  // namespace hod::serve
