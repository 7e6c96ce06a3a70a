#include "harness.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "fleet/manager.h"
#include "serve/codec.h"
#include "util/thread_pool.h"

namespace perfbench {

using hod::stream::EngineSnapshot;
using hod::stream::StreamEngine;
using hod::stream::StreamEngineOptions;
using hod::stream::StreamStatsSnapshot;

VisibilityProbe::VisibilityProbe(const Trace* trace)
    : trace_(trace), ingest_ns_(trace->samples.size(), 0) {
  Reset();
}

void VisibilityProbe::Reset() {
  std::fill(ingest_ns_.begin(), ingest_ns_.end(), 0);
  seen_since_.assign(trace_->sensors.size(),
                     std::numeric_limits<double>::quiet_NaN());
  lag_ms_.clear();
  visible_ms_.clear();
  frozen_.store(false, std::memory_order_relaxed);
}

void VisibilityProbe::Observe(const EngineSnapshot& snapshot, int64_t now_ns) {
  if (frozen_.load(std::memory_order_relaxed)) return;
  const int64_t step = trace_->StepFirst(snapshot.ts);
  if (step >= 0 && ingest_ns_[static_cast<size_t>(step)] > 0) {
    lag_ms_.push_back(NsToMs(now_ns - ingest_ns_[static_cast<size_t>(step)]));
  }
  for (const hod::stream::ActiveAlarm& alarm : snapshot.active_alarms) {
    auto it = trace_->sensor_index.find(alarm.sensor_id);
    if (it == trace_->sensor_index.end()) continue;
    double& seen = seen_since_[it->second];
    if (seen == alarm.since) continue;
    seen = alarm.since;
    const int64_t sample = trace_->Find(alarm.sensor_id, alarm.since);
    if (sample < 0 || ingest_ns_[static_cast<size_t>(sample)] == 0) continue;
    visible_ms_.push_back(
        NsToMs(now_ns - ingest_ns_[static_cast<size_t>(sample)]));
  }
}

Readers::Readers(hod::serve::SnapshotHub* hub, size_t hot, size_t slow)
    : hot_(hot) {
  for (size_t i = 0; i < hot + slow; ++i) readers_.push_back(hub->Subscribe());
}

void Readers::Tick(Tracer* tracer, size_t slices) {
  for (size_t i = 0; i < hot_; ++i) {
    Tracer::Scope span(tracer, SpanName::kDrain);
    readers_[i]->Drain();
  }
  const size_t slow = readers_.size() - hot_;
  if (slow == 0 || slices == 0) return;
  const size_t slice = tick_++ % slices;
  for (size_t i = hot_ + slice; i < readers_.size(); i += slices) {
    Tracer::Scope span(tracer, SpanName::kDrain);
    readers_[i]->Drain();
  }
}

void Readers::DrainAll(Tracer* tracer) {
  for (auto& reader : readers_) {
    Tracer::Scope span(tracer, SpanName::kDrain);
    reader->Drain();
  }
}

void Readers::Check(const hod::serve::SnapshotHub& hub, Outcome& outcome,
                    const std::string& where) const {
  const std::optional<EngineSnapshot> latest = hub.Latest();
  if (!outcome.Check(latest.has_value(), where + ": hub published")) return;
  const std::string want = hod::serve::EncodeSnapshotBytes(*latest);
  size_t diverged = 0;
  uint64_t offers = 0;
  size_t broken_identity = 0;
  size_t waiting = 0;
  for (const auto& reader : readers_) {
    const hod::serve::SubscriberChannelStats channel = reader->ChannelStats();
    if (channel.awaiting_keyframe) ++waiting;
    if (!reader->has_view() ||
        hod::serve::EncodeSnapshotBytes(reader->View()) != want) {
      ++diverged;
    }
    offers += channel.offers;
    if (channel.offers != channel.deltas_served + channel.keyframes_served +
                              channel.delta_dropped +
                              channel.keyframes_dropped) {
      ++broken_identity;
    }
  }
  outcome.Check(waiting == 0, where + ": " + std::to_string(waiting) +
                                  " readers never resynced to a keyframe");
  outcome.Check(diverged == 0, where + ": " + std::to_string(diverged) +
                                   " reader views differ from hub.Latest()");
  outcome.Check(broken_identity == 0,
                where + ": per-reader offers identity broken");
  const hod::serve::HubStatsSnapshot stats = hub.Stats();
  outcome.Check(offers == stats.deltas_served + stats.keyframes_served +
                              stats.delta_dropped + stats.keyframes_dropped,
                where + ": hub offers identity broken");
}

void CheckConservation(const StreamStatsSnapshot& stats, Outcome& outcome,
                       const std::string& where) {
  outcome.Check(stats.ingested == stats.scored + stats.dropped +
                                      stats.rejected_total() +
                                      stats.quarantined_samples,
                where + ": ingested != scored + dropped + rejected + "
                        "quarantined");
}

void RecordPassCounters(const StreamStatsSnapshot& stats,
                        uint64_t collector_events, double findings_held,
                        const hod::serve::HubStatsSnapshot& hub, Series& out) {
  // Mean drain batch from the log2 histogram (bucket midpoints).
  double batches = 0.0;
  double batched = 0.0;
  for (size_t i = 0; i < stats.batch_size_histogram.size(); ++i) {
    const double count = static_cast<double>(stats.batch_size_histogram[i]);
    batches += count;
    batched += count * 1.5 * std::ldexp(1.0, static_cast<int>(i));
  }
  uint64_t high_water = 0;
  for (uint64_t depth : stats.shard_queue_high_water) {
    high_water = std::max(high_water, depth);
  }
  auto share = [](uint64_t part, uint64_t whole) {
    return static_cast<double>(part) /
           static_cast<double>(std::max<uint64_t>(whole, 1));
  };
  out["alarms"].push_back(static_cast<double>(stats.alarms_raised));
  out["queue_high_water"].push_back(static_cast<double>(high_water));
  out["batch_mean"].push_back(batches > 0.0 ? batched / batches : 0.0);
  out["forwarded_share"].push_back(share(collector_events, stats.scored));
  out["findings_held"].push_back(findings_held);
  out["shifts_confirmed"].push_back(static_cast<double>(stats.concept_shifts));
  out["peer_deviations"].push_back(static_cast<double>(stats.peer_deviations));
  out["delta_share"].push_back(
      share(hub.deltas_encoded, hub.deltas_encoded + hub.keyframes_encoded));
  out["dropped_share"].push_back(
      share(hub.delta_dropped + hub.keyframes_dropped,
            hub.deltas_served + hub.keyframes_served + hub.delta_dropped +
                hub.keyframes_dropped));
}

hod::Status Register(StreamEngine& engine, const EngineSetup& setup) {
  for (const auto& [id, level] : setup.trace->sensors) {
    HOD_RETURN_IF_ERROR(engine.AddSensor(id, level));
  }
  for (size_t g = 0; g < setup.peer_groups.size(); ++g) {
    HOD_RETURN_IF_ERROR(
        engine.AddPeerGroup("pair" + std::to_string(g), setup.peer_groups[g]));
  }
  if (setup.production != nullptr) {
    HOD_RETURN_IF_ERROR(
        engine.AddPeerGroupsFromRegistry(setup.production->sensors));
    HOD_RETURN_IF_ERROR(
        engine.AddPeerGroupsFromConfiguration(*setup.production));
  }
  return hod::Status::Ok();
}

namespace {

/// What the threaded == sync tests pin, and nothing timing-dependent.
/// LevelOutlierState::last_outlier_ts is left out: it is the timestamp of
/// the last outlier the collector consumed, and across shards the
/// collector's consumption order is an interleaving.
struct Fingerprint {
  uint64_t ingested = 0;
  uint64_t scored = 0;
  uint64_t alarms_raised = 0;
  /// Findings held, peer-drift findings excluded: a peer deviation scores
  /// a sample against its group's live median, which depends on how the
  /// members' samples interleave across shards.
  uint64_t findings = 0;
  std::array<hod::stream::LevelOutlierState, hod::hierarchy::kNumLevels>
      levels{};

  bool operator==(const Fingerprint& other) const {
    if (ingested != other.ingested || scored != other.scored ||
        alarms_raised != other.alarms_raised ||
        findings != other.findings) {
      return false;
    }
    for (size_t i = 0; i < levels.size(); ++i) {
      const auto& a = levels[i];
      const auto& b = other.levels[i];
      if (a.outlier_samples != b.outlier_samples ||
          a.alarms_raised != b.alarms_raised ||
          a.alarms_cleared != b.alarms_cleared ||
          a.active_alarms != b.active_alarms ||
          a.sensor_faults != b.sensor_faults ||
          a.quarantined_sensors != b.quarantined_sensors ||
          a.peak_score != b.peak_score) {
        return false;
      }
    }
    return true;
  }
};

Fingerprint TakeFingerprint(const StreamEngine& engine) {
  Fingerprint print;
  const StreamStatsSnapshot stats = engine.stats();
  print.ingested = stats.ingested;
  print.scored = stats.scored;
  print.alarms_raised = stats.alarms_raised;
  for (const auto& finding : engine.Findings()) {
    if (finding.kind != hod::core::FindingKind::kPeerDrift) ++print.findings;
  }
  print.levels = engine.Snapshot().levels;
  return print;
}

StreamStatsSnapshot PlantStats(const hod::fleet::FleetManager& fleet,
                               const std::string& plant) {
  for (const auto& entry : fleet.Stats().per_plant) {
    if (entry.plant_id == plant) return entry.stats;
  }
  return {};
}

/// Feeds the whole trace; returns failed Ingest calls.
template <typename IngestFn>
uint64_t Feed(const Trace& trace, Outcome& outcome, IngestFn&& ingest) {
  uint64_t failed = 0;
  for (const auto& sample : trace.samples) {
    if (!ingest(sample)) ++failed;
  }
  outcome.Attempted(trace.samples.size());
  if (failed > 0) outcome.Failed("parity ingest", failed);
  return failed;
}

}  // namespace

void RunParityDrill(const EngineSetup& instance,
                    const std::string& work_dir, Series& series,
                    Outcome& outcome) {
  StreamEngineOptions threaded = instance.options;
  threaded.synchronous = false;
  threaded.snapshot_sink = nullptr;
  threaded.health.staleness_timeout = 0.0;
  StreamEngineOptions sync = threaded;
  sync.synchronous = true;

  // Synchronous reference (also the single-threaded throughput baseline).
  StreamEngine reference(sync);
  if (!outcome.Check(Register(reference, instance).ok() &&
                         reference.Start().ok(),
                     "parity: sync engine start")) {
    return;
  }
  const int64_t t0 = NowNs();
  Feed(*instance.trace, outcome, [&](const auto& sample) {
    return reference.Ingest(sample).ok();
  });
  outcome.Check(reference.Flush().ok(), "parity: sync flush");
  series["sync_ingest_sps"].push_back(
      static_cast<double>(instance.trace->samples.size()) /
      (static_cast<double>(NowNs() - t0) / 1e9));
  const Fingerprint want = TakeFingerprint(reference);
  CheckConservation(reference.stats(), outcome, "parity sync");

  // Checkpoint round trip of the synchronous engine.
  std::ostringstream image;
  int64_t start = NowNs();
  outcome.Attempted();
  if (!reference.Checkpoint(image).ok()) outcome.Failed("parity checkpoint");
  series["drill_checkpoint_ms"].push_back(NsToMs(NowNs() - start));
  series["drill_checkpoint_bytes"].push_back(static_cast<double>(image.str().size()));
  std::istringstream in(image.str());
  start = NowNs();
  outcome.Attempted();
  auto restored = StreamEngine::Restore(in, sync);
  series["drill_restore_ms"].push_back(NsToMs(NowNs() - start));
  if (!restored.ok()) {
    outcome.Failed("parity restore: " + restored.status().ToString());
  } else {
    outcome.Check(restored.value()->Flush().ok() &&
                      TakeFingerprint(*restored.value()) == want,
                  "parity: restored sync engine differs");
    (void)restored.value()->Stop();
  }
  (void)reference.Stop();

  // Threaded engine on its own threads, then on a borrowed pool. Both
  // publish into a synchronous hub through a timed sink, the drill's
  // stand-in for serve.publish where a workload cannot install its own
  // sink (FleetManager installs the fleet's).
  hod::util::ThreadPool pool(hod::util::ThreadPoolOptions{2, 1});
  std::vector<double>& publish_us = series["drill_publish_us"];
  for (hod::util::ThreadPool* executor :
       {static_cast<hod::util::ThreadPool*>(nullptr), &pool}) {
    hod::serve::SnapshotHub hub;
    StreamEngineOptions options = threaded;
    options.executor = executor;
    options.snapshot_sink = [&hub, &publish_us](const EngineSnapshot& snapshot) {
      const int64_t t0 = NowNs();
      hub.Publish(snapshot);
      publish_us.push_back(NsToUs(NowNs() - t0));
    };
    const std::string runtime = executor == nullptr ? "threaded" : "pooled";
    StreamEngine engine(options);
    if (!outcome.Check(Register(engine, instance).ok() && engine.Start().ok(),
                       "parity: " + runtime + " engine start")) {
      continue;
    }
    Feed(*instance.trace, outcome,
         [&](const auto& sample) { return engine.Ingest(sample).ok(); });
    outcome.Check(engine.Flush().ok(), "parity: " + runtime + " flush");
    outcome.Check(TakeFingerprint(engine) == want,
                  "parity: " + runtime + " engine differs from synchronous");
    (void)engine.Stop();
    CheckConservation(engine.stats(), outcome, "parity " + runtime);
  }

  // Fleet kill-and-restore: one plant restored from the image of a freshly
  // registered engine (peer groups travel in the image), fed, checkpointed,
  // killed and restored; it must come back with the same counters.
  const std::string dir = work_dir + "/parity";
  std::filesystem::create_directories(dir);
  const std::string plant = "parity";
  {
    StreamEngine fresh(sync);
    std::ostringstream fresh_image;
    outcome.Check(Register(fresh, instance).ok() && fresh.Start().ok() &&
                      fresh.Checkpoint(fresh_image).ok(),
                  "parity: fresh engine image");
    std::ofstream(dir + "/" + plant + ".ckpt", std::ios::binary)
        << fresh_image.str();
    (void)fresh.Stop();
  }
  hod::fleet::FleetManagerOptions fleet_options;
  fleet_options.engine = threaded;
  fleet_options.executor = &pool;
  fleet_options.checkpoint_dir = dir;
  hod::fleet::FleetManager fleet(fleet_options);
  if (!outcome.Check(fleet.RestorePlant(plant).ok(),
                     "parity: fleet plant restore")) {
    return;
  }
  Feed(*instance.trace, outcome,
       [&](const auto& sample) { return fleet.Ingest(plant, sample).ok(); });
  outcome.Check(fleet.FlushPlant(plant).ok(), "parity: fleet flush");
  const StreamStatsSnapshot before = PlantStats(fleet, plant);
  outcome.Check(before.scored == want.scored &&
                    before.alarms_raised == want.alarms_raised,
                "parity: fleet plant differs from synchronous");

  start = NowNs();
  outcome.Attempted();
  if (!fleet.CheckpointPlant(plant).ok()) outcome.Failed("CheckpointPlant");
  series["drill_checkpoint_plant_ms"].push_back(NsToMs(NowNs() - start));
  outcome.Check(fleet.RemovePlant(plant).ok(), "parity: kill plant");
  start = NowNs();
  outcome.Attempted();
  if (!fleet.RestorePlant(plant).ok()) outcome.Failed("RestorePlant");
  series["drill_restore_plant_ms"].push_back(NsToMs(NowNs() - start));
  const StreamStatsSnapshot after = PlantStats(fleet, plant);
  outcome.Check(after.ingested == before.ingested &&
                    after.scored == before.scored &&
                    after.alarms_raised == before.alarms_raised,
                "parity: restored plant differs from the killed one");
  (void)fleet.Stop();
}

}  // namespace perfbench
