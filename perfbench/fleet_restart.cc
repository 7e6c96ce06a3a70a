// fleet_restart: 16 plants on one FleetManager and its pooled runtime — a
// few shaped like plant_replay, the rest sensor floods — restored from
// checkpoint files at set-up, served through a FleetHub of synchronous
// hubs, and read by dashboards on the producer thread. After the restart
// the plants replay the stream they buffered while the fleet was down, in
// acknowledged windows: the producer sends a window, then waits in Flush()
// until all of it is scored, collected and published. Mid-run every plant
// is checkpointed once and one plant is killed and restored while its
// siblings keep their pipelines busy. The only workload on the pooled
// runtime and the only one that writes checkpoints.

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "core/hierarchical_detector.h"
#include "fleet/manager.h"
#include "runner.h"
#include "serve/fleet_hub.h"

namespace perfbench {
namespace {

using hod::fleet::FleetManager;
using hod::stream::EngineSnapshot;
using hod::stream::StreamEngine;

constexpr size_t kFleets = 3;  // fleets per run; passes rotate through them
constexpr size_t kPlantShaped = 4;
constexpr size_t kFloodShaped = 12;
// Samples per acknowledged replay window. A shard receives about 600 of
// them at most (its queue high-water mark), so the producer does not wait
// on a full 1024-sample queue (see NOTES.md, Steadiness).
constexpr size_t kWindow = 16384;
constexpr size_t kSlowReadersPerPlant = 4;
constexpr size_t kTick = 1024;            // samples between dashboard ticks
constexpr size_t kRollupEveryTicks = 4;   // FleetHub::Rollup
constexpr size_t kBoardEveryTicks = 16;   // FleetManager::AlertBoard
constexpr size_t kVictim = kPlantShaped;  // first flood-shaped plant

/// One plant of the fleet: its trace, what it restores from, and the
/// benchmark's dashboard state for it.
struct Plant {
  std::string id;
  Trace trace;
  std::string image;  ///< checkpoint the plant is restored from at set-up
  uint64_t restored_ingested = 0;
  /// Plant-shaped plants only: the production and a warm detector the
  /// benchmark escalates fresh alarms with (the fleet tier has no bridge).
  std::unique_ptr<hod::sim::SimulatedPlant> sim;
  std::unique_ptr<hod::core::HierarchicalDetector> detector;
  std::map<std::string, double> escalated;  ///< sensor -> alarm since
};

/// One fleet's plants, the producer's interleaved schedule over them, and
/// their latency probes.
struct Fleet {
  std::vector<Plant> plants;
  /// (plant, sample index) in ingest order.
  std::vector<std::pair<uint32_t, uint32_t>> schedule;
  std::vector<std::unique_ptr<VisibilityProbe>> probes;
};

/// Escalates every alarm of `view` not yet escalated at its `since`, the
/// way EscalationBridge::Poll diffs snapshots. Returns the count.
size_t EscalateFresh(Plant& plant, const EngineSnapshot& view,
                     Outcome& outcome) {
  size_t fresh = 0;
  for (const auto& alarm : view.active_alarms) {
    auto it = plant.escalated.find(alarm.sensor_id);
    if (it != plant.escalated.end() && it->second == alarm.since) continue;
    plant.escalated[alarm.sensor_id] = alarm.since;
    ++fresh;
    outcome.Attempted();
    // NotFound (no job near the alarm) is a verdict, not a failure.
    (void)plant.detector->EscalateAlarm(alarm.level, alarm.sensor_id,
                                        alarm.since);
  }
  return fresh;
}

/// The parity drill's reduced instance: one flood plant's whole stream.
struct Reduced {
  Trace trace;
  std::vector<std::vector<std::string>> pairs;
};

/// Generates one fleet from `fleet_seed`: every plant's trace and the
/// checkpoint image it restores from, the plant-shaped plants' warm
/// escalation detectors, and the producer's schedule. Fills `reduced`
/// with the victim plant's stream when it is given.
bool BuildFleet(uint64_t fleet_seed,
                const hod::stream::StreamEngineOptions& options,
                const FloodShape& flood_shape, Outcome& outcome, Fleet& fleet,
                Reduced* reduced) {
  hod::stream::StreamEngineOptions sync = options;
  sync.synchronous = true;
  std::vector<Plant>& plants = fleet.plants;
  plants.resize(kPlantShaped + kFloodShaped);
  for (size_t p = 0; p < plants.size(); ++p) {
    Plant& plant = plants[p];
    plant.id = "plant_" + std::to_string(p);
    StreamEngine engine(sync);
    EngineSetup registration;
    registration.options = options;
    if (p < kPlantShaped) {
      auto generated = MakePlantWorkload(fleet_seed * 64 + p, {1, 2, 6, 4});
      if (!outcome.Check(generated.ok(), "fleet plant generation")) {
        return false;
      }
      plant.trace = std::move(generated.value().trace);
      plant.sim = std::make_unique<hod::sim::SimulatedPlant>(
          std::move(generated.value().plant));
      plant.detector = std::make_unique<hod::core::HierarchicalDetector>(
          &plant.sim->production);
      registration.trace = &plant.trace;
      registration.production = &plant.sim->production;
      outcome.Check(Register(engine, registration).ok() && engine.Start().ok(),
                    "fleet image engine start");
    } else {
      FloodShape shape = flood_shape;
      shape.prefix = "p" + std::to_string(p) + "s";
      FloodWorkload flood = MakeFloodWorkload(fleet_seed * 64 + p, shape);
      registration.trace = &flood.warm;
      registration.peer_groups = flood.pairs;
      outcome.Check(Register(engine, registration).ok() && engine.Start().ok(),
                    "fleet image engine start");
      for (const auto& sample : flood.warm.samples) {
        outcome.Attempted();
        if (!engine.Ingest(sample).ok()) outcome.Failed("fleet warm Ingest");
      }
      plant.restored_ingested = flood.warm.samples.size();
      if (reduced != nullptr && p == kVictim) {
        reduced->trace = flood.warm;
        reduced->trace.samples.insert(reduced->trace.samples.end(),
                                      flood.flood.samples.begin(),
                                      flood.flood.samples.end());
        reduced->trace.Finish();
        reduced->pairs = flood.pairs;
      }
      plant.trace = std::move(flood.flood);
    }
    std::ostringstream os;
    outcome.Check(engine.Checkpoint(os).ok(), "fleet image checkpoint");
    plant.image = os.str();
    (void)engine.Stop();
    fleet.probes.push_back(std::make_unique<VisibilityProbe>(&plant.trace));
  }
  // Warm the escalation detectors once: they serve every pass.
  for (Plant& plant : plants) {
    if (plant.detector == nullptr) continue;
    for (const auto& line : plant.sim->production.lines) {
      for (const auto& machine : line.machines) {
        (void)plant.detector->FindJobOutliers(machine.id);
      }
      (void)plant.detector->FindEnvironmentOutliers(line.id);
      (void)plant.detector->FindLineOutliers(line.id);
    }
    (void)plant.detector->FindProductionOutliers();
  }

  // One producer interleaves the plants in proportion to their length, so
  // every plant streams from start to end over the same wall interval.
  std::vector<std::pair<double, std::pair<uint32_t, uint32_t>>> keyed;
  for (uint32_t p = 0; p < plants.size(); ++p) {
    const size_t n = plants[p].trace.samples.size();
    for (uint32_t i = 0; i < n; ++i) {
      keyed.push_back({(i + 0.5) / static_cast<double>(n), {p, i}});
    }
  }
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& entry : keyed) fleet.schedule.push_back(entry.second);
  return true;
}

}  // namespace

void RunFleetRestart(RunState& state) {
  Outcome& outcome = state.outcome;

  hod::stream::StreamEngineOptions options;
  options.num_shards = 2;
  options.shift.enabled = true;

  FloodShape flood_shape;
  flood_shape.sensors = 256;
  flood_shape.warm_steps = 72;
  flood_shape.steps = 48;
  flood_shape.spikes = 16;
  flood_shape.shifts = 2;
  flood_shape.hold_sensors = 2;

  // Passes rotate through kFleets fleets drawn from the run seed, so one
  // fleet's anomaly mix does not decide the run.
  std::vector<Fleet> fleets(kFleets);
  Reduced reduced;
  for (size_t f = 0; f < fleets.size(); ++f) {
    if (!BuildFleet(state.options.seed * kFleets + f, options, flood_shape,
                    outcome, fleets[f], f == 0 ? &reduced : nullptr)) {
      return;
    }
  }

  const std::string dir = state.options.work_dir + "/fleet";
  std::filesystem::create_directories(dir);

  hod::fleet::FleetManagerOptions fleet_options;
  fleet_options.engine = options;
  fleet_options.pool_threads = 2;
  fleet_options.service_threads = 1;
  fleet_options.checkpoint_dir = dir;
  fleet_options.enable_serving = true;

  hod::serve::RollupQuery drill_down;
  drill_down.start = 0.0;
  drill_down.end = 1e6;
  drill_down.bucket_width = 600.0;

  size_t pass_index = 0;
  RunPasses(state, [&](Tracer& tracer, Series& out) {
    Fleet& current = fleets[pass_index++ % fleets.size()];
    std::vector<Plant>& plants = current.plants;
    const auto& schedule = current.schedule;
    const auto& probes = current.probes;
    const size_t checkpoint_at = schedule.size() * 2 / 5;
    const size_t kill_at = schedule.size() * 3 / 5;
    for (size_t p = 0; p < plants.size(); ++p) {
      probes[p]->Reset();
      plants[p].escalated.clear();
      std::ofstream(dir + "/" + plants[p].id + ".ckpt", std::ios::binary)
          << plants[p].image;
    }
    state.rss.Begin();

    const int64_t setup_start = NowNs();
    std::unique_ptr<FleetManager> fleet;
    std::vector<std::unique_ptr<Readers>> readers(plants.size());
    std::vector<uint64_t> seen_sequence(plants.size(), 0);
    {
      Tracer::Scope span(&tracer, SpanName::kSetup);
      fleet = std::make_unique<FleetManager>(fleet_options);
      for (size_t p = 0; p < plants.size(); ++p) {
        const int64_t t0 = NowNs();
        hod::Status restored;
        {
          Tracer::Scope restore(&tracer, SpanName::kRestorePlant);
          restored = fleet->RestorePlant(plants[p].id);
        }
        out["restore_plant_ms"].push_back(NsToMs(NowNs() - t0));
        outcome.Attempted();
        if (!restored.ok()) {
          outcome.Failed("RestorePlant: " + restored.ToString());
          return;
        }
        readers[p] = std::make_unique<Readers>(
            fleet->Serving()->Hub(plants[p].id), 1, kSlowReadersPerPlant);
      }
    }
    out["setup_s"].push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    // A dashboard tick: drain every plant's readers; a plant whose view
    // moved yields a view-lag sample, newly visible alarms, and (plant-
    // shaped plants) an escalation pass over its fresh alarms.
    auto dashboard = [&](size_t tick) {
      for (size_t p = 0; p < plants.size(); ++p) {
        readers[p]->Tick(&tracer, kSlowReadersPerPlant);
      }
      const int64_t now = NowNs();
      for (size_t p = 0; p < plants.size(); ++p) {
        const EngineSnapshot& view = readers[p]->HotView();
        if (view.sequence == seen_sequence[p]) continue;
        seen_sequence[p] = view.sequence;
        probes[p]->Observe(view, now);
        if (plants[p].detector == nullptr) continue;
        const int64_t t0 = NowNs();
        size_t fresh;
        {
          Tracer::Scope span(&tracer, SpanName::kPoll);
          fresh = EscalateFresh(plants[p], view, outcome);
        }
        if (fresh > 0) {
          const double ms = NsToMs(NowNs() - t0);
          out["triple_ms"].push_back(ms);
          out["escalate_ms_per_entity"].push_back(ms / static_cast<double>(fresh));
        }
      }
      if (tick % kRollupEveryTicks == 0) {
        const int64_t t0 = NowNs();
        hod::StatusOr<hod::serve::FleetRollupResult> rollup = hod::Status::Ok();
        {
          Tracer::Scope span(&tracer, SpanName::kRollup);
          rollup = fleet->Serving()->Rollup(drill_down);
        }
        out["rollup_ms"].push_back(NsToMs(NowNs() - t0));
        outcome.Attempted();
        if (!rollup.ok()) outcome.Failed("FleetHub::Rollup");
      }
      if (tick % kBoardEveryTicks == 0) {
        const int64_t t0 = NowNs();
        {
          Tracer::Scope span(&tracer, SpanName::kBoard);
          (void)fleet->AlertBoard();
        }
        out["board_ms"].push_back(NsToMs(NowNs() - t0));
      }
      state.rss.Sample();
    };

    // Detector cache traffic of this pass's escalations.
    auto cache_totals = [&] {
      std::pair<uint64_t, uint64_t> totals{0, 0};
      for (const Plant& plant : plants) {
        if (plant.detector == nullptr) continue;
        totals.first += plant.detector->cache_stats().hits();
        totals.second += plant.detector->cache_stats().misses();
      }
      return totals;
    };
    const auto cache_before = cache_totals();
    IngestTimer timer(tracer);
    uint64_t failed_ingest = 0;
    uint64_t victim_after_restore = 0;
    const int64_t start = NowNs();
    {
      Tracer::Scope run(&tracer, SpanName::kRun);
      for (size_t k = 0; k < schedule.size(); ++k) {
        const auto [p, i] = schedule[k];
        Plant& plant = plants[p];
        probes[p]->Stamp(i);
        if (!timer.Call([&] {
              return fleet->Ingest(plant.id, plant.trace.samples[i]).ok();
            })) {
          ++failed_ingest;
        }
        if (k == checkpoint_at) {
          for (const Plant& each : plants) {
            const int64_t t0 = NowNs();
            hod::Status written;
            {
              Tracer::Scope span(&tracer, SpanName::kCheckpointPlant);
              written = fleet->CheckpointPlant(each.id);
            }
            out["checkpoint_plant_ms"].push_back(NsToMs(NowNs() - t0));
            outcome.Attempted();
            if (!written.ok()) outcome.Failed("CheckpointPlant");
          }
        }
        if (k == kill_at) {
          // The plant's hub goes away with it: drop its readers first, and
          // subscribe afresh to the hub the restored plant gets.
          readers[kVictim].reset();
          outcome.Check(fleet->RemovePlant(plants[kVictim].id).ok(),
                        "fleet kill");
          const int64_t t0 = NowNs();
          hod::Status restored;
          {
            Tracer::Scope span(&tracer, SpanName::kRestorePlant);
            restored = fleet->RestorePlant(plants[kVictim].id);
          }
          out["restore_plant_ms"].push_back(NsToMs(NowNs() - t0));
          outcome.Attempted();
          if (!restored.ok()) {
            outcome.Failed("RestorePlant after kill");
            return;
          }
          readers[kVictim] = std::make_unique<Readers>(
              fleet->Serving()->Hub(plants[kVictim].id), 1,
              kSlowReadersPerPlant);
          seen_sequence[kVictim] = 0;
          for (const auto& entry : fleet->Stats().per_plant) {
            if (entry.plant_id == plants[kVictim].id) {
              victim_after_restore = entry.stats.ingested;
            }
          }
        }
        if ((k + 1) % kWindow == 0) {
          Tracer::Scope span(&tracer, SpanName::kFlush);
          outcome.Check(fleet->Flush().ok(), "fleet window flush");
        }
        if ((k + 1) % kTick == 0) dashboard((k + 1) / kTick);
      }
      const int64_t flush_start = NowNs();
      {
        Tracer::Scope span(&tracer, SpanName::kFlush);
        outcome.Check(fleet->Flush().ok(), "fleet flush");
      }
      const int64_t end = NowNs();
      out["flush_ms"].push_back(NsToMs(end - flush_start));
      out["ingest_sps"].push_back(static_cast<double>(schedule.size()) /
                                  (static_cast<double>(end - start) / 1e9));
      if (tracer.enabled()) {
        out["busy_share"].push_back(timer.BusyShare(end - start));
      }
    }
    for (auto& probe : probes) probe->Freeze();
    state.rss.Sample();
    outcome.Attempted(schedule.size());
    if (failed_ingest > 0) outcome.Failed("fleet Ingest", failed_ingest);

    // Output checks: readers resync on the final publishes of Stop().
    for (auto& reader : readers) reader->DrainAll(&tracer);
    outcome.Check(fleet->Stop().ok(), "fleet stop");
    for (size_t p = 0; p < plants.size(); ++p) {
      readers[p]->DrainAll(&tracer);
      readers[p]->Check(*fleet->Serving()->Hub(plants[p].id), outcome,
                        "fleet_restart " + plants[p].id);
    }
    const hod::fleet::FleetStatsSnapshot fleet_stats = fleet->Stats();
    const hod::stream::StreamStatsSnapshot& stats = fleet_stats.aggregate;
    CheckConservation(stats, outcome, "fleet_restart");
    // Restored counters + everything pushed; the killed plant's samples
    // between its checkpoint and the kill live on in the retired fold, and
    // the restored engine carries its checkpointed count a second time.
    uint64_t expected = schedule.size() + victim_after_restore;
    for (const Plant& plant : plants) expected += plant.restored_ingested;
    outcome.Check(stats.ingested == expected,
                  "fleet_restart: ingested != restored + pushed");
    if (stats.dropped + stats.rejected_total() > 0) {
      outcome.Failed("fleet_restart dropped/rejected samples",
                     stats.dropped + stats.rejected_total());
    }

    out["mem_mb"].push_back(state.rss.PeakDeltaMb());
    uint64_t events = 0;
    hod::serve::HubStatsSnapshot hubs;
    for (const Plant& plant : plants) {
      events += fleet->PlantSnapshot(plant.id).events_seen;
      const hod::serve::HubStatsSnapshot hub =
          fleet->Serving()->Hub(plant.id)->Stats();
      hubs.deltas_encoded += hub.deltas_encoded;
      hubs.keyframes_encoded += hub.keyframes_encoded;
      hubs.deltas_served += hub.deltas_served;
      hubs.keyframes_served += hub.keyframes_served;
      hubs.delta_dropped += hub.delta_dropped;
      hubs.keyframes_dropped += hub.keyframes_dropped;
    }
    double findings = 0.0;
    for (const auto& row : fleet->AlertBoard()) {
      findings += static_cast<double>(row.episode.finding_count);
    }
    RecordPassCounters(stats, events, findings, hubs, out);
    const auto cache_after = cache_totals();
    out["escalate_cache_hits"].push_back(
        static_cast<double>(cache_after.first - cache_before.first));
    out["escalate_cache_misses"].push_back(
        static_cast<double>(cache_after.second - cache_before.second));
    std::vector<double>& lag = out["view_lag_ms"];
    std::vector<double>& visible = out["visible_ms"];
    for (auto& probe : probes) {
      lag.insert(lag.end(), probe->lag_ms().begin(), probe->lag_ms().end());
      visible.insert(visible.end(), probe->visible_ms().begin(),
                     probe->visible_ms().end());
    }
    readers.clear();
    fleet.reset();
  });

  EngineSetup instance{&reduced.trace, options, reduced.pairs, nullptr};
  RunParityDrill(instance, state.options.work_dir, state.layers,
                 state.outcome);
}

}  // namespace perfbench
