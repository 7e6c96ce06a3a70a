// plant_replay: the paper's own setting. A simulated additive-manufacturing
// plant (phase and environment channels, peer groups from the registry and
// the machine configuration) is replayed in time order into a threaded
// 2-shard engine. A synchronous SnapshotHub serves a few hundred readers,
// an EscalationBridge runs Algorithm 1 over fresh alarms, and dashboard
// reads (drains, polls, roll-ups, board) run on the producer thread at a
// cadence counted in samples.

#include <memory>

#include "core/hierarchical_detector.h"
#include "runner.h"
#include "serve/query.h"
#include "stream/escalation.h"

namespace perfbench {
namespace {

using hod::core::HierarchicalDetector;
using hod::serve::QueryService;
using hod::serve::SnapshotHub;
using hod::stream::EngineSnapshot;
using hod::stream::EscalationBridge;
using hod::stream::StreamEngine;

constexpr size_t kPlants = 16;
constexpr size_t kHotReaders = 4;
constexpr size_t kSlowReaders = 252;
constexpr size_t kSlowSlices = 16;
constexpr size_t kTick = 256;           // samples between dashboard ticks
constexpr size_t kPollEveryTicks = 2;   // EscalationBridge::Poll
constexpr size_t kBoardEveryTicks = 16;  // StreamEngine::Episodes

/// One full batch pass of Algorithm 1 over every level, so the detector's
/// epoch cache holds every model before the stream starts and escalation
/// measures the incremental path.
void WarmDetector(HierarchicalDetector& detector,
                  const hod::hierarchy::Production& production) {
  for (const auto& line : production.lines) {
    for (const auto& machine : line.machines) {
      for (const auto& job : machine.jobs) {
        for (const auto& phase : job.phases) {
          for (const auto& [sensor_id, series] : phase.sensor_series) {
            (void)detector.FindPhaseOutliers(
                {machine.id, job.id, phase.name, sensor_id});
          }
        }
      }
      (void)detector.FindJobOutliers(machine.id);
    }
    (void)detector.FindEnvironmentOutliers(line.id);
    (void)detector.FindLineOutliers(line.id);
  }
  (void)detector.FindProductionOutliers();
}

}  // namespace

void RunPlantReplay(RunState& state) {
  Outcome& outcome = state.outcome;
  // Passes cycle through 16 plants drawn from the run seed, so one
  // plant's anomaly mix does not decide the run. Each plant has eight jobs
  // per machine: the first four are history (in the production the
  // detector is warmed on), the last four are replayed.
  const PlantShape shape{1, 2, 8, 4};
  std::vector<PlantWorkload> plants;
  for (size_t k = 0; k < kPlants; ++k) {
    auto generated = MakePlantWorkload(state.options.seed * kPlants + k, shape);
    if (!outcome.Check(generated.ok(), "plant generation")) return;
    plants.push_back(std::move(generated).value());
  }

  hod::stream::StreamEngineOptions options;
  options.num_shards = 2;

  hod::serve::SnapshotHubOptions hub_options;
  hub_options.async = false;

  // Reduced instance for the parity drill: one machine's first job.
  auto reduced_generated =
      MakePlantWorkload(state.options.seed + 1000003, {1, 1, 1});
  if (!outcome.Check(reduced_generated.ok(), "reduced plant generation")) {
    return;
  }
  const PlantWorkload reduced = std::move(reduced_generated).value();

  std::vector<std::unique_ptr<VisibilityProbe>> probes;
  for (const PlantWorkload& plant : plants) {
    probes.push_back(std::make_unique<VisibilityProbe>(&plant.trace));
  }

  size_t pass_index = 0;
  RunPasses(state, [&](Tracer& tracer, Series& out) {
    const PlantWorkload& workload = plants[pass_index % plants.size()];
    VisibilityProbe& probe = *probes[pass_index % plants.size()];
    ++pass_index;
    const hod::hierarchy::Production& production = workload.plant.production;
    const Trace& trace = workload.trace;
    hod::serve::RollupQuery drill_down;
    drill_down.start = trace.step_ts.front();
    drill_down.end = trace.step_ts.back() + 1.0;
    drill_down.bucket_width = 300.0;
    probe.Reset();
    state.rss.Begin();
    const int64_t setup_start = NowNs();
    std::unique_ptr<SnapshotHub> hub;
    std::unique_ptr<StreamEngine> engine;
    std::unique_ptr<Readers> readers;
    std::unique_ptr<QueryService> queries;
    std::unique_ptr<HierarchicalDetector> detector;
    std::unique_ptr<EscalationBridge> bridge;
    {
      Tracer::Scope span(&tracer, SpanName::kSetup);
      hub = std::make_unique<SnapshotHub>(hub_options);
      hod::stream::StreamEngineOptions engine_options = options;
      SnapshotHub* sink_hub = hub.get();
      engine_options.snapshot_sink = [sink_hub, &probe,
                                      &tracer](const EngineSnapshot& snapshot) {
        {
          Tracer::Scope publish(&tracer, SpanName::kPublish);
          sink_hub->Publish(snapshot);
        }
        probe.Observe(snapshot, NowNs());
      };
      engine = std::make_unique<StreamEngine>(engine_options);
      EngineSetup registration{&trace, options, {}, &production};
      outcome.Check(Register(*engine, registration).ok() &&
                        engine->Start().ok(),
                    "plant engine start");
      readers = std::make_unique<Readers>(hub.get(), kHotReaders, kSlowReaders);
      queries = std::make_unique<QueryService>(hub.get());
      detector = std::make_unique<HierarchicalDetector>(&production);
      WarmDetector(*detector, production);
      bridge = std::make_unique<EscalationBridge>(engine.get(), detector.get());
    }
    out["setup_s"].push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    const hod::core::DetectorCacheStats cache_before = detector->cache_stats();
    IngestTimer timer(tracer);
    uint64_t failed_ingest = 0;
    size_t tick = 0;
    const int64_t start = NowNs();
    {
      Tracer::Scope run(&tracer, SpanName::kRun);
      for (size_t i = 0; i < trace.samples.size(); ++i) {
        probe.Stamp(i);
        if (!timer.Call([&] { return engine->Ingest(trace.samples[i]).ok(); })) {
          ++failed_ingest;
        }
        if ((i + 1) % kTick != 0) continue;

        // Dashboard tick.
        ++tick;
        readers->Tick(&tracer, kSlowSlices);
        if (tick % kPollEveryTicks == 0) {
          const int64_t t0 = NowNs();
          hod::StatusOr<size_t> escalated = size_t{0};
          {
            Tracer::Scope span(&tracer, SpanName::kPoll);
            escalated = bridge->Poll();
          }
          const double ms = NsToMs(NowNs() - t0);
          outcome.Attempted();
          if (!escalated.ok()) {
            outcome.Failed("Poll: " + escalated.status().ToString());
          } else if (escalated.value() > 0) {
            out["triple_ms"].push_back(ms);
            out["escalate_ms_per_entity"].push_back(
                ms / static_cast<double>(escalated.value()));
          }
        }
        {
          const int64_t t0 = NowNs();
          hod::StatusOr<hod::serve::RollupResult> rollup =
              hod::Status::Ok();
          {
            Tracer::Scope span(&tracer, SpanName::kRollup);
            rollup = queries->Rollup(drill_down);
          }
          const double ms = NsToMs(NowNs() - t0);
          outcome.Attempted();
          if (!rollup.ok()) {
            outcome.Failed("Rollup: " + rollup.status().ToString());
          } else if (!rollup.value().cache_hit) {
            out["rollup_ms"].push_back(ms);
          }
        }
        if (tick % kBoardEveryTicks == 0) {
          const int64_t t0 = NowNs();
          {
            Tracer::Scope span(&tracer, SpanName::kBoard);
            (void)engine->Episodes();
          }
          out["board_ms"].push_back(NsToMs(NowNs() - t0));
        }
        state.rss.Sample();
      }
      const int64_t flush_start = NowNs();
      {
        Tracer::Scope span(&tracer, SpanName::kFlush);
        outcome.Check(engine->Flush().ok(), "plant flush");
      }
      const int64_t end = NowNs();
      out["flush_ms"].push_back(NsToMs(end - flush_start));
      out["ingest_sps"].push_back(static_cast<double>(trace.samples.size()) /
                                  (static_cast<double>(end - start) / 1e9));
      if (tracer.enabled()) out["busy_share"].push_back(timer.BusyShare(end - start));
    }
    probe.Freeze();
    state.rss.Sample();
    out["mem_mb"].push_back(state.rss.PeakDeltaMb());
    outcome.Attempted(trace.samples.size());
    if (failed_ingest > 0) outcome.Failed("plant Ingest", failed_ingest);

    // Output checks on the full run. Readers that were dropping when the
    // last snapshot landed resync on the final publish of Stop(), so drain,
    // stop, drain again.
    readers->DrainAll(&tracer);
    bridge.reset();
    outcome.Check(engine->Stop().ok(), "plant stop");
    readers->DrainAll(&tracer);
    readers->Check(*hub, outcome, "plant_replay");
    const hod::stream::StreamStatsSnapshot stats = engine->stats();
    const EngineSnapshot snapshot = engine->Snapshot();
    CheckConservation(stats, outcome, "plant_replay");
    outcome.Check(stats.ingested == trace.samples.size(),
                  "plant_replay: ingested != trace size");
    if (stats.dropped + stats.rejected_total() > 0) {
      outcome.Failed("plant_replay dropped/rejected samples",
                     stats.dropped + stats.rejected_total());
    }

    RecordPassCounters(stats, snapshot.events_seen,
                       static_cast<double>(engine->Findings().size()),
                       hub->Stats(), out);
    const hod::core::DetectorCacheStats cache_after = detector->cache_stats();
    out["escalate_cache_hits"].push_back(
        static_cast<double>(cache_after.hits() - cache_before.hits()));
    out["escalate_cache_misses"].push_back(
        static_cast<double>(cache_after.misses() - cache_before.misses()));
    out["rollup_cache_hits"].push_back(static_cast<double>(queries->cache_hits()));
    out["rollup_cache_misses"].push_back(
        static_cast<double>(queries->cache_misses()));

    auto& lag = probe.lag_ms();
    out["view_lag_ms"].insert(out["view_lag_ms"].end(), lag.begin(), lag.end());
    auto& visible = probe.visible_ms();
    out["visible_ms"].insert(out["visible_ms"].end(), visible.begin(),
                             visible.end());
    engine.reset();
    readers.reset();
    queries.reset();
    hub.reset();
    detector.reset();
  });

  EngineSetup instance{&reduced.trace, options, {},
                           &reduced.plant.production};
  RunParityDrill(instance, state.options.work_dir, state.layers,
                 state.outcome);
}

}  // namespace perfbench
