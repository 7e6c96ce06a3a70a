// E7 — Throughput microbenchmarks (google-benchmark), plus the
// `micro_compare` mode used by CI.
//
// The paper's Sections 1/5 flag calculation speed as a core requirement
// for production-level outlier detection. These microbenchmarks time the
// detectors used at each level and the Algorithm-1 machinery so regression
// in scoring cost is visible.
//
// `bench_micro_throughput micro_compare` times the per-sample scoring
// cost of the shard hot path both ways: the retired per-sample layout
// (std::map<sensor_id, OnlineMonitor> lookup + scalar Push — what
// ShardedScorer::ScoreOne did) against the batched SoA path
// (BatchMonitorBank::PushBatch through the util/simd.h kernels, lane
// lookup included), on identical streams. Each leg is timed in equal
// chunks and the fastest chunk is reported (min-of-chunks screens out
// scheduler noise on shared CI boxes). It verifies the two legs end
// bit-identical (scores, counters, saved state) and writes
// BENCH_MICRO.json; the CI gate fails below the 2x speedup floor. The
// same JSON also records, ungated, the per-call cost of the two layers a
// shard worker runs beside the bank: ns per PeerGroupMonitor::Observe
// (pair groups, window 64) and ns per BocpdDetector::Push (64 run-length
// buckets).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_monitor.h"
#include "core/bocpd.h"
#include "core/hierarchical_detector.h"
#include "core/monitor.h"
#include "detect/ar_detector.h"
#include "detect/em_detector.h"
#include "detect/fsa_detector.h"
#include "detect/window_db.h"
#include "sim/datasets.h"
#include "sim/plant.h"
#include "stream/peer_group.h"
#include "timeseries/sax.h"
#include "timeseries/spectral.h"
#include "util/rng.h"
#include "util/simd.h"

namespace hod {
namespace {

void BM_ArScore(benchmark::State& state) {
  sim::SeriesDatasetOptions options;
  options.length = static_cast<size_t>(state.range(0));
  options.train_series = 2;
  options.test_series = 1;
  auto dataset = sim::GenerateSeriesDataset(options).value();
  detect::ArDetector detector;
  (void)detector.Train(dataset.train);
  for (auto _ : state) {
    auto scores = detector.Score(dataset.test[0]);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(options.length));
}
BENCHMARK(BM_ArScore)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EmScore(benchmark::State& state) {
  sim::PointDatasetOptions options;
  options.train_size = 512;
  options.test_size = static_cast<size_t>(state.range(0));
  options.dim = 8;
  auto dataset = sim::GeneratePointDataset(options).value();
  detect::EmDetector detector;
  (void)detector.Train(dataset.train);
  for (auto _ : state) {
    auto scores = detector.Score(dataset.test);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EmScore)->Arg(128)->Arg(1024);

void BM_FsaScore(benchmark::State& state) {
  sim::SequenceDatasetOptions options;
  options.length = static_cast<size_t>(state.range(0));
  options.train_sequences = 4;
  options.test_sequences = 1;
  auto dataset = sim::GenerateSequenceDataset(options).value();
  detect::FsaDetector detector;
  (void)detector.Train(dataset.train);
  for (auto _ : state) {
    auto scores = detector.Score(dataset.test[0]);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FsaScore)->Arg(256)->Arg(1024);

void BM_WindowDbScore(benchmark::State& state) {
  sim::SequenceDatasetOptions options;
  options.length = static_cast<size_t>(state.range(0));
  options.train_sequences = 4;
  options.test_sequences = 1;
  auto dataset = sim::GenerateSequenceDataset(options).value();
  detect::WindowDbDetector detector;
  (void)detector.Train(dataset.train);
  for (auto _ : state) {
    auto scores = detector.Score(dataset.test[0]);
    benchmark::DoNotOptimize(scores);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WindowDbScore)->Arg(256)->Arg(1024);

void BM_SaxDiscretize(benchmark::State& state) {
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(0.1 * static_cast<double>(i));
  }
  for (auto _ : state) {
    auto sax = ts::ToSax(values, ts::SaxOptions{0, 5});
    benchmark::DoNotOptimize(sax);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SaxDiscretize)->Arg(1024)->Arg(8192);

void BM_Fft(benchmark::State& state) {
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(0.1 * static_cast<double>(i));
  }
  for (auto _ : state) {
    auto spectrum = ts::PowerSpectrum(values);
    benchmark::DoNotOptimize(spectrum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(8192);

void BM_Algorithm1PhaseQuery(benchmark::State& state) {
  sim::PlantOptions options;
  options.num_lines = 1;
  options.machines_per_line = 2;
  options.jobs_per_machine = 8;
  options.seed = 7;
  auto plant = sim::BuildPlant(options, sim::ScenarioOptions{}).value();
  core::HierarchicalDetector detector(&plant.production);
  const auto& machine = plant.production.lines[0].machines[0];
  core::PhaseQuery query{machine.id, machine.jobs[0].id, "printing",
                         machine.id + ".bed_temp_a"};
  // Warm the caches once: steady-state latency is the relevant number.
  (void)detector.FindPhaseOutliers(query);
  for (auto _ : state) {
    auto report = detector.FindPhaseOutliers(query);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_Algorithm1PhaseQuery);

void BM_PlantBuild(benchmark::State& state) {
  sim::PlantOptions options;
  options.num_lines = 1;
  options.machines_per_line = 2;
  options.jobs_per_machine = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto plant = sim::BuildPlant(options, sim::ScenarioOptions{});
    benchmark::DoNotOptimize(plant);
  }
}
BENCHMARK(BM_PlantBuild)->Arg(4)->Arg(8);

// ---------------------------------------------------------------------
// micro_compare: scalar per-sample path vs batched SoA path.

struct MicroCompareConfig {
  size_t sensors = 1024;    ///< a realistically-populated shard
  size_t batch = 64;        ///< the scorer's max_batch default
  size_t rounds = 2000;     ///< timed samples per sensor
  size_t chunks = 8;        ///< timing chunks; min-of-chunks is reported
};

/// Sensor ids shaped like the router's (shared prefixes make the retired
/// std::map's string comparisons realistically expensive).
std::vector<std::string> SensorNames(size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    names.push_back("plant0.line" + std::to_string(i % 4) + ".machine" +
                    std::to_string(i % 16) + ".sensor_" + std::to_string(i));
  }
  return names;
}

/// Per-sensor streams: warmup plus `rounds` AR(1)-ish samples with rare
/// spikes (the common production mix — mostly quiet, EWMA active). The
/// warmup segment stays spike-free: monitors warm on healthy data, and a
/// spike inside the fit window can yield an unstable AR model whose
/// predictions diverge (identically on both legs, but NaN scores defeat
/// the `==` parity checksum).
std::vector<std::vector<double>> SensorStreams(const MicroCompareConfig& cfg,
                                               size_t warmup) {
  std::vector<std::vector<double>> streams(cfg.sensors);
  for (size_t s = 0; s < cfg.sensors; ++s) {
    Rng rng(1000 + s);
    double noise = 0.0;
    streams[s].reserve(warmup + cfg.rounds);
    for (size_t i = 0; i < warmup + cfg.rounds; ++i) {
      noise = 0.6 * noise + rng.Gaussian(0.0, 0.4);
      double v = 40.0 + static_cast<double>(s % 7) + noise;
      if (i >= warmup && rng.NextBernoulli(0.001)) v += 20.0;  // rare spike
      streams[s].push_back(v);
    }
  }
  return streams;
}

bool StatesIdentical(const core::OnlineMonitorState& a,
                     const core::OnlineMonitorState& b) {
  return a.recent == b.recent && a.phi == b.phi &&
         a.intercept == b.intercept && a.residual_sigma == b.residual_sigma &&
         a.model_ready == b.model_ready && a.alarm == b.alarm &&
         a.above_streak == b.above_streak && a.below_streak == b.below_streak &&
         a.samples_seen == b.samples_seen &&
         a.alarms_raised == b.alarms_raised;
}

/// Per-call cost of the peer and BOCPD layers, min of `cfg.chunks`.
struct LayerCallCosts {
  double peer_observe_ns = 0.0;
  double bocpd_push_ns = 0.0;
};

/// Times both layers on warm state: 64 pair groups at the default peer
/// window of 64, and one default BocpdDetector (max_run_length 64) per
/// sensor, fed the same stationary streams in round-robin order.
LayerCallCosts TimeLayerCalls(const MicroCompareConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kPairs = 64;
  constexpr size_t kWarm = 128;
  const size_t rounds_per_chunk = cfg.rounds / cfg.chunks;
  const size_t sensors = 2 * kPairs;
  stream::PeerGroupMonitor peers;
  std::vector<std::string> ids;
  for (size_t p = 0; p < kPairs; ++p) {
    const std::string group = "pair" + std::to_string(p);
    ids.push_back(group + ".a");
    ids.push_back(group + ".b");
    (void)peers.AddGroup(group, {ids[2 * p], ids[2 * p + 1]});
  }
  std::vector<core::BocpdDetector> detectors(sensors);
  std::vector<std::vector<double>> streams(sensors);
  for (size_t s = 0; s < sensors; ++s) {
    Rng rng(500 + s);
    for (size_t i = 0; i < kWarm + cfg.rounds; ++i) {
      streams[s].push_back(40.0 + rng.Gaussian(0.0, 0.4));
    }
  }
  const auto time_layer = [&](const auto& call) {
    for (size_t i = 0; i < kWarm; ++i) {
      for (size_t s = 0; s < sensors; ++s) call(s, i);
    }
    double best = 0.0;
    for (size_t c = 0; c < cfg.chunks; ++c) {
      const auto start = Clock::now();
      for (size_t i = kWarm + c * rounds_per_chunk;
           i < kWarm + (c + 1) * rounds_per_chunk; ++i) {
        for (size_t s = 0; s < sensors; ++s) call(s, i);
      }
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - start)
              .count() /
          static_cast<double>(rounds_per_chunk * sensors);
      best = c == 0 ? ns : std::min(best, ns);
    }
    return best;
  };
  LayerCallCosts costs;
  costs.peer_observe_ns = time_layer([&](size_t s, size_t i) {
    auto fired = peers.Observe(ids[s], hierarchy::ProductionLevel::kPhase,
                               static_cast<double>(i), streams[s][i]);
    benchmark::DoNotOptimize(fired);
  });
  costs.bocpd_push_ns = time_layer([&](size_t s, size_t i) {
    auto shift = detectors[s].Push(streams[s][i]);
    benchmark::DoNotOptimize(shift);
  });
  return costs;
}

int RunMicroCompare() {
  const MicroCompareConfig cfg;
  core::OnlineMonitorOptions options;
  const size_t warmup = options.warmup;
  const std::vector<std::string> names = SensorNames(cfg.sensors);
  const std::vector<std::vector<double>> streams = SensorStreams(cfg, warmup);
  const size_t timed_samples = cfg.sensors * cfg.rounds;
  using Clock = std::chrono::steady_clock;

  // Leg 1 — the retired hot path: string-keyed map lookup + scalar Push
  // per sample, in the round-robin arrival order the shard queue yields.
  std::map<std::string, core::OnlineMonitor> monitors;
  for (size_t s = 0; s < cfg.sensors; ++s) {
    monitors.emplace(names[s], core::OnlineMonitor(options));
  }
  for (size_t i = 0; i < warmup; ++i) {
    for (size_t s = 0; s < cfg.sensors; ++s) {
      (void)monitors.find(names[s])->second.Push(streams[s][i]);
    }
  }
  // Both legs time the same `rounds` in `chunks` equal slices and report
  // the fastest slice: min-of-chunks screens out scheduler noise on a
  // shared box without changing what either leg computes.
  const size_t rounds_per_chunk = cfg.rounds / cfg.chunks;
  const double chunk_samples =
      static_cast<double>(rounds_per_chunk * cfg.sensors);
  double scalar_checksum = 0.0;
  double scalar_ns = 0.0;
  for (size_t c = 0; c < cfg.chunks; ++c) {
    const auto chunk_start = Clock::now();
    for (size_t i = c * rounds_per_chunk; i < (c + 1) * rounds_per_chunk;
         ++i) {
      for (size_t s = 0; s < cfg.sensors; ++s) {
        auto it = monitors.find(names[s]);
        auto update = it->second.Push(streams[s][warmup + i]);
        scalar_checksum += update.value().score;
      }
    }
    const double chunk_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - chunk_start)
            .count() /
        chunk_samples;
    scalar_ns = c == 0 ? chunk_ns : std::min(scalar_ns, chunk_ns);
  }

  // Leg 2 — the batched path: lane lookup + one PushBatch per micro-batch
  // of `cfg.batch` distinct sensors (what ProcessBatch drains).
  core::BatchMonitorBank bank(options);
  for (size_t s = 0; s < cfg.sensors; ++s) {
    (void)bank.AddSensor(names[s]);
  }
  std::vector<size_t> lanes(cfg.batch);
  std::vector<double> values(cfg.batch);
  std::vector<core::MonitorUpdate> updates(cfg.batch);
  std::vector<unsigned char> scored(cfg.batch);
  // `sink` accumulates per sample in the same order as the scalar leg, so
  // bit-identical scores give a bit-identical checksum.
  const auto feed_round = [&](size_t i, double& sink) {
    for (size_t base = 0; base < cfg.sensors; base += cfg.batch) {
      const size_t n = std::min(cfg.batch, cfg.sensors - base);
      for (size_t j = 0; j < n; ++j) {
        lanes[j] = bank.IndexOf(names[base + j]);
        values[j] = streams[base + j][i];
      }
      bank.PushBatch(lanes.data(), values.data(), n, updates.data(),
                     scored.data());
      for (size_t j = 0; j < n; ++j) sink += updates[j].score;
    }
  };
  double warmup_sink = 0.0;
  for (size_t i = 0; i < warmup; ++i) feed_round(i, warmup_sink);
  double batched_checksum = 0.0;
  double batched_ns = 0.0;
  for (size_t c = 0; c < cfg.chunks; ++c) {
    const auto chunk_start = Clock::now();
    for (size_t i = c * rounds_per_chunk; i < (c + 1) * rounds_per_chunk;
         ++i) {
      feed_round(warmup + i, batched_checksum);
    }
    const double chunk_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - chunk_start)
            .count() /
        chunk_samples;
    batched_ns = c == 0 ? chunk_ns : std::min(batched_ns, chunk_ns);
  }

  // Parity: both legs scored the identical stream, so every monitor must
  // end in bit-identical state (and the score sums, accumulated in the
  // same order, match exactly).
  bool parity_ok = scalar_checksum == batched_checksum;
  for (size_t s = 0; s < cfg.sensors; ++s) {
    if (!StatesIdentical(monitors.find(names[s])->second.SaveState(),
                         bank.SaveState(bank.IndexOf(names[s])))) {
      parity_ok = false;
      break;
    }
  }

  const double speedup = batched_ns > 0.0 ? scalar_ns / batched_ns : 0.0;
  constexpr double kSpeedupFloor = 2.0;
  std::printf(
      "micro_compare: backend=%s sensors=%zu batch=%zu rounds=%zu "
      "(min of %zu chunks)\n",
      std::string(util::simd::BackendName()).c_str(), cfg.sensors, cfg.batch,
      cfg.rounds, cfg.chunks);
  std::printf("  scalar (map + per-sample Push): %8.1f ns/sample\n",
              scalar_ns);
  std::printf("  batched (SoA bank + SIMD):      %8.1f ns/sample\n",
              batched_ns);
  std::printf("  speedup: %.2fx (floor %.1fx), parity_ok: %s\n", speedup,
              kSpeedupFloor, parity_ok ? "true" : "false");
  const LayerCallCosts layers = TimeLayerCalls(cfg);
  std::printf("  peer Observe (pairs, window 64): %8.1f ns/call\n",
              layers.peer_observe_ns);
  std::printf("  BOCPD Push (64 buckets):         %8.1f ns/call\n",
              layers.bocpd_push_ns);

  std::ofstream json("BENCH_MICRO.json");
  json << "{\n"
       << "  \"experiment\": \"micro_scoring\",\n"
       << "  \"backend\": \"" << util::simd::BackendName() << "\",\n"
       << "  \"sensors\": " << cfg.sensors << ",\n"
       << "  \"batch\": " << cfg.batch << ",\n"
       << "  \"samples\": " << timed_samples << ",\n"
       << "  \"scalar_ns_per_sample\": " << scalar_ns << ",\n"
       << "  \"batched_ns_per_sample\": " << batched_ns << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"speedup_floor\": " << kSpeedupFloor << ",\n"
       << "  \"parity_ok\": " << (parity_ok ? "true" : "false") << ",\n"
       << "  \"peer_observe_ns\": " << layers.peer_observe_ns << ",\n"
       << "  \"bocpd_push_ns\": " << layers.bocpd_push_ns << "\n"
       << "}\n";
  json.close();
  std::printf("Wrote BENCH_MICRO.json\n");
  return parity_ok ? 0 : 1;
}

}  // namespace
}  // namespace hod

int main(int argc, char** argv) {
  if (argc > 1 && std::string_view(argv[1]) == "micro_compare") {
    return hod::RunMicroCompare();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
