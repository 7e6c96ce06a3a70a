#include "workloads.h"

#include <algorithm>
#include <limits>

#include "util/rng.h"

namespace perfbench {

using hod::hierarchy::ProductionLevel;
using hod::stream::SensorSample;

void Trace::Finish() {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const SensorSample& a, const SensorSample& b) {
                     return a.ts < b.ts;
                   });
  step_ts.clear();
  step_first.clear();
  sensor_index.clear();
  sensor_samples.clear();
  std::vector<std::pair<std::string, ProductionLevel>> registration;
  for (uint32_t i = 0; i < samples.size(); ++i) {
    const SensorSample& sample = samples[i];
    if (step_ts.empty() || sample.ts != step_ts.back()) {
      step_ts.push_back(sample.ts);
      step_first.push_back(i);
    }
    auto [it, fresh] = sensor_index.emplace(
        sample.sensor_id, static_cast<uint32_t>(sensor_samples.size()));
    if (fresh) {
      sensor_samples.emplace_back();
      registration.emplace_back(sample.sensor_id, sample.level);
    }
    sensor_samples[it->second].push_back(i);
  }
  sensors = std::move(registration);
}

int64_t Trace::Find(const std::string& sensor, double ts) const {
  auto it = sensor_index.find(sensor);
  if (it == sensor_index.end()) return -1;
  const std::vector<uint32_t>& ids = sensor_samples[it->second];
  auto pos = std::lower_bound(
      ids.begin(), ids.end(), ts,
      [this](uint32_t id, double t) { return samples[id].ts < t; });
  if (pos == ids.end() || samples[*pos].ts != ts) return -1;
  return *pos;
}

int64_t Trace::StepFirst(double ts) const {
  auto pos = std::upper_bound(step_ts.begin(), step_ts.end(), ts);
  if (pos == step_ts.begin()) return -1;
  return step_first[static_cast<size_t>(pos - step_ts.begin()) - 1];
}

hod::StatusOr<PlantWorkload> MakePlantWorkload(uint64_t seed,
                                               const PlantShape& shape) {
  hod::sim::PlantOptions options;
  options.num_lines = shape.lines;
  options.machines_per_line = shape.machines_per_line;
  options.jobs_per_machine = shape.jobs_per_machine;
  options.seed = seed;
  HOD_ASSIGN_OR_RETURN(hod::sim::SimulatedPlant plant,
                       hod::sim::BuildPlant(options, {}));
  PlantWorkload workload;
  Trace& trace = workload.trace;
  double replay_start = std::numeric_limits<double>::infinity();
  for (const auto& line : plant.production.lines) {
    for (const auto& machine : line.machines) {
      if (shape.replay_from_job < machine.jobs.size()) {
        replay_start = std::min(
            replay_start, machine.jobs[shape.replay_from_job].start_time);
      }
    }
  }
  for (const auto& line : plant.production.lines) {
    for (const auto& machine : line.machines) {
      for (size_t j = shape.replay_from_job; j < machine.jobs.size(); ++j) {
        const auto& job = machine.jobs[j];
        for (const auto& phase : job.phases) {
          for (const auto& [sensor_id, series] : phase.sensor_series) {
            for (size_t i = 0; i < series.size(); ++i) {
              trace.samples.push_back({sensor_id, ProductionLevel::kPhase,
                                       series.TimeAt(i), series[i]});
            }
          }
        }
      }
    }
    for (const auto& channel : line.environment) {
      const auto& series = channel.series;
      for (size_t i = 0; i < series.size(); ++i) {
        if (series.TimeAt(i) < replay_start) continue;
        trace.samples.push_back({channel.sensor_id,
                                 ProductionLevel::kEnvironment,
                                 series.TimeAt(i), series[i]});
      }
    }
  }
  trace.Finish();
  workload.plant = std::move(plant);
  return workload;
}

FloodWorkload MakeFloodWorkload(uint64_t seed, const FloodShape& shape) {
  const size_t pairs = shape.sensors / 2;
  hod::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);

  FloodWorkload workload;
  std::vector<std::string> ids(shape.sensors);
  for (size_t s = 0; s < shape.sensors; ++s) {
    ids[s] = shape.prefix + std::to_string(s);
  }
  for (size_t p = 0; p < pairs; ++p) {
    workload.pairs.push_back({ids[2 * p], ids[2 * p + 1]});
  }
  std::vector<double> level(pairs);
  for (size_t p = 0; p < pairs; ++p) level[p] = rng.Uniform(20.0, 80.0);

  // Appends one step of every sensor; `bump` adds per-sensor offsets.
  // Sensor s samples at step + s / sensors: every sensor keeps a period of
  // one, and every sample has its own timestamp, so an event-time
  // frontier names exactly one sample.
  auto emit = [&](Trace& trace, hod::Rng& noise, std::vector<double>& common,
                  size_t step, const std::vector<double>& bump) {
    for (size_t p = 0; p < pairs; ++p) {
      common[p] = 0.7 * common[p] + noise.Gaussian(0.0, 0.25);
      for (size_t m = 0; m < 2; ++m) {
        const size_t s = 2 * p + m;
        const double ts = static_cast<double>(step) +
                          static_cast<double>(s) /
                              static_cast<double>(shape.sensors);
        const double value =
            level[p] + common[p] + noise.Gaussian(0.0, 0.05) + bump[s];
        trace.samples.push_back({ids[s], ProductionLevel::kPhase, ts, value});
      }
    }
  };

  std::vector<double> warm_common(pairs, 0.0);
  const std::vector<double> no_bump(shape.sensors, 0.0);
  for (size_t step = 0; step < shape.warm_steps; ++step) {
    emit(workload.warm, rng, warm_common, step, no_bump);
  }
  workload.warm.Finish();

  // The flood continues the warm-up with its own disturbances.
  constexpr size_t kHoldSteps = 6;
  hod::Rng noise(seed * 0x9E3779B97F4A7C15ull + 1000);
  std::vector<size_t> shift_at(shape.sensors, shape.steps);
  for (size_t k = 0; k < shape.shifts; ++k) {
    shift_at[noise.NextBelow(shape.sensors)] =
        32 + noise.NextBelow(shape.steps / 2);
  }
  std::vector<bool> held(shape.sensors, false);
  for (size_t k = 0; k < shape.hold_sensors; ++k) {
    held[noise.NextBelow(shape.sensors)] = true;
  }
  // A spike lasts two samples, enough to raise (and soon clear) an alarm.
  std::vector<std::vector<size_t>> spikes(shape.steps);  // step -> sensors
  for (size_t k = 0; k < shape.spikes; ++k) {
    const size_t sensor = noise.NextBelow(shape.sensors);
    const size_t step = noise.NextBelow(shape.steps - 1);
    spikes[step].push_back(sensor);
    spikes[step + 1].push_back(sensor);
  }
  std::vector<double> common = warm_common;
  std::vector<double> bump(shape.sensors);
  for (size_t step = 0; step < shape.steps; ++step) {
    for (size_t s = 0; s < shape.sensors; ++s) {
      bump[s] = (step >= shift_at[s] ? 2.5 : 0.0) +
                (held[s] && step + kHoldSteps >= shape.steps ? 3.0 : 0.0);
    }
    for (size_t sensor : spikes[step]) bump[sensor] += 3.0;
    emit(workload.flood, noise, common, shape.warm_steps + step, bump);
  }
  workload.flood.Finish();
  return workload;
}

}  // namespace perfbench
