// Load generation: every workload's input is built here from the seed,
// before any clock starts. The system under test only ever receives the
// generated samples.

#ifndef HOD_PERFBENCH_WORKLOADS_H_
#define HOD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hierarchy/level.h"
#include "sim/plant.h"
#include "stream/router.h"
#include "util/statusor.h"

namespace perfbench {

/// A time-ordered sample trace plus the indices the latency probes need.
struct Trace {
  std::vector<hod::stream::SensorSample> samples;
  /// Registration list, in first-appearance order.
  std::vector<std::pair<std::string, hod::hierarchy::ProductionLevel>> sensors;
  /// Distinct timestamps (ascending) and the first sample index of each.
  std::vector<double> step_ts;
  std::vector<uint32_t> step_first;
  /// Per registered sensor: its sample indices in time order.
  std::unordered_map<std::string, uint32_t> sensor_index;
  std::vector<std::vector<uint32_t>> sensor_samples;

  /// Sorts by timestamp (stable) and builds every index.
  void Finish();
  /// Index of `sensor`'s sample at exactly `ts`, or -1.
  int64_t Find(const std::string& sensor, double ts) const;
  /// First sample index of the newest step at or before `ts`, or -1.
  int64_t StepFirst(double ts) const;
};

/// A simulated additive-manufacturing plant (phase + environment
/// channels) and its flattened replay trace.
struct PlantWorkload {
  hod::sim::SimulatedPlant plant;
  Trace trace;
};

struct PlantShape {
  size_t lines = 1;
  size_t machines_per_line = 2;
  size_t jobs_per_machine = 4;
  /// Jobs before this index are history: they are in the production (and
  /// so in the escalation detector's models) but not in the replay trace,
  /// which starts at the first replayed job.
  size_t replay_from_job = 0;
};

hod::StatusOr<PlantWorkload> MakePlantWorkload(uint64_t seed,
                                               const PlantShape& shape);

/// Thousands of synthetic sensors in redundant pairs: AR(1) noise shared
/// by both members of a pair plus a small private component, rare
/// isolated short spikes on single members, a few level shifts and a late
/// excursion on a handful of sensors. Sensor s of n samples at
/// step + s / n, so no two samples share a timestamp. `warm` feeds the
/// baselines (monitor warm-up + BOCPD) before checkpointing; `flood`
/// continues the same signals from the next step on, with the
/// disturbances.
struct FloodWorkload {
  Trace warm;
  Trace flood;
  /// Redundancy pairs, registered as peer groups.
  std::vector<std::vector<std::string>> pairs;
};

struct FloodShape {
  size_t sensors = 0;  ///< even: sensors come in pairs
  size_t warm_steps = 0;
  size_t steps = 0;
  /// Isolated two-sample spikes over the flood, and level shifts.
  size_t spikes = 0;
  size_t shifts = 0;
  /// Sensors that step up over the final few steps, so alarms are still
  /// active when the flood ends.
  size_t hold_sensors = 0;
  std::string prefix = "s";
};

FloodWorkload MakeFloodWorkload(uint64_t seed, const FloodShape& shape);

}  // namespace perfbench

#endif  // HOD_PERFBENCH_WORKLOADS_H_
