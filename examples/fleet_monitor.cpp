// Fleet monitor: 64 plants behind one FleetManager, one shared thread
// pool, one merged alert board.
//
// Every plant streams clean AR(1) telemetry from 8 sensors; one line —
// "plant_41" — has a stuck-at fault injected on a sensor mid-stream by
// the sim::FaultInjector. The example demonstrates the fleet-tier
// contract end to end:
//
//   1. 64 engines run on ONE util::ThreadPool: the OS thread bill is the
//      pool size, not 64 * (shards + collector + watchdog),
//   2. the faulted sensor is quarantined by its own plant's health layer
//      and surfaces on the merged, plant-tagged FleetAlertBoard — the
//      operator reads one board, not 64,
//   3. the fleet stats roll-up stays exact: aggregate ingested equals
//      what the 64 producers pushed, and the conservation identity
//      `ingested == scored + dropped + rejected + quarantined` holds for
//      the sum.
//
// Like every example, this doubles as an end-to-end smoke test: it exits
// non-zero if any of the three guarantees is violated.

#include <cstdio>
#include <string>
#include <vector>

#include "fleet/manager.h"
#include "sim/fault_injector.h"
#include "util/rng.h"

int main() {
  using namespace hod;
  using hierarchy::ProductionLevel;

  constexpr size_t kPlants = 64;
  constexpr size_t kSensorsPerPlant = 8;
  constexpr size_t kSteps = 600;  // stream seconds, 1 Hz per sensor
  const std::string kVictimPlant = "plant_41";
  const std::string kVictimSensor = "s3";

  // --- Schedule the fault on one line --------------------------------------
  sim::FaultInjector injector;
  sim::FaultProfile profile;
  profile.kind = sim::FaultKind::kStuckAt;
  profile.start = 250.0;
  profile.duration = 350.0;  // stuck until the end of the stream
  if (!injector.AddFault(kVictimSensor, profile).ok()) return 1;

  // --- Build the fleet ------------------------------------------------------
  fleet::FleetManagerOptions options;
  options.engine.num_shards = 2;
  options.engine.queue_capacity = 512;
  options.engine.monitor.warmup = 100;
  options.engine.snapshot_every = 64;
  options.engine.health.flatline_window = 16;
  options.engine.health.suspect_after = 4;
  options.engine.health.quarantine_after = 8;
  options.pool_threads = 4;  // the whole fleet's worker budget

  fleet::FleetManager fleet(options);
  std::vector<fleet::PlantSensorSpec> sensors;
  for (size_t s = 0; s < kSensorsPerPlant; ++s) {
    sensors.push_back(
        {"s" + std::to_string(s), ProductionLevel::kPhase, {}});
  }
  std::vector<std::string> plant_ids;
  for (size_t p = 0; p < kPlants; ++p) {
    plant_ids.push_back("plant_" + std::to_string(p));
    if (!fleet.AddPlant(plant_ids.back(), sensors).ok()) return 1;
  }
  std::printf("fleet: %zu plants x %zu sensors on a %zu-thread pool\n",
              kPlants, kSensorsPerPlant, options.pool_threads);

  // --- Stream every plant; corrupt only the victim's sensor ----------------
  uint64_t pushed = 0;
  std::vector<std::vector<Rng>> rngs(kPlants);
  std::vector<std::vector<double>> noise(kPlants);
  for (size_t p = 0; p < kPlants; ++p) {
    noise[p].assign(kSensorsPerPlant, 0.0);
    for (size_t s = 0; s < kSensorsPerPlant; ++s) {
      rngs[p].emplace_back(7000 + p * kSensorsPerPlant + s);
    }
  }
  for (size_t t = 0; t < kSteps; ++t) {
    for (size_t p = 0; p < kPlants; ++p) {
      for (size_t s = 0; s < kSensorsPerPlant; ++s) {
        noise[p][s] = 0.7 * noise[p][s] + rngs[p][s].Gaussian(0.0, 0.25);
        stream::SensorSample clean{"s" + std::to_string(s),
                                   ProductionLevel::kPhase,
                                   static_cast<double>(t),
                                   50.0 + noise[p][s]};
        if (plant_ids[p] == kVictimPlant && clean.sensor_id == kVictimSensor) {
          for (const auto& sample : injector.Apply(clean)) {
            if (fleet.Ingest(plant_ids[p], sample).ok()) ++pushed;
          }
        } else {
          if (fleet.Ingest(plant_ids[p], clean).ok()) ++pushed;
        }
      }
    }
  }
  if (!fleet.Flush().ok()) return 1;

  // --- The merged board: one view over 64 plants ----------------------------
  const std::vector<fleet::FleetAlertRow> board = fleet.AlertBoard();
  std::printf("\nfleet alert board (%zu rows)\n", board.size());
  std::printf("%-10s %-8s %-10s %8s %s\n", "plant", "entity", "severity",
              "peak", "measurement-error?");
  bool victim_on_board = false;
  for (const auto& row : board) {
    std::printf("%-10s %-8s %-10s %8.2f %s\n", row.plant_id.c_str(),
                row.episode.entity.c_str(),
                std::string(core::AlertSeverityName(row.episode.severity))
                    .c_str(),
                row.episode.peak_outlierness,
                row.episode.suspected_measurement_error ? "yes" : "no");
    if (row.plant_id == kVictimPlant && row.episode.entity == kVictimSensor) {
      victim_on_board = true;
    }
  }

  // Guarantee 2: the quarantined line is on the board, tagged with its
  // plant, and the victim sensor really is quarantined in its own plant.
  const stream::SensorHealthSnapshot health = fleet.PlantHealth(kVictimPlant);
  bool victim_quarantined = false;
  for (const auto& sensor : health.sensors) {
    if (sensor.sensor_id == kVictimSensor &&
        sensor.state == stream::SensorHealthState::kQuarantined) {
      victim_quarantined = true;
    }
  }
  std::printf("\nvictim %s/%s: quarantined=%s on_board=%s\n",
              kVictimPlant.c_str(), kVictimSensor.c_str(),
              victim_quarantined ? "yes" : "NO", victim_on_board ? "yes" : "NO");

  // Guarantee 3: exact fleet roll-up.
  const fleet::FleetStatsSnapshot stats = fleet.Stats();
  std::printf("\n%s\n", stats.ToString().c_str());
  const stream::StreamStatsSnapshot& agg = stats.aggregate;
  const bool conserved = agg.ConservesSamples();
  const bool exact = agg.ingested == pushed;
  std::printf("conservation: %s   ingested==pushed: %s (%llu)\n",
              conserved ? "ok" : "VIOLATED", exact ? "ok" : "VIOLATED",
              static_cast<unsigned long long>(pushed));

  if (!fleet.Stop().ok()) return 1;
  if (!victim_quarantined || !victim_on_board) return 1;
  if (!conserved || !exact) return 1;
  std::printf("\nfleet monitor: all guarantees hold\n");
  return 0;
}
