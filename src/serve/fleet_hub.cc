#include "serve/fleet_hub.h"

#include <cmath>
#include <tuple>
#include <utility>

#include "hierarchy/level.h"

namespace hod::serve {

FleetHub::FleetHub(SnapshotHubOptions per_plant) : per_plant_(per_plant) {}

SnapshotHub* FleetHub::AddPlant(const std::string& plant_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hubs_.find(plant_id);
  if (it == hubs_.end()) {
    it = hubs_.emplace(plant_id, std::make_unique<SnapshotHub>(per_plant_))
             .first;
  }
  return it->second.get();
}

SnapshotHub* FleetHub::Hub(const std::string& plant_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hubs_.find(plant_id);
  return it == hubs_.end() ? nullptr : it->second.get();
}

void FleetHub::RemovePlant(const std::string& plant_id) {
  std::unique_ptr<SnapshotHub> doomed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = hubs_.find(plant_id);
    if (it == hubs_.end()) return;
    doomed = std::move(it->second);
    hubs_.erase(it);
  }
  // Destroyed outside the lock: the async fan-out thread joins here.
}

std::vector<std::string> FleetHub::Plants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(hubs_.size());
  for (const auto& [id, hub] : hubs_) out.push_back(id);
  return out;
}

uint64_t FleetHub::Version() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t version = 0;
  for (const auto& [id, hub] : hubs_) version += hub->PublishEpoch();
  return version;
}

std::optional<FleetHub::Board> FleetHub::BoardSince(
    uint64_t since_version) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t version = 0;
  for (const auto& [id, hub] : hubs_) version += hub->PublishEpoch();
  if (since_version != 0 && version == since_version) return std::nullopt;
  Board board;
  board.version = version;
  for (const auto& [id, hub] : hubs_) {
    const auto latest = hub->Latest();
    if (!latest) continue;
    for (const stream::ActiveAlarm& alarm : latest->active_alarms) {
      board.alarms.push_back({id, alarm});
    }
  }
  return board;
}

StatusOr<FleetRollupResult> FleetHub::Rollup(
    const RollupQuery& query, detect::OlapCubeOptions cube_options) const {
  if (!(query.end > query.start)) {
    return Status::InvalidArgument("rollup window must satisfy start < end");
  }
  if (!(query.bucket_width > 0.0) || !std::isfinite(query.bucket_width)) {
    return Status::InvalidArgument("bucket_width must be finite and > 0");
  }
  std::vector<int> levels = query.levels;
  if (levels.empty()) {
    for (int i = 0; i < hierarchy::kNumLevels; ++i) levels.push_back(i);
  }
  for (int level : levels) {
    if (level < 0 || level >= hierarchy::kNumLevels) {
      return Status::InvalidArgument("level index out of range");
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  FleetRollupResult result;
  std::vector<std::string> plants;
  // Key: (plant index, level, bucket) → outlier samples in the bucket.
  std::map<std::tuple<int64_t, int64_t, int64_t>, double> buckets;
  int64_t plant_index = 0;
  for (const auto& [plant_id, hub] : hubs_) {
    result.version += hub->PublishEpoch();
    const OutlierBuckets sums = hub->FoldOutlierBuckets(
        levels, query.start, query.end, query.bucket_width);
    for (const auto& [cell, outliers] : sums) {
      buckets[{plant_index, cell.first, cell.second}] = outliers;
    }
    plants.push_back(plant_id);
    ++plant_index;
  }
  if (buckets.empty()) return result;

  std::vector<detect::CubeRecord> records;
  records.reserve(buckets.size());
  for (const auto& [cell, outliers] : buckets) {
    detect::CubeRecord record;
    record.dims = {std::get<0>(cell), std::get<1>(cell), std::get<2>(cell)};
    record.measure = outliers;
    records.push_back(std::move(record));
  }
  detect::OlapCubeDetector cube(cube_options);
  HOD_RETURN_IF_ERROR(cube.TrainRecords(records));
  std::vector<double> scores;
  HOD_ASSIGN_OR_RETURN(scores, cube.ScoreRecords(records));
  result.cube_cells = cube.num_cells();

  result.cells.reserve(records.size());
  size_t i = 0;
  for (const auto& [cell, outliers] : buckets) {
    FleetRollupCell out;
    out.plant_id = plants[static_cast<size_t>(std::get<0>(cell))];
    out.cell.level = static_cast<int>(std::get<1>(cell));
    out.cell.bucket = std::get<2>(cell);
    out.cell.bucket_start =
        query.start + std::get<2>(cell) * query.bucket_width;
    out.cell.outliers = outliers;
    out.cell.score = scores[i];
    out.cell.anomalous = scores[i] >= 0.5;
    result.cells.push_back(std::move(out));
    ++i;
  }
  return result;
}

}  // namespace hod::serve
