#include "stream/router.h"

#include <algorithm>
#include <cmath>

namespace hod::stream {

uint64_t StableHash64(std::string_view bytes) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

IngestRouter::IngestRouter(size_t num_shards, double out_of_order_tolerance,
                           StreamStats* stats)
    : num_shards_(num_shards == 0 ? 1 : num_shards),
      out_of_order_tolerance_(out_of_order_tolerance < 0.0
                                  ? 0.0
                                  : out_of_order_tolerance),
      stats_(stats) {}

Status IngestRouter::AddSensor(const std::string& sensor_id,
                               hierarchy::ProductionLevel level,
                               std::optional<BackpressurePolicy> policy) {
  if (sensor_id.empty()) {
    return Status::InvalidArgument("empty sensor id");
  }
  auto entry = std::make_unique<SensorEntry>();
  entry->level = level;
  entry->shard = static_cast<size_t>(StableHash64(sensor_id) % num_shards_);
  entry->policy = policy;
  auto [it, inserted] = sensors_.emplace(sensor_id, std::move(entry));
  if (!inserted) {
    return Status::InvalidArgument("sensor already registered: " + sensor_id);
  }
  return Status::Ok();
}

StatusOr<RouteTarget> IngestRouter::Route(const SensorSample& sample) {
  if (!std::isfinite(sample.value) || !std::isfinite(sample.ts)) {
    if (stats_ != nullptr) {
      stats_->Add(Counter::rejected_non_finite);
      stats_->RecordLevelRejected(sample.level);
    }
    return Status::InvalidArgument("non-finite sample for sensor " +
                                   sample.sensor_id);
  }
  auto it = sensors_.find(sample.sensor_id);
  if (it == sensors_.end()) {
    if (stats_ != nullptr) {
      stats_->Add(Counter::rejected_unknown_sensor);
      stats_->RecordLevelRejected(sample.level);
    }
    return Status::NotFound("unknown sensor: " + sample.sensor_id);
  }
  SensorEntry& entry = *it->second;
  if (entry.level != sample.level) {
    if (stats_ != nullptr) {
      stats_->Add(Counter::rejected_level_mismatch);
      stats_->RecordLevelRejected(entry.level);
    }
    return Status::InvalidArgument("sensor " + sample.sensor_id +
                                   " registered at a different level");
  }
  // CAS-max: accept a sample whose timestamp is no more than the tolerance
  // behind the furthest accepted one, and advance the frontier otherwise.
  ts::TimePoint seen = entry.last_ts.load(std::memory_order_relaxed);
  while (true) {
    if (sample.ts + out_of_order_tolerance_ < seen) {
      if (stats_ != nullptr) {
        stats_->Add(Counter::rejected_out_of_order);
        stats_->RecordLevelRejected(entry.level);
      }
      return Status::OutOfRange("out-of-order sample for sensor " +
                                sample.sensor_id);
    }
    if (sample.ts <= seen) break;  // within tolerance, frontier unchanged
    if (entry.last_ts.compare_exchange_weak(seen, sample.ts,
                                            std::memory_order_relaxed)) {
      break;
    }
  }
  if (stats_ != nullptr) stats_->Add(Counter::ingested);
  return RouteTarget{entry.shard, entry.policy, entry.lane};
}

std::vector<std::string> IngestRouter::SensorsForShard(size_t shard) const {
  std::vector<std::string> ids;
  for (const auto& [id, entry] : sensors_) {
    if (entry->shard == shard) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<RegisteredSensor> IngestRouter::Sensors() const {
  std::vector<RegisteredSensor> sensors;
  sensors.reserve(sensors_.size());
  for (const auto& [id, entry] : sensors_) {
    RegisteredSensor sensor;
    sensor.sensor_id = id;
    sensor.level = entry->level;
    sensor.policy = entry->policy;
    sensor.frontier = entry->last_ts.load(std::memory_order_relaxed);
    sensors.push_back(std::move(sensor));
  }
  std::sort(sensors.begin(), sensors.end(),
            [](const RegisteredSensor& a, const RegisteredSensor& b) {
              return a.sensor_id < b.sensor_id;
            });
  return sensors;
}

StatusOr<ts::TimePoint> IngestRouter::Frontier(
    const std::string& sensor_id) const {
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) {
    return Status::NotFound("unknown sensor: " + sensor_id);
  }
  return it->second->last_ts.load(std::memory_order_relaxed);
}

Status IngestRouter::SetFrontier(const std::string& sensor_id,
                                 ts::TimePoint frontier) {
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) {
    return Status::NotFound("unknown sensor: " + sensor_id);
  }
  it->second->last_ts.store(frontier, std::memory_order_relaxed);
  return Status::Ok();
}

Status IngestRouter::SetLane(const std::string& sensor_id, uint32_t lane) {
  auto it = sensors_.find(sensor_id);
  if (it == sensors_.end()) {
    return Status::NotFound("unknown sensor: " + sensor_id);
  }
  it->second->lane = lane;
  return Status::Ok();
}

}  // namespace hod::stream
