#include "serve/query.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "hierarchy/level.h"

namespace hod::serve {

namespace {

/// Canonical cache key: every field that shapes the answer, in a fixed
/// textual form (hexfloat keeps distinct doubles distinct).
std::string CacheKey(const RollupQuery& query) {
  std::ostringstream os;
  os << std::hexfloat << query.start << '|' << query.end << '|'
     << query.bucket_width << '|';
  for (int level : query.levels) os << level << ',';
  return os.str();
}

}  // namespace

QueryService::QueryService(const SnapshotHub* hub,
                           detect::OlapCubeOptions cube)
    : hub_(hub), cube_(cube) {}

StatusOr<RollupResult> QueryService::Rollup(const RollupQuery& query) {
  if (!(query.end > query.start)) {
    return Status::InvalidArgument("rollup window must satisfy start < end");
  }
  if (!(query.bucket_width > 0.0) || !std::isfinite(query.bucket_width)) {
    return Status::InvalidArgument("bucket_width must be finite and > 0");
  }
  for (int level : query.levels) {
    if (level < 0 || level >= hierarchy::kNumLevels) {
      return Status::InvalidArgument("level index out of range");
    }
  }

  const std::string key = CacheKey(query);
  const uint64_t epoch = hub_->PublishEpoch();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.epoch == epoch) {
      ++cache_hits_;
      RollupResult hit = it->second;
      hit.cache_hit = true;
      return hit;
    }
  }

  // Compute outside the lock: concurrent queries for different keys must
  // not serialize on each other's cube fits.
  StatusOr<RollupResult> computed = Compute(query, epoch);
  if (!computed.ok()) return computed.status();

  std::lock_guard<std::mutex> lock(mu_);
  ++cache_misses_;
  // Opportunistic pruning: one sweep removes every stale-epoch entry, so
  // the cache never accretes answers no publish can validate again.
  if (cache_.size() >= 128) {
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->second.epoch != epoch) {
        it = cache_.erase(it);
      } else {
        ++it;
      }
    }
  }
  cache_[key] = computed.value();
  return std::move(computed).value();
}

StatusOr<RollupResult> QueryService::Compute(const RollupQuery& query,
                                             uint64_t epoch) const {
  std::vector<int> levels = query.levels;
  if (levels.empty()) {
    for (int i = 0; i < hierarchy::kNumLevels; ++i) levels.push_back(i);
  }

  // Per (level, bucket): outlier samples attributed to the bucket.
  const OutlierBuckets buckets = hub_->FoldOutlierBuckets(
      levels, query.start, query.end, query.bucket_width);

  RollupResult result;
  result.epoch = epoch;
  if (buckets.empty()) return result;

  std::vector<detect::CubeRecord> records;
  records.reserve(buckets.size());
  for (const auto& [cell, outliers] : buckets) {
    detect::CubeRecord record;
    record.dims = {cell.first, cell.second};
    record.measure = outliers;
    records.push_back(std::move(record));
  }

  detect::OlapCubeDetector cube(cube_);
  HOD_RETURN_IF_ERROR(cube.TrainRecords(records));
  std::vector<double> scores;
  HOD_ASSIGN_OR_RETURN(scores, cube.ScoreRecords(records));
  result.cube_cells = cube.num_cells();

  result.cells.reserve(records.size());
  size_t i = 0;
  for (const auto& [cell, outliers] : buckets) {
    RollupCell out;
    out.level = cell.first;
    out.bucket = cell.second;
    out.bucket_start = query.start + cell.second * query.bucket_width;
    out.outliers = outliers;
    out.score = scores[i];
    out.anomalous = scores[i] >= 0.5;
    result.cells.push_back(out);
    ++i;
  }
  return result;
}

uint64_t QueryService::cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_hits_;
}

uint64_t QueryService::cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_misses_;
}

size_t QueryService::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace hod::serve
