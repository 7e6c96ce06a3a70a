#include "stream/stats.h"

#include <algorithm>
#include <sstream>
#include <string_view>

namespace hod::stream {

void StreamStats::RecordBatch(size_t batch) {
  size_t bucket = 0;
  while ((size_t{1} << (bucket + 1)) <= batch && bucket + 1 < kBatchBuckets) {
    ++bucket;
  }
  batch_histogram_[bucket].fetch_add(1, std::memory_order_relaxed);
}

StreamStatsSnapshot StreamStats::Snapshot() const {
  StreamStatsSnapshot snapshot;
  for (size_t i = 0; i < kNumCounters; ++i) {
    snapshot.*kCounters[i].field = counters_[i].load(std::memory_order_relaxed);
  }
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    snapshot.level_dropped[i] = level_dropped_[i].load(std::memory_order_relaxed);
    snapshot.level_rejected[i] =
        level_rejected_[i].load(std::memory_order_relaxed);
    snapshot.level_quarantined[i] =
        level_quarantined_[i].load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kBatchBuckets; ++i) {
    snapshot.batch_size_histogram[i] =
        batch_histogram_[i].load(std::memory_order_relaxed);
  }
  return snapshot;
}

void StreamStats::Restore(const StreamStatsSnapshot& snapshot) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    counters_[i].store(snapshot.*kCounters[i].field, std::memory_order_relaxed);
  }
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    level_dropped_[i].store(snapshot.level_dropped[i],
                            std::memory_order_relaxed);
    level_rejected_[i].store(snapshot.level_rejected[i],
                             std::memory_order_relaxed);
    level_quarantined_[i].store(snapshot.level_quarantined[i],
                                std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kBatchBuckets; ++i) {
    batch_histogram_[i].store(snapshot.batch_size_histogram[i],
                              std::memory_order_relaxed);
  }
}

uint64_t StreamStatsSnapshot::rejected_total() const {
  uint64_t total = 0;
  for (const CounterInfo& row : kCounters) {
    if (std::string_view(row.name).starts_with("rejected_")) {
      total += this->*row.field;
    }
  }
  return total;
}

bool StreamStatsSnapshot::ConservesSamples() const {
  return ingested == scored + dropped + rejected_queue_full +
                         rejected_timeout + rejected_closed +
                         quarantined_samples;
}

StreamStatsSnapshot& StreamStatsSnapshot::operator+=(
    const StreamStatsSnapshot& other) {
  for (const CounterInfo& row : kCounters) this->*row.field += other.*row.field;
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    level_dropped[i] += other.level_dropped[i];
    level_rejected[i] += other.level_rejected[i];
    level_quarantined[i] += other.level_quarantined[i];
  }
  if (other.shard_queue_high_water.size() > shard_queue_high_water.size()) {
    shard_queue_high_water.resize(other.shard_queue_high_water.size(), 0);
  }
  for (size_t i = 0; i < other.shard_queue_high_water.size(); ++i) {
    shard_queue_high_water[i] =
        std::max(shard_queue_high_water[i], other.shard_queue_high_water[i]);
  }
  if (other.shard_stalled.size() > shard_stalled.size()) {
    shard_stalled.resize(other.shard_stalled.size(), 0);
  }
  for (size_t i = 0; i < other.shard_stalled.size(); ++i) {
    shard_stalled[i] = (shard_stalled[i] | other.shard_stalled[i]) != 0;
  }
  for (size_t i = 0; i < kBatchBuckets; ++i) {
    batch_size_histogram[i] += other.batch_size_histogram[i];
  }
  return *this;
}

std::string StreamStatsSnapshot::ToString() const {
  // Table rows as name=value pairs, wrapped at 80 columns.
  std::ostringstream out;
  size_t column = 0;
  const auto print = [&](std::string_view name, uint64_t value) {
    const std::string pair =
        std::string(name) + "=" + std::to_string(value);
    if (column > 0 && column + 1 + pair.size() > 80) {
      out << "\n";
      column = 0;
    } else if (column > 0) {
      out << " ";
      ++column;
    }
    out << pair;
    column += pair.size();
  };
  for (const CounterInfo& row : kCounters) print(row.name, this->*row.field);
  print("rejected_total", rejected_total());
  out << "\nper-level drop/reject/quarantine:";
  for (int i = 0; i < hierarchy::kNumLevels; ++i) {
    if (level_dropped[i] == 0 && level_rejected[i] == 0 &&
        level_quarantined[i] == 0) {
      continue;
    }
    out << " L" << (i + 1) << "=" << level_dropped[i] << "/"
        << level_rejected[i] << "/" << level_quarantined[i];
  }
  out << "\nshard queue high-water:";
  for (size_t i = 0; i < shard_queue_high_water.size(); ++i) {
    out << " [" << i << "]=" << shard_queue_high_water[i];
    if (i < shard_stalled.size() && shard_stalled[i] != 0) out << "(STALLED)";
  }
  out << "\nbatch sizes:";
  for (size_t i = 0; i < batch_size_histogram.size(); ++i) {
    if (batch_size_histogram[i] == 0) continue;
    out << " " << (size_t{1} << i) << "+:" << batch_size_histogram[i];
  }
  out << "\n";
  return out.str();
}

}  // namespace hod::stream
