#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0;
  uint64_t resident = 0;
  statm >> size >> resident;
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

void RssTracker::Begin() {
  malloc_trim(0);
  baseline_ = ResidentBytes();
  peak_ = baseline_;
}

void RssTracker::Sample() { peak_ = std::max(peak_, ResidentBytes()); }

double RssTracker::PeakDeltaMb() const {
  return static_cast<double>(peak_ - baseline_) / (1024.0 * 1024.0);
}

void Outcome::Failed(const std::string& what, uint64_t n) {
  failed_ += n;
  if (logged_++ < 20) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

bool Outcome::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    correct_ = false;
    Failed("check: " + what);
  }
  return ok;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string Metrics::ResultLine(const Outcome& outcome) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (outcome.correct() ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted()
      << ", \"failed\": " << outcome.failed() << ", \"metrics\": {";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    out << (i == 0 ? "" : ", ") << "\"" << order_[i] << "\": {\"value\": "
        << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \"" << unit
        << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
