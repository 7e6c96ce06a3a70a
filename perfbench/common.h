// Shared plumbing of the end-to-end benchmark: clocks, resident-set
// sampling, failure accounting and the result line.

#ifndef HOD_PERFBENCH_COMMON_H_
#define HOD_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Resident set size of this process, in bytes (/proc/self/statm).
uint64_t ResidentBytes();

/// Peak resident set of one pass against the resident set at its start.
/// Begin() returns freed heap to the OS first, so the baseline is the
/// generated load (and nothing left over from an earlier pass). Sample()
/// is cheap enough for a dashboard cadence; producer thread only.
class RssTracker {
 public:
  void Begin();
  void Sample();
  double PeakDeltaMb() const;

 private:
  uint64_t baseline_ = 0;
  uint64_t peak_ = 0;
};

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for checkpoint files and the span dump.
  std::string work_dir = ".";
};

/// Failure accounting and output checks. Every operation the run attempts
/// (an Ingest, a Poll, a Rollup, a Restore, an output check) is counted;
/// a failed one is counted again in `failed` and named in the log.
class Outcome {
 public:
  void Attempted(uint64_t n = 1) { attempted_ += n; }
  void Failed(const std::string& what, uint64_t n = 1);
  /// One output check: attempted once, failed (and the run marked
  /// incorrect) when `ok` is false.
  bool Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
  size_t logged_ = 0;
};

/// Named metrics in print order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The contract's last line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.
  std::string ResultLine(const Outcome& outcome) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench

#endif  // HOD_PERFBENCH_COMMON_H_
