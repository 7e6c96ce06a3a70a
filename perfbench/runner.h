// Workload entry points and the pass loop they share.

#ifndef HOD_PERFBENCH_RUNNER_H_
#define HOD_PERFBENCH_RUNNER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common.h"
#include "harness.h"
#include "trace.h"

namespace perfbench {

/// In traced passes, about 1 in this many Ingest calls is recorded as a
/// span.
inline constexpr uint32_t kIngestSpanEvery = 16;

/// Wraps the producer's Ingest calls. Untraced it only forwards the call;
/// traced it adds every call's duration to the busy total and records a
/// span for a pseudo-random 1 in kIngestSpanEvery of them (random, so the
/// sample cannot alias with periodic queue-full stalls).
class IngestTimer {
 public:
  explicit IngestTimer(Tracer& tracer) : tracer_(tracer) {}

  template <typename Fn>
  bool Call(Fn&& ingest) {
    if (!tracer_.enabled()) return ingest();
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 17;
    rng_ ^= rng_ << 5;
    std::optional<Tracer::Scope> span;
    if (rng_ % kIngestSpanEvery == 0) span.emplace(&tracer_, SpanName::kIngest);
    const int64_t start = NowNs();
    const bool ok = ingest();
    busy_ns_ += NowNs() - start;
    return ok;
  }

  /// Share of `wall_ns` spent inside Ingest (traced passes only).
  double BusyShare(int64_t wall_ns) const {
    return static_cast<double>(busy_ns_) / static_cast<double>(wall_ns);
  }

 private:
  Tracer& tracer_;
  uint32_t rng_ = 2463534242u;
  int64_t busy_ns_ = 0;
};

/// Everything one run accumulates.
struct RunState {
  RunOptions options;
  Outcome outcome;
  RssTracker rss;
  /// End-to-end samples (untraced passes) and layer samples (traced
  /// passes). The parity drill writes into `layers`.
  Series e2e;
  Series layers;
  size_t passes = 0;
  size_t traced_passes = 0;
};

/// Runs one unmeasured warm-up pass, then `pass` until `options.seconds`
/// of passes have elapsed (at least two passes of each kind). With tracing on, untraced and traced passes
/// alternate; an untraced pass writes into state.e2e, a traced one into
/// state.layers with a recording tracer, whose spans are dumped to
/// `<work_dir>/spans-<workload>.tsv` after the last traced pass.
void RunPasses(RunState& state,
               const std::function<void(Tracer& tracer, Series& out)>& pass);

void RunPlantReplay(RunState& state);
void RunFleetRestart(RunState& state);

}  // namespace perfbench

#endif  // HOD_PERFBENCH_RUNNER_H_
