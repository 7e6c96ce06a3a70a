// The pieces every workload shares: latency probes fed from the snapshot
// stream, the result series a run accumulates, the output checks, and the
// reduced-instance parity drill.

#ifndef HOD_PERFBENCH_HARNESS_H_
#define HOD_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve/hub.h"
#include "stream/engine.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Raw samples of one run, by name. End-to-end series come from untraced
/// passes, layer series from traced ones (see main.cc for the reduction).
using Series = std::map<std::string, std::vector<double>>;

/// Per-sample ingest stamps plus the lookups that turn a published (or
/// drained) snapshot into view lag and alarm visibility. Stamp() runs on
/// the producer before each Ingest; Observe() on whichever thread sees the
/// snapshot. The stamp a lookup reads always belongs to a sample ingested
/// before the observed one, so the queue hand-off orders the two.
class VisibilityProbe {
 public:
  explicit VisibilityProbe(const Trace* trace);

  /// Forgets stamps, alarms seen and latencies recorded, and resumes
  /// observing.
  void Reset();
  /// Stops recording (the measured window is over; later publishes, e.g.
  /// the final one of Stop(), are not latencies a dashboard waited for).
  void Freeze() { frozen_.store(true, std::memory_order_relaxed); }
  void Stamp(size_t index) { ingest_ns_[index] = NowNs(); }
  void Observe(const hod::stream::EngineSnapshot& snapshot, int64_t now_ns);

  std::vector<double>& lag_ms() { return lag_ms_; }
  std::vector<double>& visible_ms() { return visible_ms_; }

 private:
  const Trace* trace_;
  std::atomic<bool> frozen_{false};
  std::vector<int64_t> ingest_ns_;
  /// Per registered sensor: `since` of the last alarm already counted.
  std::vector<double> seen_since_;
  std::vector<double> lag_ms_;
  std::vector<double> visible_ms_;
};

/// Dashboard readers of one hub: a few drained on every tick, the rest
/// slow (drained in rotating slices, so they live on the drop-to-keyframe
/// path).
class Readers {
 public:
  Readers(hod::serve::SnapshotHub* hub, size_t hot, size_t slow);
  /// Drains the hot readers and one of `slices` slices of the slow ones.
  void Tick(Tracer* tracer, size_t slices);
  /// Drains everyone.
  void DrainAll(Tracer* tracer);
  /// The first hot reader's view.
  const hod::stream::EngineSnapshot& HotView() const {
    return readers_.front()->View();
  }
  /// Output check, after a drain that follows the engine's final publish
  /// (Stop() always publishes, and a publish hands a resync keyframe to
  /// every dropping reader that has drained since its queue filled): no
  /// reader still awaits a keyframe, every reader's view equals
  /// hub.Latest(), byte for byte, and the hub's offers identity holds per
  /// reader and in total.
  void Check(const hod::serve::SnapshotHub& hub, Outcome& outcome,
             const std::string& where) const;

 private:
  std::vector<std::unique_ptr<hod::serve::Subscription>> readers_;
  size_t hot_ = 0;
  size_t tick_ = 0;
};

/// Output check: ingested == scored + dropped + rejected + quarantined.
void CheckConservation(const hod::stream::StreamStatsSnapshot& stats,
                       Outcome& outcome, const std::string& where);

/// Records the counters a finished pass leaves for the per-layer report:
/// engine stats (alarms, queue high water, mean drain batch, collector
/// share, BOCPD shifts, peer deviations), findings held, and the hub's
/// delta and dropped shares. The fleet passes sums over its plants.
void RecordPassCounters(const hod::stream::StreamStatsSnapshot& stats,
                        uint64_t collector_events, double findings_held,
                        const hod::serve::HubStatsSnapshot& hub, Series& out);

/// What an engine of a workload is built from: the trace whose sensors it
/// registers, the options, and the peer groups — explicit lists plus,
/// optionally, a production whose registry and machine configuration
/// contribute more. The parity drill rebuilds one on every runtime.
struct EngineSetup {
  const Trace* trace = nullptr;
  hod::stream::StreamEngineOptions options;  ///< threaded template
  std::vector<std::vector<std::string>> peer_groups;
  const hod::hierarchy::Production* production = nullptr;
};

/// Registers `setup`'s sensors and peer groups on a fresh engine.
hod::Status Register(hod::stream::StreamEngine& engine,
                     const EngineSetup& setup);

/// The parity drill, run once per benchmark run on a reduced instance:
///  * synchronous vs threaded vs pooled engines must agree on scored,
///    alarms raised, findings held and the final per-level state — what
///    the repo's threaded == sync tests pin (the wall-clock staleness
///    sweep is off here, as in those tests);
///  * a synchronous checkpoint must restore to the same state;
///  * a one-plant FleetManager plant is checkpointed, killed and restored,
///    and must come back with identical counters.
/// Records sync_ingest_sps and the drill_ checkpoint/restore timings into
/// `series`.
void RunParityDrill(const EngineSetup& instance,
                    const std::string& work_dir, Series& series,
                    Outcome& outcome);

}  // namespace perfbench

#endif  // HOD_PERFBENCH_HARNESS_H_
