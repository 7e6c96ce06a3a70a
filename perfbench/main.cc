// perfbench: one end-to-end benchmark of the hod streaming path, from
// Ingest through shard scoring, the collector, the AlertManager and the
// SnapshotHub to dashboard reads.
//
//   perfbench --workload plant_replay|fleet_restart
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a human-readable summary, then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits non-zero when
// any output check or operation failed. See NOTES.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "runner.h"
#include "timeseries/stats.h"

namespace perfbench {
namespace {

constexpr size_t kMinPassesEach = 2;
constexpr size_t kMaxPasses = 400;

double MedianOf(const Series& series, const std::string& name) {
  auto it = series.find(name);
  return it == series.end() ? 0.0 : hod::ts::Median(it->second);
}

double QuantileOf(const Series& series, const std::string& name, double q) {
  auto it = series.find(name);
  return it == series.end() ? 0.0 : hod::ts::Quantile(it->second, q);
}

double SumOf(const Series& series, const std::string& name) {
  auto it = series.find(name);
  double sum = 0.0;
  if (it != series.end()) {
    for (double v : it->second) sum += v;
  }
  return sum;
}

size_t CountOf(const Series& series, const std::string& name) {
  auto it = series.find(name);
  return it == series.end() ? 0 : it->second.size();
}

/// The workload's own measurement when it has one, else the parity
/// drill's (reduced instance).
double MedianPreferring(const Series& series, const std::string& own,
                        const std::string& drill) {
  return CountOf(series, own) > 0 ? MedianOf(series, own)
                                  : MedianOf(series, drill);
}

void ReportEndToEnd(const RunState& state, Metrics& metrics) {
  const Series& e = state.e2e;
  std::printf("passes: %zu  view-lag samples: %zu  alarms visible: %zu  "
              "polls with fresh alarms: %zu  roll-ups (miss): %zu  "
              "board reads: %zu\n",
              state.passes - state.traced_passes, CountOf(e, "view_lag_ms"),
              CountOf(e, "visible_ms"), CountOf(e, "triple_ms"),
              CountOf(e, "rollup_ms"), CountOf(e, "board_ms"));
  std::printf("alarms raised per pass (median): %.0f\n",
              MedianOf(e, "alarms"));
  metrics.Set("ingest_sps", MedianOf(e, "ingest_sps"), "samples/s");
  metrics.Set("view_lag_p50_ms", QuantileOf(e, "view_lag_ms", 0.5), "ms");
  metrics.Set("view_lag_p99_ms", QuantileOf(e, "view_lag_ms", 0.99), "ms");
  metrics.Set("alarm_visible_p50_ms", MedianOf(e, "visible_ms"), "ms");
  metrics.Set("triple_p50_ms", MedianOf(e, "triple_ms"), "ms");
  metrics.Set("rollup_p50_ms", MedianOf(e, "rollup_ms"), "ms");
  metrics.Set("board_p50_ms", MedianOf(e, "board_ms"), "ms");
  metrics.Set("mem_peak_mb", MedianOf(e, "mem_mb"), "MB");
  metrics.Set("setup_s", MedianOf(e, "setup_s"), "s");
}

void ReportLayers(const RunState& state, Metrics& metrics) {
  const Series& l = state.layers;
  std::printf("traced passes: %zu  ingest spans: %zu  publish spans: %zu\n",
              state.traced_passes, CountOf(l, "ingest_call_us"),
              CountOf(l, "publish_us"));
  metrics.Set("stream.ingest_call_p50_us",
              QuantileOf(l, "ingest_call_us", 0.5), "us");
  metrics.Set("stream.ingest_call_p99_us",
              QuantileOf(l, "ingest_call_us", 0.99), "us");
  metrics.Set("stream.ingest_busy_share", MedianOf(l, "busy_share"), "share");
  metrics.Set("stream.flush_ms", MedianOf(l, "flush_ms"), "ms");
  metrics.Set("stream.queue_high_water", MedianOf(l, "queue_high_water"),
              "count");
  metrics.Set("stream.batch_mean", MedianOf(l, "batch_mean"), "samples");
  metrics.Set("stream.forwarded_share", MedianOf(l, "forwarded_share"),
              "share");
  metrics.Set("stream.sync_ingest_sps", MedianOf(l, "sync_ingest_sps"),
              "samples/s");
  metrics.Set("stream.restore_ms", MedianOf(l, "drill_restore_ms"), "ms");
  metrics.Set("stream.checkpoint_ms", MedianOf(l, "drill_checkpoint_ms"),
              "ms");
  metrics.Set("stream.checkpoint_bytes", MedianOf(l, "drill_checkpoint_bytes"),
              "bytes");
  metrics.Set("core.findings_held", MedianOf(l, "findings_held"), "count");
  metrics.Set("core.shifts_confirmed", MedianOf(l, "shifts_confirmed"),
              "count");
  metrics.Set("core.peer_deviations", MedianOf(l, "peer_deviations"), "count");
  metrics.Set("core.escalate_ms_per_entity",
              MedianOf(l, "escalate_ms_per_entity"), "ms");
  const double hits = SumOf(l, "escalate_cache_hits");
  const double lookups = hits + SumOf(l, "escalate_cache_misses");
  metrics.Set("core.escalate_cache_hit_ratio",
              lookups > 0.0 ? hits / lookups : 0.0, "share");
  metrics.Set("core.escalate_cache_lookups",
              lookups / static_cast<double>(std::max<size_t>(
                            state.traced_passes, 1)),
              "count");
  metrics.Set("serve.publish_p50_us",
              MedianPreferring(l, "publish_us", "drill_publish_us"), "us");
  metrics.Set("serve.drain_p50_us", QuantileOf(l, "drain_us", 0.5), "us");
  metrics.Set("serve.delta_share", MedianOf(l, "delta_share"), "share");
  metrics.Set("serve.dropped_share", MedianOf(l, "dropped_share"), "share");
  const double rollup_hits = SumOf(l, "rollup_cache_hits");
  const double rollups = rollup_hits + SumOf(l, "rollup_cache_misses");
  metrics.Set("serve.rollup_cache_hit_ratio",
              rollups > 0.0 ? rollup_hits / rollups : 0.0, "share");
  metrics.Set("fleet.restore_plant_ms",
              MedianPreferring(l, "restore_plant_ms", "drill_restore_plant_ms"),
              "ms");
  metrics.Set("fleet.checkpoint_plant_ms",
              MedianPreferring(l, "checkpoint_plant_ms",
                               "drill_checkpoint_plant_ms"),
              "ms");
  const double untraced = MedianOf(state.e2e, "ingest_sps");
  const double traced = MedianOf(l, "ingest_sps");
  metrics.Set("trace.overhead_share",
              untraced > 0.0 ? (untraced - traced) / untraced : 0.0, "share");
}

bool ParseArgs(int argc, char** argv, RunOptions& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() && options.seconds > 0.0;
}

}  // namespace

void RunPasses(RunState& state,
               const std::function<void(Tracer& tracer, Series& out)>& pass) {
  // One unmeasured pass first: the first pass of a process pays page
  // faults and cold caches that no later pass sees.
  {
    Tracer warmup(false);
    Series discarded;
    pass(warmup, discarded);
  }
  const int64_t budget_ns =
      static_cast<int64_t>(state.options.seconds * 1e9);
  const int64_t start = NowNs();
  std::unique_ptr<Tracer> last_traced;
  size_t untraced = 0;
  while (state.passes < kMaxPasses) {
    const bool traced = state.options.trace && (state.passes % 2 == 1);
    const bool enough = untraced >= kMinPassesEach &&
                        (!state.options.trace ||
                         state.traced_passes >= kMinPassesEach);
    if (enough && NowNs() - start >= budget_ns) break;
    auto tracer = std::make_unique<Tracer>(traced);
    Series& out = traced ? state.layers : state.e2e;
    pass(*tracer, out);
    ++state.passes;
    if (!traced) {
      ++untraced;
      continue;
    }
    ++state.traced_passes;
    const std::vector<double> ingest = tracer->DurationsUs(SpanName::kIngest);
    out["ingest_call_us"].insert(out["ingest_call_us"].end(), ingest.begin(),
                                 ingest.end());
    for (const auto& [name, key] :
         {std::pair{SpanName::kPublish, "publish_us"},
          std::pair{SpanName::kDrain, "drain_us"}}) {
      const std::vector<double> spans = tracer->DurationsUs(name);
      out[key].insert(out[key].end(), spans.begin(), spans.end());
    }
    last_traced = std::move(tracer);
  }
  if (last_traced != nullptr) {
    const std::string path =
        state.options.work_dir + "/spans-" + state.options.workload + ".tsv";
    if (!last_traced->Write(path)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    }
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunState state;
  if (!ParseArgs(argc, argv, state.options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\n");
    return 2;
  }
  std::error_code error;
  std::filesystem::create_directories(state.options.work_dir, error);
  const std::string& workload = state.options.workload;
  if (workload == "plant_replay") {
    RunPlantReplay(state);
  } else if (workload == "fleet_restart") {
    RunFleetRestart(state);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  Metrics metrics;
  if (state.options.trace) {
    ReportLayers(state, metrics);
  } else {
    ReportEndToEnd(state, metrics);
  }
  std::printf("%s\n", metrics.ResultLine(state.outcome).c_str());
  std::fflush(stdout);
  return state.outcome.correct() ? 0 : 1;
}
