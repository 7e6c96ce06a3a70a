// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer (Ingest, Flush, Publish inside
// its snapshot_sink, Drain, Poll, Rollup, board reads, Restore,
// Checkpoint); spans stay in per-thread buffers until the run ends and
// are then written out as one tab-separated file. Nothing here reaches
// into src/.

#ifndef HOD_PERFBENCH_TRACE_H_
#define HOD_PERFBENCH_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kRun,              ///< one measured pass, producer thread (root)
  kSetup,            ///< system construction until ready to ingest
  kIngest,           ///< StreamEngine::Ingest / FleetManager::Ingest
  kFlush,            ///< final Flush()
  kPublish,          ///< SnapshotHub::Publish inside the snapshot_sink
  kDrain,            ///< Subscription::Drain
  kPoll,             ///< EscalationBridge::Poll / EscalateAlarm pass
  kRollup,           ///< QueryService::Rollup / FleetHub::Rollup
  kBoard,            ///< StreamEngine::Episodes / FleetManager::AlertBoard
  kRestorePlant,     ///< FleetManager::RestorePlant
  kCheckpointPlant,  ///< FleetManager::CheckpointPlant
};

const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kRun;
  uint32_t thread = 0;
  int32_t parent = -1;  ///< index into the same thread's spans, -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// One recording thread's spans plus its stack of open spans.
struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread; a no-op when tracing is off.
  class Scope {
   public:
    Scope(Tracer* tracer, SpanName name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadBuffer* buffer_ = nullptr;
    int32_t index_ = -1;
  };

  /// Durations of every span called `name`, on any thread. Call once
  /// every recording thread is quiescent.
  std::vector<double> DurationsUs(SpanName name) const;

  /// Writes every span, one line each, as
  /// `thread name start_ns end_ns parent self_ns`, where self time is the
  /// duration minus the time the span's direct children cover.
  bool Write(const std::string& path) const;

 private:
  friend class Scope;
  ThreadBuffer* BufferForThisThread();

  const bool enabled_;
  /// Process-unique: a thread's cached buffer belongs to this tracer only
  /// while the ids match, even if a later tracer reuses the address.
  const uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};


}  // namespace perfbench

#endif  // HOD_PERFBENCH_TRACE_H_
