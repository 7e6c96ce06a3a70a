#include "trace.h"

#include <atomic>
#include <cstdio>

#include "common.h"

namespace perfbench {
namespace {

/// Tracers are short-lived (one per pass) and may reuse an address, so a
/// thread's cached buffer is keyed by a process-unique tracer id.
std::atomic<uint64_t> next_tracer_id{1};

struct ThreadCache {
  uint64_t owner_id = 0;
  ThreadBuffer* buffer = nullptr;
};
thread_local ThreadCache tl_cache;

/// Self time of span `index` in `buffer`: its duration minus the union of
/// its direct children (children of one span never overlap on one thread).
int64_t SelfTime(const ThreadBuffer& buffer, size_t index) {
  const Span& span = buffer.spans[index];
  int64_t covered = 0;
  for (size_t j = index + 1; j < buffer.spans.size(); ++j) {
    const Span& child = buffer.spans[j];
    if (child.start_ns >= span.end_ns) break;
    if (child.parent == static_cast<int32_t>(index)) {
      covered += child.end_ns - child.start_ns;
    }
  }
  return span.end_ns - span.start_ns - covered;
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), id_(next_tracer_id.fetch_add(1)) {}

const char* SpanNameString(SpanName name) {
  static const char* const kNames[] = {
      "run",          "setup",      "stream.ingest",       "stream.flush",
      "serve.publish", "serve.drain", "core.poll",         "serve.rollup",
      "core.board",   "fleet.restore_plant", "fleet.checkpoint_plant"};
  return kNames[static_cast<size_t>(name)];
}

ThreadBuffer* Tracer::BufferForThisThread() {
  if (tl_cache.owner_id == id_) return tl_cache.buffer;
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buffer = buffers_.back().get();
  buffer->thread = static_cast<uint32_t>(buffers_.size() - 1);
  buffer->spans.reserve(1 << 14);
  tl_cache = {id_, buffer};
  return buffer;
}

Tracer::Scope::Scope(Tracer* tracer, SpanName name) {
  if (tracer == nullptr || !tracer->enabled()) return;
  buffer_ = tracer->BufferForThisThread();
  Span span;
  span.name = name;
  span.thread = buffer_->thread;
  span.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  index_ = static_cast<int32_t>(buffer_->spans.size());
  buffer_->open.push_back(index_);
  span.start_ns = NowNs();
  buffer_->spans.push_back(span);
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  buffer_->open.pop_back();
}

std::vector<double> Tracer::DurationsUs(SpanName name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (span.name == name) out.push_back(NsToUs(span.end_ns - span.start_ns));
    }
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const auto& buffer : buffers_) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& span = buffer->spans[i];
      std::fprintf(out, "%u\t%s\t%lld\t%lld\t%d\t%lld\n", span.thread,
                   SpanNameString(span.name),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns), span.parent,
                   static_cast<long long>(SelfTime(*buffer, i)));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
