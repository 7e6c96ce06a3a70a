#include "stream/escalation.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/report.h"

namespace hod::stream {

std::vector<const ActiveAlarm*> TakeFreshAlarms(
    const std::vector<ActiveAlarm>& active,
    std::map<std::string, ts::TimePoint>& escalated) {
  std::vector<const ActiveAlarm*> fresh;
  auto known = escalated.begin();
  for (const ActiveAlarm& alarm : active) {
    while (known != escalated.end() && known->first < alarm.sensor_id) {
      known = escalated.erase(known);
    }
    if (known != escalated.end() && known->first == alarm.sensor_id) {
      if (known->second != alarm.since) {
        known->second = alarm.since;
        fresh.push_back(&alarm);
      }
      ++known;
    } else {
      escalated.emplace_hint(known, alarm.sensor_id, alarm.since);
      fresh.push_back(&alarm);
    }
  }
  escalated.erase(known, escalated.end());
  return fresh;
}

EscalationBridge::EscalationBridge(StreamEngine* engine,
                                   core::HierarchicalDetector* detector,
                                   EscalationOptions options)
    : engine_(engine), detector_(detector), options_(options) {}

EscalationBridge::~EscalationBridge() { Stop(); }

void EscalationBridge::Start() {
  if (worker_.joinable()) return;
  worker_ = std::jthread([this](std::stop_token stop) { Loop(stop); });
}

void EscalationBridge::Stop() {
  if (!worker_.joinable()) return;
  worker_.request_stop();
  worker_.join();
}

void EscalationBridge::Loop(const std::stop_token& stop) {
  std::mutex mu;
  std::condition_variable_any cv;
  std::unique_lock<std::mutex> lock(mu);
  while (!stop.stop_requested()) {
    cv.wait_for(lock, stop, options_.poll_interval, [] { return false; });
    if (stop.stop_requested()) break;
    // Unresolvable alarms are counted in the run stats; keep polling.
    (void)Poll();
  }
}

StatusOr<size_t> EscalationBridge::Poll() {
  const std::shared_ptr<const EngineSnapshot> shared =
      engine_->SharedSnapshot();
  const EngineSnapshot& snapshot = *shared;
  if (snapshot.sequence == 0 || snapshot.sequence == last_sequence_) {
    return size_t{0};
  }
  last_sequence_ = snapshot.sequence;

  // Concept shifts first: a re-baselined sensor means every cached model
  // covering it was fit to the old regime. MarkDirty bumps the epoch so
  // the next escalation over that scope rebuilds instead of serving a
  // stale fit. The snapshot's ring may re-publish old shifts; the
  // consumed map keeps each (sensor, confirm-ts) to one MarkDirty.
  for (const ConceptShiftEvent& shift : snapshot.concept_shifts) {
    auto it = shifts_consumed_.find(shift.sensor_id);
    if (it != shifts_consumed_.end() && it->second >= shift.ts) continue;
    shifts_consumed_[shift.sensor_id] = shift.ts;
    // NotFound (entity outside the detector's production) is not an
    // error: the stream tier may watch sensors the hierarchy does not.
    (void)detector_->MarkDirty(shift.sensor_id);
    ++shifts_marked_;
  }

  const std::vector<const ActiveAlarm*> fresh =
      TakeFreshAlarms(snapshot.active_alarms, escalated_);
  if (fresh.empty()) return size_t{0};

  const core::DetectorCacheStats before = detector_->cache_stats();
  const auto t0 = std::chrono::steady_clock::now();

  EscalationRunStats run;
  run.entities = fresh.size();
  std::vector<core::OutlierFinding> findings;
  for (const ActiveAlarm* alarm : fresh) {
    auto report_or = detector_->EscalateAlarm(alarm->level, alarm->sensor_id,
                                              alarm->since);
    if (!report_or.ok()) {
      ++run.unresolved;
      continue;
    }
    for (core::OutlierFinding& finding : report_or.value().findings) {
      finding.escalated = true;
      findings.push_back(std::move(finding));
    }
  }

  const auto elapsed = std::chrono::steady_clock::now() - t0;
  run.latency_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  const core::DetectorCacheStats after = detector_->cache_stats();
  run.cache_hits = after.hits() - before.hits();
  run.cache_misses = after.misses() - before.misses();
  run.findings = findings.size();

  engine_->ReportEscalation(run, findings);
  ++runs_;
  return fresh.size();
}

}  // namespace hod::stream
