#include "core/alert_manager.h"

#include <algorithm>

namespace hod::core {

namespace {

/// Sensor-fault and peer-drift findings belong on the calibration queue
/// regardless of how the producer set the measurement-error flag.
bool IsCalibration(const OutlierFinding& finding) {
  return finding.measurement_error_warning ||
         finding.kind == FindingKind::kSensorFault ||
         finding.kind == FindingKind::kPeerDrift;
}

}  // namespace

AlertManager::AlertManager(AlertManagerOptions options) : options_(options) {}

void AlertManager::Ingest(const OutlierFinding& finding) {
  findings_.push_back(finding);
  Index(findings_.size() - 1);
}

void AlertManager::IngestReport(const HierarchicalOutlierReport& report) {
  for (const OutlierFinding& finding : report.findings) Ingest(finding);
}

void AlertManager::IngestBatch(const std::vector<OutlierFinding>& findings) {
  // No exact-size reserve here: it would defeat geometric growth and copy
  // the whole log on every batch.
  for (const OutlierFinding& finding : findings) Ingest(finding);
}

void AlertManager::IngestBatch(std::vector<OutlierFinding>&& findings) {
  for (OutlierFinding& finding : findings) {
    findings_.push_back(std::move(finding));
    Index(findings_.size() - 1);
  }
  findings.clear();
}

void AlertManager::RestoreFindings(std::vector<OutlierFinding> findings) {
  findings_ = std::move(findings);
  process_.clear();
  calibration_.clear();
  // Bulk rebuild: group by entity, order each entity once, sweep once.
  for (size_t i = 0; i < findings_.size(); ++i) {
    const OutlierFinding& finding = findings_[i];
    EpisodeIndex& board = IsCalibration(finding) ? calibration_ : process_;
    board[finding.origin.entity].members.push_back(i);
  }
  for (const bool measurement_errors : {false, true}) {
    for (auto& [entity, slice] : measurement_errors ? calibration_ : process_) {
      std::stable_sort(slice.members.begin(), slice.members.end(),
                       [this](size_t a, size_t b) {
                         return findings_[a].origin.time <
                                findings_[b].origin.time;
                       });
      Sweep(entity, measurement_errors, slice);
    }
  }
}

void AlertManager::Clear() {
  findings_.clear();
  process_.clear();
  calibration_.clear();
}

void AlertManager::Index(size_t index) {
  const OutlierFinding& finding = findings_[index];
  const bool measurement_errors = IsCalibration(finding);
  EpisodeIndex& board = measurement_errors ? calibration_ : process_;
  const std::string& entity = finding.origin.entity;
  EntityEpisodes& slice = board[entity];
  const ts::TimePoint time = finding.origin.time;
  if (!slice.episodes.empty() && time < slice.episodes.back().end_time) {
    // Late finding (e.g. an escalation stamped at its alarm's onset):
    // insert it in time order and re-sweep this entity only.
    auto pos = std::upper_bound(slice.members.begin(), slice.members.end(),
                                time, [this](ts::TimePoint t, size_t member) {
                                  return t < findings_[member].origin.time;
                                });
    slice.members.insert(pos, index);
    Sweep(entity, measurement_errors, slice);
    return;
  }
  // In order: the last episode ends at the entity's latest time, so the
  // sweep's next step touches only that episode.
  slice.members.push_back(index);
  Extend(finding, entity, measurement_errors, slice.episodes);
}

void AlertManager::Sweep(const std::string& entity, bool measurement_errors,
                         EntityEpisodes& slice) const {
  slice.episodes.clear();
  for (const size_t member : slice.members) {
    Extend(findings_[member], entity, measurement_errors, slice.episodes);
  }
}

void AlertManager::Extend(const OutlierFinding& finding,
                          const std::string& entity, bool measurement_errors,
                          std::vector<AlertEpisode>& episodes) const {
  if (episodes.empty() ||
      finding.origin.time - episodes.back().end_time > options_.merge_window) {
    AlertEpisode& opened = episodes.emplace_back();
    opened.entity = entity;
    opened.start_time = finding.origin.time;
    opened.suspected_measurement_error = measurement_errors;
  }
  AlertEpisode& episode = episodes.back();
  episode.end_time = finding.origin.time;
  ++episode.finding_count;
  episode.peak_outlierness =
      std::max(episode.peak_outlierness, finding.outlierness);
  episode.peak_global_score =
      std::max(episode.peak_global_score, finding.global_score);
  episode.peak_support = std::max(episode.peak_support, finding.support);
  if (finding.escalated) ++episode.escalated_findings;
  if (finding.kind == FindingKind::kGroupOutage) episode.group_outage = true;
  const AlertSeverity severity = ClassifyAlert(finding);
  if (static_cast<int>(severity) > static_cast<int>(episode.severity)) {
    episode.severity = severity;
  }
}

std::vector<AlertEpisode> AlertManager::Board(const EpisodeIndex& index) {
  size_t total = 0;
  for (const auto& [entity, slice] : index) total += slice.episodes.size();
  std::vector<AlertEpisode> episodes;
  episodes.reserve(total);
  for (const auto& [entity, slice] : index) {
    episodes.insert(episodes.end(), slice.episodes.begin(),
                    slice.episodes.end());
  }
  // Strongest first: severity, then peak outlierness.
  std::sort(episodes.begin(), episodes.end(),
            [](const AlertEpisode& a, const AlertEpisode& b) {
              if (a.severity != b.severity) {
                return static_cast<int>(a.severity) >
                       static_cast<int>(b.severity);
              }
              return a.peak_outlierness > b.peak_outlierness;
            });
  return episodes;
}

std::vector<AlertEpisode> AlertManager::Episodes() const {
  std::vector<AlertEpisode> episodes = Board(process_);
  std::erase_if(episodes, [this](const AlertEpisode& episode) {
    return static_cast<int>(episode.severity) <
           static_cast<int>(options_.min_severity);
  });
  return episodes;
}

std::vector<AlertEpisode> AlertManager::CalibrationQueue() const {
  return Board(calibration_);
}

}  // namespace hod::core
