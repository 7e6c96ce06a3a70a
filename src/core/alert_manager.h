#ifndef HOD_CORE_ALERT_MANAGER_H_
#define HOD_CORE_ALERT_MANAGER_H_

#include <map>
#include <string>
#include <vector>

#include "core/report.h"
#include "util/statusor.h"

namespace hod::core {

/// Alert management — the paper's second promised application ("generate
/// Alerts"). Raw Algorithm-1 findings arrive point-by-point; operators
/// need *episodes*: nearby findings on the same entity merged into one
/// alert whose severity is the strongest of its members, routed by kind
/// (process problem vs suspected sensor fault).
struct AlertManagerOptions {
  /// Findings on the same entity within this many seconds merge into one
  /// episode.
  double merge_window = 30.0;
  /// Episodes below this severity are suppressed from the board.
  AlertSeverity min_severity = AlertSeverity::kWarning;
};

/// One merged alert episode.
struct AlertEpisode {
  std::string entity;
  ts::TimePoint start_time = 0.0;
  ts::TimePoint end_time = 0.0;
  size_t finding_count = 0;
  /// Strongest member values — the Algorithm-1 ⟨global score, outlierness,
  /// support⟩ triple of the episode.
  double peak_outlierness = 0.0;
  int peak_global_score = 1;
  double peak_support = 0.0;
  /// Member findings that came through the incremental escalation path.
  /// Zero means the episode only ever saw raw stream-tier alarms (global
  /// score 1, no support) — its triple is provisional, not confirmed by
  /// the hierarchical recursion.
  size_t escalated_findings = 0;
  AlertSeverity severity = AlertSeverity::kInfo;
  /// True when every member finding carried the measurement-error flag —
  /// the episode belongs on the calibration queue, not the stop queue.
  bool suspected_measurement_error = false;
  /// True when a member finding is a kGroupOutage (correlated quarantine
  /// onsets across a line/plant) — fleet boards pin these rows first
  /// within their severity class.
  bool group_outage = false;
};

/// Collects findings and produces the deduplicated alert board.
///
/// Episodes are maintained incrementally in a per-entity index (one for
/// the process board, one for the calibration queue): a finding at or
/// after its entity's latest time extends or opens that entity's last
/// episode in amortised O(log entities); an earlier one re-sweeps only its
/// own entity. A board read concatenates the cached episodes in entity
/// order and sorts them, O(episodes log episodes), independent of how many
/// findings have been ingested.
class AlertManager {
 public:
  explicit AlertManager(AlertManagerOptions options = {});

  /// Ingests one finding (any level, any order — a late finding re-sweeps
  /// its entity's episodes).
  void Ingest(const OutlierFinding& finding);

  /// Ingests every finding of a report.
  void IngestReport(const HierarchicalOutlierReport& report);

  /// Ingests a batch of findings (the streaming collector's path: one
  /// call per drained micro-batch instead of one per finding).
  void IngestBatch(const std::vector<OutlierFinding>& findings);
  /// Same, moving each finding in instead of copying it. `findings` is
  /// left empty with its capacity kept, ready to collect the next batch.
  void IngestBatch(std::vector<OutlierFinding>&& findings);

  size_t findings_ingested() const { return findings_.size(); }

  /// Raw ingested findings, in arrival order — the manager's entire
  /// mutable state, exposed so an engine checkpoint can persist open alert
  /// episodes and restore them byte-identically.
  const std::vector<OutlierFinding>& Findings() const { return findings_; }

  /// Replaces the ingested findings wholesale (checkpoint restore) and
  /// rebuilds the episode index from them.
  void RestoreFindings(std::vector<OutlierFinding> findings);

  /// Builds the episode list: per entity, time-sorted findings merged by
  /// the merge window, filtered by min severity, strongest first.
  std::vector<AlertEpisode> Episodes() const;

  /// Episodes destined for the calibration queue (suspected sensor
  /// faults) — these bypass the severity filter at WARNING level.
  std::vector<AlertEpisode> CalibrationQueue() const;

  void Clear();

 private:
  /// One entity's slice of a board: its findings (indices into findings_)
  /// in time order, and the episodes the merge-window sweep makes of them.
  struct EntityEpisodes {
    std::vector<size_t> members;
    std::vector<AlertEpisode> episodes;
  };
  /// Keyed by entity; std::map so board reads walk entities in order.
  using EpisodeIndex = std::map<std::string, EntityEpisodes>;

  /// Files findings_[index] into its board's index.
  void Index(size_t index);
  /// Re-sweeps one entity's time-ordered members into episodes.
  void Sweep(const std::string& entity, bool measurement_errors,
             EntityEpisodes& slice) const;
  /// One sweep step over time-ordered findings: folds `finding` into the
  /// last episode, or opens a new one when it lies beyond the merge window.
  void Extend(const OutlierFinding& finding, const std::string& entity,
              bool measurement_errors,
              std::vector<AlertEpisode>& episodes) const;
  /// Cached episodes of every entity, strongest first.
  static std::vector<AlertEpisode> Board(const EpisodeIndex& index);

  AlertManagerOptions options_;
  std::vector<OutlierFinding> findings_;
  EpisodeIndex process_;
  EpisodeIndex calibration_;
};

}  // namespace hod::core

#endif  // HOD_CORE_ALERT_MANAGER_H_
