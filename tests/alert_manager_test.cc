#include "core/alert_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "util/rng.h"

namespace hod::core {
namespace {

OutlierFinding MakeFinding(const std::string& entity, double time,
                           double outlierness, int global_score = 1,
                           double support = 0.0,
                           bool measurement_error = false) {
  OutlierFinding finding;
  finding.origin.entity = entity;
  finding.origin.time = time;
  finding.outlierness = outlierness;
  finding.global_score = global_score;
  finding.support = support;
  finding.measurement_error_warning = measurement_error;
  return finding;
}

TEST(AlertManager, MergesNearbyFindingsIntoOneEpisode) {
  AlertManager manager(AlertManagerOptions{.merge_window = 30.0,
                                           .min_severity =
                                               AlertSeverity::kInfo});
  manager.Ingest(MakeFinding("s1", 100.0, 0.9, 3, 1.0));
  manager.Ingest(MakeFinding("s1", 110.0, 0.7, 3, 1.0));
  manager.Ingest(MakeFinding("s1", 125.0, 0.6, 2, 1.0));
  auto episodes = manager.Episodes();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].finding_count, 3u);
  EXPECT_DOUBLE_EQ(episodes[0].start_time, 100.0);
  EXPECT_DOUBLE_EQ(episodes[0].end_time, 125.0);
  EXPECT_DOUBLE_EQ(episodes[0].peak_outlierness, 0.9);
  EXPECT_EQ(episodes[0].peak_global_score, 3);
}

TEST(AlertManager, SplitsDistantFindings) {
  AlertManager manager(AlertManagerOptions{.merge_window = 30.0,
                                           .min_severity =
                                               AlertSeverity::kInfo});
  manager.Ingest(MakeFinding("s1", 100.0, 0.9, 3, 1.0));
  manager.Ingest(MakeFinding("s1", 500.0, 0.8, 3, 1.0));
  EXPECT_EQ(manager.Episodes().size(), 2u);
}

TEST(AlertManager, SeparateEntitiesSeparateEpisodes) {
  AlertManager manager(AlertManagerOptions{.merge_window = 30.0,
                                           .min_severity =
                                               AlertSeverity::kInfo});
  manager.Ingest(MakeFinding("s1", 100.0, 0.9, 3, 1.0));
  manager.Ingest(MakeFinding("s2", 101.0, 0.9, 3, 1.0));
  EXPECT_EQ(manager.Episodes().size(), 2u);
}

TEST(AlertManager, OutOfOrderIngestionHandled) {
  AlertManager manager(AlertManagerOptions{.merge_window = 30.0,
                                           .min_severity =
                                               AlertSeverity::kInfo});
  manager.Ingest(MakeFinding("s1", 125.0, 0.6, 2, 1.0));
  manager.Ingest(MakeFinding("s1", 100.0, 0.9, 3, 1.0));
  manager.Ingest(MakeFinding("s1", 110.0, 0.7, 3, 1.0));
  auto episodes = manager.Episodes();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_DOUBLE_EQ(episodes[0].start_time, 100.0);
}

TEST(AlertManager, SeverityFilterSuppressesInfo) {
  AlertManager manager(AlertManagerOptions{.merge_window = 30.0,
                                           .min_severity =
                                               AlertSeverity::kWarning});
  manager.Ingest(MakeFinding("weak", 10.0, 0.2, 1, 0.0));   // INFO
  manager.Ingest(MakeFinding("strong", 10.0, 0.9, 3, 1.0));  // CRITICAL
  auto episodes = manager.Episodes();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_EQ(episodes[0].entity, "strong");
  EXPECT_EQ(episodes[0].severity, AlertSeverity::kCritical);
}

TEST(AlertManager, MeasurementErrorsRoutedToCalibration) {
  AlertManager manager;
  manager.Ingest(MakeFinding("sensor", 10.0, 0.9, 1, 0.0,
                             /*measurement_error=*/true));
  manager.Ingest(MakeFinding("process", 10.0, 0.9, 3, 1.0));
  auto board = manager.Episodes();
  ASSERT_EQ(board.size(), 1u);
  EXPECT_EQ(board[0].entity, "process");
  auto calibration = manager.CalibrationQueue();
  ASSERT_EQ(calibration.size(), 1u);
  EXPECT_EQ(calibration[0].entity, "sensor");
  EXPECT_TRUE(calibration[0].suspected_measurement_error);
}

TEST(AlertManager, EpisodesSortedStrongestFirst) {
  AlertManager manager(AlertManagerOptions{.merge_window = 1.0,
                                           .min_severity =
                                               AlertSeverity::kInfo});
  manager.Ingest(MakeFinding("weak", 10.0, 0.3, 1, 0.0));
  manager.Ingest(MakeFinding("critical", 20.0, 0.9, 4, 1.0));
  manager.Ingest(MakeFinding("warning", 30.0, 0.8, 2, 0.0));
  auto episodes = manager.Episodes();
  ASSERT_EQ(episodes.size(), 3u);
  EXPECT_EQ(episodes[0].entity, "critical");
  EXPECT_EQ(episodes[1].entity, "warning");
  EXPECT_EQ(episodes[2].entity, "weak");
}

TEST(AlertManager, ClearResets) {
  AlertManager manager;
  manager.Ingest(MakeFinding("s", 1.0, 0.9, 3, 1.0));
  EXPECT_EQ(manager.findings_ingested(), 1u);
  manager.Clear();
  EXPECT_EQ(manager.findings_ingested(), 0u);
  EXPECT_TRUE(manager.Episodes().empty());
}

TEST(AlertManager, IngestReportTakesAllFindings) {
  HierarchicalOutlierReport report;
  report.findings.push_back(MakeFinding("a", 1.0, 0.9, 3, 1.0));
  report.findings.push_back(MakeFinding("b", 2.0, 0.8, 3, 1.0));
  AlertManager manager;
  manager.IngestReport(report);
  EXPECT_EQ(manager.findings_ingested(), 2u);
}

TEST(AlertManager, MovingBatchMatchesCopyingBatchAndEmptiesTheSource) {
  std::vector<OutlierFinding> batch;
  batch.push_back(MakeFinding("s1", 100.0, 0.9, 3, 1.0));
  batch.push_back(MakeFinding("s2", 101.0, 0.4, 1, 0.0, true));
  batch.push_back(MakeFinding("s1", 90.0, 0.7, 2, 1.0));  // late
  batch[0].confirmed_levels = {hierarchy::ProductionLevel::kPhase};
  AlertManager copied;
  copied.IngestBatch(batch);
  AlertManager moved;
  std::vector<OutlierFinding> source = batch;
  const size_t capacity = source.capacity();
  moved.IngestBatch(std::move(source));
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.capacity(), capacity) << "the buffer is reused";
  ASSERT_EQ(moved.findings_ingested(), copied.findings_ingested());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(moved.Findings()[i].origin.entity,
              copied.Findings()[i].origin.entity);
    EXPECT_EQ(moved.Findings()[i].confirmed_levels,
              copied.Findings()[i].confirmed_levels);
  }
  const auto same_board = [](const std::vector<AlertEpisode>& a,
                             const std::vector<AlertEpisode>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].entity, b[i].entity);
      EXPECT_EQ(a[i].start_time, b[i].start_time);
      EXPECT_EQ(a[i].end_time, b[i].end_time);
      EXPECT_EQ(a[i].finding_count, b[i].finding_count);
      EXPECT_EQ(a[i].severity, b[i].severity);
    }
  };
  same_board(moved.Episodes(), copied.Episodes());
  same_board(moved.CalibrationQueue(), copied.CalibrationQueue());
}

// --- Episode-index oracle ---------------------------------------------

/// The board as the manager computed it before it kept an episode index:
/// rebuilt from the whole finding log on every read. Kept here, and only
/// here, as the oracle the incremental index must match byte for byte.
std::vector<AlertEpisode> OracleBuild(
    const std::vector<OutlierFinding>& findings,
    const AlertManagerOptions& options, bool measurement_errors) {
  std::map<std::string, std::vector<const OutlierFinding*>> by_entity;
  for (const OutlierFinding& finding : findings) {
    const bool calibration = finding.measurement_error_warning ||
                             finding.kind == FindingKind::kSensorFault ||
                             finding.kind == FindingKind::kPeerDrift;
    if (calibration != measurement_errors) continue;
    by_entity[finding.origin.entity].push_back(&finding);
  }
  std::vector<AlertEpisode> episodes;
  for (auto& [entity, group] : by_entity) {
    std::sort(group.begin(), group.end(),
              [](const OutlierFinding* a, const OutlierFinding* b) {
                return a->origin.time < b->origin.time;
              });
    AlertEpisode current;
    bool open = false;
    auto flush = [&]() {
      if (open) episodes.push_back(current);
      open = false;
    };
    for (const OutlierFinding* finding : group) {
      if (open &&
          finding->origin.time - current.end_time > options.merge_window) {
        flush();
      }
      if (!open) {
        current = AlertEpisode{};
        current.entity = entity;
        current.start_time = finding->origin.time;
        current.suspected_measurement_error = measurement_errors;
        open = true;
      }
      current.end_time = finding->origin.time;
      ++current.finding_count;
      current.peak_outlierness =
          std::max(current.peak_outlierness, finding->outlierness);
      current.peak_global_score =
          std::max(current.peak_global_score, finding->global_score);
      current.peak_support = std::max(current.peak_support, finding->support);
      if (finding->escalated) ++current.escalated_findings;
      if (finding->kind == FindingKind::kGroupOutage) {
        current.group_outage = true;
      }
      const AlertSeverity severity = ClassifyAlert(*finding);
      if (static_cast<int>(severity) > static_cast<int>(current.severity)) {
        current.severity = severity;
      }
    }
    flush();
  }
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

std::vector<AlertEpisode> OracleEpisodes(
    const std::vector<OutlierFinding>& findings,
    const AlertManagerOptions& options) {
  std::vector<AlertEpisode> filtered;
  for (AlertEpisode& episode : OracleBuild(findings, options, false)) {
    if (static_cast<int>(episode.severity) >=
        static_cast<int>(options.min_severity)) {
      filtered.push_back(std::move(episode));
    }
  }
  return filtered;
}

/// Field-for-field equality, doubles compared exactly.
::testing::AssertionResult SameBoard(const std::vector<AlertEpisode>& got,
                                     const std::vector<AlertEpisode>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " episodes, oracle has " << want.size();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const AlertEpisode& a = got[i];
    const AlertEpisode& b = want[i];
    if (a.entity != b.entity || a.start_time != b.start_time ||
        a.end_time != b.end_time || a.finding_count != b.finding_count ||
        a.peak_outlierness != b.peak_outlierness ||
        a.peak_global_score != b.peak_global_score ||
        a.peak_support != b.peak_support ||
        a.escalated_findings != b.escalated_findings ||
        a.severity != b.severity ||
        a.suspected_measurement_error != b.suspected_measurement_error ||
        a.group_outage != b.group_outage) {
      return ::testing::AssertionFailure()
             << "episode " << i << " differs: " << a.entity << " ["
             << a.start_time << ", " << a.end_time << "] x"
             << a.finding_count << " vs oracle " << b.entity << " ["
             << b.start_time << ", " << b.end_time << "] x"
             << b.finding_count;
    }
  }
  return ::testing::AssertionSuccess();
}

/// A finding drawn from small value sets, so equal timestamps and equal
/// sort keys (severity, peak outlierness) are common.
OutlierFinding RandomFinding(Rng& rng, double& clock) {
  constexpr FindingKind kKinds[] = {
      FindingKind::kOutlier, FindingKind::kSensorFault,
      FindingKind::kPeerDrift, FindingKind::kGroupOutage,
      FindingKind::kConceptShift};
  static const char* const kEntities[] = {"a", "b", "c", "line-1", "m.2"};
  OutlierFinding finding;
  finding.kind = kKinds[rng.NextBelow(5)];
  finding.origin.entity = kEntities[rng.NextBelow(5)];
  const uint64_t step = rng.NextBelow(10);
  if (step < 6) {
    clock += 5.0 * static_cast<double>(step);  // in order (0 = equal time)
    finding.origin.time = clock;
  } else if (step < 9) {
    // Late: up to 60 s behind the clock, on the same 5 s grid.
    finding.origin.time = clock - 5.0 * static_cast<double>(rng.NextBelow(13));
  } else {
    clock += 40.0 + 5.0 * static_cast<double>(rng.NextBelow(8));  // gap
    finding.origin.time = clock;
  }
  finding.outlierness = 0.1 * static_cast<double>(rng.NextBelow(11));
  finding.global_score = static_cast<int>(1 + rng.NextBelow(5));
  finding.support = 0.25 * static_cast<double>(rng.NextBelow(5));
  finding.corresponding_sensors = rng.NextBelow(3);
  finding.measurement_error_warning = rng.NextBelow(5) == 0;
  finding.escalated = rng.NextBelow(3) == 0;
  return finding;
}

TEST(AlertManagerIndex, MatchesRebuildOracleOnRandomSequences) {
  constexpr double kWindows[] = {0.0, 10.0, 30.0};
  constexpr AlertSeverity kFloors[] = {
      AlertSeverity::kInfo, AlertSeverity::kWarning, AlertSeverity::kCritical};
  size_t restores = 0;
  size_t clears = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    const AlertManagerOptions options{
        .merge_window = kWindows[rng.NextBelow(3)],
        .min_severity = kFloors[rng.NextBelow(3)]};
    AlertManager manager(options);
    std::vector<OutlierFinding> log;
    double clock = 100.0;
    const size_t ops = 20 + rng.NextBelow(40);
    for (size_t op = 0; op < ops; ++op) {
      const uint64_t pick = rng.NextBelow(100);
      if (pick < 50) {
        OutlierFinding finding = RandomFinding(rng, clock);
        manager.Ingest(finding);
        log.push_back(std::move(finding));
      } else if (pick < 90) {
        std::vector<OutlierFinding> batch(1 + rng.NextBelow(6));
        for (OutlierFinding& finding : batch) {
          finding = RandomFinding(rng, clock);
        }
        manager.IngestBatch(batch);
        log.insert(log.end(), batch.begin(), batch.end());
      } else if (pick < 97) {
        // Restore a shuffled log (arrival order is not time order).
        for (size_t i = log.size(); i > 1; --i) {
          std::swap(log[i - 1], log[rng.NextBelow(i)]);
        }
        manager.RestoreFindings(log);
        ++restores;
      } else {
        manager.Clear();
        log.clear();
        ++clears;
      }
      if (op % 3 != 2 && op + 1 != ops) continue;
      ASSERT_EQ(manager.findings_ingested(), log.size()) << "seed " << seed;
      ASSERT_TRUE(SameBoard(manager.Episodes(), OracleEpisodes(log, options)))
          << "seed " << seed << " op " << op;
      ASSERT_TRUE(SameBoard(manager.CalibrationQueue(),
                            OracleBuild(log, options, true)))
          << "seed " << seed << " op " << op;
    }
  }
  EXPECT_GT(restores, 100u);
  EXPECT_GT(clears, 50u);
}

TEST(AlertManagerIndex, LateFindingBridgesTwoEpisodes) {
  AlertManager manager(AlertManagerOptions{.merge_window = 30.0,
                                           .min_severity =
                                               AlertSeverity::kInfo});
  manager.Ingest(MakeFinding("s1", 100.0, 0.9, 3, 1.0));
  manager.Ingest(MakeFinding("s1", 150.0, 0.8, 3, 1.0));
  ASSERT_EQ(manager.Episodes().size(), 2u);
  manager.Ingest(MakeFinding("s1", 125.0, 0.5, 2, 1.0));
  const auto episodes = manager.Episodes();
  ASSERT_EQ(episodes.size(), 1u);
  EXPECT_DOUBLE_EQ(episodes[0].start_time, 100.0);
  EXPECT_DOUBLE_EQ(episodes[0].end_time, 150.0);
  EXPECT_EQ(episodes[0].finding_count, 3u);
}

TEST(AlertManagerIndex, RestoreRebuildsTheBoard) {
  AlertManager manager(AlertManagerOptions{.merge_window = 30.0,
                                           .min_severity =
                                               AlertSeverity::kInfo});
  manager.Ingest(MakeFinding("s1", 100.0, 0.9, 3, 1.0));
  manager.Ingest(MakeFinding("s2", 90.0, 0.6, 1, 0.0, true));
  manager.Ingest(MakeFinding("s1", 300.0, 0.7, 2, 1.0));
  AlertManager restored(AlertManagerOptions{.merge_window = 30.0,
                                            .min_severity =
                                                AlertSeverity::kInfo});
  restored.RestoreFindings(manager.Findings());
  EXPECT_TRUE(SameBoard(restored.Episodes(), manager.Episodes()));
  EXPECT_TRUE(SameBoard(restored.CalibrationQueue(),
                        manager.CalibrationQueue()));
  EXPECT_EQ(restored.Episodes().size(), 2u);
  EXPECT_EQ(restored.CalibrationQueue().size(), 1u);
}

}  // namespace
}  // namespace hod::core
