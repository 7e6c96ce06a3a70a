#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace hod::sim {
namespace {

stream::SensorSample Sample(const std::string& id, double ts, double value) {
  return {id, hierarchy::ProductionLevel::kPhase, ts, value};
}

TEST(FaultInjector, PassthroughForUnscheduledSensors) {
  FaultInjector injector;
  auto out = injector.Apply(Sample("clean", 5.0, 42.0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sensor_id, "clean");
  EXPECT_DOUBLE_EQ(out[0].value, 42.0);
  EXPECT_FALSE(injector.IsVictim("clean"));
}

TEST(FaultInjector, AddFaultValidates) {
  FaultInjector injector;
  FaultProfile profile;
  profile.duration = 10.0;
  EXPECT_FALSE(injector.AddFault("", profile).ok());
  profile.duration = 0.0;
  EXPECT_FALSE(injector.AddFault("s", profile).ok());
  profile.duration = 1.0;
  EXPECT_TRUE(injector.AddFault("s", profile).ok());
  EXPECT_EQ(injector.num_faults(), 1u);
}

TEST(FaultInjector, DropoutSwallowsSamplesInsideTheInterval) {
  FaultInjector injector;
  ASSERT_TRUE(
      injector.AddFault("s", {FaultKind::kDropout, 10.0, 5.0}).ok());
  EXPECT_EQ(injector.Apply(Sample("s", 9.9, 1.0)).size(), 1u);
  EXPECT_EQ(injector.Apply(Sample("s", 10.0, 1.0)).size(), 0u);
  EXPECT_EQ(injector.Apply(Sample("s", 14.9, 1.0)).size(), 0u);
  EXPECT_EQ(injector.Apply(Sample("s", 15.0, 1.0)).size(), 1u)
      << "fault end is exclusive";
}

TEST(FaultInjector, StuckAtLatchesTheFirstInFaultValue) {
  FaultInjector injector;
  ASSERT_TRUE(
      injector.AddFault("s", {FaultKind::kStuckAt, 100.0, 50.0}).ok());
  auto before = injector.Apply(Sample("s", 99.0, 7.0));
  ASSERT_EQ(before.size(), 1u);
  EXPECT_DOUBLE_EQ(before[0].value, 7.0);
  auto first = injector.Apply(Sample("s", 100.0, 3.25));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_DOUBLE_EQ(first[0].value, 3.25) << "latches on entry";
  auto later = injector.Apply(Sample("s", 120.0, 99.0));
  ASSERT_EQ(later.size(), 1u);
  EXPECT_DOUBLE_EQ(later[0].value, 3.25) << "stays stuck";
  auto after = injector.Apply(Sample("s", 151.0, 8.0));
  ASSERT_EQ(after.size(), 1u);
  EXPECT_DOUBLE_EQ(after[0].value, 8.0) << "releases after the interval";
}

TEST(FaultInjector, NaNBurstEmitsNaN) {
  FaultInjector injector;
  ASSERT_TRUE(
      injector.AddFault("s", {FaultKind::kNaNBurst, 0.0, 10.0}).ok());
  auto out = injector.Apply(Sample("s", 5.0, 1.0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(std::isnan(out[0].value));
}

TEST(FaultInjector, GainDriftRampsMultiplicatively) {
  FaultInjector injector;
  FaultProfile profile{FaultKind::kGainDrift, 100.0, 50.0};
  profile.gain_rate = 0.1;
  ASSERT_TRUE(injector.AddFault("s", profile).ok());
  // 20 s into the fault: gain = 1 + 0.1 * 20 = 3.
  auto out = injector.Apply(Sample("s", 120.0, 10.0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].value, 30.0);
  // At fault start the gain is exactly 1.
  auto start = injector.Apply(Sample("s", 100.0, 10.0));
  ASSERT_EQ(start.size(), 1u);
  EXPECT_DOUBLE_EQ(start[0].value, 10.0);
}

TEST(FaultInjector, DuplicateDeliversTwice) {
  FaultInjector injector;
  ASSERT_TRUE(
      injector.AddFault("s", {FaultKind::kDuplicate, 0.0, 10.0}).ok());
  auto out = injector.Apply(Sample("s", 5.0, 3.0));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].value, 3.0);
  EXPECT_DOUBLE_EQ(out[1].value, 3.0);
  EXPECT_DOUBLE_EQ(out[0].ts, out[1].ts);
}

TEST(FaultInjector, ClockSkewRegressesTimestamps) {
  FaultInjector injector;
  FaultProfile profile{FaultKind::kClockSkew, 100.0, 50.0};
  profile.skew = 32.0;
  ASSERT_TRUE(injector.AddFault("s", profile).ok());
  auto out = injector.Apply(Sample("s", 110.0, 1.0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].ts, 78.0);
  EXPECT_DOUBLE_EQ(out[0].value, 1.0) << "value untouched";
}

TEST(FaultInjector, FaultsOnOneSensorDoNotLeak) {
  FaultInjector injector;
  ASSERT_TRUE(
      injector.AddFault("bad", {FaultKind::kNaNBurst, 0.0, 100.0}).ok());
  auto out = injector.Apply(Sample("good", 5.0, 1.0));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].value, 1.0);
}

TEST(FaultInjector, IsFaultedMatchesGroundTruth) {
  FaultInjector injector;
  ASSERT_TRUE(
      injector.AddFault("s", {FaultKind::kDropout, 10.0, 5.0}).ok());
  ASSERT_TRUE(
      injector.AddFault("s", {FaultKind::kStuckAt, 30.0, 5.0}).ok());
  EXPECT_FALSE(injector.IsFaulted("s", 9.0));
  EXPECT_TRUE(injector.IsFaulted("s", 12.0));
  EXPECT_FALSE(injector.IsFaulted("s", 20.0));
  EXPECT_TRUE(injector.IsFaulted("s", 34.0));
  EXPECT_FALSE(injector.IsFaulted("other", 12.0));
  const auto& truth = injector.GroundTruth();
  ASSERT_EQ(truth.size(), 2u);
  EXPECT_DOUBLE_EQ(truth[0].start, 10.0);
  EXPECT_DOUBLE_EQ(truth[0].end, 15.0);
  EXPECT_DOUBLE_EQ(truth[1].start, 30.0);
}

TEST(FaultInjector, PlanRandomIsDeterministicPerSeed) {
  std::vector<std::string> sensors;
  for (int i = 0; i < 32; ++i) sensors.push_back("s" + std::to_string(i));

  FaultInjectorOptions options;
  options.seed = 99;
  FaultInjector a(options);
  FaultInjector b(options);
  ASSERT_TRUE(a.PlanRandom(sensors, 5, 0.0, 1000.0).ok());
  ASSERT_TRUE(b.PlanRandom(sensors, 5, 0.0, 1000.0).ok());

  const auto& ta = a.GroundTruth();
  const auto& tb = b.GroundTruth();
  ASSERT_EQ(ta.size(), 5u);
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].sensor_id, tb[i].sensor_id);
    EXPECT_EQ(ta[i].kind, tb[i].kind);
    EXPECT_DOUBLE_EQ(ta[i].start, tb[i].start);
    EXPECT_DOUBLE_EQ(ta[i].end, tb[i].end);
  }

  // A different seed picks a different plan.
  options.seed = 100;
  FaultInjector c(options);
  ASSERT_TRUE(c.PlanRandom(sensors, 5, 0.0, 1000.0).ok());
  bool any_difference = false;
  for (size_t i = 0; i < ta.size(); ++i) {
    if (c.GroundTruth()[i].sensor_id != ta[i].sensor_id ||
        c.GroundTruth()[i].start != ta[i].start) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultInjector, PlanRandomKeepsFaultsInsideTheWindow) {
  std::vector<std::string> sensors;
  for (int i = 0; i < 16; ++i) sensors.push_back("s" + std::to_string(i));
  FaultInjectorOptions options;
  options.seed = 7;
  options.min_duration = 40.0;
  options.max_duration = 120.0;
  FaultInjector injector(options);
  ASSERT_TRUE(injector.PlanRandom(sensors, 8, 100.0, 900.0).ok());
  ASSERT_EQ(injector.GroundTruth().size(), 8u);
  for (const FaultInterval& interval : injector.GroundTruth()) {
    EXPECT_GE(interval.start, 100.0) << interval.sensor_id;
    EXPECT_LT(interval.start, 900.0) << interval.sensor_id;
    EXPECT_GE(interval.end - interval.start, 40.0);
    EXPECT_LE(interval.end - interval.start, 120.0);
  }
}

TEST(FaultInjector, PlanRandomRejectsBadArguments) {
  FaultInjector injector;
  EXPECT_FALSE(injector.PlanRandom({"a"}, 2, 0.0, 100.0).ok())
      << "more faults than sensors";
  EXPECT_FALSE(injector.PlanRandom({"a"}, 1, 100.0, 100.0).ok())
      << "empty window";
}

TEST(FaultInjector, ApplyStreamIsDeterministicPerSensorOrder) {
  // Same schedule + same per-sensor sample order => same faulted stream,
  // which is what makes multi-threaded fault drills reproducible.
  FaultInjectorOptions options;
  options.seed = 5;
  options.kinds = {FaultKind::kStuckAt, FaultKind::kGainDrift};
  auto run = [&options] {
    FaultInjector injector(options);
    EXPECT_TRUE(injector.PlanRandom({"a", "b", "c"}, 2, 0.0, 200.0).ok());
    std::vector<double> values;
    for (int t = 0; t < 200; ++t) {
      for (const char* id : {"a", "b", "c"}) {
        for (const auto& sample :
             injector.Apply(Sample(id, t, 50.0 + t * 0.01))) {
          values.push_back(sample.value);
          values.push_back(sample.ts);
        }
      }
    }
    return values;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultInjector, LineOutageSilencesEverySensorOverOneWindow) {
  FaultInjector injector;
  const std::vector<std::string> line = {"l1.a", "l1.b", "l1.c"};
  ASSERT_TRUE(injector.AddLineOutage(line, 100.0, 50.0).ok());
  ASSERT_EQ(injector.num_faults(), line.size())
      << "one ground-truth interval per affected sensor";
  for (const FaultInterval& interval : injector.GroundTruth()) {
    EXPECT_EQ(interval.kind, FaultKind::kLineOutage);
    EXPECT_DOUBLE_EQ(interval.start, 100.0);
    EXPECT_DOUBLE_EQ(interval.end, 150.0) << "the window is shared";
  }
  for (const std::string& id : line) {
    EXPECT_EQ(injector.Apply(Sample(id, 99.9, 1.0)).size(), 1u);
    EXPECT_EQ(injector.Apply(Sample(id, 100.0, 1.0)).size(), 0u);
    EXPECT_EQ(injector.Apply(Sample(id, 149.9, 1.0)).size(), 0u);
    EXPECT_EQ(injector.Apply(Sample(id, 150.0, 1.0)).size(), 1u);
    EXPECT_TRUE(injector.IsFaulted(id, 120.0));
  }
  EXPECT_EQ(injector.Apply(Sample("other", 120.0, 1.0)).size(), 1u)
      << "sensors off the line are untouched";
}

TEST(FaultInjector, LineOutageValidates) {
  FaultInjector injector;
  EXPECT_FALSE(injector.AddLineOutage({}, 0.0, 10.0).ok());
  EXPECT_FALSE(injector.AddLineOutage({"a", "a"}, 0.0, 10.0).ok());
  EXPECT_FALSE(injector.AddLineOutage({"a", ""}, 0.0, 10.0).ok());
  EXPECT_FALSE(injector.AddLineOutage({"a", "b"}, 0.0, 0.0).ok());
  EXPECT_TRUE(injector.AddLineOutage({"a", "b"}, 0.0, 10.0).ok());
}

TEST(FaultInjector, PlanRandomNeverDrawsLineOutages) {
  FaultInjectorOptions options;
  options.seed = 99;
  FaultInjector injector(options);
  std::vector<std::string> ids;
  for (int i = 0; i < 40; ++i) ids.push_back("s" + std::to_string(i));
  ASSERT_TRUE(injector.PlanRandom(ids, ids.size(), 0.0, 1000.0).ok());
  for (const FaultInterval& interval : injector.GroundTruth()) {
    EXPECT_NE(interval.kind, FaultKind::kLineOutage)
        << "correlated outages are scheduled, not drawn per sensor";
  }
}

TEST(FaultKindNames, AreHumanReadable) {
  EXPECT_EQ(FaultKindName(FaultKind::kDropout), "dropout");
  EXPECT_EQ(FaultKindName(FaultKind::kStuckAt), "stuck-at");
  EXPECT_EQ(FaultKindName(FaultKind::kNaNBurst), "nan-burst");
  EXPECT_EQ(FaultKindName(FaultKind::kGainDrift), "gain-drift");
  EXPECT_EQ(FaultKindName(FaultKind::kDuplicate), "duplicate");
  EXPECT_EQ(FaultKindName(FaultKind::kClockSkew), "clock-skew");
  EXPECT_EQ(FaultKindName(FaultKind::kLineOutage), "line-outage");
}

}  // namespace
}  // namespace hod::sim
