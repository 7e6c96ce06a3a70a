// Space-axis layer tests: PeerGroupMonitor scoring (deviation + slope
// against the redundancy group), the engine integration (kPeerDrift
// findings on the calibration queue), quarantine-onset correlation
// (kGroupOutage findings that suppress per-sensor storms), and the
// checkpoint round trip of all of it.

#include "stream/peer_group.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/report.h"
#include "hierarchy/sensor_registry.h"
#include "stream/engine.h"
#include "util/rng.h"

namespace hod::stream {
namespace {

using hierarchy::ProductionLevel;

PeerGroupOptions FastOptions() {
  PeerGroupOptions options;
  options.window = 32;
  options.warmup = 8;
  options.deviation_after = 3;
  return options;
}

/// Noise around `base`; the victim additionally ramps away multiplicatively
/// from `drift_at` on — the fault signature the time axis is blind to.
double MemberValue(Rng& rng, double base, size_t t, bool victim,
                   size_t drift_at, double rate) {
  double value = base + rng.Gaussian(0.0, 0.05);
  if (victim && t >= drift_at) {
    value *= 1.0 + rate * static_cast<double>(t - drift_at);
  }
  return value;
}

TEST(PeerGroupMonitor, AddGroupValidation) {
  PeerGroupMonitor monitor;
  EXPECT_FALSE(monitor.AddGroup("", {"a", "b"}).ok());
  EXPECT_FALSE(monitor.AddGroup("g", {"a"}).ok()) << "singleton";
  EXPECT_FALSE(monitor.AddGroup("g", {"a", "a"}).ok())
      << "two slots, one distinct sensor";
  ASSERT_TRUE(monitor.AddGroup("g", {"a", "b"}).ok());
  EXPECT_FALSE(monitor.AddGroup("g", {"c", "d"}).ok()) << "duplicate id";
  EXPECT_EQ(monitor.num_groups(), 1u);
  EXPECT_TRUE(monitor.Tracks("a"));
  EXPECT_FALSE(monitor.Tracks("c"));
}

TEST(PeerGroupMonitor, RegistryImportSkipsSingletonsAndUngrouped) {
  hierarchy::SensorRegistry registry;
  ASSERT_TRUE(registry.Register({"a", "", "", "m1", "bed"}).ok());
  ASSERT_TRUE(registry.Register({"b", "", "", "m1", "bed"}).ok());
  ASSERT_TRUE(registry.Register({"alone", "", "", "m1", "nozzle"}).ok());
  ASSERT_TRUE(registry.Register({"free", "", "", "m1", ""}).ok());
  PeerGroupMonitor monitor;
  ASSERT_TRUE(monitor.AddGroupsFromRegistry(registry).ok());
  EXPECT_EQ(monitor.num_groups(), 1u);
  EXPECT_TRUE(monitor.Tracks("a"));
  EXPECT_TRUE(monitor.Tracks("b"));
  EXPECT_FALSE(monitor.Tracks("alone")) << "singleton group has no peers";
  EXPECT_FALSE(monitor.Tracks("free"));
}

TEST(PeerGroupMonitor, SteadyGroupNeverFires) {
  PeerGroupMonitor monitor(FastOptions());
  const std::vector<std::string> members = {"a", "b", "c", "d"};
  ASSERT_TRUE(monitor.AddGroup("g", members).ok());
  Rng rng(7);
  for (size_t t = 0; t < 400; ++t) {
    for (const std::string& id : members) {
      auto fired = monitor.Observe(id, ProductionLevel::kPhase,
                                   static_cast<double>(t),
                                   MemberValue(rng, 50.0, t, false, 0, 0.0));
      EXPECT_FALSE(fired.has_value()) << id << " t=" << t;
    }
  }
  EXPECT_TRUE(monitor.Deviations().empty());
}

TEST(PeerGroupMonitor, GainDriftFiresOnTheVictimOnly) {
  PeerGroupMonitor monitor(FastOptions());
  const std::vector<std::string> members = {"a", "b", "victim", "d"};
  ASSERT_TRUE(monitor.AddGroup("g", members).ok());
  Rng rng(11);
  for (size_t t = 0; t < 300; ++t) {
    for (const std::string& id : members) {
      (void)monitor.Observe(
          id, ProductionLevel::kPhase, static_cast<double>(t),
          MemberValue(rng, 50.0, t, id == "victim", 100, 0.002));
    }
  }
  const std::vector<PeerDeviation> deviations = monitor.Deviations();
  ASSERT_FALSE(deviations.empty());
  for (const PeerDeviation& deviation : deviations) {
    EXPECT_EQ(deviation.sensor_id, "victim");
    EXPECT_EQ(deviation.group_id, "g");
    EXPECT_GE(deviation.ts, 100.0) << "fired before the drift began";
  }
  // Space-axis detection is fast: 0.2%/s gain on a 50-unit signal with
  // 0.05-sigma peers leaves the band within a couple dozen seconds.
  EXPECT_LT(deviations.front().ts, 160.0);
  EXPECT_GT(std::max(deviations.front().value_z, deviations.front().slope_z),
            FastOptions().slope_z);
}

TEST(PeerGroupMonitor, TooFewFreshPeersOnlyRefreshesTheCache) {
  PeerGroupOptions options = FastOptions();
  options.peer_freshness = 5.0;
  PeerGroupMonitor monitor(options);
  ASSERT_TRUE(monitor.AddGroup("g", {"a", "b"}).ok());
  // b reports once, then goes silent; a keeps reporting with a wild value.
  (void)monitor.Observe("b", ProductionLevel::kPhase, 0.0, 50.0);
  for (size_t t = 1; t < 100; ++t) {
    auto fired = monitor.Observe("a", ProductionLevel::kPhase,
                                 static_cast<double>(t), 500.0);
    EXPECT_FALSE(fired.has_value())
        << "no fresh peer after t=5 -> nothing to deviate from";
  }
  EXPECT_TRUE(monitor.Deviations().empty());
}

TEST(PeerGroupMonitor, SaveRestoreRoundTrip) {
  PeerGroupMonitor original(FastOptions());
  ASSERT_TRUE(original.AddGroup("g1", {"a", "b", "c"}).ok());
  ASSERT_TRUE(original.AddGroup("g2", {"x", "y"}).ok());
  Rng rng(13);
  for (size_t t = 0; t < 120; ++t) {
    for (const std::string id : {"a", "b", "c"}) {
      (void)original.Observe(id, ProductionLevel::kPhase,
                             static_cast<double>(t),
                             MemberValue(rng, 50.0, t, id == "c", 40, 0.004));
    }
    for (const std::string id : {"x", "y"}) {
      (void)original.Observe(id, ProductionLevel::kPhase,
                             static_cast<double>(t),
                             MemberValue(rng, 20.0, t, false, 0, 0.0));
    }
  }
  const std::vector<PeerGroupState> saved = original.SaveState();
  ASSERT_EQ(saved.size(), 2u);

  PeerGroupMonitor restored(FastOptions());
  ASSERT_TRUE(restored.AddGroup("g1", {"a", "b", "c"}).ok());
  ASSERT_TRUE(restored.AddGroup("g2", {"x", "y"}).ok());
  ASSERT_TRUE(restored.RestoreState(saved).ok());
  const std::vector<PeerGroupState> resaved = restored.SaveState();
  ASSERT_EQ(resaved.size(), saved.size());
  for (size_t g = 0; g < saved.size(); ++g) {
    EXPECT_EQ(resaved[g].group_id, saved[g].group_id);
    ASSERT_EQ(resaved[g].members.size(), saved[g].members.size());
    for (size_t m = 0; m < saved[g].members.size(); ++m) {
      const PeerMemberState& want = saved[g].members[m];
      const PeerMemberState& got = resaved[g].members[m];
      EXPECT_EQ(got.sensor_id, want.sensor_id);
      EXPECT_EQ(got.has_last, want.has_last);
      EXPECT_EQ(got.last_value, want.last_value);
      EXPECT_EQ(got.ring_residual, want.ring_residual);
      EXPECT_EQ(got.breach_streak, want.breach_streak);
      EXPECT_EQ(got.fired, want.fired);
      EXPECT_EQ(got.deviations, want.deviations);
    }
  }

  PeerGroupState unknown;
  unknown.group_id = "nope";
  EXPECT_FALSE(restored.RestoreState({unknown}).ok());
}

// ---------------------------------------------------------------------------
// Oracle: the allocating, deque-based observation the monitor used before
// its rings became contiguous and its scoring moved outside the group lock.
// Single-threaded, so it needs no lock at all.

double OracleMedian(std::vector<double>& values) {
  const size_t n = values.size();
  const size_t mid = n / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (n % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

class OraclePeerMonitor {
 public:
  explicit OraclePeerMonitor(PeerGroupOptions options)
      : options_(std::move(options)) {
    if (options_.window == 0) options_.window = 1;
    if (options_.warmup == 0) options_.warmup = 1;
    if (options_.warmup > options_.window) options_.warmup = options_.window;
    if (options_.deviation_after == 0) options_.deviation_after = 1;
  }

  void AddGroup(const std::string& group_id,
                const std::vector<std::string>& members) {
    Group& group = groups_[group_id];
    group.group_id = group_id;
    const std::set<std::string> distinct(members.begin(), members.end());
    for (const std::string& id : distinct) {
      index_[id].emplace_back(group_id, group.members.size());
      Member member;
      member.sensor_id = id;
      group.members.push_back(std::move(member));
    }
  }

  std::optional<PeerDeviation> Observe(const std::string& sensor_id,
                                       ProductionLevel level,
                                       ts::TimePoint ts, double value) {
    auto it = index_.find(sensor_id);
    if (it == index_.end()) return std::nullopt;
    std::optional<PeerDeviation> strongest;
    for (const auto& [group_id, slot] : it->second) {
      std::optional<PeerDeviation> fired =
          ObserveInGroup(groups_.at(group_id), slot, level, ts, value);
      if (!fired.has_value()) continue;
      if (!strongest.has_value() ||
          std::max(fired->value_z, fired->slope_z) >
              std::max(strongest->value_z, strongest->slope_z)) {
        strongest = std::move(fired);
      }
    }
    return strongest;
  }

  size_t scored_at_even_size() const { return scored_at_size_parity_[0]; }
  size_t scored_at_odd_size() const { return scored_at_size_parity_[1]; }
  size_t duplicate_evictions() const { return duplicate_evictions_; }

  std::vector<PeerGroupState> SaveState() const {
    std::vector<PeerGroupState> out;
    for (const auto& [group_id, group] : groups_) {
      PeerGroupState state;
      state.group_id = group_id;
      for (const Member& member : group.members) {
        PeerMemberState ms;
        ms.sensor_id = member.sensor_id;
        ms.has_last = member.has_last;
        ms.last_ts = member.last_ts;
        ms.last_value = member.last_value;
        ms.ring_ts.assign(member.ring_ts.begin(), member.ring_ts.end());
        ms.ring_residual.assign(member.ring_residual.begin(),
                                member.ring_residual.end());
        ms.breach_streak = member.breach_streak;
        ms.calm_streak = member.calm_streak;
        ms.fired = member.fired;
        ms.deviations = member.deviations;
        state.members.push_back(std::move(ms));
      }
      out.push_back(std::move(state));
    }
    return out;
  }

 private:
  struct Member {
    std::string sensor_id;
    bool has_last = false;
    ts::TimePoint last_ts = 0.0;
    double last_value = 0.0;
    std::deque<ts::TimePoint> ring_ts;
    std::deque<double> ring_residual;
    uint64_t breach_streak = 0;
    uint64_t calm_streak = 0;
    bool fired = false;
    uint64_t deviations = 0;
  };
  struct Group {
    std::string group_id;
    std::vector<Member> members;
  };

  std::optional<PeerDeviation> ObserveInGroup(Group& group,
                                              size_t member_index,
                                              ProductionLevel level,
                                              ts::TimePoint ts, double value) {
    Member& self = group.members[member_index];
    std::vector<double> peers;
    for (size_t i = 0; i < group.members.size(); ++i) {
      if (i == member_index) continue;
      const Member& peer = group.members[i];
      if (!peer.has_last) continue;
      if (ts - peer.last_ts > options_.peer_freshness) continue;
      peers.push_back(peer.last_value);
    }
    self.has_last = true;
    self.last_ts = ts;
    self.last_value = value;
    if (peers.size() < options_.min_peers) return std::nullopt;
    const double residual = value - OracleMedian(peers);

    std::optional<PeerDeviation> fired;
    if (self.ring_residual.size() >= options_.warmup) {
      ++scored_at_size_parity_[self.ring_residual.size() % 2];
      std::vector<double> ring(self.ring_residual.begin(),
                               self.ring_residual.end());
      const double med = OracleMedian(ring);
      for (double& r : ring) r = std::fabs(r - med);
      const double scale =
          std::max(1.4826 * OracleMedian(ring), options_.min_scale);
      const double value_z = std::fabs(residual - med) / scale;
      double slope_stat = 0.0;
      const size_t n = self.ring_residual.size();
      const double span = self.ring_ts.back() - self.ring_ts.front();
      if (n >= 3 && span > 0.0) {
        double mean_t = 0.0, mean_r = 0.0;
        for (size_t i = 0; i < n; ++i) {
          mean_t += self.ring_ts[i];
          mean_r += self.ring_residual[i];
        }
        mean_t /= static_cast<double>(n);
        mean_r /= static_cast<double>(n);
        double num = 0.0, den = 0.0;
        for (size_t i = 0; i < n; ++i) {
          const double dt = self.ring_ts[i] - mean_t;
          num += dt * (self.ring_residual[i] - mean_r);
          den += dt * dt;
        }
        if (den > 0.0) {
          const double slope = num / den;
          std::vector<double> detrended(n);
          for (size_t i = 0; i < n; ++i) {
            detrended[i] = self.ring_residual[i] - mean_r -
                           slope * (self.ring_ts[i] - mean_t);
          }
          std::vector<double> spread = detrended;
          const double med_e = OracleMedian(spread);
          for (size_t i = 0; i < n; ++i) {
            spread[i] = std::fabs(detrended[i] - med_e);
          }
          const double noise_scale =
              std::max(1.4826 * OracleMedian(spread), options_.min_scale);
          slope_stat = std::fabs(slope) * span / noise_scale;
        }
      }
      const bool breach =
          value_z > options_.deviation_z || slope_stat > options_.slope_z;
      if (breach) {
        self.calm_streak = 0;
        ++self.breach_streak;
        if (self.breach_streak >= options_.deviation_after && !self.fired) {
          self.fired = true;
          ++self.deviations;
          PeerDeviation deviation;
          deviation.sensor_id = self.sensor_id;
          deviation.group_id = group.group_id;
          deviation.level = level;
          deviation.ts = ts;
          deviation.value = value;
          deviation.residual = residual;
          deviation.value_z = value_z;
          deviation.slope_z = slope_stat;
          fired = std::move(deviation);
        }
      } else {
        self.breach_streak = 0;
        ++self.calm_streak;
        if (self.fired && self.calm_streak >= options_.rearm_streak) {
          self.fired = false;
        }
      }
    }
    self.ring_ts.push_back(ts);
    self.ring_residual.push_back(residual);
    while (self.ring_residual.size() > options_.window) {
      if (std::count(self.ring_residual.begin(), self.ring_residual.end(),
                     self.ring_residual.front()) > 1) {
        ++duplicate_evictions_;
      }
      self.ring_ts.pop_front();
      self.ring_residual.pop_front();
    }
    return fired;
  }

  PeerGroupOptions options_;
  /// Coverage: scored rings of even [0] and odd [1] size, and evictions
  /// of a residual that is still present later in the ring.
  size_t scored_at_size_parity_[2] = {0, 0};
  size_t duplicate_evictions_ = 0;
  std::map<std::string, Group> groups_;
  std::map<std::string, std::vector<std::pair<std::string, size_t>>> index_;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSameDeviation(const std::optional<PeerDeviation>& got,
                         const std::optional<PeerDeviation>& want,
                         const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got.has_value()) return;
  EXPECT_EQ(got->sensor_id, want->sensor_id) << where;
  EXPECT_EQ(got->group_id, want->group_id) << where;
  EXPECT_EQ(got->level, want->level) << where;
  EXPECT_EQ(Bits(got->ts), Bits(want->ts)) << where;
  EXPECT_EQ(Bits(got->value), Bits(want->value)) << where;
  EXPECT_EQ(Bits(got->residual), Bits(want->residual)) << where;
  EXPECT_EQ(Bits(got->value_z), Bits(want->value_z)) << where;
  EXPECT_EQ(Bits(got->slope_z), Bits(want->slope_z)) << where;
}

std::vector<uint64_t> AllBits(const std::vector<double>& values) {
  std::vector<uint64_t> out;
  for (double v : values) out.push_back(Bits(v));
  return out;
}

void ExpectSameState(const std::vector<PeerGroupState>& got,
                     const std::vector<PeerGroupState>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t g = 0; g < got.size(); ++g) {
    ASSERT_EQ(got[g].group_id, want[g].group_id) << where;
    ASSERT_EQ(got[g].members.size(), want[g].members.size()) << where;
    for (size_t m = 0; m < got[g].members.size(); ++m) {
      const PeerMemberState& a = got[g].members[m];
      const PeerMemberState& b = want[g].members[m];
      const std::string at = where + " " + a.sensor_id + "@" + got[g].group_id;
      EXPECT_EQ(a.sensor_id, b.sensor_id) << at;
      EXPECT_EQ(a.has_last, b.has_last) << at;
      EXPECT_EQ(Bits(a.last_ts), Bits(b.last_ts)) << at;
      EXPECT_EQ(Bits(a.last_value), Bits(b.last_value)) << at;
      EXPECT_EQ(AllBits(a.ring_ts), AllBits(b.ring_ts)) << at;
      EXPECT_EQ(AllBits(a.ring_residual), AllBits(b.ring_residual)) << at;
      EXPECT_EQ(a.breach_streak, b.breach_streak) << at;
      EXPECT_EQ(a.calm_streak, b.calm_streak) << at;
      EXPECT_EQ(a.fired, b.fired) << at;
      EXPECT_EQ(a.deviations, b.deviations) << at;
    }
  }
}

/// 1,000 seeded sequences against the oracle: every observation's fired
/// deviation (value_z and slope_z bit-identical) and the final SaveState.
/// Group shapes rotate through a pair, one 3–5-member group, two groups
/// sharing a sensor, and a mix; small windows wrap many times, warm-up is
/// crossed from empty, rare sensors and time jumps leave peers stale, and
/// most sequences checkpoint mid-stream into a fresh monitor (restored
/// from the oracle's state) that carries on.
TEST(PeerGroupMonitor, MatchesAllocatingOracleOn1000SeededSequences) {
  size_t fires = 0;
  size_t restores = 0;
  size_t stale_gaps = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    PeerGroupOptions options;
    options.window = 2 + rng.NextBelow(23);
    options.warmup = 1 + rng.NextBelow(options.window);
    options.min_peers = 1 + rng.NextBelow(2);
    options.peer_freshness = rng.NextBelow(2) == 0 ? 3.0 : 40.0;
    options.deviation_z = rng.Uniform(1.5, 5.0);
    options.slope_z = rng.Uniform(1.5, 5.0);
    options.deviation_after = 1 + rng.NextBelow(3);
    options.rearm_streak = 1 + rng.NextBelow(12);

    std::vector<std::pair<std::string, std::vector<std::string>>> groups;
    switch (seed % 4) {
      case 0:
        groups.push_back({"pair", {"s0", "s1"}});
        break;
      case 1: {
        std::vector<std::string> members;
        const size_t size = 3 + rng.NextBelow(3);
        for (size_t i = 0; i < size; ++i) {
          members.push_back("s" + std::to_string(i));
        }
        groups.push_back({"group", members});
        break;
      }
      case 2:
        groups.push_back({"left", {"s0", "s1", "shared"}});
        groups.push_back({"right", {"shared", "s2", "s3", "s4"}});
        break;
      default:
        groups.push_back({"pair", {"s0", "s1"}});
        groups.push_back({"trio", {"s1", "s2", "s3"}});
        groups.push_back({"quad", {"s3", "s4", "s5", "s6"}});
        break;
    }
    std::vector<std::string> sensors;
    for (const auto& [id, members] : groups) {
      for (const std::string& member : members) {
        if (std::find(sensors.begin(), sensors.end(), member) ==
            sensors.end()) {
          sensors.push_back(member);
        }
      }
    }
    const auto make_monitor = [&] {
      auto monitor = std::make_unique<PeerGroupMonitor>(options);
      for (const auto& [id, members] : groups) {
        EXPECT_TRUE(monitor->AddGroup(id, members).ok());
      }
      return monitor;
    };
    std::unique_ptr<PeerGroupMonitor> monitor = make_monitor();
    OraclePeerMonitor oracle(options);
    for (const auto& [id, members] : groups) oracle.AddGroup(id, members);

    const size_t steps = 120 + rng.NextBelow(240);
    const size_t restore_at =
        seed % 5 == 0 ? steps : rng.NextBelow(static_cast<uint64_t>(steps));
    const size_t drifter = rng.NextBelow(sensors.size());
    const size_t rare = rng.NextBelow(sensors.size());
    double ts = 0.0;
    for (size_t step = 0; step < steps; ++step) {
      if (step == restore_at) {
        std::unique_ptr<PeerGroupMonitor> restored = make_monitor();
        ASSERT_TRUE(restored->RestoreState(oracle.SaveState()).ok());
        ExpectSameState(restored->SaveState(), monitor->SaveState(),
                        "seed " + std::to_string(seed) + " restore");
        monitor = std::move(restored);
        ++restores;
      }
      size_t who = rng.NextBelow(sensors.size());
      if (who == rare && rng.NextBelow(4) != 0) {
        who = (who + 1) % sensors.size();
      }
      if (rng.NextBelow(40) == 0) {
        ts += 10.0 + rng.Uniform(0.0, 50.0);  // leaves peers stale
        ++stale_gaps;
      } else {
        ts += rng.NextBelow(4) == 0 ? 0.0 : rng.Uniform(0.0, 2.0);
      }
      double value = 10.0 + rng.Gaussian(0.0, 0.1);
      if (who == drifter && step > steps / 3) {
        value += 0.02 * static_cast<double>(step - steps / 3);
      }
      if (rng.NextBelow(25) == 0) value += rng.Uniform(-3.0, 3.0);
      if (rng.NextBelow(60) == 0) value = 10.0;  // exact ties
      const std::optional<PeerDeviation> got = monitor->Observe(
          sensors[who], ProductionLevel::kPhase, ts, value);
      const std::optional<PeerDeviation> want =
          oracle.Observe(sensors[who], ProductionLevel::kPhase, ts, value);
      ExpectSameDeviation(got, want,
                          "seed " + std::to_string(seed) + " step " +
                              std::to_string(step));
      if (got.has_value()) ++fires;
      if (::testing::Test::HasFailure()) return;
    }
    ExpectSameState(monitor->SaveState(), oracle.SaveState(),
                    "seed " + std::to_string(seed) + " end");
    if (::testing::Test::HasFailure()) return;
  }
  // The sweep must actually exercise the firing, restore and stale paths.
  EXPECT_GT(fires, 1000u);
  EXPECT_GT(restores, 700u);
  EXPECT_GT(stale_gaps, 1000u);
}

/// The same oracle at the default window of 64, where the live ring spends
/// most of its time full. Warm-up crosses every size from `warmup` to 64,
/// so both parities of the median/MAD walk are scored, and sequences with
/// an odd-sized ring at steady state (window 63) keep the odd walk busy.
/// Values on a coarse grid make exact residual ties common, so the evicted
/// residual often has a duplicate still in the ring. Half the sequences
/// checkpoint mid-stream into a fresh monitor restored from the oracle.
TEST(PeerGroupMonitor, MatchesAllocatingOracleAtDefaultWindow) {
  size_t fires = 0;
  size_t restores = 0;
  size_t odd_scored = 0;
  size_t even_scored = 0;
  size_t duplicate_evictions = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    PeerGroupOptions options;  // window 64, warmup 16
    if (seed % 4 == 3) options.window = 63;
    if (seed % 3 == 0) options.warmup = 1 + rng.NextBelow(options.window);
    options.deviation_z = rng.Uniform(2.0, 6.0);
    options.slope_z = rng.Uniform(2.0, 5.0);
    options.deviation_after = 1 + rng.NextBelow(3);
    options.rearm_streak = 1 + rng.NextBelow(40);
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        groups = {{"pair", {"a", "b"}}, {"trio", {"b", "c", "d"}}};
    const std::vector<std::string> sensors = {"a", "b", "c", "d"};
    const auto make_monitor = [&] {
      auto monitor = std::make_unique<PeerGroupMonitor>(options);
      for (const auto& [id, members] : groups) {
        EXPECT_TRUE(monitor->AddGroup(id, members).ok());
      }
      return monitor;
    };
    std::unique_ptr<PeerGroupMonitor> monitor = make_monitor();
    OraclePeerMonitor oracle(options);
    for (const auto& [id, members] : groups) oracle.AddGroup(id, members);

    const size_t steps = 600 + rng.NextBelow(600);
    const size_t restore_at =
        seed % 2 == 0 ? steps : rng.NextBelow(static_cast<uint64_t>(steps));
    // Grid step for exact ties; 0 leaves the values continuous.
    const double grid = seed % 5 == 0 ? 0.0 : 0.05;
    const size_t drifter = rng.NextBelow(sensors.size());
    double ts = 0.0;
    for (size_t step = 0; step < steps; ++step) {
      if (step == restore_at) {
        std::unique_ptr<PeerGroupMonitor> restored = make_monitor();
        ASSERT_TRUE(restored->RestoreState(oracle.SaveState()).ok());
        monitor = std::move(restored);
        ++restores;
      }
      const size_t who = rng.NextBelow(sensors.size());
      ts += rng.Uniform(0.0, 1.0);
      double value = 10.0 + rng.Gaussian(0.0, 0.1);
      if (who == drifter && step > steps / 2) {
        value += 0.002 * static_cast<double>(step - steps / 2);
      }
      if (rng.NextBelow(50) == 0) value += rng.Uniform(-2.0, 2.0);
      if (grid > 0.0) value = grid * std::round(value / grid);
      const std::optional<PeerDeviation> got = monitor->Observe(
          sensors[who], ProductionLevel::kPhase, ts, value);
      const std::optional<PeerDeviation> want =
          oracle.Observe(sensors[who], ProductionLevel::kPhase, ts, value);
      ExpectSameDeviation(got, want,
                          "seed " + std::to_string(seed) + " step " +
                              std::to_string(step));
      if (got.has_value()) ++fires;
      if (::testing::Test::HasFailure()) return;
    }
    ExpectSameState(monitor->SaveState(), oracle.SaveState(),
                    "seed " + std::to_string(seed) + " end");
    if (::testing::Test::HasFailure()) return;
    odd_scored += oracle.scored_at_odd_size();
    even_scored += oracle.scored_at_even_size();
    duplicate_evictions += oracle.duplicate_evictions();
  }
  // The sweep must exercise both walk parities and duplicate evictions.
  EXPECT_GT(fires, 500u);
  EXPECT_EQ(restores, 100u);
  EXPECT_GT(odd_scored, 30000u);
  EXPECT_GT(even_scored, 30000u);
  EXPECT_GT(duplicate_evictions, 30000u);
}

// ---------------------------------------------------------------------------
// Engine integration.

StreamEngineOptions SyncEngineOptions() {
  StreamEngineOptions options;
  options.synchronous = true;
  options.monitor.warmup = 64;
  options.peer = FastOptions();
  // Sequentially-fed test sensors must not trip the staleness watchdog.
  options.health.staleness_timeout = 0.0;
  return options;
}

TEST(StreamEnginePeer, GroupRegistrationIsValidatedAndSealed) {
  StreamEngine engine(SyncEngineOptions());
  ASSERT_TRUE(engine.AddSensor("a", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.AddSensor("b", ProductionLevel::kPhase).ok());
  EXPECT_EQ(engine.AddPeerGroup("g", {"a", "ghost"}).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(engine.AddPeerGroup("g", {"a", "b"}).ok());
  EXPECT_EQ(engine.num_peer_groups(), 1u);
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(engine.AddPeerGroup("late", {"a", "b"}).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(StreamEnginePeer, RegistryGroupsNeedTwoEngineRegisteredMembers) {
  hierarchy::SensorRegistry registry;
  ASSERT_TRUE(registry.Register({"a", "", "", "m1", "bed"}).ok());
  ASSERT_TRUE(registry.Register({"b", "", "", "m1", "bed"}).ok());
  ASSERT_TRUE(registry.Register({"c", "", "", "m1", "nozzle"}).ok());
  ASSERT_TRUE(registry.Register({"d", "", "", "m1", "nozzle"}).ok());
  StreamEngine engine(SyncEngineOptions());
  ASSERT_TRUE(engine.AddSensor("a", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.AddSensor("b", ProductionLevel::kPhase).ok());
  // Only one nozzle sensor streams into this engine: its group degrades
  // to a singleton and is skipped instead of failing registration.
  ASSERT_TRUE(engine.AddSensor("c", ProductionLevel::kPhase).ok());
  ASSERT_TRUE(engine.AddPeerGroupsFromRegistry(registry).ok());
  EXPECT_EQ(engine.num_peer_groups(), 1u);
}

TEST(StreamEnginePeer, GainDriftLandsOnTheCalibrationQueue) {
  StreamEngine engine(SyncEngineOptions());
  const std::vector<std::string> members = {"a", "b", "victim", "d"};
  for (const std::string& id : members) {
    ASSERT_TRUE(engine.AddSensor(id, ProductionLevel::kPhase).ok());
  }
  ASSERT_TRUE(engine.AddPeerGroup("bed", members).ok());
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(17);
  for (size_t t = 0; t < 300; ++t) {
    for (const std::string& id : members) {
      auto ack = engine.Ingest(
          {id, ProductionLevel::kPhase, static_cast<double>(t),
           MemberValue(rng, 50.0, t, id == "victim", 100, 0.002)});
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    }
  }
  ASSERT_TRUE(engine.Stop().ok());

  const std::vector<PeerDeviation> deviations = engine.PeerDeviations();
  ASSERT_FALSE(deviations.empty());
  EXPECT_EQ(deviations.front().sensor_id, "victim");
  EXPECT_EQ(engine.stats().peer_deviations, deviations.size());

  size_t drift_findings = 0;
  for (const core::OutlierFinding& finding : engine.Findings()) {
    if (finding.kind != core::FindingKind::kPeerDrift) continue;
    ++drift_findings;
    EXPECT_EQ(finding.origin.entity, "victim");
    EXPECT_TRUE(finding.measurement_error_warning)
        << "peer drift is calibration evidence, not a process alarm";
  }
  EXPECT_EQ(drift_findings, deviations.size());
  // The drift rides the calibration queue; the process-alert board stays
  // free of it.
  bool on_calibration_queue = false;
  for (const core::AlertEpisode& episode : engine.CalibrationQueue()) {
    on_calibration_queue |= episode.entity == "victim";
  }
  EXPECT_TRUE(on_calibration_queue);
}

// ---------------------------------------------------------------------------
// Quarantine-onset correlation.

StreamEngineOptions OutageOptions() {
  StreamEngineOptions options = SyncEngineOptions();
  options.health.staleness_timeout = 30.0;
  options.health.recovery_clean_streak = 8;
  options.health_sweep_every = 16;
  options.peer.outage_min_sensors = 6;
  options.peer.outage_window = 20.0;
  options.peer.outage_entity = "line1";
  return options;
}

std::vector<std::string> LineSensors() {
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) ids.push_back("line1.s" + std::to_string(i));
  return ids;
}

/// One interleaved tick: every listed sensor reports at `t`.
void FeedTick(StreamEngine& engine, const std::vector<std::string>& ids,
              size_t t, Rng& rng) {
  for (const std::string& id : ids) {
    auto ack = engine.Ingest({id, ProductionLevel::kPhase,
                              static_cast<double>(t),
                              50.0 + rng.Gaussian(0.0, 0.25)});
    ASSERT_TRUE(ack.ok()) << id << " t=" << t << ": "
                          << ack.status().ToString();
  }
}

TEST(StreamEngineOutage, CorrelatedStalenessCollapsesIntoOneFinding) {
  StreamEngine engine(OutageOptions());
  const std::vector<std::string> ids = LineSensors();
  for (const std::string& id : ids) {
    ASSERT_TRUE(engine.AddSensor(id, ProductionLevel::kPhase).ok());
  }
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(23);
  for (size_t t = 0; t < 100; ++t) FeedTick(engine, ids, t, rng);
  // The line's trunk dies: six sensors go silent at once; two survivors
  // keep the frontier moving, which is what ages the silent ones stale.
  const std::vector<std::string> survivors = {ids[0], ids[1]};
  for (size_t t = 100; t < 200; ++t) FeedTick(engine, survivors, t, rng);
  ASSERT_TRUE(engine.Flush().ok());

  StreamStatsSnapshot stats = engine.stats();
  EXPECT_EQ(stats.group_outages, 1u);
  EXPECT_EQ(stats.suppressed_sensor_faults, 6u)
      << "every member onset absorbed into the one group finding";
  size_t group_findings = 0;
  size_t fault_findings = 0;
  for (const core::OutlierFinding& finding : engine.Findings()) {
    if (finding.kind == core::FindingKind::kGroupOutage) {
      ++group_findings;
      EXPECT_EQ(finding.origin.entity, "line1");
      EXPECT_FALSE(finding.measurement_error_warning)
          << "an infrastructure outage belongs on the main board";
    }
    if (finding.kind == core::FindingKind::kSensorFault) ++fault_findings;
  }
  EXPECT_EQ(group_findings, 1u);
  EXPECT_EQ(fault_findings, 0u) << "the per-sensor storm must be suppressed";

  EngineSnapshot snapshot = engine.Snapshot();
  EXPECT_TRUE(snapshot.group_outage_active);
  EXPECT_EQ(snapshot.group_outage_entity, "line1");
  EXPECT_EQ(snapshot.group_outage_sensors, 6u);

  // Power returns: the silent six resume and the outage drains away as
  // each one finishes recovery.
  for (size_t t = 200; t < 240; ++t) FeedTick(engine, ids, t, rng);
  ASSERT_TRUE(engine.Flush().ok());
  stats = engine.stats();
  EXPECT_EQ(stats.group_outage_recoveries, 1u);
  EXPECT_FALSE(engine.Snapshot().group_outage_active);
  ASSERT_TRUE(engine.Stop().ok());
}

TEST(StreamEngineOutage, LoneStaleSensorStillGetsItsOwnFinding) {
  StreamEngine engine(OutageOptions());
  const std::vector<std::string> ids = LineSensors();
  for (const std::string& id : ids) {
    ASSERT_TRUE(engine.AddSensor(id, ProductionLevel::kPhase).ok());
  }
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(29);
  for (size_t t = 0; t < 100; ++t) FeedTick(engine, ids, t, rng);
  std::vector<std::string> survivors(ids.begin(), ids.end() - 1);
  for (size_t t = 100; t < 250; ++t) FeedTick(engine, survivors, t, rng);
  ASSERT_TRUE(engine.Stop().ok());

  // One onset never clusters: after the correlation window passes it is
  // released as the kSensorFault it always was.
  EXPECT_EQ(engine.stats().group_outages, 0u);
  size_t fault_findings = 0;
  for (const core::OutlierFinding& finding : engine.Findings()) {
    if (finding.kind == core::FindingKind::kGroupOutage) ADD_FAILURE();
    if (finding.kind == core::FindingKind::kSensorFault) {
      ++fault_findings;
      EXPECT_EQ(finding.origin.entity, ids.back());
    }
  }
  EXPECT_EQ(fault_findings, 1u);
}

TEST(StreamEngineOutage, NonStaleQuarantineBypassesCorrelation) {
  StreamEngine engine(OutageOptions());
  const std::vector<std::string> ids = LineSensors();
  for (const std::string& id : ids) {
    ASSERT_TRUE(engine.AddSensor(id, ProductionLevel::kPhase).ok());
  }
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(31);
  for (size_t t = 0; t < 50; ++t) FeedTick(engine, ids, t, rng);
  // An ADC dies on one sensor: a NaN burst is sensor-local evidence and
  // must not be parked in the correlation deque.
  size_t rejected = 0;
  for (size_t t = 50; t < 90; ++t) {
    FeedTick(engine, {ids.begin() + 1, ids.end()}, t, rng);
    auto ack = engine.Ingest({ids[0], ProductionLevel::kPhase,
                              static_cast<double>(t), std::nan("")});
    if (!ack.ok()) ++rejected;
  }
  ASSERT_TRUE(engine.Flush().ok());
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(engine.HealthStateOf(ids[0]), SensorHealthState::kQuarantined);
  size_t fault_findings = 0;
  for (const core::OutlierFinding& finding : engine.Findings()) {
    if (finding.kind == core::FindingKind::kSensorFault) ++fault_findings;
  }
  EXPECT_EQ(fault_findings, 1u)
      << "the NaN quarantine must surface immediately, not await clustering";
  EXPECT_EQ(engine.stats().group_outages, 0u);
  ASSERT_TRUE(engine.Stop().ok());
}

// ---------------------------------------------------------------------------
// Checkpoint round trip of the space-axis state.

TEST(StreamEnginePeer, CheckpointCarriesPeerStateAndOpenOutage) {
  StreamEngineOptions options = OutageOptions();
  StreamEngine engine(options);
  const std::vector<std::string> ids = LineSensors();
  for (const std::string& id : ids) {
    ASSERT_TRUE(engine.AddSensor(id, ProductionLevel::kPhase).ok());
  }
  ASSERT_TRUE(engine.AddPeerGroup("line1.bed", ids).ok());
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(37);
  for (size_t t = 0; t < 100; ++t) FeedTick(engine, ids, t, rng);
  const std::vector<std::string> survivors = {ids[0], ids[1]};
  for (size_t t = 100; t < 200; ++t) FeedTick(engine, survivors, t, rng);
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_EQ(engine.stats().group_outages, 1u);

  std::ostringstream os;
  ASSERT_TRUE(engine.Checkpoint(os).ok());
  const std::string bytes = os.str();

  std::istringstream is(bytes);
  auto restored = StreamEngine::Restore(is, options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  StreamEngine& revived = **restored;
  EXPECT_EQ(revived.num_peer_groups(), 1u);
  EXPECT_EQ(revived.stats().group_outages, 1u);
  EXPECT_EQ(revived.stats().suppressed_sensor_faults, 6u);

  // The canonical-encoding property extends to the new v4 sections: an
  // immediate re-checkpoint of the restored engine is byte-identical.
  std::ostringstream os2;
  ASSERT_TRUE(revived.Checkpoint(os2).ok());
  EXPECT_TRUE(os2.str() == bytes) << "restore left a seam in the v4 state";

  // And the restored outage still drains when the line comes back.
  Rng rng2(rng);
  for (size_t t = 200; t < 240; ++t) FeedTick(revived, ids, t, rng2);
  ASSERT_TRUE(revived.Flush().ok());
  EXPECT_EQ(revived.stats().group_outage_recoveries, 1u);
  EXPECT_FALSE(revived.Snapshot().group_outage_active);
  ASSERT_TRUE(revived.Stop().ok());
}

// ---------------------------------------------------------------------------
// Threaded soak: peer groups spanning shard workers (TSan coverage).

TEST(StreamEnginePeer, ThreadedEngineScoresPeersAcrossShards) {
  StreamEngineOptions options;
  options.num_shards = 4;
  options.monitor.warmup = 64;
  options.peer = FastOptions();
  options.queue_capacity = 128;
  options.peer.peer_freshness = 256.0;
  // Threaded feeds see skew: a stalled shard freezes its sensors' last
  // values, and when it resumes the group reference jumps. A step in the
  // middle of a residual ring fits as a slope, so a threaded deployment
  // must budget slope_z for the transport's skew (the step artifact is
  // bounded by the noise range over the skew window; genuine drift keeps
  // growing). 8 clears the artifact while the victim's full-ring drift
  // statistic sits around 40.
  options.peer.slope_z = 8.0;
  options.health.staleness_timeout = 0.0;
  StreamEngine engine(options);
  std::vector<std::string> members;
  for (int i = 0; i < 8; ++i) members.push_back("s" + std::to_string(i));
  for (const std::string& id : members) {
    ASSERT_TRUE(engine.AddSensor(id, ProductionLevel::kPhase).ok());
  }
  ASSERT_TRUE(engine.AddPeerGroup("g0", {members[0], members[1], members[2],
                                         members[3]})
                  .ok());
  ASSERT_TRUE(engine.AddPeerGroup("g1", {members[4], members[5], members[6],
                                         members[7]})
                  .ok());
  ASSERT_TRUE(engine.Start().ok());
  Rng rng(41);
  for (size_t t = 0; t < 600; ++t) {
    for (const std::string& id : members) {
      auto ack = engine.Ingest(
          {id, ProductionLevel::kPhase, static_cast<double>(t),
           MemberValue(rng, 50.0, t, id == members[2], 200, 0.002)});
      ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    }
    // Shard workers drain at different speeds, so one member's last value
    // can lag another's by up to a full queue of ticks — and through that
    // skew a drifting victim can perturb a lagging bystander's reference
    // (which would, correctly, fire too). A periodic barrier bounds the
    // skew so the only-the-victim assertion below stays meaningful under
    // arbitrary scheduling (TSan slows workers by an order of magnitude).
    if (t % 16 == 15) {
      ASSERT_TRUE(engine.Flush().ok());
    }
  }
  ASSERT_TRUE(engine.Flush().ok());
  ASSERT_TRUE(engine.Stop().ok());
  const std::vector<PeerDeviation> deviations = engine.PeerDeviations();
  ASSERT_FALSE(deviations.empty());
  for (const PeerDeviation& deviation : deviations) {
    EXPECT_EQ(deviation.sensor_id, members[2])
        << "group=" << deviation.group_id << " ts=" << deviation.ts
        << " value=" << deviation.value << " residual=" << deviation.residual
        << " value_z=" << deviation.value_z
        << " slope_z=" << deviation.slope_z;
  }
  EXPECT_EQ(engine.stats().peer_deviations, deviations.size());
}

/// A production with two identically-configured printers (plus one with a
/// different configuration and one with none), each carrying a nozzle
/// temperature sensor under the same name|unit role.
hierarchy::Production TwinPrinterProduction() {
  hierarchy::Production production;
  hierarchy::ProductionLine line;
  line.id = "l1";
  const ts::FeatureVector twin_cfg({"nozzle_diameter", "max_temp"},
                                   {0.4, 260.0});
  hierarchy::Machine m1{"m1", twin_cfg, {}};
  hierarchy::Machine m2{"m2", twin_cfg, {}};
  hierarchy::Machine m3{
      "m3", ts::FeatureVector({"nozzle_diameter", "max_temp"}, {0.8, 300.0}),
      {}};
  hierarchy::Machine m4{"m4", ts::FeatureVector{}, {}};
  line.machines = {m1, m2, m3, m4};
  production.lines.push_back(std::move(line));
  for (const char* machine : {"m1", "m2", "m3", "m4"}) {
    hierarchy::SensorInfo info;
    info.id = std::string(machine) + ".nozzle_temp";
    info.name = "Nozzle temperature";
    info.unit = "degC";
    info.machine_id = machine;
    EXPECT_TRUE(production.sensors.Register(info).ok());
  }
  // A role present on only one of the twins: no cross-machine peer set.
  hierarchy::SensorInfo lone;
  lone.id = "m1.bed_temp";
  lone.name = "Bed temperature";
  lone.unit = "degC";
  lone.machine_id = "m1";
  EXPECT_TRUE(production.sensors.Register(lone).ok());
  return production;
}

TEST(ConfigurationCohorts, GroupsSameRoleAcrossIdenticalMachines) {
  const hierarchy::Production production = TwinPrinterProduction();
  const auto cohorts = ConfigurationCohorts(production);
  // Exactly one cohort: the twins' nozzle sensors. m3's configuration
  // differs, m4 has none, and the bed sensor exists on one machine only.
  ASSERT_EQ(cohorts.size(), 1u);
  const auto it = cohorts.find("cfg:m1:Nozzle temperature|degC");
  ASSERT_NE(it, cohorts.end());
  EXPECT_EQ(it->second,
            (std::vector<std::string>{"m1.nozzle_temp", "m2.nozzle_temp"}));
}

TEST(ConfigurationCohorts, ToleranceWidensTheCluster) {
  hierarchy::Production production = TwinPrinterProduction();
  // Within tolerance 50, m3 (distance ~40 from the twins) joins the
  // cluster and its nozzle sensor becomes a third peer.
  const auto cohorts = ConfigurationCohorts(production, 50.0);
  const auto it = cohorts.find("cfg:m1:Nozzle temperature|degC");
  ASSERT_NE(it, cohorts.end());
  EXPECT_EQ(it->second.size(), 3u);
}

TEST(PeerGroupMonitor, ConfigurationImportRegistersCohorts) {
  PeerGroupMonitor monitor(FastOptions());
  ASSERT_TRUE(
      monitor.AddGroupsFromConfiguration(TwinPrinterProduction()).ok());
  EXPECT_EQ(monitor.num_groups(), 1u);
  EXPECT_TRUE(monitor.Tracks("m1.nozzle_temp"));
  EXPECT_TRUE(monitor.Tracks("m2.nozzle_temp"));
  EXPECT_FALSE(monitor.Tracks("m3.nozzle_temp"));
  EXPECT_FALSE(monitor.Tracks("m1.bed_temp"));
}

TEST(StreamEngine, AddPeerGroupsFromConfigurationSkipsUnregisteredSensors) {
  const hierarchy::Production production = TwinPrinterProduction();
  {
    // Only one cohort member is registered with the engine: the group
    // would be a singleton, so it is skipped entirely.
    StreamEngineOptions options;
    options.synchronous = true;
    StreamEngine engine(options);
    ASSERT_TRUE(engine.AddSensor("m1.nozzle_temp").ok());
    ASSERT_TRUE(engine.AddPeerGroupsFromConfiguration(production).ok());
    ASSERT_TRUE(engine.Start().ok());
    EXPECT_EQ(engine.stats().peer_deviations, 0u);
    ASSERT_TRUE(engine.Stop().ok());
  }
  {
    StreamEngineOptions options;
    options.synchronous = true;
    StreamEngine engine(options);
    ASSERT_TRUE(engine.AddSensor("m1.nozzle_temp").ok());
    ASSERT_TRUE(engine.AddSensor("m2.nozzle_temp").ok());
    ASSERT_TRUE(engine.AddPeerGroupsFromConfiguration(production).ok());
    ASSERT_TRUE(engine.Start().ok());
    // Drive the twins apart: the cohort group must be live and fire.
    Rng rng(53);
    for (size_t t = 0; t < 300; ++t) {
      const double healthy = 210.0 + rng.Gaussian(0.0, 0.05);
      double faulty = 210.0 + rng.Gaussian(0.0, 0.05);
      if (t >= 100) faulty *= 1.0 + 0.002 * static_cast<double>(t - 100);
      ASSERT_TRUE(engine
                      .Ingest({"m1.nozzle_temp", ProductionLevel::kPhase,
                               static_cast<double>(t), healthy})
                      .ok());
      ASSERT_TRUE(engine
                      .Ingest({"m2.nozzle_temp", ProductionLevel::kPhase,
                               static_cast<double>(t), faulty})
                      .ok());
    }
    ASSERT_TRUE(engine.Stop().ok());
    const std::vector<PeerDeviation> deviations = engine.PeerDeviations();
    ASSERT_FALSE(deviations.empty());
    // In a two-member cohort the drift is symmetric (each member is the
    // other's whole reference), so both may fire; what matters here is
    // that the drifting twin fired and the findings carry the cohort id.
    bool victim_fired = false;
    for (const PeerDeviation& deviation : deviations) {
      EXPECT_EQ(deviation.group_id, "cfg:m1:Nozzle temperature|degC");
      if (deviation.sensor_id == "m2.nozzle_temp") victim_fired = true;
    }
    EXPECT_TRUE(victim_fired);
  }
}

TEST(StreamEngine, AddPeerGroupsFromConfigurationRejectedAfterStart) {
  StreamEngineOptions options;
  options.synchronous = true;
  StreamEngine engine(options);
  ASSERT_TRUE(engine.AddSensor("m1.nozzle_temp").ok());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_EQ(
      engine.AddPeerGroupsFromConfiguration(TwinPrinterProduction()).code(),
      StatusCode::kFailedPrecondition);
  ASSERT_TRUE(engine.Stop().ok());
}

}  // namespace
}  // namespace hod::stream
