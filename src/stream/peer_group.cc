#include "stream/peer_group.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace hod::stream {

namespace {

double MedianInPlace(std::vector<double>& values) {
  const size_t n = values.size();
  const size_t mid = n / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (n % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

/// Median of `n > 0` ascending values: the same order statistics, and the
/// same even-count average, as MedianInPlace.
double SortedMedian(const double* sorted, size_t n) {
  const size_t mid = n / 2;
  if (n % 2 == 1) return sorted[mid];
  return 0.5 * (sorted[mid - 1] + sorted[mid]);
}

/// Median of |sorted[i] - med| over `n > 0` ascending values, where `med`
/// is their SortedMedian. Entries below the middle index lie at or below
/// `med` and those from it upward at or above it, so walking outward from
/// the middle visits two runs whose distances to `med` never decrease
/// (rounded subtraction is monotone). Merging the runs yields the
/// distances in ascending order; the walk stops at the middle order
/// statistics, which are exactly the ones MedianInPlace would select.
double SortedMad(const double* sorted, size_t n, double med) {
  const size_t mid = n / 2;
  size_t below = mid;  // next entry of the lower run is sorted[below - 1]
  size_t above = mid;  // next entry of the upper run is sorted[above]
  double previous = 0.0;
  double current = 0.0;
  for (size_t k = 0; k <= mid; ++k) {
    previous = current;
    const bool take_above =
        below == 0 || (above < n && std::fabs(sorted[above] - med) <=
                                        std::fabs(sorted[below - 1] - med));
    current = take_above ? std::fabs(sorted[above++] - med)
                         : std::fabs(sorted[--below] - med);
  }
  if (n % 2 == 1) return current;
  return 0.5 * (previous + current);
}

/// Exact-schema check: cohort machines must expose the same configuration
/// components in the same order (configs stamped from one template do).
bool SameConfigurationSchema(const ts::FeatureVector& a,
                             const ts::FeatureVector& b) {
  return a.names() == b.names();
}

double ConfigurationDistance(const ts::FeatureVector& a,
                             const ts::FeatureVector& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace

std::map<std::string, std::vector<std::string>> ConfigurationCohorts(
    const hierarchy::Production& production, double tolerance) {
  // Greedy deterministic clustering over machines in hierarchy order.
  struct Cluster {
    const hierarchy::Machine* representative;
    std::vector<const hierarchy::Machine*> machines;
  };
  std::vector<Cluster> clusters;
  for (const auto& line : production.lines) {
    for (const auto& machine : line.machines) {
      if (machine.configuration.size() == 0 ||
          !machine.configuration.Validate().ok()) {
        continue;  // no configuration to compare on
      }
      bool placed = false;
      for (Cluster& cluster : clusters) {
        if (SameConfigurationSchema(cluster.representative->configuration,
                                    machine.configuration) &&
            ConfigurationDistance(cluster.representative->configuration,
                                  machine.configuration) <= tolerance) {
          cluster.machines.push_back(&machine);
          placed = true;
          break;
        }
      }
      if (!placed) clusters.push_back({&machine, {&machine}});
    }
  }

  // Sensors per machine, in registry order.
  std::map<std::string, std::vector<hierarchy::SensorInfo>> by_machine;
  for (const std::string& id : production.sensors.ids()) {
    auto info = production.sensors.Get(id);
    if (!info.ok() || info->machine_id.empty()) continue;
    by_machine[info->machine_id].push_back(std::move(info).value());
  }

  std::map<std::string, std::vector<std::string>> cohorts;
  for (const Cluster& cluster : clusters) {
    if (cluster.machines.size() < 2) continue;
    // Role = measured quantity; the same role across cohort machines is a
    // comparable peer set. Distinct-machine count gates the cohort so two
    // sensors on one machine (already a redundancy pair) don't qualify.
    std::map<std::string, std::vector<std::string>> role_members;
    std::map<std::string, std::set<std::string>> role_machines;
    for (const hierarchy::Machine* machine : cluster.machines) {
      auto it = by_machine.find(machine->id);
      if (it == by_machine.end()) continue;
      for (const hierarchy::SensorInfo& info : it->second) {
        const std::string role =
            info.name.empty() ? info.id : info.name + "|" + info.unit;
        role_members[role].push_back(info.id);
        role_machines[role].insert(machine->id);
      }
    }
    for (auto& [role, members] : role_members) {
      if (members.size() < 2 || role_machines[role].size() < 2) continue;
      cohorts["cfg:" + cluster.representative->id + ":" + role] =
          std::move(members);
    }
  }
  return cohorts;
}

PeerGroupMonitor::PeerGroupMonitor(PeerGroupOptions options,
                                   StreamStats* stats)
    : options_(std::move(options)), stats_(stats) {
  if (options_.window == 0) options_.window = 1;
  if (options_.warmup == 0) options_.warmup = 1;
  if (options_.warmup > options_.window) options_.warmup = options_.window;
  if (options_.deviation_after == 0) options_.deviation_after = 1;
}

Status PeerGroupMonitor::AddGroup(const std::string& group_id,
                                  const std::vector<std::string>& members) {
  if (group_id.empty()) return Status::InvalidArgument("empty group id");
  std::set<std::string> distinct(members.begin(), members.end());
  distinct.erase(std::string{});
  if (distinct.size() < 2) {
    return Status::InvalidArgument(
        "peer group needs at least two distinct members: " + group_id);
  }
  if (groups_.find(group_id) != groups_.end()) {
    return Status::InvalidArgument("peer group already registered: " +
                                   group_id);
  }
  auto group = std::make_unique<Group>();
  group->group_id = group_id;
  group->members.reserve(distinct.size());
  for (const std::string& sensor_id : distinct) {
    group->member_index[sensor_id] = group->members.size();
    Member member;
    member.sensor_id = sensor_id;
    member.ring_sorted.reserve(options_.window + 1);
    group->members.push_back(std::move(member));
  }
  Group* raw = group.get();
  groups_.emplace(group_id, std::move(group));
  for (const auto& [sensor_id, slot] : raw->member_index) {
    index_[sensor_id].emplace_back(raw, slot);
  }
  return Status::Ok();
}

Status PeerGroupMonitor::AddGroupsFromRegistry(
    const hierarchy::SensorRegistry& registry) {
  std::map<std::string, std::vector<std::string>> by_group;
  for (const std::string& id : registry.ids()) {
    HOD_ASSIGN_OR_RETURN(hierarchy::SensorInfo info, registry.Get(id));
    if (info.redundancy_group.empty()) continue;
    by_group[info.redundancy_group].push_back(id);
  }
  for (const auto& [group_id, members] : by_group) {
    if (members.size() < 2) continue;  // singleton groups have no peers
    HOD_RETURN_IF_ERROR(AddGroup(group_id, members));
  }
  return Status::Ok();
}

Status PeerGroupMonitor::AddGroupsFromConfiguration(
    const hierarchy::Production& production, double tolerance) {
  for (const auto& [group_id, members] :
       ConfigurationCohorts(production, tolerance)) {
    HOD_RETURN_IF_ERROR(AddGroup(group_id, members));
  }
  return Status::Ok();
}

void PeerGroupMonitor::LogDeviation(const PeerDeviation& deviation) {
  if (stats_ != nullptr) stats_->Add(Counter::peer_deviations);
  std::lock_guard<std::mutex> lock(log_mu_);
  log_.push_back(deviation);
}

std::optional<PeerDeviation> PeerGroupMonitor::Observe(
    const std::string& sensor_id, hierarchy::ProductionLevel level,
    ts::TimePoint ts, double value) {
  if (!options_.enabled) return std::nullopt;
  auto it = index_.find(sensor_id);
  if (it == index_.end()) return std::nullopt;
  std::optional<PeerDeviation> strongest;
  for (const auto& [group, slot] : it->second) {
    std::optional<PeerDeviation> fired =
        ObserveInGroup(*group, slot, level, ts, value);
    if (!fired.has_value()) continue;
    if (!strongest.has_value() ||
        std::max(fired->value_z, fired->slope_z) >
            std::max(strongest->value_z, strongest->slope_z)) {
      strongest = std::move(fired);
    }
  }
  if (strongest.has_value()) LogDeviation(*strongest);
  return strongest;
}

std::optional<PeerDeviation> PeerGroupMonitor::ObserveInGroup(
    Group& group, size_t member_index, hierarchy::ProductionLevel level,
    ts::TimePoint ts, double value) {
  // Per-thread scratch: each observing thread reuses its buffers, so a
  // warm observation allocates nothing.
  thread_local std::vector<double> peers;
  thread_local std::vector<double> detrended;
  Member& self = group.members[member_index];
  // Reference: the median of the OTHER members' latest values, freshness-
  // gated so a silent peer cannot anchor the group at a stale level. The
  // group lock covers only this exchange of last values.
  peers.clear();
  {
    std::lock_guard<std::mutex> lock(group.mu);
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
  }
  if (peers.size() < options_.min_peers) return std::nullopt;

  const double residual = value - MedianInPlace(peers);

  std::optional<PeerDeviation> fired;
  const size_t n = self.ring_size();
  const ts::TimePoint* ring_ts = self.ring_ts.data() + self.ring_begin;
  const double* ring_residual = self.ring_residual.data() + self.ring_begin;
  if (self.ring_sorted.size() != n) {
    // First observation since RestoreState: rebuild the sorted copy here,
    // on the observing thread, so a restore sorts no ring it never feeds.
    self.ring_sorted.assign(ring_residual, ring_residual + n);
    std::sort(self.ring_sorted.begin(), self.ring_sorted.end());
  }
  if (n >= options_.warmup) {
    const double med = SortedMedian(self.ring_sorted.data(), n);
    // 1.4826: MAD -> sigma under normality, so deviation_z reads as a
    // familiar z threshold.
    const double scale =
        std::max(1.4826 * SortedMad(self.ring_sorted.data(), n, med),
                 options_.min_scale);
    const double value_z = std::fabs(residual - med) / scale;

    // Drift test: OLS slope of the residual ring over stream time,
    // expressed as total drift across the window in scale units. The
    // denominator is the MAD of the residuals around the FITTED line, not
    // the raw ring: a sustained ramp inflates the raw MAD in proportion
    // to its own slope, capping a raw-scaled statistic at a constant
    // (~2.7 for a pure ramp) no matter how steep the drift. Detrending
    // leaves only the noise floor below the fraction line, so the
    // statistic grows with the drift instead of saturating. Sums run
    // oldest to newest.
    double slope_stat = 0.0;
    const double span = ring_ts[n - 1] - ring_ts[0];
    if (n >= 3 && span > 0.0) {
      double mean_t = 0.0, mean_r = 0.0;
      for (size_t i = 0; i < n; ++i) {
        mean_t += ring_ts[i];
        mean_r += ring_residual[i];
      }
      mean_t /= static_cast<double>(n);
      mean_r /= static_cast<double>(n);
      double num = 0.0, den = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double dt = ring_ts[i] - mean_t;
        num += dt * (ring_residual[i] - mean_r);
        den += dt * dt;
      }
      if (den > 0.0) {
        const double slope = num / den;
        detrended.resize(n);
        for (size_t i = 0; i < n; ++i) {
          detrended[i] = ring_residual[i] - mean_r -
                         slope * (ring_ts[i] - mean_t);
        }
        // Order-free from here on: sort once, then the same median and
        // MAD walk as the residual ring.
        std::sort(detrended.begin(), detrended.end());
        const double med_e = SortedMedian(detrended.data(), n);
        const double noise_scale =
            std::max(1.4826 * SortedMad(detrended.data(), n, med_e),
                     options_.min_scale);
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
  self.ring_sorted.insert(std::upper_bound(self.ring_sorted.begin(),
                                           self.ring_sorted.end(), residual),
                          residual);
  if (self.ring_size() > options_.window) {
    const size_t begin = self.ring_residual.size() - options_.window;
    for (size_t i = self.ring_begin; i < begin; ++i) {
      self.ring_sorted.erase(std::lower_bound(self.ring_sorted.begin(),
                                              self.ring_sorted.end(),
                                              self.ring_residual[i]));
    }
    self.ring_begin = begin;
  }
  if (self.ring_begin >= options_.window) {
    // The dead prefix is a full window long: slide the live ring to the
    // front (amortized O(1) per observation, capacity stays 2 windows).
    self.ring_ts.erase(self.ring_ts.begin(),
                       self.ring_ts.begin() + self.ring_begin);
    self.ring_residual.erase(self.ring_residual.begin(),
                             self.ring_residual.begin() + self.ring_begin);
    self.ring_begin = 0;
  }
  return fired;
}

std::vector<PeerDeviation> PeerGroupMonitor::Deviations() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_;
}

std::vector<PeerGroupState> PeerGroupMonitor::SaveState() const {
  std::vector<PeerGroupState> out;
  out.reserve(groups_.size());
  for (const auto& [group_id, group] : groups_) {
    std::lock_guard<std::mutex> lock(group->mu);
    PeerGroupState state;
    state.group_id = group_id;
    state.members.reserve(group->members.size());
    for (const Member& member : group->members) {
      PeerMemberState ms;
      ms.sensor_id = member.sensor_id;
      ms.has_last = member.has_last;
      ms.last_ts = member.last_ts;
      ms.last_value = member.last_value;
      ms.ring_ts.assign(member.ring_ts.begin() + member.ring_begin,
                        member.ring_ts.end());
      ms.ring_residual.assign(member.ring_residual.begin() + member.ring_begin,
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

Status PeerGroupMonitor::RestoreState(
    const std::vector<PeerGroupState>& groups) {
  for (const PeerGroupState& state : groups) {
    auto it = groups_.find(state.group_id);
    if (it == groups_.end()) {
      return Status::NotFound("peer state for unregistered group: " +
                              state.group_id);
    }
    Group& group = *it->second;
    std::lock_guard<std::mutex> lock(group.mu);
    for (const PeerMemberState& ms : state.members) {
      auto slot = group.member_index.find(ms.sensor_id);
      if (slot == group.member_index.end()) {
        return Status::NotFound("peer state for unregistered member: " +
                                ms.sensor_id + " in " + state.group_id);
      }
      if (ms.ring_ts.size() != ms.ring_residual.size()) {
        return Status::InvalidArgument("peer ring length mismatch for " +
                                       ms.sensor_id);
      }
      Member& member = group.members[slot->second];
      member.has_last = ms.has_last;
      member.last_ts = ms.last_ts;
      member.last_value = ms.last_value;
      member.ring_ts = ms.ring_ts;
      member.ring_residual = ms.ring_residual;
      member.ring_begin = 0;
      member.ring_sorted.clear();  // rebuilt by the member's next Observe
      member.breach_streak = ms.breach_streak;
      member.calm_streak = ms.calm_streak;
      member.fired = ms.fired;
      member.deviations = ms.deviations;
    }
  }
  return Status::Ok();
}

}  // namespace hod::stream
