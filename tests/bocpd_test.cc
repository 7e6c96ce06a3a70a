#include "core/bocpd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace hod::core {
namespace {

/// Gaussian stream around `level` with one step of `delta` at `shift_at`.
std::vector<double> MakeStepStream(uint64_t seed, size_t n, size_t shift_at,
                                   double level, double sigma, double delta) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    const double base = t >= shift_at ? level + delta : level;
    values.push_back(base + rng.Gaussian(0.0, sigma));
  }
  return values;
}

TEST(BocpdDetector, ConfirmsStepShiftWithinSampleBudget) {
  BocpdOptions options;
  options.warmup = 32;
  BocpdDetector detector(options);

  const size_t shift_at = 200;
  const std::vector<double> values =
      MakeStepStream(7, 300, shift_at, 55.0, 0.25, 6.0);
  std::optional<BocpdShift> confirmed;
  size_t confirmed_at = 0;
  for (size_t t = 0; t < values.size(); ++t) {
    auto shift = detector.Push(values[t]);
    if (shift.has_value()) {
      ASSERT_FALSE(confirmed.has_value()) << "second confirm at t=" << t;
      confirmed = shift;
      confirmed_at = t;
    }
  }
  ASSERT_TRUE(confirmed.has_value());
  EXPECT_GE(confirmed_at, shift_at);
  // Detection delay: the posterior must concentrate within the
  // min_run_for_shift window plus slack — the budget the streaming gate
  // holds the detector to.
  EXPECT_LE(confirmed_at - shift_at, 2 * options.min_run_for_shift)
      << "confirmed at " << confirmed_at;
  EXPECT_NEAR(confirmed->shift.before_mean, 55.0, 0.5);
  // The after-level is the winning bucket's posterior mean over just a
  // few post-shift samples, so it is still pulled toward the prior — it
  // must clearly sit in the new regime, not match it exactly yet.
  EXPECT_GT(confirmed->shift.after_mean, 57.0);
  EXPECT_LT(confirmed->shift.after_mean, 62.0);
  EXPECT_GE(confirmed->shift.magnitude_sigmas, options.min_magnitude_sigmas);
  EXPECT_GE(confirmed->evidence, options.shift_posterior);
  EXPECT_GE(confirmed->run_length, 1u);
  EXPECT_EQ(detector.shifts_confirmed(), 1u);
}

TEST(BocpdDetector, StationaryStreamNeverConfirms) {
  BocpdDetector detector;
  Rng rng(13);
  for (size_t t = 0; t < 5000; ++t) {
    auto shift = detector.Push(42.0 + rng.Gaussian(0.0, 0.5));
    EXPECT_FALSE(shift.has_value()) << "false re-baseline at t=" << t;
  }
  EXPECT_EQ(detector.shifts_confirmed(), 0u);
}

TEST(BocpdDetector, MagnitudeGateIgnoresSetpointJitter) {
  BocpdOptions options;
  options.min_magnitude_sigmas = 3.0;
  BocpdDetector detector(options);
  // A 1-sigma step: a genuine changepoint statistically, but below the
  // magnitude gate — jitter, not a regime change.
  const std::vector<double> values =
      MakeStepStream(21, 400, 200, 10.0, 0.5, 0.5);
  for (double value : values) {
    EXPECT_FALSE(detector.Push(value).has_value());
  }
  EXPECT_EQ(detector.shifts_confirmed(), 0u);
}

TEST(BocpdDetector, EachPhysicalShiftConfirmsExactlyOnce) {
  BocpdOptions options;
  options.cooldown = 48;
  BocpdDetector detector(options);
  Rng rng(31);
  size_t confirms = 0;
  // Three regimes: 0, +8, -4 — two physical shifts.
  for (size_t t = 0; t < 900; ++t) {
    double level = 0.0;
    if (t >= 300) level = 8.0;
    if (t >= 600) level = -4.0;
    if (detector.Push(level + rng.Gaussian(0.0, 0.4)).has_value()) {
      ++confirms;
    }
  }
  EXPECT_EQ(confirms, 2u);
  EXPECT_EQ(detector.shifts_confirmed(), 2u);
}

TEST(BocpdDetector, SaveRestoreResumesBitIdentically) {
  BocpdOptions options;
  BocpdDetector original(options);
  const std::vector<double> values =
      MakeStepStream(43, 400, 260, 20.0, 0.3, 5.0);
  // Feed half, snapshot, then compare the tail sample by sample.
  const size_t split = 200;
  for (size_t t = 0; t < split; ++t) (void)original.Push(values[t]);

  BocpdState state = original.SaveState();
  BocpdDetector restored(options);
  ASSERT_TRUE(restored.RestoreState(state).ok());

  for (size_t t = split; t < values.size(); ++t) {
    auto a = original.Push(values[t]);
    auto b = restored.Push(values[t]);
    ASSERT_EQ(a.has_value(), b.has_value()) << "t=" << t;
    if (a.has_value()) {
      EXPECT_EQ(a->shift.before_mean, b->shift.before_mean);
      EXPECT_EQ(a->shift.after_mean, b->shift.after_mean);
      EXPECT_EQ(a->shift.magnitude_sigmas, b->shift.magnitude_sigmas);
      EXPECT_EQ(a->evidence, b->evidence);
      EXPECT_EQ(a->run_length, b->run_length);
    }
    EXPECT_EQ(original.shift_mass(), restored.shift_mass()) << "t=" << t;
    EXPECT_EQ(original.map_run_length(), restored.map_run_length());
  }
  EXPECT_EQ(original.shifts_confirmed(), restored.shifts_confirmed());
}

TEST(BocpdDetector, TruncationKeepsStateConstantSize) {
  BocpdOptions options;
  options.max_run_length = 32;
  BocpdDetector detector(options);
  Rng rng(3);
  for (size_t t = 0; t < 10000; ++t) {
    (void)detector.Push(rng.Gaussian(0.0, 1.0));
    if (t % 1000 == 999) {
      EXPECT_LE(detector.SaveState().weight.size(),
                options.max_run_length + 1);
    }
  }
}

TEST(BocpdDetector, SanitizesDegenerateOptions) {
  BocpdOptions options;
  options.hazard_lambda = 0.0;      // would divide by zero
  options.max_run_length = 0;       // no room for any posterior
  options.min_run_for_shift = 999;  // larger than the truncation bound
  options.shift_posterior = -1.0;
  options.prior_kappa = 0.0;
  BocpdDetector detector(options);
  Rng rng(5);
  for (size_t t = 0; t < 500; ++t) {
    (void)detector.Push(rng.Gaussian(0.0, 1.0));
  }
  EXPECT_TRUE(std::isfinite(detector.shift_mass()));
}

TEST(BocpdDetector, RestoreRejectsMalformedState) {
  BocpdDetector detector;
  (void)detector.Push(1.0);
  BocpdState skewed = detector.SaveState();
  skewed.mu.push_back(0.0);  // length skew across the parallel arrays
  EXPECT_FALSE(BocpdDetector().RestoreState(skewed).ok());

  BocpdState negative = detector.SaveState();
  for (double& k : negative.kappa) k = -1.0;
  EXPECT_FALSE(BocpdDetector().RestoreState(negative).ok());

  BocpdState empty_but_seeded;
  empty_but_seeded.prior_seeded = true;
  EXPECT_FALSE(BocpdDetector().RestoreState(empty_but_seeded).ok());
}

TEST(BocpdDetector, SurvivesExtremeValuesWithoutNonFiniteState) {
  BocpdDetector detector;
  Rng rng(17);
  for (size_t t = 0; t < 200; ++t) {
    (void)detector.Push(rng.Gaussian(0.0, 1.0));
  }
  // A value far outside any predictive support underflows every bucket's
  // likelihood; the detector must recover deterministically, not emit
  // NaNs forever.
  (void)detector.Push(1e300);
  for (size_t t = 0; t < 200; ++t) {
    (void)detector.Push(rng.Gaussian(0.0, 1.0));
    EXPECT_TRUE(std::isfinite(detector.shift_mass()));
  }
}

// ---------------------------------------------------------------------------
// Oracle: the detector as it was before the log-gamma cache and the in-place
// grow step — two LogGamma calls per bucket per sample and a second set of
// bucket arrays for the grown posterior. Matched bit for bit below. It
// also counts which predictives the detector's shared alpha table covers.

double OracleLogGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__) || defined(_GNU_SOURCE)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

double OracleStudentTPdf(double x, double df, double mean, double scale) {
  const double z = (x - mean) / scale;
  const double log_pdf = OracleLogGamma((df + 1.0) * 0.5) -
                         OracleLogGamma(df * 0.5) -
                         0.5 * std::log(df * M_PI) - std::log(scale) -
                         (df + 1.0) * 0.5 * std::log1p(z * z / df);
  return std::exp(log_pdf);
}

class OracleBocpd {
 public:
  explicit OracleBocpd(BocpdOptions options) : options_(options) {
    if (!(options_.hazard_lambda > 1.0)) options_.hazard_lambda = 250.0;
    if (options_.max_run_length < 8) options_.max_run_length = 8;
    if (options_.min_run_for_shift < 1) options_.min_run_for_shift = 1;
    if (options_.min_run_for_shift >= options_.max_run_length) {
      options_.min_run_for_shift = options_.max_run_length / 2;
    }
    if (!(options_.shift_posterior > 0.0 && options_.shift_posterior <= 1.0)) {
      options_.shift_posterior = 0.8;
    }
    if (!Positive(options_.prior_kappa)) options_.prior_kappa = 1.0;
    if (!Positive(options_.prior_alpha)) options_.prior_alpha = 1.0;
    if (!Positive(options_.prior_beta)) options_.prior_beta = 1.0;
    double alpha = options_.prior_alpha;
    for (size_t m = 0; m < BocpdDetector::kAlphaTableEntries; ++m) {
      alpha_grid_.push_back(alpha);
      alpha = alpha + 0.5;
    }
  }

  std::optional<BocpdShift> Push(double value) {
    if (!std::isfinite(value)) return std::nullopt;
    if (!prior_seeded_) {
      prior_seeded_ = true;
      prior_mean_ = value;
      Rebase(prior_mean_, options_.prior_kappa, options_.prior_alpha,
             options_.prior_beta, 0);
    }
    ++samples_seen_;
    const double hazard = 1.0 / options_.hazard_lambda;
    const size_t n = weight_.size();
    std::vector<double> next_weight(n + 1, 0.0), next_mu(n + 1),
        next_kappa(n + 1), next_alpha(n + 1), next_beta(n + 1);
    std::vector<uint64_t> next_run_length(n + 1);
    next_mu[0] = prior_mean_;
    next_kappa[0] = options_.prior_kappa;
    next_alpha[0] = options_.prior_alpha;
    next_beta[0] = options_.prior_beta;
    next_run_length[0] = 0;
    double normalizer = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (std::binary_search(alpha_grid_.begin(), alpha_grid_.end(),
                             alpha_[i])) {
        ++table_hits_;
      } else {
        ++table_fallbacks_;
      }
      const double scale = std::sqrt(
          std::max(beta_[i] * (kappa_[i] + 1.0) / (alpha_[i] * kappa_[i]),
                   kFloor * kFloor));
      const double pred =
          OracleStudentTPdf(value, 2.0 * alpha_[i], mu_[i], scale);
      const double mass = weight_[i] * pred;
      next_weight[i + 1] = mass * (1.0 - hazard);
      next_mu[i + 1] = (kappa_[i] * mu_[i] + value) / (kappa_[i] + 1.0);
      next_kappa[i + 1] = kappa_[i] + 1.0;
      next_alpha[i + 1] = alpha_[i] + 0.5;
      next_beta[i + 1] = beta_[i] + kappa_[i] * (value - mu_[i]) *
                                        (value - mu_[i]) /
                                        (2.0 * (kappa_[i] + 1.0));
      next_run_length[i + 1] = run_length_[i] + 1;
      next_weight[0] += mass * hazard;
      normalizer += mass;
    }
    if (!(normalizer > 0.0) || !std::isfinite(normalizer)) {
      Rebase(value, options_.prior_kappa, options_.prior_alpha,
             options_.prior_beta, 0);
      ++underflow_restarts_;
    } else {
      for (auto& w : next_weight) w /= normalizer;
      while (next_weight.size() > options_.max_run_length) {
        const size_t last = next_weight.size() - 1;
        next_weight[last - 1] += next_weight[last];
        next_mu[last - 1] = next_mu[last];
        next_kappa[last - 1] = next_kappa[last];
        next_alpha[last - 1] = next_alpha[last];
        next_beta[last - 1] = next_beta[last];
        next_run_length[last - 1] = next_run_length[last];
        next_weight.pop_back();
        next_mu.pop_back();
        next_kappa.pop_back();
        next_alpha.pop_back();
        next_beta.pop_back();
        next_run_length.pop_back();
        ++merges_;
      }
      weight_.swap(next_weight);
      mu_.swap(next_mu);
      kappa_.swap(next_kappa);
      alpha_.swap(next_alpha);
      beta_.swap(next_beta);
      run_length_.swap(next_run_length);
    }

    size_t map_idx = 0;
    for (size_t i = 1; i < weight_.size(); ++i) {
      if (weight_[i] > weight_[map_idx]) map_idx = i;
    }
    if (run_length_[map_idx] >= 2 * options_.min_run_for_shift) {
      stable_mean_ = mu_[map_idx];
      stable_sigma_ =
          std::max(std::sqrt(beta_[map_idx] / alpha_[map_idx]), kFloor);
      stable_support_ = run_length_[map_idx];
    }
    if (cooldown_left_ > 0) {
      --cooldown_left_;
      return std::nullopt;
    }
    if (samples_seen_ <= options_.warmup || stable_support_ == 0) {
      return std::nullopt;
    }
    double recent_mass = 0.0;
    size_t best_recent = 0;
    bool have_recent = false;
    for (size_t i = 0; i < weight_.size(); ++i) {
      if (run_length_[i] <= options_.min_run_for_shift) {
        recent_mass += weight_[i];
        if (run_length_[i] >= 1 &&
            (!have_recent || weight_[i] > weight_[best_recent])) {
          best_recent = i;
          have_recent = true;
        }
      }
    }
    if (recent_mass < options_.shift_posterior || !have_recent) {
      return std::nullopt;
    }
    const double after_mean = mu_[best_recent];
    const double after_sigma = std::max(
        std::sqrt(beta_[best_recent] / alpha_[best_recent]), kFloor);
    const double magnitude =
        std::abs(after_mean - stable_mean_) / stable_sigma_;
    if (magnitude < options_.min_magnitude_sigmas) {
      cooldown_left_ = 1;
      return std::nullopt;
    }
    BocpdShift confirmed;
    confirmed.shift.index = static_cast<size_t>(samples_seen_);
    confirmed.shift.time = 0.0;
    confirmed.shift.before_mean = stable_mean_;
    confirmed.shift.after_mean = after_mean;
    confirmed.shift.magnitude_sigmas = magnitude;
    confirmed.after_sigma = after_sigma;
    confirmed.run_length = static_cast<size_t>(run_length_[best_recent]);
    confirmed.evidence = recent_mass;
    Rebase(mu_[best_recent], kappa_[best_recent], alpha_[best_recent],
           beta_[best_recent], run_length_[best_recent]);
    stable_mean_ = after_mean;
    stable_sigma_ = after_sigma;
    stable_support_ = run_length_[0];
    cooldown_left_ = options_.cooldown;
    return confirmed;
  }

  double shift_mass() const {
    double mass = 0.0;
    for (size_t i = 0; i < weight_.size(); ++i) {
      if (run_length_[i] <= options_.min_run_for_shift) mass += weight_[i];
    }
    return mass;
  }

  /// The fields BocpdDetector::SaveState fills; shifts_confirmed is
  /// counted by the caller (the oracle does not keep it).
  BocpdState SaveState(uint64_t shifts_confirmed) const {
    BocpdState state;
    state.weight = weight_;
    state.mu = mu_;
    state.kappa = kappa_;
    state.alpha = alpha_;
    state.beta = beta_;
    state.run_length = run_length_;
    state.samples_seen = samples_seen_;
    state.shifts_confirmed = shifts_confirmed;
    state.cooldown_left = cooldown_left_;
    state.prior_seeded = prior_seeded_;
    state.prior_mean = prior_mean_;
    state.stable_mean = stable_mean_;
    state.stable_sigma = stable_sigma_;
    state.stable_support = stable_support_;
    return state;
  }

  /// Restores a state BocpdDetector::RestoreState accepts (the caller
  /// checks that), verbatim: the next Push normalizes the weights.
  void RestoreState(const BocpdState& state) {
    weight_ = state.weight;
    mu_ = state.mu;
    kappa_ = state.kappa;
    alpha_ = state.alpha;
    beta_ = state.beta;
    run_length_ = state.run_length;
    samples_seen_ = state.samples_seen;
    cooldown_left_ = state.cooldown_left;
    prior_seeded_ = state.prior_seeded;
    prior_mean_ = state.prior_mean;
    stable_mean_ = state.stable_mean;
    stable_sigma_ = std::max(state.stable_sigma, kFloor);
    stable_support_ = state.stable_support;
  }

  size_t underflow_restarts() const { return underflow_restarts_; }
  size_t merges() const { return merges_; }
  /// Predictives whose bucket alpha lies on the detector's shared grid
  /// (prior_alpha, then + 0.5 per step, kAlphaTableEntries points) and
  /// those whose alpha is off it, so the table covers neither.
  size_t table_hits() const { return table_hits_; }
  size_t table_fallbacks() const { return table_fallbacks_; }

 private:
  static constexpr double kFloor = 1e-9;
  static bool Positive(double v) { return std::isfinite(v) && v > 0.0; }

  void Rebase(double mean, double kappa, double alpha, double beta,
              uint64_t run_length) {
    weight_.assign(1, 1.0);
    mu_.assign(1, mean);
    kappa_.assign(1, kappa);
    alpha_.assign(1, alpha);
    beta_.assign(1, beta);
    run_length_.assign(1, run_length);
  }

  BocpdOptions options_;
  std::vector<double> weight_, mu_, kappa_, alpha_, beta_;
  std::vector<uint64_t> run_length_;
  uint64_t samples_seen_ = 0;
  uint64_t cooldown_left_ = 0;
  bool prior_seeded_ = false;
  double prior_mean_ = 0.0;
  double stable_mean_ = 0.0;
  double stable_sigma_ = 1.0;
  uint64_t stable_support_ = 0;
  size_t underflow_restarts_ = 0;
  size_t merges_ = 0;
  std::vector<double> alpha_grid_;
  size_t table_hits_ = 0;
  size_t table_fallbacks_ = 0;
};

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

std::vector<uint64_t> AllBits(const std::vector<double>& values) {
  std::vector<uint64_t> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(Bits(v));
  return out;
}

void ExpectSameShift(const std::optional<BocpdShift>& got,
                     const std::optional<BocpdShift>& want,
                     const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!got.has_value()) return;
  EXPECT_EQ(got->shift.index, want->shift.index) << where;
  EXPECT_EQ(Bits(got->shift.time), Bits(want->shift.time)) << where;
  EXPECT_EQ(Bits(got->shift.before_mean), Bits(want->shift.before_mean))
      << where;
  EXPECT_EQ(Bits(got->shift.after_mean), Bits(want->shift.after_mean))
      << where;
  EXPECT_EQ(Bits(got->shift.magnitude_sigmas),
            Bits(want->shift.magnitude_sigmas))
      << where;
  EXPECT_EQ(Bits(got->after_sigma), Bits(want->after_sigma)) << where;
  EXPECT_EQ(got->run_length, want->run_length) << where;
  EXPECT_EQ(Bits(got->evidence), Bits(want->evidence)) << where;
}

void ExpectSameState(const BocpdState& got, const BocpdState& want,
                     const std::string& where) {
  EXPECT_EQ(AllBits(got.weight), AllBits(want.weight)) << where;
  EXPECT_EQ(AllBits(got.mu), AllBits(want.mu)) << where;
  EXPECT_EQ(AllBits(got.kappa), AllBits(want.kappa)) << where;
  EXPECT_EQ(AllBits(got.alpha), AllBits(want.alpha)) << where;
  EXPECT_EQ(AllBits(got.beta), AllBits(want.beta)) << where;
  EXPECT_EQ(got.run_length, want.run_length) << where;
  EXPECT_EQ(got.samples_seen, want.samples_seen) << where;
  EXPECT_EQ(got.shifts_confirmed, want.shifts_confirmed) << where;
  EXPECT_EQ(got.cooldown_left, want.cooldown_left) << where;
  EXPECT_EQ(got.prior_seeded, want.prior_seeded) << where;
  EXPECT_EQ(Bits(got.prior_mean), Bits(want.prior_mean)) << where;
  EXPECT_EQ(Bits(got.stable_mean), Bits(want.stable_mean)) << where;
  EXPECT_EQ(Bits(got.stable_sigma), Bits(want.stable_sigma)) << where;
  EXPECT_EQ(got.stable_support, want.stable_support) << where;
}

/// 1,000 seeded sequences against the oracle: every Push's confirmed
/// shift (all fields bit-identical), shift_mass() after every sample, and
/// the final SaveState. Options vary the truncation bound (8–90 buckets,
/// so the posterior merges its tail on most steps), the hazard, the gates
/// and the prior; streams carry level steps large enough to confirm and
/// rebase, sub-gate jitter, and 1e6 outliers that underflow every bucket
/// and restart the posterior. Most sequences checkpoint mid-stream into a
/// fresh detector that carries on from the saved state.
TEST(BocpdDetector, MatchesUncachedOracleOn1000SeededSequences) {
  size_t shifts = 0;
  size_t restarts = 0;
  size_t restores = 0;
  size_t merges = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    BocpdOptions options;
    options.max_run_length = 8 + rng.NextBelow(83);
    options.hazard_lambda = rng.Uniform(20.0, 300.0);
    options.warmup = rng.NextBelow(48);
    options.min_run_for_shift = 1 + rng.NextBelow(12);
    options.shift_posterior = rng.Uniform(0.5, 0.95);
    options.min_magnitude_sigmas = rng.Uniform(1.0, 5.0);
    options.cooldown = rng.NextBelow(80);
    // A tight prior (large alpha, small beta) makes the fresh bucket's
    // predictive light-tailed, so a 1e6 outlier underflows all of them.
    options.prior_alpha = seed % 3 == 0 ? rng.Uniform(30.0, 80.0)
                                        : rng.Uniform(0.5, 3.0);
    options.prior_beta = rng.Uniform(0.01, 2.0);
    options.prior_kappa = rng.Uniform(0.2, 3.0);
    BocpdDetector detector(options);
    OracleBocpd oracle(options);

    const size_t steps = 150 + rng.NextBelow(350);
    const size_t restore_at =
        seed % 7 == 0 ? steps : rng.NextBelow(static_cast<uint64_t>(steps));
    const double sigma = rng.Uniform(0.05, 2.0);
    double level = rng.Uniform(-100.0, 100.0);
    uint64_t oracle_shifts = 0;
    for (size_t step = 0; step < steps; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      if (step == restore_at) {
        const BocpdState state = oracle.SaveState(oracle_shifts);
        ExpectSameState(detector.SaveState(), state, where + " save");
        BocpdDetector restored(options);
        ASSERT_TRUE(restored.RestoreState(state).ok()) << where;
        detector = std::move(restored);
        OracleBocpd fresh(options);
        fresh.RestoreState(state);
        merges += oracle.merges();
        restarts += oracle.underflow_restarts();
        oracle = std::move(fresh);
        ++restores;
      }
      if (rng.NextBelow(90) == 0) level += rng.Uniform(-12.0, 12.0) * sigma;
      double value = level + rng.Gaussian(0.0, sigma);
      if (rng.NextBelow(150) == 0) value = level + 1e6;
      if (rng.NextBelow(200) == 0) {
        value = std::numeric_limits<double>::quiet_NaN();
      }
      const std::optional<BocpdShift> got = detector.Push(value);
      const std::optional<BocpdShift> want = oracle.Push(value);
      ExpectSameShift(got, want, where);
      if (want.has_value()) ++oracle_shifts;
      EXPECT_EQ(Bits(detector.shift_mass()), Bits(oracle.shift_mass()))
          << where;
      if (::testing::Test::HasFailure()) return;
    }
    ExpectSameState(detector.SaveState(), oracle.SaveState(oracle_shifts),
                    "seed " + std::to_string(seed) + " end");
    if (::testing::Test::HasFailure()) return;
    shifts += oracle_shifts;
    merges += oracle.merges();
    restarts += oracle.underflow_restarts();
  }
  // The sweep must actually exercise every path it claims to cover.
  EXPECT_GT(shifts, 1000u);
  EXPECT_GT(restarts, 500u);
  EXPECT_GT(restores, 800u);
  EXPECT_GT(merges, 100000u);
}

/// A restore installs the saved posterior as it is, even one whose weights
/// do not sum to 1, so saving it again gives the same bits.
TEST(BocpdDetector, RestoreInstallsTheSavedStateVerbatim) {
  BocpdDetector source;
  const std::vector<double> values = MakeStepStream(61, 150, 90, 5.0, 0.2, 3);
  for (double value : values) (void)source.Push(value);
  BocpdState state = source.SaveState();
  ASSERT_GT(state.weight.size(), 2u);
  state.weight[1] *= 3.0;  // unnormalized mass
  BocpdDetector restored;
  ASSERT_TRUE(restored.RestoreState(state).ok());
  ExpectSameState(restored.SaveState(), state, "restored");
}

/// The oracle again, over the shared alpha table's edges: priors whose
/// grid is exact in binary (1, 7.25) and ones that round at every step
/// (0.3, 1/3, 1e-3); stationary runs long enough for the merged oldest
/// bucket to leave the grid; and a mid-stream restore of a posterior
/// saved under another prior_alpha, so every restored bucket is off the
/// grid. Both table paths must be taken and give the same bits.
TEST(BocpdDetector, MatchesOracleAcrossPriorAlphasAndOffGridBuckets) {
  const double priors[] = {1.0, 0.3, 1.0 / 3.0, 1e-3, 7.25};
  size_t hits = 0;
  size_t fallbacks = 0;
  size_t long_run_fallbacks = 0;  // before any restore: merged bucket only
  size_t shifts = 0;
  for (size_t p = 0; p < std::size(priors); ++p) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(100 * p + seed);
      BocpdOptions options;
      options.max_run_length = 8 + rng.NextBelow(64);
      options.hazard_lambda = rng.Uniform(50.0, 400.0);
      options.prior_alpha = priors[p];
      options.prior_beta = rng.Uniform(0.05, 2.0);
      options.prior_kappa = rng.Uniform(0.2, 3.0);
      BocpdOptions foreign_options = options;
      foreign_options.prior_alpha = priors[(p + 1) % std::size(priors)];

      BocpdDetector detector(options);
      OracleBocpd oracle(options);
      BocpdDetector foreign(foreign_options);
      const double sigma = rng.Uniform(0.1, 2.0);
      double level = rng.Uniform(-50.0, 50.0);
      // A stationary stretch of twice the grid, then a foreign restore,
      // then level steps (confirms and rebases), then another long
      // stationary stretch.
      const size_t long_run = 2 * BocpdDetector::kAlphaTableEntries;
      const size_t restore_at = long_run;
      const size_t steps_end = long_run + 200;
      const size_t total = steps_end + long_run;
      uint64_t oracle_shifts = 0;
      for (size_t step = 0; step < total; ++step) {
        const std::string where = "prior " + std::to_string(priors[p]) +
                                  " seed " + std::to_string(seed) + " step " +
                                  std::to_string(step);
        if (step == restore_at) {
          long_run_fallbacks += oracle.table_fallbacks();
          const BocpdState state = foreign.SaveState();
          ASSERT_TRUE(detector.RestoreState(state).ok()) << where;
          oracle.RestoreState(state);
          oracle_shifts = state.shifts_confirmed;
        }
        if (step >= restore_at && step < steps_end && step % 50 == 0) {
          level += 10.0 * sigma;
        }
        const double value = level + rng.Gaussian(0.0, sigma);
        (void)foreign.Push(value + 3.0 * sigma);
        const std::optional<BocpdShift> got = detector.Push(value);
        const std::optional<BocpdShift> want = oracle.Push(value);
        ExpectSameShift(got, want, where);
        if (want.has_value()) ++oracle_shifts;
        EXPECT_EQ(Bits(detector.shift_mass()), Bits(oracle.shift_mass()))
            << where;
        if (::testing::Test::HasFailure()) return;
      }
      ExpectSameState(detector.SaveState(), oracle.SaveState(oracle_shifts),
                      "end");
      if (::testing::Test::HasFailure()) return;
      hits += oracle.table_hits();
      fallbacks += oracle.table_fallbacks();
      shifts += oracle_shifts;
    }
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(long_run_fallbacks, 0u);
  EXPECT_GT(fallbacks, long_run_fallbacks);
  EXPECT_GT(shifts, 0u);
}

}  // namespace
}  // namespace hod::core
