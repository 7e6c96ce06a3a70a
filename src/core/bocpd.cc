#include "core/bocpd.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

namespace hod::core {

namespace {

constexpr double kSigmaFloor = 1e-9;

/// Buckets per pass of the grow step: its per-bucket scratch lives on the
/// stack, so a posterior longer than this is grown in several blocks.
constexpr size_t kGrowBlock = 64;

/// Log-gamma without the libm `signgam` global: `std::lgamma` stores the
/// sign there, which is a data race when shard workers score concurrently.
/// Arguments here are always positive, so the sign output is discarded.
double LogGamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__) || defined(_GNU_SOURCE)
  int sign = 0;
  return lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

/// The alpha-only prefix of a bucket's Student-t log-density (the
/// Normal-Gamma posterior predictive, df = 2 * alpha):
/// LogGamma((df + 1) / 2) - LogGamma(df / 2) - 0.5 * log(df * pi), in the
/// operation order of the full log-density it starts.
double PredictivePrefix(double alpha) {
  const double df = 2.0 * alpha;
  return LogGamma((df + 1.0) * 0.5) - LogGamma(df * 0.5) -
         0.5 * std::log(df * M_PI);
}

bool FinitePositive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

/// PredictivePrefix on the grid alpha_m = alpha_{m-1} + 0.5 from one
/// prior alpha. The grid is built with the same addition a bucket's grow
/// step makes, so a bucket's alpha either equals a grid value exactly and
/// takes its prefix, or it computes the prefix itself; both give the same
/// bits.
struct BocpdDetector::AlphaTable {
  std::array<double, kAlphaTableEntries> alpha;
  std::array<double, kAlphaTableEntries> prefix;

  explicit AlphaTable(double prior_alpha) {
    double a = prior_alpha;
    for (size_t m = 0; m < kAlphaTableEntries; ++m) {
      alpha[m] = a;
      prefix[m] = PredictivePrefix(a);
      a = a + 0.5;
    }
  }

  double Prefix(double a) const {
    // Nearest grid index, range-checked before the cast (NaN fails too).
    const double position = (a - alpha[0]) * 2.0 + 0.5;
    if (position >= 0.0 &&
        position < static_cast<double>(kAlphaTableEntries)) {
      const size_t m = static_cast<size_t>(position);
      if (alpha[m] == a) return prefix[m];
    }
    return PredictivePrefix(a);
  }

  /// The table for `prior_alpha`, built on first use and kept for the
  /// life of the process (one per distinct prior).
  static const AlphaTable* Shared(double prior_alpha) {
    static std::mutex mu;
    // Never destroyed: a detector still pushing during static destruction
    // (a pool thread at exit) keeps a valid table.
    static auto* tables =
        new std::map<uint64_t, std::unique_ptr<const AlphaTable>>();
    std::lock_guard<std::mutex> lock(mu);
    std::unique_ptr<const AlphaTable>& table =
        (*tables)[std::bit_cast<uint64_t>(prior_alpha)];
    if (!table) table = std::make_unique<AlphaTable>(prior_alpha);
    return table.get();
  }
};

BocpdDetector::BocpdDetector(BocpdOptions options) : options_(options) {
  if (!(options_.hazard_lambda > 1.0)) options_.hazard_lambda = 250.0;
  if (options_.max_run_length < 8) options_.max_run_length = 8;
  if (options_.min_run_for_shift < 1) options_.min_run_for_shift = 1;
  if (options_.min_run_for_shift >= options_.max_run_length) {
    options_.min_run_for_shift = options_.max_run_length / 2;
  }
  if (!(options_.shift_posterior > 0.0 && options_.shift_posterior <= 1.0)) {
    options_.shift_posterior = 0.8;
  }
  if (!FinitePositive(options_.prior_kappa)) options_.prior_kappa = 1.0;
  if (!FinitePositive(options_.prior_alpha)) options_.prior_alpha = 1.0;
  if (!FinitePositive(options_.prior_beta)) options_.prior_beta = 1.0;
  alpha_table_ = AlphaTable::Shared(options_.prior_alpha);
  const size_t cap = options_.max_run_length + 2;
  weight_.resize(cap);
  mu_.resize(cap);
  kappa_.resize(cap);
  alpha_.resize(cap);
  beta_.resize(cap);
  run_length_.resize(cap);
}

void BocpdDetector::Rebase(double mean, double kappa, double alpha,
                           double beta, uint64_t run_length) {
  buckets_ = 1;
  weight_[0] = 1.0;
  mu_[0] = mean;
  kappa_[0] = kappa;
  alpha_[0] = alpha;
  beta_[0] = beta;
  run_length_[0] = run_length;
}

std::optional<BocpdShift> BocpdDetector::Push(double value) {
  if (!std::isfinite(value)) return std::nullopt;
  if (!prior_seeded_) {
    // Empirical prior: center the Normal-Gamma on the first sample so
    // absolute data scale (a channel living at 100.0) does not read as a
    // permanent changepoint against a fixed mu0 = 0.
    prior_seeded_ = true;
    prior_mean_ = value;
    Rebase(prior_mean_, options_.prior_kappa, options_.prior_alpha,
           options_.prior_beta, 0);
  }
  ++samples_seen_;

  // Growth, in place: bucket i absorbs the sample and moves to slot
  // i + 1, and its mass (weight times the Student-t predictive) stays in
  // slot i until the sums below. Each block of buckets runs as passes:
  // the alpha-table prefix (read before the grow pass overwrites alpha),
  // the IEEE arithmetic, then one tight loop per libm call. The grow pass
  // walks down, reading each bucket before the one below grows into its
  // slot; blocks go from the top down for the same reason.
  const size_t n = buckets_;
  for (size_t hi = n; hi > 0;) {
    const size_t lo = hi > kGrowBlock ? hi - kGrowBlock : 0;
    const size_t count = hi - lo;
    double prefix[kGrowBlock];
    double scale[kGrowBlock];
    double ratio[kGrowBlock];
    double half[kGrowBlock];
    for (size_t j = 0; j < count; ++j) {
      prefix[j] = alpha_table_->Prefix(alpha_[lo + j]);
    }
    for (size_t j = count; j-- > 0;) {
      const size_t i = lo + j;
      const double mu = mu_[i];
      const double kappa = kappa_[i];
      const double alpha = alpha_[i];
      const double beta = beta_[i];
      scale[j] = std::sqrt(std::max(beta * (kappa + 1.0) / (alpha * kappa),
                                    kSigmaFloor * kSigmaFloor));
      const double df = 2.0 * alpha;
      const double z = (value - mu) / scale[j];
      ratio[j] = z * z / df;
      half[j] = (df + 1.0) * 0.5;
      mu_[i + 1] = (kappa * mu + value) / (kappa + 1.0);
      kappa_[i + 1] = kappa + 1.0;
      alpha_[i + 1] = alpha + 0.5;
      beta_[i + 1] =
          beta + kappa * (value - mu) * (value - mu) / (2.0 * (kappa + 1.0));
    }
    for (size_t j = 0; j < count; ++j) scale[j] = std::log(scale[j]);
    for (size_t j = 0; j < count; ++j) ratio[j] = std::log1p(ratio[j]);
    for (size_t j = 0; j < count; ++j) {
      weight_[lo + j] *= std::exp(prefix[j] - scale[j] - half[j] * ratio[j]);
    }
    hi = lo;
  }
  for (size_t i = n; i-- > 0;) run_length_[i + 1] = run_length_[i] + 1;

  // Each growth keeps (1 - hazard) of its mass; the changepoint slot
  // r = 0 (prior stats) collects the rest. Both sums run in bucket order,
  // shortest run first: floating-point addition is not associative, and
  // this order keeps the posterior bit-identical to the two-array form.
  const double hazard = 1.0 / options_.hazard_lambda;
  double normalizer = 0.0;
  double changepoint = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double mass = weight_[i];
    changepoint += mass * hazard;
    normalizer += mass;
  }

  if (!(normalizer > 0.0) || !std::isfinite(normalizer)) {
    // Every predictive underflowed (a sample absurdly far from every
    // regime). Restart the posterior at the observed value — the only
    // deterministic recovery that keeps scoring meaningful.
    Rebase(value, options_.prior_kappa, options_.prior_alpha,
           options_.prior_beta, 0);
  } else {
    for (size_t i = n; i-- > 0;) {
      weight_[i + 1] = weight_[i] * (1.0 - hazard) / normalizer;
    }
    weight_[0] = changepoint / normalizer;
    mu_[0] = prior_mean_;
    kappa_[0] = options_.prior_kappa;
    alpha_[0] = options_.prior_alpha;
    beta_[0] = options_.prior_beta;
    run_length_[0] = 0;
    buckets_ = n + 1;
    // Constant-memory truncation: merge the two longest-run buckets
    // (weights add, the longer run's statistics win — they summarize
    // strictly more data).
    for (; buckets_ > options_.max_run_length; --buckets_) {
      const size_t last = buckets_ - 1;
      weight_[last - 1] += weight_[last];
      mu_[last - 1] = mu_[last];
      kappa_[last - 1] = kappa_[last];
      alpha_[last - 1] = alpha_[last];
      beta_[last - 1] = beta_[last];
      run_length_[last - 1] = run_length_[last];
    }
  }

  // One walk for the overall MAP bucket and the posterior mass on "a
  // changepoint happened recently" (runs <= min_run_for_shift, with the
  // MAP bucket among recent runs >= 1).
  size_t map_idx = 0;
  double recent_mass = 0.0;
  size_t best_recent = 0;
  bool have_recent = false;
  for (size_t i = 0; i < buckets_; ++i) {
    const double w = weight_[i];
    if (w > weight_[map_idx]) map_idx = i;
    if (run_length_[i] <= options_.min_run_for_shift) {
      recent_mass += w;
      if (run_length_[i] >= 1 && (!have_recent || w > weight_[best_recent])) {
        best_recent = i;
        have_recent = true;
      }
    }
  }

  // Track the last established regime: the overall MAP bucket, when its
  // run is long enough to count as "settled". This is the `before` side
  // of any future confirmed shift.
  if (run_length_[map_idx] >= 2 * options_.min_run_for_shift) {
    stable_mean_ = mu_[map_idx];
    stable_sigma_ = std::max(std::sqrt(beta_[map_idx] / alpha_[map_idx]),
                             kSigmaFloor);
    stable_support_ = run_length_[map_idx];
  }

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return std::nullopt;
  }
  if (samples_seen_ <= options_.warmup || stable_support_ == 0) {
    return std::nullopt;
  }
  if (recent_mass < options_.shift_posterior || !have_recent) {
    return std::nullopt;
  }

  const double after_mean = mu_[best_recent];
  const double after_sigma = std::max(
      std::sqrt(beta_[best_recent] / alpha_[best_recent]), kSigmaFloor);
  const double magnitude =
      std::abs(after_mean - stable_mean_) / stable_sigma_;
  if (magnitude < options_.min_magnitude_sigmas) {
    // The posterior says "recent changepoint" but the level barely
    // moved — setpoint jitter or variance churn. Skip exactly one sample
    // before re-evaluating: a longer penalty (e.g. min_run_for_shift)
    // blanks out precisely the window in which a steep ramp crosses the
    // magnitude gate, leaving ramped shifts permanently unconfirmable.
    cooldown_left_ = 1;
    return std::nullopt;
  }

  BocpdShift confirmed;
  confirmed.shift.index = static_cast<size_t>(samples_seen_);
  confirmed.shift.time = 0.0;  // stamped by the caller
  confirmed.shift.before_mean = stable_mean_;
  confirmed.shift.after_mean = after_mean;
  confirmed.shift.magnitude_sigmas = magnitude;
  confirmed.after_sigma = after_sigma;
  confirmed.run_length = static_cast<size_t>(run_length_[best_recent]);
  confirmed.evidence = recent_mass;

  // Exactly-once: collapse onto the confirmed post-shift regime and hold
  // off until it has had time to establish itself.
  Rebase(mu_[best_recent], kappa_[best_recent], alpha_[best_recent],
         beta_[best_recent], run_length_[best_recent]);
  stable_mean_ = after_mean;
  stable_sigma_ = after_sigma;
  stable_support_ = run_length_[0];
  cooldown_left_ = options_.cooldown;
  ++shifts_confirmed_;
  return confirmed;
}

double BocpdDetector::shift_mass() const {
  double mass = 0.0;
  for (size_t i = 0; i < buckets_; ++i) {
    if (run_length_[i] <= options_.min_run_for_shift) mass += weight_[i];
  }
  return mass;
}

size_t BocpdDetector::map_run_length() const {
  if (buckets_ == 0) return 0;
  size_t map_idx = 0;
  for (size_t i = 1; i < buckets_; ++i) {
    if (weight_[i] > weight_[map_idx]) map_idx = i;
  }
  return static_cast<size_t>(run_length_[map_idx]);
}

BocpdState BocpdDetector::SaveState() const {
  BocpdState state;
  state.weight.assign(weight_.begin(), weight_.begin() + buckets_);
  state.mu.assign(mu_.begin(), mu_.begin() + buckets_);
  state.kappa.assign(kappa_.begin(), kappa_.begin() + buckets_);
  state.alpha.assign(alpha_.begin(), alpha_.begin() + buckets_);
  state.beta.assign(beta_.begin(), beta_.begin() + buckets_);
  state.run_length.assign(run_length_.begin(),
                          run_length_.begin() + buckets_);
  state.samples_seen = samples_seen_;
  state.shifts_confirmed = shifts_confirmed_;
  state.cooldown_left = cooldown_left_;
  state.prior_seeded = prior_seeded_;
  state.prior_mean = prior_mean_;
  state.stable_mean = stable_mean_;
  state.stable_sigma = stable_sigma_;
  state.stable_support = stable_support_;
  return state;
}

Status BocpdDetector::RestoreState(const BocpdState& state) {
  const size_t n = state.weight.size();
  if (state.mu.size() != n || state.kappa.size() != n ||
      state.alpha.size() != n || state.beta.size() != n ||
      state.run_length.size() != n) {
    return Status::InvalidArgument("bocpd state: bucket array length skew");
  }
  if (state.prior_seeded && n == 0) {
    return Status::InvalidArgument("bocpd state: seeded but no buckets");
  }
  if (n > options_.max_run_length + 1) {
    return Status::InvalidArgument("bocpd state: more buckets than cap");
  }
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(state.weight[i]) || state.weight[i] < 0.0 ||
        !std::isfinite(state.mu[i]) || !FinitePositive(state.kappa[i]) ||
        !FinitePositive(state.alpha[i]) || !FinitePositive(state.beta[i])) {
      return Status::InvalidArgument("bocpd state: non-finite bucket");
    }
    sum += state.weight[i];
  }
  if (n > 0 && !(sum > 0.0)) {
    return Status::InvalidArgument("bocpd state: zero posterior mass");
  }
  if (!std::isfinite(state.prior_mean) || !std::isfinite(state.stable_mean) ||
      !FinitePositive(state.stable_sigma)) {
    return Status::InvalidArgument("bocpd state: non-finite regime");
  }
  // Installed verbatim, so a restore is byte-identical to the saved
  // state; the next Push normalizes whatever mass it finds.
  buckets_ = n;
  std::copy(state.weight.begin(), state.weight.end(), weight_.begin());
  std::copy(state.mu.begin(), state.mu.end(), mu_.begin());
  std::copy(state.kappa.begin(), state.kappa.end(), kappa_.begin());
  std::copy(state.alpha.begin(), state.alpha.end(), alpha_.begin());
  std::copy(state.beta.begin(), state.beta.end(), beta_.begin());
  std::copy(state.run_length.begin(), state.run_length.end(),
            run_length_.begin());
  samples_seen_ = state.samples_seen;
  shifts_confirmed_ = state.shifts_confirmed;
  cooldown_left_ = state.cooldown_left;
  prior_seeded_ = state.prior_seeded;
  prior_mean_ = state.prior_mean;
  stable_mean_ = state.stable_mean;
  stable_sigma_ = std::max(state.stable_sigma, kSigmaFloor);
  stable_support_ = state.stable_support;
  return Status::Ok();
}

}  // namespace hod::core
