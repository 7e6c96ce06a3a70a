#include "core/bocpd.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hod::core {

namespace {

constexpr double kSigmaFloor = 1e-9;

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

/// Student-t density with `df` degrees of freedom, location `mean`,
/// scale `scale` — the Normal-Gamma posterior predictive. The caller
/// supplies `log_gamma_upper` = LogGamma((df + 1) / 2) and
/// `log_gamma_lower` = LogGamma(df / 2).
double StudentTPdf(double x, double df, double mean, double scale,
                   double log_gamma_upper, double log_gamma_lower) {
  const double z = (x - mean) / scale;
  const double log_pdf = log_gamma_upper - log_gamma_lower -
                         0.5 * std::log(df * M_PI) - std::log(scale) -
                         (df + 1.0) * 0.5 * std::log1p(z * z / df);
  return std::exp(log_pdf);
}

bool FinitePositive(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

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
  // A restored posterior may hold max_run_length + 1 buckets, and a step
  // grows it by one before truncating.
  const size_t cap = options_.max_run_length + 2;
  weight_.reserve(cap);
  mu_.reserve(cap);
  kappa_.reserve(cap);
  alpha_.reserve(cap);
  beta_.reserve(cap);
  run_length_.reserve(cap);
  log_gamma_alpha_.reserve(cap);
}

void BocpdDetector::Rebase(double mean, double kappa, double alpha,
                           double beta, uint64_t run_length,
                           double log_gamma_alpha) {
  weight_.assign(1, 1.0);
  mu_.assign(1, mean);
  kappa_.assign(1, kappa);
  alpha_.assign(1, alpha);
  beta_.assign(1, beta);
  run_length_.assign(1, run_length);
  log_gamma_alpha_.assign(1, log_gamma_alpha);
}

void BocpdDetector::ResizeBuckets(size_t n) {
  weight_.resize(n);
  mu_.resize(n);
  kappa_.resize(n);
  alpha_.resize(n);
  beta_.resize(n);
  run_length_.resize(n);
  log_gamma_alpha_.resize(n);
}

std::optional<BocpdShift> BocpdDetector::Push(double value) {
  if (!std::isfinite(value)) return std::nullopt;
  if (!log_gamma_ready_) {
    log_gamma_prior_alpha_ = LogGamma(options_.prior_alpha);
    log_gamma_alpha_.resize(alpha_.size());
    for (size_t i = 0; i < alpha_.size(); ++i) {
      log_gamma_alpha_[i] = LogGamma(alpha_[i]);
    }
    log_gamma_ready_ = true;
  }
  if (!prior_seeded_) {
    // Empirical prior: center the Normal-Gamma on the first sample so
    // absolute data scale (a channel living at 100.0) does not read as a
    // permanent changepoint against a fixed mu0 = 0.
    prior_seeded_ = true;
    prior_mean_ = value;
    Rebase(prior_mean_, options_.prior_kappa, options_.prior_alpha,
           options_.prior_beta, 0, log_gamma_prior_alpha_);
  }
  ++samples_seen_;

  const double hazard = 1.0 / options_.hazard_lambda;
  const size_t n = weight_.size();
  ResizeBuckets(n + 1);
  // Growth, in place: bucket i absorbs the sample and moves to slot i + 1.
  // Walking downward reads each bucket before its slot is overwritten;
  // slot i + 1 holds bucket i's unnormalized mass until the sums below.
  // The predictive's LogGamma((df + 1) / 2) is exactly LogGamma(alpha +
  // 0.5), the grown bucket's LogGamma(df / 2) on the next step, so it is
  // carried along instead of recomputed.
  for (size_t i = n; i-- > 0;) {
    const double mu = mu_[i];
    const double kappa = kappa_[i];
    const double alpha = alpha_[i];
    const double beta = beta_[i];
    const double scale = std::sqrt(
        std::max(beta * (kappa + 1.0) / (alpha * kappa),
                 kSigmaFloor * kSigmaFloor));
    const double df = 2.0 * alpha;
    const double log_gamma_upper = LogGamma((df + 1.0) * 0.5);
    const double pred = StudentTPdf(value, df, mu, scale, log_gamma_upper,
                                    log_gamma_alpha_[i]);
    weight_[i + 1] = weight_[i] * pred;
    mu_[i + 1] = (kappa * mu + value) / (kappa + 1.0);
    kappa_[i + 1] = kappa + 1.0;
    alpha_[i + 1] = alpha + 0.5;
    beta_[i + 1] =
        beta + kappa * (value - mu) * (value - mu) / (2.0 * (kappa + 1.0));
    run_length_[i + 1] = run_length_[i] + 1;
    log_gamma_alpha_[i + 1] = log_gamma_upper;
  }
  // Each growth keeps (1 - hazard) of its mass; the changepoint slot
  // r = 0 (prior stats) collects the rest. Both sums run oldest bucket
  // first: floating-point addition is not associative, and this order
  // is what keeps the posterior bit-identical to the two-array form.
  double normalizer = 0.0;
  double changepoint = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    const double mass = weight_[i];
    weight_[i] = mass * (1.0 - hazard);
    changepoint += mass * hazard;
    normalizer += mass;
  }
  weight_[0] = changepoint;
  mu_[0] = prior_mean_;
  kappa_[0] = options_.prior_kappa;
  alpha_[0] = options_.prior_alpha;
  beta_[0] = options_.prior_beta;
  run_length_[0] = 0;
  log_gamma_alpha_[0] = log_gamma_prior_alpha_;

  if (!(normalizer > 0.0) || !std::isfinite(normalizer)) {
    // Every predictive underflowed (a sample absurdly far from every
    // regime). Restart the posterior at the observed value — the only
    // deterministic recovery that keeps scoring meaningful.
    Rebase(value, options_.prior_kappa, options_.prior_alpha,
           options_.prior_beta, 0, log_gamma_prior_alpha_);
  } else {
    for (auto& w : weight_) w /= normalizer;
    // Constant-memory truncation: merge the two longest-run buckets
    // (weights add, the longer run's statistics win — they summarize
    // strictly more data).
    if (weight_.size() > options_.max_run_length) {
      for (size_t last = weight_.size() - 1;
           last >= options_.max_run_length; --last) {
        weight_[last - 1] += weight_[last];
        mu_[last - 1] = mu_[last];
        kappa_[last - 1] = kappa_[last];
        alpha_[last - 1] = alpha_[last];
        beta_[last - 1] = beta_[last];
        run_length_[last - 1] = run_length_[last];
        log_gamma_alpha_[last - 1] = log_gamma_alpha_[last];
      }
      ResizeBuckets(options_.max_run_length);
    }
  }

  // Track the last established regime: the overall MAP bucket, when its
  // run is long enough to count as "settled". This is the `before` side
  // of any future confirmed shift.
  size_t map_idx = 0;
  for (size_t i = 1; i < weight_.size(); ++i) {
    if (weight_[i] > weight_[map_idx]) map_idx = i;
  }
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

  // Posterior mass on "a changepoint happened recently".
  double recent_mass = 0.0;
  size_t best_recent = 0;  // MAP bucket among recent runs >= 1
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
         beta_[best_recent], run_length_[best_recent],
         log_gamma_alpha_[best_recent]);
  stable_mean_ = after_mean;
  stable_sigma_ = after_sigma;
  stable_support_ = run_length_[0];
  cooldown_left_ = options_.cooldown;
  ++shifts_confirmed_;
  return confirmed;
}

double BocpdDetector::shift_mass() const {
  double mass = 0.0;
  for (size_t i = 0; i < weight_.size(); ++i) {
    if (run_length_[i] <= options_.min_run_for_shift) mass += weight_[i];
  }
  return mass;
}

size_t BocpdDetector::map_run_length() const {
  if (weight_.empty()) return 0;
  size_t map_idx = 0;
  for (size_t i = 1; i < weight_.size(); ++i) {
    if (weight_[i] > weight_[map_idx]) map_idx = i;
  }
  return static_cast<size_t>(run_length_[map_idx]);
}

BocpdState BocpdDetector::SaveState() const {
  BocpdState state;
  state.weight = weight_;
  state.mu = mu_;
  state.kappa = kappa_;
  state.alpha = alpha_;
  state.beta = beta_;
  state.run_length = run_length_;
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
  weight_ = state.weight;
  for (auto& w : weight_) w /= (n > 0 ? sum : 1.0);
  mu_ = state.mu;
  kappa_ = state.kappa;
  alpha_ = state.alpha;
  beta_ = state.beta;
  run_length_ = state.run_length;
  samples_seen_ = state.samples_seen;
  shifts_confirmed_ = state.shifts_confirmed;
  cooldown_left_ = state.cooldown_left;
  prior_seeded_ = state.prior_seeded;
  prior_mean_ = state.prior_mean;
  stable_mean_ = state.stable_mean;
  stable_sigma_ = std::max(state.stable_sigma, kSigmaFloor);
  stable_support_ = state.stable_support;
  // The log-gamma cache is refilled by the next Push: a restore that is
  // never fed (a fleet restart's idle lanes) costs no lgamma call.
  log_gamma_ready_ = false;
  return Status::Ok();
}

}  // namespace hod::core
