#ifndef HOD_CORE_BOCPD_H_
#define HOD_CORE_BOCPD_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/concept_shift.h"
#include "util/status.h"

namespace hod::core {

/// Tuning for the Bayesian online changepoint detector (Adams & MacKay
/// 2007) with a Normal-Gamma conjugate observation model. Defaults are
/// sized for per-sensor streaming: ~3.4 KiB of state, O(max_run_length)
/// work per sample, no allocation after construction.
struct BocpdOptions {
  /// Expected run length between changepoints; hazard = 1/lambda per
  /// step (geometric prior).
  double hazard_lambda = 250.0;
  /// Run-length posterior truncation: buckets beyond this merge into the
  /// oldest bucket (weights add, longest-run stats kept), keeping memory
  /// and per-sample cost constant.
  size_t max_run_length = 64;
  /// Samples to observe before any shift may confirm — the posterior
  /// needs an established pre-regime to compare against.
  uint64_t warmup = 32;
  /// A shift confirms only once the posterior concentrates on run
  /// lengths <= this (the "recent changepoint" region).
  size_t min_run_for_shift = 8;
  /// Posterior mass required on that region to confirm.
  double shift_posterior = 0.8;
  /// Level change, in pre-shift sigmas, below which a shift is ignored
  /// (setpoint jitter, not a regime change).
  double min_magnitude_sigmas = 3.0;
  /// Samples after a confirmed shift during which no new shift may
  /// confirm (the fresh posterior needs to re-establish a regime).
  uint64_t cooldown = 64;
  /// Normal-Gamma prior: mu ~ N(prior_mean, 1/(kappa*tau)),
  /// tau ~ Gamma(alpha, beta). `prior_mean` is overridden by the first
  /// observed sample (empirical seeding) so absolute data scale does not
  /// bias changepoint probabilities.
  double prior_kappa = 1.0;
  double prior_alpha = 1.0;
  double prior_beta = 1.0;
  double prior_mean = 0.0;
};

/// A confirmed online changepoint: the batch-pass `ConceptShift` record
/// plus the run-length evidence only the online posterior can provide.
struct BocpdShift {
  /// index = samples seen when confirmed; before/after level estimates
  /// and magnitude in pre-shift sigmas.
  ConceptShift shift;
  /// Residual scale of the post-shift regime (Normal-Gamma posterior
  /// sqrt(beta/alpha) of the winning recent bucket).
  double after_sigma = 1.0;
  /// MAP run length at confirmation — samples since the changepoint.
  size_t run_length = 0;
  /// Posterior mass on run lengths <= min_run_for_shift at confirmation.
  double evidence = 0.0;
};

/// Checkpointable detector state (format unit for engine checkpoint v5).
/// All vectors share one length (the live bucket count).
struct BocpdState {
  std::vector<double> weight;
  std::vector<double> mu;
  std::vector<double> kappa;
  std::vector<double> alpha;
  std::vector<double> beta;
  /// Run length of bucket 0 (buckets are contiguous: bucket i has run
  /// length base_run + i... except bucket 0 which is always the r=0
  /// "changepoint just happened" bucket; see implementation notes).
  std::vector<uint64_t> run_length;
  uint64_t samples_seen = 0;
  uint64_t shifts_confirmed = 0;
  uint64_t cooldown_left = 0;
  bool prior_seeded = false;
  double prior_mean = 0.0;
  double stable_mean = 0.0;
  double stable_sigma = 1.0;
  uint64_t stable_support = 0;
};

/// Bayesian online changepoint detection over one scalar channel.
///
/// Each accepted sample updates a truncated run-length posterior: bucket
/// r carries the probability that the current regime started r samples
/// ago, together with the Normal-Gamma sufficient statistics of the
/// samples it spans. The predictive for each bucket is a Student-t; a
/// geometric hazard moves mass to r=0. When the posterior concentrates
/// on short run lengths AND the implied level change clears the
/// magnitude gate, `Push` returns a confirmed `BocpdShift` exactly once
/// and the posterior collapses onto the post-shift regime (auto-rebase +
/// cooldown), so a single physical setpoint change can never confirm
/// twice.
///
/// Deterministic: double arithmetic only, identical results for
/// identical sample sequences on any thread/backend.
class BocpdDetector {
 public:
  /// Grid points in the shared per-prior alpha table: alpha_0 =
  /// prior_alpha and alpha_m = alpha_{m-1} + 0.5, the alphas a bucket
  /// reaches m samples after the prior. A bucket whose alpha is off the
  /// grid (a restored foreign state, or the merged oldest bucket after
  /// this many samples without a rebase) computes its log-gamma terms
  /// directly, with the same result.
  static constexpr size_t kAlphaTableEntries = 256;

  explicit BocpdDetector(BocpdOptions options = {});

  /// Feeds one sample; returns the confirmed shift, if this sample
  /// confirmed one.
  std::optional<BocpdShift> Push(double value);

  /// Probability mass currently on run lengths <= min_run_for_shift.
  double shift_mass() const;
  /// MAP run length of the posterior.
  size_t map_run_length() const;
  uint64_t samples_seen() const { return samples_seen_; }
  uint64_t shifts_confirmed() const { return shifts_confirmed_; }
  const BocpdOptions& options() const { return options_; }

  BocpdState SaveState() const;
  /// Restores a saved posterior verbatim (the next Push normalizes it).
  /// Rejects malformed states (length mismatches, non-finite or
  /// non-positive weights/parameters, zero total mass).
  Status RestoreState(const BocpdState& state);

 private:
  struct AlphaTable;

  /// Collapses the posterior to a single bucket at the given regime
  /// (used on confirm; also the seeded-restart primitive).
  void Rebase(double mean, double kappa, double alpha, double beta,
              uint64_t run_length);

  BocpdOptions options_;
  // Immutable, shared by every detector with this prior_alpha.
  const AlphaTable* alpha_table_ = nullptr;
  // Parallel bucket arrays, sized once at construction to
  // `max_run_length + 2` (a restored posterior may hold max_run_length + 1,
  // and a step grows it by one before truncating); buckets 0 .. buckets_-1
  // are live and weight_ sums to 1 after every Push.
  size_t buckets_ = 0;
  std::vector<double> weight_;
  std::vector<double> mu_;
  std::vector<double> kappa_;
  std::vector<double> alpha_;
  std::vector<double> beta_;
  std::vector<uint64_t> run_length_;

  uint64_t samples_seen_ = 0;
  uint64_t shifts_confirmed_ = 0;
  uint64_t cooldown_left_ = 0;
  bool prior_seeded_ = false;
  double prior_mean_ = 0.0;
  // Last established regime (MAP bucket with a long run): the "before"
  // side of a confirmed shift.
  double stable_mean_ = 0.0;
  double stable_sigma_ = 1.0;
  uint64_t stable_support_ = 0;
};

}  // namespace hod::core

#endif  // HOD_CORE_BOCPD_H_
