// Parallel Monte Carlo validation of the reliability analysis (paper
// Proposition 1).
//
// The analysis promises that the SRG lambda_c lower-bounds, with
// probability 1, the long-run average of the reliability-abstract trace of
// every communicator c. MonteCarloRunner turns the simulator into a
// statistical check of that claim at scale: it fans N independent
// fault-injected simulations across a thread pool, pools the
// per-communicator update outcomes into an empirical reliability with a
// Wilson confidence interval, and cross-checks the interval against the
// analytic lambda_c and the declared LRC mu_c:
//   * interval entirely below lambda_c  => the analysis over-promised —
//     Proposition 1 (or the simulator) has a bug;
//   * interval entirely below mu_c      => the implementation misses its
//     logical reliability constraint in practice.
//
// Determinism: trial k draws its RNG seed from a SplitMix64 stream over
// the base seed, and all reductions run sequentially in trial order after
// the pool drains, so the aggregate statistics are bit-identical for every
// thread count (MIMOS-style: deterministic per trial, parallel across
// trials).
#ifndef LRT_SIM_MONTE_CARLO_H_
#define LRT_SIM_MONTE_CARLO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "impl/implementation.h"
#include "sim/environment.h"
#include "sim/runtime.h"
#include "sim/trace.h"
#include "support/rng.h"
#include "support/status.h"

namespace lrt::sim {

struct MonteCarloOptions {
  /// Per-trial simulation configuration. faults.seed is ignored — every
  /// trial's seed is derived from `seed` instead.
  SimulationOptions simulation;
  std::int64_t trials = 100;
  /// Base seed of the per-trial SplitMix64 seed stream (the shared `seed`
  /// field name across all entry-point options).
  std::uint64_t seed = kDefaultRngSeed;
  /// Total parallelism including the calling thread; 0 = one per core.
  /// This pool is the only parallelism in a campaign: each trial's
  /// simulation runs sequentially on its worker thread.
  unsigned threads = 0;
  /// Observability sink for campaign counters ("sim.trials", failure
  /// causes) and per-trial spans/timing histograms. Null falls back to
  /// the process-global sink; also inherited by simulation.sink when that
  /// is null, so per-run runtime counters pool across trials.
  obs::Sink* sink = nullptr;
  /// z-score of the per-communicator Wilson interval (2.576 ~ 99%).
  double z = 2.576;
  /// Builds the environment for one trial; called once per trial, from the
  /// trial's worker thread. Null = a fresh NullEnvironment per trial.
  std::function<std::unique_ptr<Environment>()> environment_factory;
  /// Builds the RuntimeMonitor for one trial (e.g. an adapt self-healing
  /// controller); called once per trial, from the trial's worker thread,
  /// and installed as that trial's SimulationOptions::monitor. The caller
  /// owns the returned monitor and must keep it alive until run() returns
  /// (the recovery validator keeps one per trial to reduce afterwards).
  /// Null factory or null return = no monitor for that trial.
  std::function<RuntimeMonitor*(std::int64_t trial)> monitor_factory;
};

/// Pooled per-communicator statistics across all trials.
struct CommAggregate {
  std::string name;
  /// Update events pooled over every trial (the paper's natural empirical
  /// estimate of the SRG).
  std::int64_t updates = 0;
  std::int64_t reliable_updates = 0;
  /// reliable_updates / updates (1.0 when no updates occurred).
  double empirical = 1.0;
  /// Wilson interval on the pooled update reliability.
  ConfidenceInterval interval;
  /// Mean and sample standard deviation over trials of the per-trial
  /// limit average of the reliability-abstract trace.
  double mean_limit_average = 1.0;
  double stddev_limit_average = 0.0;
  /// Extremes of the per-trial update reliabilities.
  double min_trial_rate = 1.0;
  double max_trial_rate = 1.0;
  /// The analytic guarantee lambda_c and the declared constraint mu_c.
  double analytic_srg = 1.0;
  double lrc = 1.0;
  /// False iff interval.high < analytic_srg: the empirical reliability is
  /// statistically below the analysis' lower bound — an unsoundness bug.
  bool analysis_sound = true;
  /// False iff interval.high < lrc: the communicator demonstrably misses
  /// its LRC over the long run.
  bool meets_lrc = true;
};

/// Aggregate of a whole Monte Carlo campaign, with the analytic
/// cross-check verdicts.
struct ValidationReport {
  std::string implementation;
  std::int64_t trials = 0;
  std::uint64_t seed = 0;
  unsigned threads = 0;  ///< resolved parallelism actually used
  std::int64_t periods_per_trial = 0;
  double z = 2.576;
  double elapsed_seconds = 0.0;
  double trials_per_second = 0.0;
  /// Trials whose simulate() returned an error. Aggregates pool over the
  /// survivors only; the campaign itself fails only when every trial dies.
  std::int64_t failed_trials = 0;
  /// Error of the lowest-numbered failed trial ("" when none failed).
  std::string first_trial_error;
  /// Counters summed over all surviving trials.
  std::int64_t invocations = 0;
  std::int64_t invocation_failures = 0;
  std::int64_t committed_updates = 0;
  std::int64_t vote_divergences = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t remaps_installed = 0;
  /// Conjunction of the per-communicator verdicts.
  bool analysis_sound = true;
  bool implementation_reliable = true;
  std::vector<CommAggregate> communicators;  ///< indexed by CommId

  [[nodiscard]] const CommAggregate* find(std::string_view name) const;
  /// Multi-line per-communicator table (empirical vs lambda_c vs mu_c).
  [[nodiscard]] std::string summary() const;
};

/// JSON document for tooling and CI artifacts: {implementation, trials,
/// seed, ..., communicators: [{name, updates, reliable_updates,
/// empirical, ci_low, ci_high, mean_limit_average, analytic_srg, lrc,
/// analysis_sound, meets_lrc}]}. Timing fields are included (elapsed
/// seconds, trials/s) — strip them before byte-comparing reports.
[[nodiscard]] std::string to_json(const ValidationReport& report);

/// Runs Monte Carlo campaigns over one implementation. The referenced
/// options (and any environment_factory state) must outlive the runner.
class MonteCarloRunner {
 public:
  explicit MonteCarloRunner(MonteCarloOptions options);

  /// Simulates options.trials independent trials of `impl` and aggregates.
  /// Individual trial errors degrade gracefully: they are counted in the
  /// report (failed_trials, first_trial_error) and the statistics pool
  /// over the survivors; the run itself fails only on an invalid trial
  /// count or when every trial errors. The analytic cross-check uses the
  /// fixpoint SRGs, which exist for every specification.
  [[nodiscard]] Result<ValidationReport> run(
      const impl::Implementation& impl) const;

 private:
  MonteCarloOptions options_;
};

}  // namespace lrt::sim

#endif  // LRT_SIM_MONTE_CARLO_H_
