#include "sim/monte_carlo.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "reliability/analysis.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace lrt::sim {

namespace {

/// Everything one trial contributes to the aggregate. SimulationResult
/// value traces are dropped eagerly so a large campaign with a recording
/// SimulationOptions does not hold every trial's traces at once.
struct TrialOutcome {
  Status error;  ///< OK unless the trial's simulate() failed
  std::vector<CommStats> comm_stats;
  std::int64_t invocations = 0;
  std::int64_t invocation_failures = 0;
  std::int64_t committed_updates = 0;
  std::int64_t vote_divergences = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t remaps_installed = 0;
};

}  // namespace

const CommAggregate* ValidationReport::find(std::string_view name) const {
  for (const CommAggregate& comm : communicators) {
    if (comm.name == name) return &comm;
  }
  return nullptr;
}

std::string ValidationReport::summary() const {
  std::string out = "monte carlo: " + std::to_string(trials) + " trials x " +
                    std::to_string(periods_per_trial) + " periods, " +
                    std::to_string(threads) + " threads, " +
                    format_double(trials_per_second) + " trials/s\n";
  if (failed_trials > 0) {
    out += "degraded: " + std::to_string(failed_trials) +
           " trial(s) failed, pooled over the survivors (first " +
           first_trial_error + ")\n";
  }
  out += analysis_sound ? "analysis SOUND" : "analysis UNSOUND";
  out += implementation_reliable ? ", implementation RELIABLE\n"
                                 : ", implementation UNRELIABLE\n";
  for (const CommAggregate& c : communicators) {
    out += "  " + c.name + ": empirical=" + format_double(c.empirical) +
           " ci=[" + format_double(c.interval.low) + ", " +
           format_double(c.interval.high) +
           "] lambda=" + format_double(c.analytic_srg) +
           " mu=" + format_double(c.lrc) +
           (c.analysis_sound ? "" : " ANALYSIS-UNSOUND") +
           (c.meets_lrc ? " OK" : " VIOLATED") + "\n";
  }
  return out;
}

std::string to_json(const ValidationReport& report) {
  JsonWriter json;
  json.begin_object();
  json.key("implementation");
  json.value(report.implementation);
  json.key("trials");
  json.value(report.trials);
  json.key("seed");
  json.value(static_cast<std::int64_t>(report.seed));
  json.key("threads");
  json.value(static_cast<std::int64_t>(report.threads));
  json.key("periods_per_trial");
  json.value(report.periods_per_trial);
  json.key("z");
  json.value(report.z);
  json.key("elapsed_seconds");
  json.value(report.elapsed_seconds);
  json.key("trials_per_second");
  json.value(report.trials_per_second);
  json.key("invocations");
  json.value(report.invocations);
  json.key("invocation_failures");
  json.value(report.invocation_failures);
  json.key("committed_updates");
  json.value(report.committed_updates);
  json.key("vote_divergences");
  json.value(report.vote_divergences);
  json.key("deadline_misses");
  json.value(report.deadline_misses);
  json.key("remaps_installed");
  json.value(report.remaps_installed);
  json.key("failed_trials");
  json.value(report.failed_trials);
  json.key("first_trial_error");
  json.value(report.first_trial_error);
  json.key("analysis_sound");
  json.value(report.analysis_sound);
  json.key("implementation_reliable");
  json.value(report.implementation_reliable);
  json.key("communicators");
  json.begin_array();
  for (const CommAggregate& c : report.communicators) {
    json.begin_object();
    json.key("name");
    json.value(c.name);
    json.key("updates");
    json.value(c.updates);
    json.key("reliable_updates");
    json.value(c.reliable_updates);
    json.key("empirical");
    json.value(c.empirical);
    json.key("ci_low");
    json.value(c.interval.low);
    json.key("ci_high");
    json.value(c.interval.high);
    json.key("mean_limit_average");
    json.value(c.mean_limit_average);
    json.key("stddev_limit_average");
    json.value(c.stddev_limit_average);
    json.key("min_trial_rate");
    json.value(c.min_trial_rate);
    json.key("max_trial_rate");
    json.value(c.max_trial_rate);
    json.key("analytic_srg");
    json.value(c.analytic_srg);
    json.key("lrc");
    json.value(c.lrc);
    json.key("analysis_sound");
    json.value(c.analysis_sound);
    json.key("meets_lrc");
    json.value(c.meets_lrc);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

MonteCarloRunner::MonteCarloRunner(MonteCarloOptions options)
    : options_(std::move(options)) {}

Result<ValidationReport> MonteCarloRunner::run(
    const impl::Implementation& impl) const {
  if (options_.trials <= 0) {
    return InvalidArgumentError("monte carlo: trials must be positive, got " +
                                std::to_string(options_.trials));
  }
  const auto num_trials = static_cast<std::size_t>(options_.trials);

  // Expand the base seed into one independent stream seed per trial,
  // up front and in trial order: trial k's stream never depends on which
  // thread runs it.
  std::vector<std::uint64_t> seeds(num_trials);
  SplitMix64 root(options_.seed);
  for (auto& seed : seeds) seed = root.next();

  std::vector<TrialOutcome> outcomes(num_trials);
  ThreadPool pool(options_.threads);

  obs::Sink* sink = obs::resolve_sink(options_.sink);
  obs::Tracer* tracer = sink != nullptr ? sink->tracer() : nullptr;
  const obs::SpanGuard campaign_span(sink, "mc", "run");
  // Workers sample how many trials are in flight when theirs starts; the
  // counts are timing-dependent, so they live in a histogram, not in the
  // deterministic counter set.
  std::atomic<int> active_trials{0};

  const auto start = std::chrono::steady_clock::now();
  pool.parallel_for(options_.trials, [&](std::int64_t trial) {
    SimulationOptions trial_options = options_.simulation;
    trial_options.faults.seed = seeds[static_cast<std::size_t>(trial)];
    if (trial_options.sink == nullptr) trial_options.sink = sink;
    std::unique_ptr<Environment> owned_env =
        options_.environment_factory ? options_.environment_factory()
                                     : std::make_unique<NullEnvironment>();
    trial_options.monitor =
        options_.monitor_factory ? options_.monitor_factory(trial) : nullptr;
    std::int64_t trial_start_us = 0;
    if (sink != nullptr) {
      sink->histogram_record(
          "mc.pool_active",
          active_trials.fetch_add(1, std::memory_order_relaxed) + 1);
      if (tracer != nullptr) trial_start_us = tracer->now_us();
    }
    const auto wall_start = std::chrono::steady_clock::now();
    auto result = simulate(impl, *owned_env, trial_options);
    if (sink != nullptr) {
      active_trials.fetch_sub(1, std::memory_order_relaxed);
      sink->histogram_record(
          "mc.trial_ms",
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - wall_start)
              .count());
      if (tracer != nullptr)
        tracer->complete("mc", "trial", trial_start_us, tracer->now_us(),
                         {{"trial", static_cast<double>(trial)},
                          {"ok", result.ok() ? 1.0 : 0.0}});
    }
    TrialOutcome& out = outcomes[static_cast<std::size_t>(trial)];
    if (!result.ok()) {
      out.error = result.status();
      return;
    }
    out.comm_stats = std::move(result->comm_stats);
    out.invocations = result->invocations;
    out.invocation_failures = result->invocation_failures;
    out.committed_updates = result->committed_updates;
    out.vote_divergences = result->vote_divergences;
    out.deadline_misses = result->deadline_misses;
    out.remaps_installed = result->remaps_installed;
  });
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  // Graceful degradation: failed trials are recorded and excluded from the
  // pool (deterministically — the lowest failing trial names the error);
  // the campaign itself dies only when no trial survived.
  std::int64_t failed_trials = 0;
  std::string first_trial_error;
  for (std::size_t trial = 0; trial < num_trials; ++trial) {
    if (outcomes[trial].error.ok()) continue;
    ++failed_trials;
    // Failure causes are counted here, in the sequential reduction, so
    // the metric snapshot is identical for every thread count.
    if (sink != nullptr)
      sink->counter_add(
          "sim.trial_failures." +
          std::string(to_string(outcomes[trial].error.code())));
    if (first_trial_error.empty()) {
      first_trial_error = "trial " + std::to_string(trial) + ": " +
                          outcomes[trial].error.to_string();
    }
  }
  if (sink != nullptr) {
    sink->counter_add("sim.trials", options_.trials - failed_trials);
    sink->counter_add("sim.trial_failures", failed_trials);
    sink->gauge_set("mc.threads", pool.size());
  }
  if (failed_trials == options_.trials) {
    const Status& error = outcomes[0].error;
    return Status(error.code(),
                  "monte carlo: all " + std::to_string(options_.trials) +
                      " trials failed; first " + first_trial_error);
  }
  const auto survivors =
      static_cast<double>(options_.trials - failed_trials);

  const spec::Specification& spec = impl.specification();
  const std::size_t num_comms = spec.communicators().size();
  // The greatest-fixpoint SRGs are defined for every specification and
  // coincide with the inductive ones whenever those exist (on unsafe
  // cycles they converge to the paper's long-run value 0), so the
  // cross-check never has to reject an implementation.
  const std::vector<double> srgs =
      reliability::compute_srgs_fixpoint(impl);

  ValidationReport report;
  report.implementation = impl.name();
  report.trials = options_.trials;
  report.seed = options_.seed;
  report.threads = pool.size();
  report.periods_per_trial = options_.simulation.periods;
  report.z = options_.z;
  report.elapsed_seconds = elapsed.count();
  report.trials_per_second =
      elapsed.count() > 0.0
          ? static_cast<double>(options_.trials) / elapsed.count()
          : 0.0;
  report.communicators.resize(num_comms);

  report.failed_trials = failed_trials;
  report.first_trial_error = first_trial_error;

  // All reductions below run sequentially in trial order, so the report
  // is bit-identical for every thread count.
  for (const TrialOutcome& out : outcomes) {
    if (!out.error.ok()) continue;
    report.invocations += out.invocations;
    report.invocation_failures += out.invocation_failures;
    report.committed_updates += out.committed_updates;
    report.vote_divergences += out.vote_divergences;
    report.deadline_misses += out.deadline_misses;
    report.remaps_installed += out.remaps_installed;
  }

  for (std::size_t c = 0; c < num_comms; ++c) {
    CommAggregate& agg = report.communicators[c];
    agg.name = spec.communicators()[c].name;
    agg.analytic_srg = srgs[c];
    agg.lrc = spec.communicators()[c].lrc;

    double sum_limavg = 0.0;
    double sum_sq_limavg = 0.0;
    agg.min_trial_rate = 1.0;
    agg.max_trial_rate = 0.0;
    for (const TrialOutcome& out : outcomes) {
      if (!out.error.ok()) continue;
      const CommStats& stats = out.comm_stats[c];
      agg.updates += stats.updates;
      agg.reliable_updates += stats.reliable_updates;
      const double rate = stats.update_rate();
      agg.min_trial_rate = std::min(agg.min_trial_rate, rate);
      agg.max_trial_rate = std::max(agg.max_trial_rate, rate);
      sum_limavg += stats.limit_average;
      sum_sq_limavg += stats.limit_average * stats.limit_average;
    }
    const double n = survivors;
    agg.empirical = agg.updates == 0
                        ? 1.0
                        : static_cast<double>(agg.reliable_updates) /
                              static_cast<double>(agg.updates);
    agg.interval = wilson_interval(agg.reliable_updates, agg.updates,
                                   options_.z);
    agg.mean_limit_average = sum_limavg / n;
    const double variance =
        n > 1.0
            ? std::max(0.0, (sum_sq_limavg - sum_limavg * sum_limavg / n) /
                                (n - 1.0))
            : 0.0;
    agg.stddev_limit_average = std::sqrt(variance);
    agg.analysis_sound = agg.interval.high >= agg.analytic_srg;
    agg.meets_lrc = agg.interval.high >= agg.lrc;
    report.analysis_sound = report.analysis_sound && agg.analysis_sound;
    report.implementation_reliable =
        report.implementation_reliable && agg.meets_lrc;
  }
  return report;
}

}  // namespace lrt::sim
