// mc_campaign: one op is one lrt::validate Monte Carlo campaign on the
// paper's three-tank system, compiled from examples/htl/three_tank.htl,
// with default simulation options (the default engine), faults on, a
// fixed trials x periods size, and a pinned trial-thread count.
//
// Op k uses campaign seed k mod 4 of a stream derived from the workload
// seed; every campaign must report analysis_sound with no failed trial,
// and campaigns with the same seed must pool identical counters. The
// traced op also runs the campaign on one thread (same counters), every
// trial as a single lrt::simulate, and the fixpoint SRG computation the
// runner's cross-check uses.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "htl/compiler.h"
#include "lrt/lrt.h"
#include "reliability/analysis.h"
#include "support/json.h"
#include "support/rng.h"
#include "tracer.h"

namespace perfbench {
namespace {

using lrt::Result;
using lrt::Status;

constexpr std::int64_t kTrials = 128;
constexpr std::int64_t kPeriods = 500;
constexpr std::uint64_t kCampaignSeeds = 4;
constexpr std::uint64_t kSeedSalt = 0x6d6320202020ull;
/// z-score of the Wilson intervals behind analysis_sound. The 3TS
/// analysis is exact, so at the default 2.576 about one campaign in 20
/// flags some communicator by chance (8 one-sided tests at 0.5%); at 5
/// a sound analysis fails with probability ~2e-6 per campaign, while an
/// analysis overstating an SRG by more than ~0.002-0.005 still fails.
constexpr double kSoundnessZ = 5.0;

/// Digest of a campaign's pooled counters, which the Monte Carlo
/// determinism contract makes a function of the seed alone.
std::uint64_t counters_digest(const lrt::sim::ValidationReport& report) {
  lrt::JsonWriter json;
  json.begin_array();
  json.value(report.invocations);
  json.value(report.invocation_failures);
  json.value(report.committed_updates);
  json.value(report.vote_divergences);
  json.value(report.deadline_misses);
  json.value(report.failed_trials);
  for (const lrt::sim::CommAggregate& c : report.communicators) {
    json.value(c.name);
    json.value(c.updates);
    json.value(c.reliable_updates);
    json.value(c.mean_limit_average);
  }
  json.end_array();
  return digest(std::move(json).str());
}

class McCampaign final : public Workload {
 public:
  const char* name() const override { return "mc_campaign"; }

  Status prepare(const RunConfig& config) override {
    config_ = config;
    LRT_ASSIGN_OR_RETURN(
        source_, read_file("examples/htl/three_tank.htl"));
    seeds_.clear();
    for (std::uint64_t k = 0; k < kCampaignSeeds; ++k) {
      seeds_.push_back(derive_seed(config.seed, kSeedSalt, k));
    }
    digests_.assign(kCampaignSeeds, std::nullopt);
    return Status();
  }

  Status setup(bool* warmup_ok) override {
    teardown();
    LRT_ASSIGN_OR_RETURN(lrt::htl::CompiledSystem compiled,
                         lrt::htl::compile(source_));
    if (compiled.implementation == nullptr) {
      return lrt::InternalError("three_tank.htl has no mapping");
    }
    system_ = std::make_unique<lrt::htl::CompiledSystem>(std::move(compiled));
    workload_ = lrt::borrow_workload(*system_->specification,
                                     *system_->architecture);
    next_op_ = 0;
    *warmup_ok = run_op(nullptr).ok;
    return Status();
  }

  OpResult run_op(Tracer* tracer) override {
    const std::uint64_t op = next_op_++;
    if (tracer == nullptr) return campaign(op, nullptr);
    tracer->begin_op(op);
    OpResult result;
    {
      const ScopedSpan op_span(tracer, "op");
      result = campaign(op, tracer);
    }
    tracer->end_op();
    return result;
  }

  void teardown() override {
    workload_ = lrt::Workload{};
    system_.reset();
  }

  bool runs_on_one_cpu() const override { return false; }  // trial threads

  bool layer_metrics(const Tracer& tracer, Metrics& out) override {
    out["sim.trial_ms"] = Metric{median(trial_us_) * 1e-3, "ms"};
    out["sim.trial_ms.share"] =
        Metric{tracer.total("sim.trial") / tracer.basis_total(), "ratio"};
    out["sim.us_per_invocation"] = Metric{
        trial_total_us_ / static_cast<double>(trial_invocations_), "us"};
    out["sim.invocations"] =
        Metric{static_cast<double>(invocations_), "count"};
    out["mc.parallel_efficiency"] =
        Metric{serial_total_us_ / (static_cast<double>(config_.mc_threads) *
                                   parallel_total_us_),
               "ratio"};
    add_layer_metric(tracer, "mc.runner_overhead", "mc.runner_overhead_ms",
                     "ms", true, out);
    add_layer_metric(tracer, "reliability.fixpoint",
                     "reliability.fixpoint_us", "us", true, out);
    return true;
  }

 private:
  const lrt::impl::Implementation& implementation() const {
    return *system_->implementation;
  }

  lrt::sim::MonteCarloOptions campaign_options(std::uint64_t seed,
                                               unsigned threads) const {
    lrt::sim::MonteCarloOptions options;
    options.trials = kTrials;
    options.seed = seed;
    options.threads = threads;
    options.z = kSoundnessZ;
    options.simulation.periods = kPeriods;
    options.simulation.threads = config_.sim_threads;
    return options;
  }

  OpResult campaign(std::uint64_t op, Tracer* tracer) {
    const std::uint64_t slot = op % kCampaignSeeds;
    const lrt::sim::MonteCarloOptions options =
        campaign_options(seeds_[slot], config_.mc_threads);
    OpResult result;
    const std::size_t span =
        tracer != nullptr ? tracer->begin("mc.campaign") : 0;
    const auto start = Clock::now();
    const auto report = lrt::validate(workload_, implementation(), options);
    result.latency_us = elapsed_us(start, Clock::now());
    if (tracer != nullptr) tracer->end(span);
    result.ok = report.ok() && check(slot, *report);
    if (report.ok() && slot == 0 && invocations_ == 0) {
      invocations_ = report->invocations;
    }
    if (tracer != nullptr) {
      result.ok =
          traced_probes(options, report, result.latency_us, *tracer) &&
          result.ok;
    }
    return result;
  }

  /// analysis_sound, no failed trial, and counters equal to the first
  /// campaign with the same seed.
  bool check(std::uint64_t slot, const lrt::sim::ValidationReport& report) {
    if (!report.analysis_sound || report.failed_trials != 0 ||
        report.trials != kTrials) {
      return false;
    }
    const std::uint64_t d = counters_digest(report);
    if (!digests_[slot].has_value()) digests_[slot] = d;
    return *digests_[slot] == d;
  }

  /// The campaign on one thread, each trial as one lrt::simulate, and
  /// the fixpoint SRGs; the op's basis is the one-thread campaign time.
  bool traced_probes(const lrt::sim::MonteCarloOptions& options,
                     const Result<lrt::sim::ValidationReport>& parallel,
                     double parallel_us, Tracer& tracer) {
    bool ok = parallel.ok();
    lrt::sim::MonteCarloOptions serial_options = options;
    serial_options.threads = 1;
    std::size_t span = tracer.begin("mc.campaign_serial");
    const auto serial =
        lrt::validate(workload_, implementation(), serial_options);
    tracer.end(span);
    const double serial_us = tracer.duration_us(span);
    ok = ok && serial.ok() &&
         counters_digest(*serial) == counters_digest(*parallel);

    lrt::SplitMix64 stream(options.seed);
    double trials_us = 0.0;
    std::int64_t invocations = 0;
    for (std::int64_t trial = 0; trial < options.trials; ++trial) {
      lrt::SimulateOptions run;
      run.simulation = options.simulation;
      run.simulation.faults.seed = stream.next();
      span = tracer.begin("sim.trial");
      const auto result = lrt::simulate(workload_, implementation(), run);
      tracer.end(span);
      const double us = tracer.duration_us(span);
      trial_us_.push_back(us);
      trials_us += us;
      ok = ok && result.ok();
      if (result.ok()) invocations += result->invocations;
    }
    ok = ok && parallel.ok() && invocations == parallel->invocations;
    trial_total_us_ += trials_us;
    trial_invocations_ += invocations;

    span = tracer.begin("reliability.fixpoint");
    const std::vector<double> srgs =
        lrt::reliability::compute_srgs_fixpoint(implementation());
    tracer.end(span);
    ok = ok && !srgs.empty();

    serial_total_us_ += serial_us;
    parallel_total_us_ += parallel_us;
    tracer.add_value("mc.runner_overhead", serial_us - trials_us);
    tracer.set_basis(serial_us);
    return ok;
  }

  RunConfig config_;
  std::string source_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::optional<std::uint64_t>> digests_;
  std::unique_ptr<lrt::htl::CompiledSystem> system_;
  lrt::Workload workload_;
  std::uint64_t next_op_ = 0;
  std::int64_t invocations_ = 0;  ///< campaign with seed slot 0

  std::vector<double> trial_us_;
  double trial_total_us_ = 0.0;
  std::int64_t trial_invocations_ = 0;
  double serial_total_us_ = 0.0;
  double parallel_total_us_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_mc_campaign() {
  return std::make_unique<McCampaign>();
}

}  // namespace perfbench
