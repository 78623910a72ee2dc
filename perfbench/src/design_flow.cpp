// design_flow: one op is one designer edit-check pass over the five HTL
// programs in examples/htl, step by step in this order:
//   1. htl::compile                      5. lrt::synthesize
//   2. lrt::check (lint)                 6. refine::check_refinement
//   3. htl::analyze_all_selections          (concrete_control against
//   4. sched::analyze_schedulability         abstract_control)
//   7. ecode::run_emachine               8. htl::simulate_with_switching
// Steps 7 and 8 run a fixed number of periods, sized so that the front
// end and the two runtimes take comparable shares of the op. The fault
// seed of the runtimes derives from the workload seed, so every pass
// computes the same results: each step's output digest must match the
// one taken on the first pass (the warm-up op).
#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "ecode/emachine.h"
#include "htl/compiler.h"
#include "htl/mode_runtime.h"
#include "impl/impl_json.h"
#include "lint/sarif.h"
#include "lrt/lrt.h"
#include "refine/refinement.h"
#include "reliability/analysis.h"
#include "sched/schedulability.h"
#include "spec/spec_json.h"
#include "support/json.h"
#include "tracer.h"

namespace perfbench {
namespace {

using lrt::Result;
using lrt::Status;

constexpr std::int64_t kEmachinePeriods = 220;
constexpr std::int64_t kSwitchingPeriods = 130;
constexpr std::uint64_t kSeedSalt = 0x64657369676eull;

const char* const kPrograms[] = {"abstract_control", "concrete_control",
                                 "cruise", "mode_switching", "three_tank"};
constexpr std::size_t kAbstract = 0;
constexpr std::size_t kConcrete = 1;

/// Task functions for step 8: mode_switching.htl's detector raises the
/// overload flag, so its controller really switches from eco to boost.
lrt::htl::FunctionRegistry switching_functions() {
  lrt::htl::FunctionRegistry functions;
  functions["sense"] = [](std::span<const lrt::spec::Value>) {
    return std::vector<lrt::spec::Value>{lrt::spec::Value::boolean(true)};
  };
  return functions;
}

/// Digest of an outcome: the status on failure, else `render()`.
template <typename T, typename Render>
std::uint64_t outcome_digest(const Result<T>& result, Render render) {
  if (!result.ok()) return digest(result.status().to_string());
  return digest(render(*result));
}

class DesignFlow final : public Workload {
 public:
  const char* name() const override { return "design_flow"; }

  Status prepare(const RunConfig& config) override {
    config_ = config;
    sources_.clear();
    for (const char* program : kPrograms) {
      LRT_ASSIGN_OR_RETURN(
          std::string source,
          read_file(std::string("examples/htl/") + program + ".htl"));
      sources_.push_back(std::move(source));
    }
    fault_seed_ = derive_seed(config.seed, kSeedSalt, 0);
    return Status();
  }

  Status setup(bool* warmup_ok) override {
    teardown();
    for (const std::string& source : sources_) {
      LRT_ASSIGN_OR_RETURN(lrt::htl::CompiledSystem system,
                           lrt::htl::compile(source));
      if (system.implementation == nullptr) {
        return lrt::InternalError("an example program has no mapping");
      }
    }
    reference_.reset();
    next_op_ = 0;
    *warmup_ok = run_op(nullptr).ok;  // takes the reference digests
    return Status();
  }

  OpResult run_op(Tracer* tracer) override {
    const std::uint64_t op = next_op_++;
    if (tracer == nullptr) return pass(nullptr);
    tracer->begin_op(op);
    OpResult result;
    {
      const ScopedSpan op_span(tracer, "op");
      result = pass(tracer);
    }
    tracer->set_basis(result.latency_us);
    tracer->end_op();
    return result;
  }

  void teardown() override {}

  bool layer_metrics(const Tracer& tracer, Metrics& out) override {
    add_layer_metric(tracer, "htl.compile", "htl.compile_us", "us", true,
                     out);
    add_layer_metric(tracer, "lint.check", "lint.check_us", "us", true, out);
    add_layer_metric(tracer, "htl.mode_analysis", "htl.mode_analysis_us",
                     "us", true, out);
    add_layer_metric(tracer, "sched.schedulability",
                     "sched.schedulability_us", "us", true, out);
    add_layer_metric(tracer, "synth.synthesize", "synth.synthesize_us", "us",
                     true, out);
    add_layer_metric(tracer, "refine.check", "refine.check_us", "us", true,
                     out);
    add_layer_metric(tracer, "ecode.emachine", "ecode.emachine_ms", "ms",
                     true, out);
    add_layer_metric(tracer, "htl.mode_switching", "htl.mode_switching_ms",
                     "ms", true, out);
    add_layer_metric(tracer, "reliability.analyze", "reliability.analyze_us",
                     "us", true, out);
    out["synth.candidates_evaluated"] =
        Metric{static_cast<double>(candidates_evaluated_), "count"};
    out["synth.full_evals"] = Metric{static_cast<double>(full_evals_),
                                     "count"};
    out["htl.switches_taken"] =
        Metric{static_cast<double>(switches_taken_), "count"};
    return true;
  }

 private:
  /// Times `call` (one public-function call) into the op latency, inside
  /// a span named `layer` when traced.
  template <typename Call>
  auto timed(Tracer* tracer, const char* layer, double& latency_us,
             Call&& call) {
    const ScopedSpan span(tracer, layer);
    const auto start = Clock::now();
    auto result = call();
    latency_us += elapsed_us(start, Clock::now());
    return result;
  }

  lrt::sim::SimulationOptions runtime_options(std::int64_t periods) const {
    lrt::sim::SimulationOptions options;
    options.periods = periods;
    options.threads = config_.sim_threads;
    options.faults.seed = fault_seed_;
    return options;
  }

  OpResult pass(Tracer* tracer) {
    OpResult result;
    double& latency = result.latency_us;
    const std::size_t n = sources_.size();
    std::vector<std::uint64_t> digests;

    // 1. compile
    std::vector<Result<lrt::htl::CompiledSystem>> systems;
    for (const std::string& source : sources_) {
      systems.push_back(timed(tracer, "htl.compile", latency,
                              [&] { return lrt::htl::compile(source); }));
    }
    for (const auto& system : systems) {
      digests.push_back(outcome_digest(system, [](const auto& s) {
        return lrt::spec::to_json(s.specification->to_config()) +
               lrt::impl::to_json(s.implementation->to_config());
      }));
      if (!system.ok() || system->implementation == nullptr) {
        result.ok = false;
        return result;
      }
    }

    // 2. lint
    for (std::size_t p = 0; p < n; ++p) {
      lrt::lint::LintOptions options;
      options.file = std::string(kPrograms[p]) + ".htl";
      const auto lint = timed(tracer, "lint.check", latency, [&] {
        return lrt::check(sources_[p], options);
      });
      digests.push_back(outcome_digest(lint, [](const auto& r) {
        return lrt::lint::to_json(r.diagnostics);
      }));
    }

    // 3. per-mode analysis of every mode selection
    for (const std::string& source : sources_) {
      const auto selections =
          timed(tracer, "htl.mode_analysis", latency,
                [&] { return lrt::htl::analyze_all_selections(source); });
      digests.push_back(outcome_digest(selections, [](const auto& list) {
        std::string text;
        for (const auto& [key, valid] : list) {
          text += key + (valid ? "=1;" : "=0;");
        }
        return text;
      }));
    }

    // 4. schedulability
    for (const auto& system : systems) {
      const lrt::impl::Implementation& impl = *system->implementation;
      const auto sched =
          timed(tracer, "sched.schedulability", latency,
                [&] { return lrt::sched::analyze_schedulability(impl); });
      digests.push_back(outcome_digest(sched, [&](const auto& r) {
        return lrt::sched::to_json(r, impl);
      }));
    }

    // 5. synthesis
    std::int64_t candidates = 0;
    std::int64_t full_evals = 0;
    for (const auto& system : systems) {
      const lrt::Workload workload = lrt::borrow_workload(
          *system->specification, *system->architecture);
      lrt::synth::SynthesisOptions options;
      options.threads = config_.synth_threads;
      auto bindings = system->implementation->to_config().sensor_bindings;
      const auto synthesis = timed(tracer, "synth.synthesize", latency, [&] {
        return lrt::synthesize(workload, std::move(bindings), options);
      });
      if (synthesis.ok()) {
        candidates += synthesis->candidates_evaluated;
        full_evals += synthesis->full_evals;
      }
      digests.push_back(outcome_digest(synthesis, [](const auto& r) {
        return lrt::impl::to_json(r.config);
      }));
    }

    // 6. refinement of the concrete design against the abstract one
    const auto kappa = lrt::htl::refinement_map(systems[kConcrete]->ast);
    if (!kappa.ok()) {
      result.ok = false;
      return result;
    }
    const auto refinement = timed(tracer, "refine.check", latency, [&] {
      return lrt::refine::check_refinement(
          *systems[kConcrete]->implementation,
          *systems[kAbstract]->implementation, *kappa);
    });
    digests.push_back(outcome_digest(refinement, [](const auto& r) {
      return r.summary();
    }));

    // 7. E-machine
    for (const auto& system : systems) {
      lrt::sim::NullEnvironment env;
      const auto options = runtime_options(kEmachinePeriods);
      const auto run = timed(tracer, "ecode.emachine", latency, [&] {
        return lrt::ecode::run_emachine(*system->implementation, env,
                                        options);
      });
      digests.push_back(outcome_digest(
          run, [](const auto& r) { return lrt::sim::to_json(r); }));
    }

    // 8. mode-switching execution
    std::int64_t switches = 0;
    for (const std::string& source : sources_) {
      lrt::sim::NullEnvironment env;
      const auto options = runtime_options(kSwitchingPeriods);
      const auto run = timed(tracer, "htl.mode_switching", latency, [&] {
        return lrt::htl::simulate_with_switching(source, functions_, env,
                                                 options);
      });
      if (run.ok()) switches += run->switches_taken;
      digests.push_back(outcome_digest(run, [](const auto& r) {
        return lrt::sim::to_json(r.simulation) + "/" +
               std::to_string(r.switches_taken);
      }));
    }

    // Traced only: the joint analysis of each program (outside the op).
    if (tracer != nullptr) {
      for (const auto& system : systems) {
        const lrt::Workload workload = lrt::borrow_workload(
            *system->specification, *system->architecture);
        const ScopedSpan span(tracer, "reliability.analyze");
        (void)lrt::analyze(workload, *system->implementation);
      }
    }

    if (!reference_.has_value()) {
      reference_ = digests;
      candidates_evaluated_ = candidates;
      full_evals_ = full_evals;
      switches_taken_ = switches;
    }
    result.ok = *reference_ == digests && refinement.ok() &&
                refinement->refines;
    return result;
  }

  RunConfig config_;
  std::vector<std::string> sources_;
  std::uint64_t fault_seed_ = 0;
  const lrt::htl::FunctionRegistry functions_ = switching_functions();
  std::uint64_t next_op_ = 0;
  std::optional<std::vector<std::uint64_t>> reference_;
  std::int64_t candidates_evaluated_ = 0;
  std::int64_t full_evals_ = 0;
  std::int64_t switches_taken_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_design_flow() {
  return std::make_unique<DesignFlow>();
}

}  // namespace perfbench
