// The physical environment seen by a simulated implementation: a source of
// sensor readings and a sink for actuator commands. The 3TS plant
// (src/plant) implements this interface; tests use synthetic environments.
#ifndef LRT_SIM_ENVIRONMENT_H_
#define LRT_SIM_ENVIRONMENT_H_

#include <string_view>

#include "spec/declarations.h"
#include "spec/value.h"

namespace lrt::sim {

/// Callbacks invoked by the runtime at communicator update instants.
/// All times are absolute ticks.
class Environment {
 public:
  /// Granularity contract for advance(). The tick engine always calls
  /// advance() once per base tick; the event engine jumps across idle
  /// spans and asks the environment how to bridge them:
  ///  * kEveryTick (safe default): advance() is replayed once per base
  ///    tick across the span — bit-identical for stateful integrators
  ///    whose result depends on the step sequence (e.g. the 3TS plant);
  ///  * kCoalesce: the environment promises advance(t, a + b) is
  ///    equivalent to advance(t, a); advance(t + a, b), so one call may
  ///    cover the whole idle span. This is what makes sparse workloads
  ///    O(events) instead of O(ticks).
  enum class AdvanceGranularity { kEveryTick, kCoalesce };

  virtual ~Environment() = default;

  /// The physical value a (non-failed) sensor writes to input communicator
  /// `comm` at time `now`. Must not return bottom — sensor *failures* are
  /// injected by the runtime, not the environment.
  virtual spec::Value read_sensor(std::string_view comm, spec::Time now) = 0;

  /// Delivery of the committed value of output communicator `comm` to its
  /// actuator. `value` may be bottom when the update failed; a real
  /// actuator would then hold its previous command.
  virtual void write_actuator(std::string_view comm, spec::Time now,
                              const spec::Value& value) = 0;

  /// Advance the physical model from `now` to `now + dt` (under the tick
  /// engine: called once per base tick, after all commits of the tick).
  virtual void advance(spec::Time now, spec::Time dt) {
    (void)now;
    (void)dt;
  }

  /// See AdvanceGranularity. Override to kCoalesce when advance() is
  /// additive in dt (stateless environments, closed-form models).
  [[nodiscard]] virtual AdvanceGranularity advance_granularity() const {
    return AdvanceGranularity::kEveryTick;
  }
};

/// Environment returning a constant for every sensor and discarding
/// actuator output; sufficient for pure reliability measurements.
class NullEnvironment final : public Environment {
 public:
  spec::Value read_sensor(std::string_view, spec::Time) override {
    return spec::Value::real(0.0);
  }
  void write_actuator(std::string_view, spec::Time,
                      const spec::Value&) override {}
  [[nodiscard]] AdvanceGranularity advance_granularity() const override {
    return AdvanceGranularity::kCoalesce;
  }
};

}  // namespace lrt::sim

#endif  // LRT_SIM_ENVIRONMENT_H_
