// Shared vocabulary of lrt_perfbench: run configuration, metric
// sets, order statistics, and the workload interface every workload
// implements.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace perfbench {

class Tracer;

/// One run's settings. The thread counts pin every option that defaults
/// to "0 = hardware concurrency"; main() refuses to run when the machine
/// has fewer cores than one of them.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".bench_build";  ///< sockets and traces
  unsigned server_threads = 1;  ///< service::ServerOptions::threads
  unsigned mc_threads = 2;      ///< sim::MonteCarloOptions::threads
  int sim_threads = 1;          ///< sim::SimulationOptions::threads
  unsigned synth_threads = 1;   ///< synth::SynthesisOptions::threads
  unsigned nproc = 1;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Outcome of one operation. A failed output check never aborts the run:
/// the sample is kept and counted against ok_ratio.
struct OpResult {
  bool ok = false;
  double latency_us = 0.0;
};

/// One benchmark workload. main() calls prepare() once (input
/// generation and oracles, untimed), then setup() possibly several times
/// (each call replaces the previous set-up; timed as setup_s), then
/// run_op() in a closed loop, then teardown().
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual lrt::Status prepare(const RunConfig& config) = 0;
  /// Server start, model builds, priming, and one untimed warm-up op.
  /// A failed warm-up output check is reported through `warmup_ok`.
  [[nodiscard]] virtual lrt::Status setup(bool* warmup_ok) = 0;
  /// One closed-loop operation. With a tracer, the op also runs its
  /// per-layer probes and records spans.
  [[nodiscard]] virtual OpResult run_op(Tracer* tracer) = 0;
  virtual void teardown() = 0;
  /// Untimed, checked ops that an untraced run sends after its last
  /// set-up, so the timed phase starts in the program's steady state
  /// (for the lrtd workloads: a full idempotent-replay cache).
  [[nodiscard]] virtual std::uint64_t steady_state_ops() const { return 0; }
  /// Frees what only prepare(), setup() and traced ops need (configs,
  /// built models, replay evaluators), so an untraced run's peak_rss_mb
  /// holds the program's memory plus only the requests and expected
  /// results the checks need. setup() may not be called afterwards.
  virtual void release_setup_state() {}
  /// Whether every thread of the workload runs on one CPU: true when an
  /// op is one chain of work, handed between threads at most; false
  /// when an op runs work in parallel.
  [[nodiscard]] virtual bool runs_on_one_cpu() const { return true; }
  /// Per-layer metrics from the traced ops recorded in `tracer`, plus
  /// exact counts (which may run further checked ops). Returns false
  /// when such an op failed its output check.
  [[nodiscard]] virtual bool layer_metrics(const Tracer& tracer,
                                           Metrics& out) = 0;
};

std::unique_ptr<Workload> make_lrtd_resident();
std::unique_ptr<Workload> make_lrtd_cold();
std::unique_ptr<Workload> make_mc_campaign();
std::unique_ptr<Workload> make_design_flow();

/// Workload names in canonical order.
const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(std::string_view name);

using Clock = std::chrono::steady_clock;

inline double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of sorted samples.
double sorted_quantile(const std::vector<double>& sorted, double q);
/// The same quantile of unsorted samples.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// The k-th value of the SplitMix64 stream seeded with `seed ^ salt`:
/// every derived input is a pure function of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t k);

/// Returns freed heap to the kernel and resets this process's resident
/// high-water mark, so peak_rss_mb() covers only what follows (the timed
/// phase), not input generation and repeated set-ups.
void start_peak_rss_window();
/// Peak resident set size of this process since start_peak_rss_window()
/// (since process start where the reset is unavailable), in MiB.
double peak_rss_mb();

/// Reads a whole file; empty optional-like status on failure.
lrt::Result<std::string> read_file(const std::string& path);

/// 64-bit digest of a byte string (support/hash.h).
std::uint64_t digest(std::string_view bytes);

/// A request id of fixed width, so frame sizes do not drift with the op
/// counter: "<prefix>-000000001234".
std::string fixed_id(std::string_view prefix, std::uint64_t n);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
