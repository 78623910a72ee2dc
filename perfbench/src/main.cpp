// lrt_perfbench — runs one benchmark workload and prints one JSON result
// line as the last line of standard output. Run it from the root of a
// checkout (it reads examples/htl):
//
//   lrt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       [--work-dir DIR]
//
// --trace 0 measures the end-to-end metrics: set-up (median of several
// set-ups), then a closed loop of ops for --seconds. --trace 1 measures
// the per-layer metrics: untraced and traced blocks of the workload
// alternate for --seconds (their throughput ratio is the tracing
// overhead), then a short traced pass of every other workload supplies
// the layers only those exercise. Spans go to a Chrome trace file.
//
// Exit status: 0 when every output check passed, 1 when one failed
// (the result line is still printed), 2 on a usage or set-up error (no
// result line).
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "tracer.h"

namespace perfbench {
namespace {

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 15;
/// Untimed ops run between two set-ups, so that the set-ups sample a few
/// seconds of the machine's speed phases rather than one moment of it.
constexpr double kSetupSpacingSeconds = 0.5;
/// The timed phase is cut into segments of about this length, and each
/// throughput and latency figure is the best of the segments' values for
/// it: the machine drifts between speed phases lasting seconds, and a
/// segment's p90 flips once a tenth of its ops fall in a slow one
/// (README.md).
constexpr double kSegmentSeconds = 1.0;
/// Latencies one segment may hold before its buffer grows: several times
/// the ops of a 1 s segment of the fastest workload (~25k).
constexpr std::size_t kSegmentCapacity = std::size_t{1} << 17;
/// Length of one untraced or traced block in a traced run.
constexpr double kTraceBlockSeconds = 1.0;
/// Traced time given to each other workload in a traced run.
constexpr double kSidePassSeconds = 1.0;
/// Hard limit on one process, well inside the 180 s a run may take.
constexpr int kWatchdogSeconds = 170;

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// The process's CPUs at start, and the one CPU chosen for workloads
/// that run on one (the CPU the first such workload started on).
cpu_set_t g_all_cpus;
int g_one_cpu = -1;

/// Confines the calling thread, and every thread it starts from now on,
/// to one CPU (the same one for the whole process) or to all of the
/// process's CPUs. An lrtd op hands each request between the client and
/// the server's reader and worker threads; on the reference machine,
/// whole runs whose threads were spread over vCPUs came out ~1.7x slower
/// at random (README.md).
bool place_threads(const Workload& workload) {
  if (!workload.runs_on_one_cpu()) {
    return sched_setaffinity(0, sizeof(g_all_cpus), &g_all_cpus) == 0;
  }
  if (g_one_cpu < 0) g_one_cpu = sched_getcpu();
  if (g_one_cpu < 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<std::size_t>(g_one_cpu), &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

void print_number(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g",
                std::isfinite(value) ? value : 0.0);
  out += buffer;
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": ";
    print_number(out, metric.value);
    out += ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_config(const RunConfig& config, const Workload& workload) {
  std::printf(
      "{\"perfbench_config\": {\"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"server_threads\": %u, \"mc_threads\": %u, "
      "\"sim_threads\": %d, \"synth_threads\": %u, \"one_cpu\": %s}}\n",
      workload.name(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0, config.nproc,
      LRT_PERFBENCH_COMPILER, LRT_PERFBENCH_BUILD_TYPE,
      config.server_threads, config.mc_threads, config.sim_threads,
      config.synth_threads, workload.runs_on_one_cpu() ? "true" : "false");
  std::fflush(stdout);
}

struct Segment {
  double throughput = 0.0;  ///< ops per second
  double p50_us = 0.0;
  double p90_us = 0.0;
  std::size_t ops = 0;
};

/// Every segment's figures, the whole phase's throughput and every
/// set-up time, on one line before the result, so the selection can be
/// audited.
void print_segments(const std::vector<Segment>& segments,
                    double whole_throughput,
                    const std::vector<double>& setup_s) {
  std::string out = "{\"perfbench_segments\": [";
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& s = segments[i];
    if (i > 0) out += ", ";
    out += "{\"ops\": " + std::to_string(s.ops) + ", \"throughput_ops_s\": ";
    print_number(out, s.throughput);
    out += ", \"latency_p50_us\": ";
    print_number(out, s.p50_us);
    out += ", \"latency_p90_us\": ";
    print_number(out, s.p90_us);
    out += "}";
  }
  out += "], \"whole_phase_throughput_ops_s\": ";
  print_number(out, whole_throughput);
  out += ", \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    if (i > 0) out += ", ";
    print_number(out, setup_s[i]);
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
}

int fail(const std::string& message) {
  std::fprintf(stderr, "lrt_perfbench: %s\n", message.c_str());
  return 2;
}

/// Set-up kSetupRepeats times, spaced by untimed ops (median reported),
/// then the steady-state ops, then the timed closed loop; each throughput
/// and latency figure is its best segment's.
int run_untraced(Workload& workload, const RunConfig& config) {
  if (!place_threads(workload)) return fail("cannot set the CPU affinity");
  Tally tally;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto spacing = Clock::now();
    while (i > 0 &&
           elapsed_us(spacing, Clock::now()) < kSetupSpacingSeconds * 1e6) {
      tally.add(workload.run_op(nullptr).ok);
    }
    bool warmup_ok = false;
    workload.teardown();  // the previous set-up's, not timed
    const auto start = Clock::now();
    const lrt::Status status = workload.setup(&warmup_ok);
    setup_s.push_back(elapsed_us(start, Clock::now()) * 1e-6);
    if (!status.ok()) return fail("set-up: " + status.to_string());
    tally.add(warmup_ok);
  }

  for (std::uint64_t i = workload.steady_state_ops(); i > 0; --i) {
    tally.add(workload.run_op(nullptr).ok);
  }
  workload.release_setup_state();

  // Segments by op completion time, each closed as the loop reaches the
  // next, so only one segment's latencies are held. A segment's
  // throughput is its op count over the span from the previous
  // segment's last completion; closing a segment is not timed.
  const int segments =
      std::max(1, static_cast<int>(config.seconds / kSegmentSeconds));
  const double length_us = config.seconds * 1e6 / segments;
  std::vector<double> slice(kSegmentCapacity);  // faulted in before the
  slice.clear();                                // peak-RSS window opens
  std::vector<Segment> figures;
  int segment = 0;
  double from_us = 0.0;
  double last_end_us = 0.0;
  const auto close_segment = [&] {
    std::sort(slice.begin(), slice.end());
    figures.push_back(Segment{
        static_cast<double>(slice.size()) / ((last_end_us - from_us) * 1e-6),
        sorted_quantile(slice, 0.50), sorted_quantile(slice, 0.90),
        slice.size()});
    from_us = last_end_us;
    slice.clear();
  };

  Tally timed;
  start_peak_rss_window();
  const auto start = Clock::now();
  double untimed_us = 0.0;
  double wall_us = 0.0;
  while (wall_us < config.seconds * 1e6) {
    const OpResult op = workload.run_op(nullptr);
    const auto end = Clock::now();
    wall_us = elapsed_us(start, end) - untimed_us;
    timed.add(op.ok);
    if (segment < segments - 1 && wall_us >= length_us * (segment + 1)) {
      if (!slice.empty()) close_segment();
      segment = std::min(segments - 1, static_cast<int>(wall_us / length_us));
      untimed_us += elapsed_us(end, Clock::now());
    }
    slice.push_back(op.latency_us);
    last_end_us = wall_us;
  }
  close_segment();
  const double peak_mb = peak_rss_mb();
  workload.teardown();
  tally.attempted += timed.attempted;
  tally.failed += timed.failed;

  print_segments(figures,
                 static_cast<double>(timed.attempted) / (wall_us * 1e-6),
                 setup_s);
  Segment best = figures.front();
  for (const Segment& s : figures) {
    best.throughput = std::max(best.throughput, s.throughput);
    best.p50_us = std::min(best.p50_us, s.p50_us);
    best.p90_us = std::min(best.p90_us, s.p90_us);
  }

  Metrics metrics;
  metrics["setup_s"] = Metric{median(setup_s), "s"};
  metrics["throughput_ops_s"] = Metric{best.throughput, "1/s"};
  metrics["latency_p50_us"] = Metric{best.p50_us, "us"};
  metrics["latency_p90_us"] = Metric{best.p90_us, "us"};
  metrics["peak_rss_mb"] = Metric{peak_mb, "MiB"};
  metrics["ok_ratio"] =
      Metric{static_cast<double>(timed.attempted - timed.failed) /
                 static_cast<double>(timed.attempted),
             "ratio"};
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

/// Untraced and traced blocks alternate; then a short traced pass of
/// every other workload.
int run_traced(Workload& primary, const RunConfig& config) {
  Tally tally;
  std::vector<std::unique_ptr<Tracer>> tracers;
  Metrics metrics;

  bool warmup_ok = false;
  if (!place_threads(primary)) return fail("cannot set the CPU affinity");
  lrt::Status status = primary.setup(&warmup_ok);
  if (!status.ok()) return fail("set-up: " + status.to_string());
  tally.add(warmup_ok);
  tracers.push_back(std::make_unique<Tracer>(primary.name()));
  Tracer& tracer = *tracers.back();
  double untraced_us = 0.0;
  double traced_us = 0.0;
  std::int64_t untraced_ops = 0;
  std::int64_t traced_ops = 0;
  const auto start = Clock::now();
  for (int block = 0; elapsed_us(start, Clock::now()) < config.seconds * 1e6;
       ++block) {
    const bool traced = block % 2 == 1;
    const auto block_start = Clock::now();
    double block_us = 0.0;
    while (block_us < kTraceBlockSeconds * 1e6) {
      const OpResult op = primary.run_op(traced ? &tracer : nullptr);
      tally.add(op.ok);
      (traced ? traced_ops : untraced_ops) += 1;
      block_us = elapsed_us(block_start, Clock::now());
    }
    (traced ? traced_us : untraced_us) += block_us;
  }
  if (traced_ops == 0) {
    const auto block_start = Clock::now();
    tally.add(primary.run_op(&tracer).ok);
    traced_ops = 1;
    traced_us = elapsed_us(block_start, Clock::now());
  }
  tally.add(primary.layer_metrics(tracer, metrics));
  primary.teardown();
  metrics["trace.overhead_ratio"] = Metric{
      (static_cast<double>(traced_ops) / traced_us) /
          (static_cast<double>(untraced_ops) / std::max(untraced_us, 1.0)),
      "ratio"};

  for (const std::string& name : workload_names()) {
    if (name == primary.name()) continue;
    std::unique_ptr<Workload> side = make_workload(name);
    if (!place_threads(*side)) return fail("cannot set the CPU affinity");
    status = side->prepare(config);
    if (status.ok()) status = side->setup(&warmup_ok);
    if (!status.ok()) return fail(name + " set-up: " + status.to_string());
    tally.add(warmup_ok);
    tracers.push_back(std::make_unique<Tracer>(name));
    Tracer& side_tracer = *tracers.back();
    const auto side_start = Clock::now();
    do {
      tally.add(side->run_op(&side_tracer).ok);
    } while (elapsed_us(side_start, Clock::now()) < kSidePassSeconds * 1e6);
    Metrics side_metrics;
    tally.add(side->layer_metrics(side_tracer, side_metrics));
    side->teardown();
    // The primary workload's own measurement wins for shared layers.
    metrics.insert(side_metrics.begin(), side_metrics.end());
  }

  std::vector<const Tracer*> lanes;
  for (const auto& t : tracers) lanes.push_back(t.get());
  status = Tracer::write_chrome(config.work_dir + "/trace-" +
                                    primary.name() + "-" +
                                    std::to_string(config.seed) + ".json",
                                lanes);
  if (!status.ok()) return fail(status.to_string());
  print_result(tally, metrics);
  return tally.failed == 0 ? 0 : 1;
}

extern "C" void watchdog_expired(int) {
  static const char kMessage[] = "lrt_perfbench: watchdog expired\n";
  (void)!write(2, kMessage, sizeof(kMessage) - 1);
  _exit(3);
}

bool parse_unsigned(const char* text, unsigned long long* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  RunConfig config;
  std::string workload_name;
  unsigned long long trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return fail("missing value for " + flag);
    const char* value = argv[++i];
    unsigned long long number = 0;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      config.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(config.seconds > 0.0)) {
        return fail("--seconds must be a positive number");
      }
    } else if (flag == "--seed" && parse_unsigned(value, &number)) {
      config.seed = number;
    } else if (flag == "--trace" && parse_unsigned(value, &number) &&
               number <= 1) {
      trace = number;
    } else {
      return fail("bad flag or value: " + flag + " " + value);
    }
  }
  config.trace = trace == 1;
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned pinned[] = {config.server_threads, config.mc_threads,
                             static_cast<unsigned>(config.sim_threads),
                             config.synth_threads};
  for (const unsigned threads : pinned) {
    if (threads > config.nproc) {
      return fail("needs " + std::to_string(threads) + " cores, found " +
                  std::to_string(config.nproc));
    }
  }
  std::unique_ptr<Workload> workload = make_workload(workload_name);
  if (workload == nullptr) {
    return fail("unknown --workload '" + workload_name + "'");
  }

  // A hung op must not hang the run: exit non-zero before the limit.
  std::signal(SIGALRM, watchdog_expired);
  alarm(kWatchdogSeconds);

  if (sched_getaffinity(0, sizeof(g_all_cpus), &g_all_cpus) != 0) {
    return fail("cannot read the CPU affinity");
  }
  print_config(config, *workload);
  const lrt::Status status = workload->prepare(config);
  if (!status.ok()) return fail("prepare: " + status.to_string());
  return config.trace ? run_traced(*workload, config)
                      : run_untraced(*workload, config);
}
