// In-memory spans for the traced run. The benchmark opens a span around
// each call it makes into a layer's public functions; spans nest (a span
// opened while another is open becomes its child) and carry the id of
// the op they belong to. At the end of each op the tracer folds the op's
// spans into per-layer self times; at exit main() writes every kept span
// as a Chrome trace_event JSON file (load it in Perfetto or
// chrome://tracing).
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "support/status.h"

namespace perfbench {

class Tracer {
 public:
  /// `lane` names this tracer's thread row in the Chrome trace.
  explicit Tracer(std::string lane);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void begin_op(std::uint64_t op_id);
  /// Folds the op's spans and values into the per-layer aggregates.
  void end_op();

  /// Opens a span nested under the innermost open span; returns its
  /// handle for end(). `name` must have static storage.
  std::size_t begin(const char* name);
  void end(std::size_t span);
  /// Duration (µs) of a closed span of the current op.
  [[nodiscard]] double duration_us(std::size_t span) const;

  /// A per-op value derived from spans (e.g. round trip minus handle
  /// time), aggregated like a span's self time but not exported.
  void add_value(const std::string& name, double us);
  /// The op's share denominator: the time the op spends in the calls
  /// its untraced counterpart makes.
  void set_basis(double us);

  [[nodiscard]] std::int64_t ops() const { return ops_; }
  [[nodiscard]] double basis_total() const { return basis_total_; }
  /// Per-op self time (µs) of `name`, one sample per op in which it
  /// occurred; empty when it never did.
  [[nodiscard]] std::vector<double> samples(std::string_view name) const;
  /// Sum over all ops of the self time of `name` (µs).
  [[nodiscard]] double total(std::string_view name) const;

  /// Writes every kept span of `tracers` as one Chrome trace JSON file.
  [[nodiscard]] static lrt::Status write_chrome(
      const std::string& path, std::span<const Tracer* const> tracers);

 private:
  struct Span {
    const char* name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    std::int64_t parent = -1;  ///< index into op_spans_ during the op
    std::uint64_t id = 0;
    std::uint64_t parent_id = 0;  ///< 0 = top level
    std::uint64_t op = 0;
  };

  std::string lane_;
  std::uint64_t op_id_ = 0;
  bool in_op_ = false;
  std::uint64_t next_span_id_ = 1;
  std::vector<Span> op_spans_;
  std::vector<std::int64_t> open_;
  std::map<std::string, double, std::less<>> op_values_;
  double op_basis_ = 0.0;

  std::int64_t ops_ = 0;
  double basis_total_ = 0.0;
  std::map<std::string, std::vector<double>, std::less<>> samples_;
  std::map<std::string, double, std::less<>> totals_;

  std::vector<Span> kept_;  ///< for the Chrome export, bounded
  std::uint64_t dropped_ = 0;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), span_(tracer ? tracer->begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t span_;
};

/// Adds `metric`: the median over ops of the per-op self time of
/// `source` (only ops in which it occurred), in `unit` ("us" or "ms").
/// With `share`, also adds `metric.share`: the total self time of
/// `source` over the total op basis of the same traced run.
void add_layer_metric(const Tracer& tracer, std::string_view source,
                      const std::string& metric, std::string_view unit,
                      bool share, Metrics& out);

/// Microseconds since the process-wide trace epoch.
double trace_now_us();

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
