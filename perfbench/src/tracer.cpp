#include "tracer.h"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "support/json.h"

namespace perfbench {
namespace {

/// Spans kept for the Chrome export across all tracers; aggregation
/// continues past the cap, only the export is truncated.
constexpr std::size_t kMaxKeptSpans = 100000;
std::size_t g_kept_spans = 0;

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

}  // namespace

double trace_now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

Tracer::Tracer(std::string lane) : lane_(std::move(lane)) {}

void Tracer::begin_op(std::uint64_t op_id) {
  op_id_ = op_id;
  in_op_ = true;
  op_spans_.clear();
  open_.clear();
  op_values_.clear();
  op_basis_ = 0.0;
}

std::size_t Tracer::begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.id = next_span_id_++;
  span.parent_id =
      span.parent < 0 ? 0 : op_spans_[static_cast<std::size_t>(span.parent)].id;
  span.op = op_id_;
  span.start_us = trace_now_us();
  op_spans_.push_back(span);
  open_.push_back(static_cast<std::int64_t>(op_spans_.size() - 1));
  return op_spans_.size() - 1;
}

void Tracer::end(std::size_t span) {
  op_spans_[span].end_us = trace_now_us();
  // Spans close in LIFO order; tolerate a handle that is not innermost.
  while (!open_.empty()) {
    const std::int64_t top = open_.back();
    open_.pop_back();
    if (top == static_cast<std::int64_t>(span)) break;
  }
}

double Tracer::duration_us(std::size_t span) const {
  return op_spans_[span].end_us - op_spans_[span].start_us;
}

void Tracer::add_value(const std::string& name, double us) {
  op_values_[name] += us;
}

void Tracer::set_basis(double us) { op_basis_ = us; }

void Tracer::end_op() {
  if (!in_op_) return;
  in_op_ = false;
  // Self time = duration minus the part covered by direct children
  // (children are sequential on this thread, so their durations sum).
  std::vector<double> child_time(op_spans_.size(), 0.0);
  for (const Span& span : op_spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] +=
          span.end_us - span.start_us;
    }
  }
  std::map<std::string, double, std::less<>> per_op = op_values_;
  for (std::size_t i = 0; i < op_spans_.size(); ++i) {
    const Span& span = op_spans_[i];
    per_op[span.name] += span.end_us - span.start_us - child_time[i];
  }
  for (const auto& [name, us] : per_op) {
    samples_[name].push_back(us);
    totals_[name] += us;
  }
  ++ops_;
  basis_total_ += op_basis_;
  for (const Span& span : op_spans_) {
    if (g_kept_spans >= kMaxKeptSpans) {
      ++dropped_;
      continue;
    }
    kept_.push_back(span);
    ++g_kept_spans;
  }
}

std::vector<double> Tracer::samples(std::string_view name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

double Tracer::total(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

void add_layer_metric(const Tracer& tracer, std::string_view source,
                      const std::string& metric, std::string_view unit,
                      bool share, Metrics& out) {
  const double scale = unit == "ms" ? 1e-3 : 1.0;
  out[metric] = Metric{median(tracer.samples(source)) * scale,
                       std::string(unit)};
  if (share) {
    const double basis = tracer.basis_total();
    out[metric + ".share"] =
        Metric{basis > 0.0 ? tracer.total(source) / basis : 0.0, "ratio"};
  }
}

lrt::Status Tracer::write_chrome(const std::string& path,
                                 std::span<const Tracer* const> tracers) {
  lrt::JsonWriter json;
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  std::uint64_t dropped = 0;
  for (std::size_t lane = 0; lane < tracers.size(); ++lane) {
    const Tracer& tracer = *tracers[lane];
    dropped += tracer.dropped_;
    json.begin_object();
    json.key("name");
    json.value("thread_name");
    json.key("ph");
    json.value("M");
    json.key("pid");
    json.value(1);
    json.key("tid");
    json.value(lane + 1);
    json.key("args");
    json.begin_object();
    json.key("name");
    json.value(tracer.lane_);
    json.end_object();
    json.end_object();
    for (const Span& span : tracer.kept_) {
      json.begin_object();
      json.key("name");
      json.value(span.name);
      json.key("cat");
      json.value("perfbench");
      json.key("ph");
      json.value("X");
      json.key("ts");
      json.value(span.start_us);
      json.key("dur");
      json.value(span.end_us - span.start_us);
      json.key("pid");
      json.value(1);
      json.key("tid");
      json.value(lane + 1);
      json.key("args");
      json.begin_object();
      json.key("op");
      json.value(static_cast<std::int64_t>(span.op));
      json.key("span");
      json.value(static_cast<std::int64_t>(span.id));
      json.key("parent");
      json.value(static_cast<std::int64_t>(span.parent_id));
      json.end_object();
      json.end_object();
    }
  }
  json.end_array();
  json.key("otherData");
  json.begin_object();
  json.key("dropped_spans");
  json.value(static_cast<std::int64_t>(dropped));
  json.end_object();
  json.end_object();
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return lrt::InternalError("cannot write '" + path + "'");
  const std::string text = std::move(json).str();
  file.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!file) return lrt::InternalError("short write to '" + path + "'");
  return lrt::Status();
}

}  // namespace perfbench
