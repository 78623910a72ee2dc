#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <charconv>

#include "htl/parser.h"
#include "lint/product_rules.h"

namespace lrt::lint {
namespace {

/// Extracts "line L:C" from a frontend error message, which the lexer,
/// parser, and compiler all emit as a prefix (satellite of this PR: every
/// compiler error path carries one).
SourceLocation locate_frontend_error(std::string_view message,
                                     const std::string& file) {
  SourceLocation location;
  location.file = file;
  const std::string_view prefix = "line ";
  const std::size_t start = message.find(prefix);
  if (start == std::string_view::npos) return location;
  const char* begin = message.data() + start + prefix.size();
  const char* end = message.data() + message.size();
  int line = 0;
  const auto [after_line, ec] = std::from_chars(begin, end, line);
  if (ec != std::errc() || line <= 0) return location;
  location.line = line;
  if (after_line < end && *after_line == ':') {
    int column = 0;
    const auto [_, ec2] = std::from_chars(after_line + 1, end, column);
    if (ec2 == std::errc() && column > 0) location.column = column;
  }
  return location;
}

/// Drops a leading "line L[:C]: " from a frontend message — redundant
/// once locate_frontend_error has turned it into a structured location.
std::string strip_location_prefix(std::string_view message) {
  const std::string_view prefix = "line ";
  if (message.substr(0, prefix.size()) != prefix) {
    return std::string(message);
  }
  std::size_t i = prefix.size();
  const auto skip_digits = [&message, &i] {
    const std::size_t start = i;
    while (i < message.size() &&
           std::isdigit(static_cast<unsigned char>(message[i])) != 0) {
      ++i;
    }
    return i > start;
  };
  if (!skip_digits()) return std::string(message);
  if (i < message.size() && message[i] == ':') {
    const std::size_t before_column = i;
    ++i;
    if (!skip_digits()) i = before_column;
  }
  if (message.substr(i, 2) != ": ") return std::string(message);
  return std::string(message.substr(i + 2));
}

Status configure_engine(DiagnosticEngine& engine,
                        const LintOptions& options) {
  for (const std::string& flag : options.rule_flags) {
    const std::size_t eq = flag.find('=');
    const std::string_view key =
        std::string_view(flag).substr(0, std::min(eq, flag.size()));
    if (find_rule(key) == nullptr) {
      return NotFoundError("rule flag '" + flag +
                           "' names no known rule (see rule_catalog())");
    }
    LRT_RETURN_IF_ERROR(engine.configure_flag(flag));
  }
  return Status::Ok();
}

void run_ast_passes(const htl::ProgramAst& program,
                    const SourceLocation& origin, DiagnosticEngine& engine) {
  check_write_races(program, origin, engine);
  check_duplicate_write_ports(program, origin, engine);
  check_missing_defaults(program, origin, engine);
  check_period_mismatch(program, origin, engine);
  check_unreachable_modes(program, origin, engine);
  check_dead_communicators(program, origin, engine);
}

LintResult finish(DiagnosticEngine& engine, bool flattened,
                  bool arch_checked, const ProductStats& stats = {}) {
  engine.sort_and_dedupe();
  LintResult result;
  result.diagnostics = engine.take();
  result.flattened = flattened;
  result.arch_checked = arch_checked;
  result.product_nodes = stats.product_nodes;
  result.fixpoint_iterations = stats.fixpoint_iterations;
  return result;
}

/// Reports a frontend failure as LRT000 — unless an AST pass already
/// produced an error explaining why the program is ill-formed, in which
/// case the redundant Status text would only repeat it with less context.
void report_frontend_failure(const Status& status, const std::string& file,
                             DiagnosticEngine& engine) {
  if (engine.error_count() > 0) return;
  report_rule(engine, kRuleCompileError,
              locate_frontend_error(status.message(), file),
              strip_location_prefix(status.message()));
}

/// Flushes the per-run "lint.*" counters and hands `result` back
/// unchanged; every public entry point counts exactly once.
Result<LintResult> with_counters(const obs::Sink* sink,
                                 Result<LintResult> result) {
  if (sink != nullptr && result.ok()) {
    sink->counter_add("lint.runs");
    sink->counter_add("lint.diagnostics",
                      static_cast<std::int64_t>(result->diagnostics.size()));
    sink->counter_add("lint.errors", result->errors());
    sink->counter_add("lint.warnings", result->warnings());
    sink->counter_add("lint.product_nodes", result->product_nodes);
    sink->counter_add("lint.fixpoint_iterations",
                      result->fixpoint_iterations);
  }
  return result;
}

}  // namespace

int LintResult::count(Severity severity) const {
  return static_cast<int>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [severity](const Diagnostic& diag) {
                      return diag.severity == severity;
                    }));
}

namespace {

/// The flatten-and-lint pipeline; lint_program() wraps it with
/// observability.
Result<LintResult> lint_program_impl(const htl::ProgramAst& program,
                                     const LintOptions& options) {
  DiagnosticEngine engine;
  LRT_RETURN_IF_ERROR(configure_engine(engine, options));
  const SourceLocation origin{options.file, 0, 0};
  run_ast_passes(program, origin, engine);

  ProductStats stats;
  const auto product_passes = [&](const arch::Architecture* arch_ptr) {
    run_product_passes(program, arch_ptr, {options.max_product_nodes},
                       origin, engine, &stats);
  };

  auto spec = htl::flatten(program, /*functions=*/{}, options.selection);
  if (!spec.ok()) {
    product_passes(nullptr);
    report_frontend_failure(spec.status(), options.file, engine);
    return finish(engine, /*flattened=*/false, /*arch_checked=*/false,
                  stats);
  }
  check_cycles(program, *spec, origin, engine);

  if (!program.architecture.has_value()) {
    product_passes(nullptr);
    return finish(engine, /*flattened=*/true, /*arch_checked=*/false, stats);
  }
  arch::ArchitectureConfig config;
  config.name = program.name + "_arch";
  for (const htl::HostAst& host : program.architecture->hosts) {
    config.hosts.push_back({host.name, host.reliability});
  }
  for (const htl::SensorAst& sensor : program.architecture->sensors) {
    config.sensors.push_back({sensor.name, sensor.reliability});
  }
  auto arch = arch::Architecture::Build(std::move(config));
  if (!arch.ok()) {
    product_passes(nullptr);
    report_frontend_failure(arch.status(), options.file, engine);
    return finish(engine, /*flattened=*/true, /*arch_checked=*/false, stats);
  }
  product_passes(&*arch);
  check_lrc_feasibility(program, *spec, *arch, origin, engine);
  return finish(engine, /*flattened=*/true, /*arch_checked=*/true, stats);
}

}  // namespace

Result<LintResult> lint_program(const htl::ProgramAst& program,
                                const LintOptions& options) {
  const obs::Sink* sink = obs::resolve_sink(options.sink);
  const obs::SpanGuard span(sink, "lint", "run");
  return with_counters(sink, lint_program_impl(program, options));
}

Result<LintResult> lint_source(std::string_view source,
                               const LintOptions& options) {
  auto program = htl::parse(source);
  if (!program.ok()) {
    const obs::Sink* sink = obs::resolve_sink(options.sink);
    const obs::SpanGuard span(sink, "lint", "run");
    DiagnosticEngine engine;
    LRT_RETURN_IF_ERROR(configure_engine(engine, options));
    report_rule(
        engine, kRuleCompileError,
        locate_frontend_error(program.status().message(), options.file),
        strip_location_prefix(program.status().message()));
    return with_counters(
        sink, finish(engine, /*flattened=*/false, /*arch_checked=*/false));
  }
  return lint_program(*program, options);
}

}  // namespace lrt::lint
