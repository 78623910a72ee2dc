// lrt-lint: multi-pass static analysis of HTL programs against the
// paper's preconditions (DESIGN.md section 5d).
//
// Two entry points, from most to least pre-digested input:
//   * lint_program(program, options)       — flatten and build the
//     architecture internally, converting frontend failures into LRT000
//     diagnostics instead of hard errors;
//   * lint_source(source, options)         — parse first; syntax errors
//     also become LRT000 diagnostics with their source location.
//
// The CLI (examples/lrt_lint.cpp) and the CI SARIF gate sit on
// lint_source.
#ifndef LRT_LINT_LINT_H_
#define LRT_LINT_LINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arch/architecture.h"
#include "htl/ast.h"
#include "htl/compiler.h"
#include "lint/diagnostic.h"
#include "lint/rules.h"
#include "obs/sink.h"
#include "spec/specification.h"

namespace lrt::lint {

struct LintOptions {
  /// File name recorded in diagnostic locations.
  std::string file = "<input>";
  /// Mode selection for the flattening-level passes; unlisted modules use
  /// their start modes (matching htl::compile).
  htl::ModeSelection selection;
  /// Per-rule "<id-or-name>=<off|note|warning|error>" overrides.
  std::vector<std::string> rule_flags;
  /// Node cap for the mode-product supergraph the cross-mode passes
  /// (LRT011-LRT017) analyze. Exceeding it degrades those passes to the
  /// per-module rules and reports LRT019 — never a silent truncation.
  std::size_t max_product_nodes = 1024;
  /// Observability sink: per-run "lint.*" counters and a "lint.run" span.
  /// Null falls back to the process-global sink (null = disabled).
  obs::Sink* sink = nullptr;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;
  /// True when the flattening-level passes ran (the program flattened).
  bool flattened = false;
  /// True when the architecture-level passes ran.
  bool arch_checked = false;
  /// Reachable mode-product supergraph size and total dataflow fixpoint
  /// iterations of the cross-mode passes (the lint.product_nodes and
  /// lint.fixpoint_iterations observability counters).
  std::int64_t product_nodes = 0;
  std::int64_t fixpoint_iterations = 0;

  [[nodiscard]] int count(Severity severity) const;
  [[nodiscard]] int errors() const { return count(Severity::kError); }
  [[nodiscard]] int warnings() const { return count(Severity::kWarning); }
  /// No error-severity findings (the CI gate condition).
  [[nodiscard]] bool clean() const { return errors() == 0; }
};

/// Flattens `program` (and builds its architecture block, if any), then
/// runs all applicable passes. Frontend failures become LRT000
/// diagnostics — unless an AST pass already explained the program's
/// rejection with a more precise finding.
[[nodiscard]] Result<LintResult> lint_program(
    const htl::ProgramAst& program, const LintOptions& options = {});

/// Parses `source` and lints it. Parse failures yield a single LRT000
/// diagnostic located from the parser's "line L:C:" message prefix.
[[nodiscard]] Result<LintResult> lint_source(
    std::string_view source, const LintOptions& options = {});

}  // namespace lrt::lint

#endif  // LRT_LINT_LINT_H_
