// Structured diagnostics for lrt-lint (DESIGN.md section 5d).
//
// A Diagnostic is one finding of one rule at one source location; the
// DiagnosticEngine collects them, applying per-rule configuration
// (enable/disable and severity overrides) before a finding is recorded.
// Rules themselves live in lint/rules.h; this layer is policy-free and is
// what later PRs' new rules plug into.
#ifndef LRT_LINT_DIAGNOSTIC_H_
#define LRT_LINT_DIAGNOSTIC_H_

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/status.h"

namespace lrt::lint {

/// Severity of a diagnostic. kOff is only meaningful as a per-rule
/// configuration value ("silence this rule"), never on a recorded
/// diagnostic.
enum class Severity {
  kOff = 0,
  kNote,     ///< stylistic or informational; never fails a gate
  kWarning,  ///< likely mistake; gate-neutral by default
  kError,    ///< violates a paper precondition or makes analysis vacuous
};

std::string_view to_string(Severity severity);

/// Parses "off", "note", "warning", or "error".
[[nodiscard]] std::optional<Severity> parse_severity(std::string_view text);

/// A position in an HTL source file. line/column are 1-based; 0 means
/// "whole file" (used for findings without a syntactic anchor).
struct SourceLocation {
  std::string file;
  int line = 0;
  int column = 0;

  /// "file:line:col" (omitting zero components).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const SourceLocation&,
                         const SourceLocation&) = default;
};

/// A secondary source location attached to a finding — the other racing
/// writer, one hop of the switch path that reaches an uninitialized read.
/// Rendered as SARIF relatedLocations and as indented "related:" lines in
/// text output.
struct RelatedLocation {
  SourceLocation location;
  std::string message;

  friend bool operator==(const RelatedLocation&,
                         const RelatedLocation&) = default;
};

/// One mechanical edit a rule can attach to its finding, precise enough
/// for lint::apply_fixits to execute. Anchored at a (line, column) the
/// parser recorded (statement keyword or port name); the applier scans
/// the source text for the statement/port extent, so edits stay valid
/// across reformatting.
struct FixEdit {
  enum class Kind {
    /// Delete from the anchor through the statement's closing ';'.
    kDeleteStatement,
    /// Insert `text` immediately before the statement's closing ';'.
    kInsertBeforeStatementEnd,
    /// Delete the `name[instance]` port at the anchor plus one adjoining
    /// list comma.
    kDeletePortRef,
  };
  Kind kind = Kind::kDeleteStatement;
  int line = 0;
  int column = 0;
  std::string text;  ///< only for kInsertBeforeStatementEnd

  friend bool operator==(const FixEdit&, const FixEdit&) = default;
};

/// One finding: a rule id + severity + location + message, with an
/// optional fix-it hint ("add 'defaults (...)'") for tooling.
struct Diagnostic {
  std::string rule_id;    ///< e.g. "LRT001"
  std::string rule_name;  ///< e.g. "race-write-write"
  Severity severity = Severity::kWarning;
  SourceLocation location;
  std::string message;
  std::string fixit;  ///< empty when the rule has no mechanical fix
  /// Secondary locations that complete the finding (may be empty).
  std::vector<RelatedLocation> related;
  /// Machine-applicable edits realizing `fixit` (may be empty).
  std::vector<FixEdit> edits;

  /// "file:line:col: severity: message [rule_id]".
  [[nodiscard]] std::string to_string() const;
};

/// Collects diagnostics, applying per-rule configuration before recording.
///
/// Configuration is keyed by rule id or rule name; a rule may be disabled
/// outright or have its severity overridden (e.g. promote a warning to an
/// error for a strict CI gate).
class DiagnosticEngine {
 public:
  struct RuleConfig {
    bool enabled = true;
    /// Overrides the diagnostic's default severity when set.
    std::optional<Severity> severity;
  };

  /// Sets the configuration for one rule (by id or name, per the caller's
  /// key choice; a diagnostic matches its id first, then its name).
  void configure(std::string_view rule_key, RuleConfig config);

  /// Parses a "<rule>=<severity|off>" flag, e.g. "LRT004=off" or
  /// "race-write-write=error". The rule key is validated by the caller
  /// (the lint entry points) against the rule catalog.
  Status configure_flag(std::string_view flag);

  /// Records `diag` unless its rule is disabled; returns true iff
  /// recorded. A configured severity override is applied first.
  bool report(Diagnostic diag);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diagnostics_;
  }
  /// Moves the collected diagnostics out, leaving the engine empty.
  [[nodiscard]] std::vector<Diagnostic> take() {
    return std::move(diagnostics_);
  }

  /// Stable-sorts by (file, line, column, rule id).
  void sort_by_location();

  /// sort_by_location() plus removal of identical findings — overlapping
  /// passes (e.g. the per-mode and mode-product race checks) may report
  /// the same (rule, location, message) twice; renderers and gates see
  /// each finding once. Deterministic: the first (lowest-sorted) copy
  /// survives.
  void sort_and_dedupe();

  [[nodiscard]] int count(Severity severity) const;
  [[nodiscard]] int error_count() const {
    return count(Severity::kError);
  }
  [[nodiscard]] int warning_count() const {
    return count(Severity::kWarning);
  }

 private:
  [[nodiscard]] const RuleConfig* config_for(const Diagnostic& diag) const;

  std::unordered_map<std::string, RuleConfig> configs_;
  std::vector<Diagnostic> diagnostics_;
};

}  // namespace lrt::lint

#endif  // LRT_LINT_DIAGNOSTIC_H_
