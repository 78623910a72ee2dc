// The HTL compiler: semantic analysis and flattening of a parsed program
// into the analysis models (Specification / Architecture / Implementation),
// mirroring the paper's "logical-reliability-enhanced prototype of the
// compiler ... for HTL".
//
// Subset semantics: one mode is selected per module (the declared start
// mode unless overridden); the selected modes' task invocations flatten
// into one task-set specification. Mode switches are parsed and checked
// (bool condition communicator, target mode exists) and the analysis is
// per-mode — the paper's example "switches ... always to tasks with
// identical reliability constraints", so per-mode analysis covers the
// published semantics. All selected mode periods must agree with the
// flattened specification period.
#ifndef LRT_HTL_COMPILER_H_
#define LRT_HTL_COMPILER_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "htl/ast.h"
#include "impl/implementation.h"
#include "refine/refinement.h"
#include "support/status.h"

namespace lrt::htl {

/// Binds task names to executable C++ functions. Tasks without a binding
/// compile fine and produce type-correct zero outputs when simulated.
using FunctionRegistry =
    std::unordered_map<std::string, spec::TaskFunction>;

/// Overrides the mode chosen per module; unlisted modules use their start
/// mode.
struct ModeSelection {
  std::map<std::string, std::string> mode_by_module;
};

/// The result of compiling one HTL program.
struct CompiledSystem {
  ProgramAst ast;
  std::unique_ptr<spec::Specification> specification;
  /// Null when the program has no architecture block.
  std::unique_ptr<arch::Architecture> architecture;
  /// Null when the program has no mapping block (requires architecture).
  std::unique_ptr<impl::Implementation> implementation;
};

/// Parses, checks, and flattens `source`.
[[nodiscard]] Result<CompiledSystem> compile(
    std::string_view source, const FunctionRegistry& functions = {},
    const ModeSelection& selection = {});

/// Checks and flattens an already-parsed program: compiling many mode
/// selections of one source parses it once. The result holds a copy of
/// `program`.
[[nodiscard]] Result<CompiledSystem> compile(
    const ProgramAst& program, const FunctionRegistry& functions = {},
    const ModeSelection& selection = {});

/// The program's mapping block as an implementation of `spec` (a
/// flattening of `program`) on `architecture`; null when the program has
/// no mapping block. Mappings of tasks outside `spec` are skipped, so one
/// architecture can serve every mode selection.
[[nodiscard]] Result<std::unique_ptr<impl::Implementation>>
build_implementation(const ProgramAst& program,
                     const spec::Specification& spec,
                     const arch::Architecture* architecture);

/// Flattens an already-parsed program into a specification (semantic
/// checks included).
[[nodiscard]] Result<spec::Specification> flatten(
    const ProgramAst& program, const FunctionRegistry& functions = {},
    const ModeSelection& selection = {});

/// Extracts the kappa map declared by a refining program's `refine task`
/// declarations. Fails if the program declares no `refines` parent.
[[nodiscard]] Result<refine::RefinementMap> refinement_map(
    const ProgramAst& program);

/// Every mode selection of the program (the Cartesian product of each
/// module's modes), for exhaustive per-mode analysis: the paper applies
/// its reliability analysis per mode ("the switch is always to tasks with
/// identical reliability constraints, and the reliability analysis ...
/// applies"). Fails when the product exceeds `limit` or a module declares
/// no modes.
[[nodiscard]] Result<std::vector<ModeSelection>> enumerate_mode_selections(
    const ProgramAst& program, std::size_t limit = 4096);

}  // namespace lrt::htl

#endif  // LRT_HTL_COMPILER_H_
