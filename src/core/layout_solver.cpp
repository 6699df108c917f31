#include "core/layout_solver.hpp"

#include <stdexcept>

#include "layout/constraint_network.hpp"
#include "util/parse.hpp"

namespace flo::core {

const char* solver_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::kUnimodular:
      return "unimodular";
    case SolverKind::kConstraintNetwork:
      return "constraint";
  }
  return "?";
}

std::optional<SolverKind> parse_solver(const std::string& name) {
  if (name == "unimodular") return SolverKind::kUnimodular;
  if (name == "constraint") return SolverKind::kConstraintNetwork;
  return std::nullopt;
}

SolverKind solver_from_env() {
  static const SolverKind kind =
      util::read_knob("FLO_SOLVER", [](const std::string& name) {
        if (const auto parsed = parse_solver(name)) return *parsed;
        throw std::invalid_argument("unknown layout solver '" + name +
                                    "' (expected unimodular or constraint)");
      }).value_or(SolverKind::kUnimodular);
  return kind;
}

namespace {

class UnimodularSolver final : public LayoutSolver {
 public:
  const char* name() const override {
    return solver_name(SolverKind::kUnimodular);
  }

  layout::ArrayPartitioning solve(
      const ir::Program& program, ir::ArrayId array,
      const parallel::ParallelSchedule& schedule,
      const layout::PartitioningOptions& options) const override {
    return layout::partition_array(program, array, schedule, options);
  }
};

class ConstraintNetworkSolver final : public LayoutSolver {
 public:
  const char* name() const override {
    return solver_name(SolverKind::kConstraintNetwork);
  }

  layout::ArrayPartitioning solve(
      const ir::Program& program, ir::ArrayId array,
      const parallel::ParallelSchedule& schedule,
      const layout::PartitioningOptions& options) const override {
    return layout::solve_constraint_network(program, array, schedule,
                                            options);
  }
};

}  // namespace

const LayoutSolver& solver_for(SolverKind kind) {
  static const UnimodularSolver unimodular;
  static const ConstraintNetworkSolver constraint;
  switch (kind) {
    case SolverKind::kUnimodular:
      return unimodular;
    case SolverKind::kConstraintNetwork:
      return constraint;
  }
  return unimodular;
}

}  // namespace flo::core
