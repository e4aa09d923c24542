// Branch & bound over propagated domains.
//
// Search skeleton: propagate to a fixpoint; if a conflict arises backtrack;
// if integral variables remain, branch on the highest-priority one (value
// enumeration for small domains, interval bisection for large ones, the
// model's branch hint tried first); once every integral variable is fixed,
// the remaining continuous variables are completed exactly with a small LP.
// Optimality is enforced through a dynamic objective-cutoff row, so the same
// machinery serves both the paper's constraint-satisfaction mode
// (stop_at_first_feasible) and the optimal reference runs.
//
// The search is one depth-first walk on the calling thread: the same model
// and parameters explore the same nodes in the same order on every run (up
// to where a time limit or cancellation cuts it), and a first-feasible query
// returns the DFS-first feasible leaf.
#pragma once

#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::telemetry {
struct LiveSolve;
}  // namespace sparcs::telemetry

namespace sparcs::milp {

/// Out-of-band hooks threaded from the Solver session into the search.
struct BnbCallbacks {
  /// Session-level cancellation (Solver::cancel()), checked alongside the
  /// caller-supplied SolverParams::cancel token.
  CancelToken session_cancel;
  /// Invoked on every accepted incumbent; may be empty.
  IncumbentCallback on_incumbent;
  /// Live telemetry slot of the enclosing solve (owned by the Solver
  /// session's telemetry::SolveScope); null when telemetry is inactive.
  telemetry::LiveSolve* live = nullptr;
};

/// Solves `model` with propagation-based branch & bound.
MilpSolution solve_branch_and_bound(const Model& model,
                                    const SolverParams& params,
                                    const BnbCallbacks& callbacks = {});

}  // namespace sparcs::milp
