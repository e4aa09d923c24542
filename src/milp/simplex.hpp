// Bounded-variable two-phase primal simplex (dense tableau).
//
// Scope: the LP sizes this project needs are small-to-medium (the continuous
// completion problems of the branch & bound are tiny; LP-relaxation bounding
// is only enabled for models below a size threshold), so a dense full-tableau
// method with Dantzig pricing and a Bland anti-cycling fallback is the
// robust, simple choice. Rows are converted to equalities with a bounded
// slack, giving an m x (n + m) tableau [A | I]. Every solve starts from the
// slack basis with the structurals at their bound nearest zero; a slack may
// start outside its sense bounds. Phase 1 minimizes the sum of those bound
// violations (a composite phase 1: each basic variable costs -1 below its
// lower bound, +1 above its upper bound, 0 inside), so rows the start point
// already satisfies cost no pivots. Phase 2 continues on the same tableau.
// An infeasible verdict's Farkas ray is read off the phase-1 duals of the
// slack columns.
#pragma once

#include <functional>
#include <vector>

#include "milp/expr.hpp"
#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// A linear program in computational form: min obj'x subject to the rows and
/// the variable bounds (use +-kInfinity for free directions).
struct LpProblem {
  std::vector<double> obj;
  std::vector<double> lb;
  std::vector<double> ub;

  struct Row {
    std::vector<LinTerm> terms;
    Sense sense = Sense::kLessEqual;
    double rhs = 0.0;
  };
  std::vector<Row> rows;

  [[nodiscard]] int num_vars() const { return static_cast<int>(obj.size()); }
  [[nodiscard]] int num_rows() const { return static_cast<int>(rows.size()); }

  /// Appends a variable, returning its index.
  int add_var(double objective, double lower, double upper);
  /// Appends a row.
  void add_row(std::vector<LinTerm> terms, Sense sense, double rhs);
};

struct LpParams {
  int max_iterations = 200000;
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  double pivot_tol = 1e-9;
  /// Switch to Bland's rule after this many iterations without improvement.
  int stall_threshold = 500;
  /// Hard cap on tableau entries (rows * columns) to avoid runaway memory;
  /// exceeding it throws InvalidArgumentError.
  std::int64_t max_tableau_entries = 60'000'000;

  /// Give up on anti-cycling once Bland's rule has run this many iterations
  /// without terminating; the solve returns kNumericalFailure instead of
  /// spinning until max_iterations.
  int cycle_limit = 20000;

  /// Numerical-failure recovery attempts in solve_lp: each retry restarts
  /// with Bland's rule from iteration 0, and retries past the first also
  /// perturb the finite variable bounds outward (keeping the original
  /// feasible region a subset, so bounding stays conservative). 0 disables.
  int max_recoveries = 2;
  /// Relative magnitude of the outward bound perturbation per retry.
  double perturbation = 1e-9;

  /// Polled roughly every 128 iterations; returning true aborts the solve
  /// with kIterationLimit. Lets a deadline or cancellation unwind from
  /// inside a long LP run instead of waiting for the next node boundary.
  std::function<bool()> should_abort;

  /// On an infeasible verdict, extract a Farkas dual ray from the phase-1
  /// duals into LpResult::certificate (best-effort: extraction can fail,
  /// leaving Kind::kNone). Costs one reduced-cost refresh per infeasible
  /// solve and nothing on any other path.
  bool want_certificate = false;
};

/// Solves the LP with the two-phase bounded-variable simplex.
LpResult solve_lp(const LpProblem& problem, const LpParams& params = {});

/// Builds the LP relaxation of a MILP model (integrality dropped). A
/// maximization objective is negated so the LP is always a minimization;
/// `flip_objective` reports whether the sign was flipped.
LpProblem relaxation_of(const Model& model, bool* flip_objective = nullptr);

}  // namespace sparcs::milp
