#include "milp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/logging.hpp"
#include "support/span.hpp"

namespace sparcs::milp {

int LpProblem::add_var(double objective, double lower, double upper) {
  obj.push_back(objective);
  lb.push_back(lower);
  ub.push_back(upper);
  return num_vars() - 1;
}

void LpProblem::add_row(std::vector<LinTerm> terms, Sense sense, double rhs) {
  rows.push_back(Row{std::move(terms), sense, rhs});
}

namespace {

enum class ColStatus : std::uint8_t {
  kBasic,
  kAtLower,
  kAtUpper,
  kFreeZero,  ///< nonbasic free variable pinned at 0
};

/// Dense bounded-variable simplex working state.
class SimplexTableau {
 public:
  SimplexTableau(const LpProblem& problem, const LpParams& params)
      : params_(params),
        problem_(problem),
        m_(problem.num_rows()),
        n_struct_(problem.num_vars()) {
    build(problem);
  }

  LpResult run();

 private:
  LpResult run_phases();
  void build(const LpProblem& problem);
  void compute_reduced_costs();
  /// Returns entering column or -1 when the current phase is optimal.
  int choose_entering(bool bland) const;
  /// Performs one simplex iteration; returns false on unboundedness.
  bool iterate(int entering, bool* made_progress);
  double& tab(int row, int col) { return tab_[static_cast<std::size_t>(row) * ncols_ + col]; }
  double tab(int row, int col) const { return tab_[static_cast<std::size_t>(row) * ncols_ + col]; }
  double nonbasic_value(int col) const;
  /// Installs the phase's cost row and recomputes the reduced costs from
  /// scratch; phase 1 prices the current bound violations.
  void set_phase(int phase);
  /// Phase-1 cost of a basic variable at value v: -1 below its lower bound,
  /// +1 above its upper bound (by more than feasibility_tol), 0 inside.
  double violation_cost(int col, double v) const;
  /// Re-prices phase 1 after a step: nonbasic columns cost 0 and each basic
  /// one costs its violation_cost(). Only rows whose cost changed patch the
  /// reduced costs (one tableau row each). Updates violated_.
  void reprice_phase1();
  /// Sum of the bound violations of the basic variables.
  double violation_sum() const;
  void extract(LpResult& result) const;
  /// False once roundoff has blown up: any non-finite basic value or reduced
  /// cost. Declaring optimality/infeasibility from such a state would be
  /// wrong (NaN comparisons silently read as "optimal"), so callers bail out
  /// with kNumericalFailure instead.
  bool state_is_finite() const;
  /// Reads the phase-1 dual ray off the slack reduced costs and attaches it
  /// as a Farkas certificate when a float pre-check orients it successfully.
  void attach_farkas(LpResult& result);

  const LpParams& params_;
  const LpProblem& problem_;
  int m_ = 0;         ///< number of rows
  int n_struct_ = 0;  ///< structural variables
  int ncols_ = 0;     ///< structural + slack columns

  std::vector<double> tab_;     ///< m x ncols dense tableau (B^-1 A)
  std::vector<double> xb_;      ///< value of the basic variable of each row
  std::vector<int> basis_;      ///< column basic in each row
  std::vector<ColStatus> stat_;
  std::vector<double> lb_, ub_;
  std::vector<double> cost_;        ///< current phase objective
  std::vector<double> real_cost_;   ///< phase-2 objective
  std::vector<double> d_;           ///< reduced costs for current phase
  int phase_ = 1;
  int violated_ = 0;  ///< phase 1: basic variables outside their bounds
  int iterations_ = 0;
  int pivots_ = 0;
  int refactorizations_ = 0;
};

void SimplexTableau::build(const LpProblem& problem) {
  ncols_ = n_struct_ + m_;
  SPARCS_REQUIRE(static_cast<std::int64_t>(m_) * ncols_ <=
                     params_.max_tableau_entries,
                 "LP too large for the dense simplex tableau");

  lb_.assign(static_cast<std::size_t>(ncols_), 0.0);
  ub_.assign(static_cast<std::size_t>(ncols_), kInfinity);
  real_cost_.assign(static_cast<std::size_t>(ncols_), 0.0);
  for (int j = 0; j < n_struct_; ++j) {
    lb_[j] = problem.lb[static_cast<std::size_t>(j)];
    ub_[j] = problem.ub[static_cast<std::size_t>(j)];
    real_cost_[j] = problem.obj[static_cast<std::size_t>(j)];
  }
  // Slack bounds encode the row sense: Ax + s = b.
  for (int i = 0; i < m_; ++i) {
    const int j = n_struct_ + i;
    switch (problem.rows[static_cast<std::size_t>(i)].sense) {
      case Sense::kLessEqual:
        lb_[j] = 0.0;
        ub_[j] = kInfinity;
        break;
      case Sense::kGreaterEqual:
        lb_[j] = -kInfinity;
        ub_[j] = 0.0;
        break;
      case Sense::kEqual:
        lb_[j] = 0.0;
        ub_[j] = 0.0;
        break;
    }
  }

  // Nonbasic structurals: at their finite bound nearest zero (free columns
  // pinned at zero).
  stat_.assign(static_cast<std::size_t>(ncols_), ColStatus::kBasic);
  for (int j = 0; j < n_struct_; ++j) {
    const double lo = lb_[j], hi = ub_[j];
    if (std::isfinite(lo) && std::isfinite(hi)) {
      stat_[j] = std::abs(lo) <= std::abs(hi) ? ColStatus::kAtLower
                                              : ColStatus::kAtUpper;
    } else if (std::isfinite(lo)) {
      stat_[j] = ColStatus::kAtLower;
    } else if (std::isfinite(hi)) {
      stat_[j] = ColStatus::kAtUpper;
    } else {
      stat_[j] = ColStatus::kFreeZero;
    }
  }

  // Tableau = [A | I]: the slack basis, with slack i at b_i - a_i.x_N. A
  // slack may start outside its sense bounds; phase 1 prices that violation.
  tab_.assign(static_cast<std::size_t>(m_) * ncols_, 0.0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  xb_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) {
    const auto& row = problem.rows[static_cast<std::size_t>(i)];
    double lhs = 0.0;
    for (const LinTerm& term : row.terms) {
      SPARCS_REQUIRE(term.var >= 0 && term.var < n_struct_,
                     "LP row references unknown variable");
      tab(i, term.var) += term.coef;
      lhs += term.coef * nonbasic_value(term.var);
    }
    tab(i, n_struct_ + i) = 1.0;
    basis_[static_cast<std::size_t>(i)] = n_struct_ + i;
    xb_[static_cast<std::size_t>(i)] = row.rhs - lhs;
  }

  set_phase(1);
}

double SimplexTableau::nonbasic_value(int col) const {
  switch (stat_[static_cast<std::size_t>(col)]) {
    case ColStatus::kAtLower:
      return lb_[static_cast<std::size_t>(col)];
    case ColStatus::kAtUpper:
      return ub_[static_cast<std::size_t>(col)];
    case ColStatus::kFreeZero:
      return 0.0;
    case ColStatus::kBasic:
      break;
  }
  for (int i = 0; i < m_; ++i) {
    if (basis_[static_cast<std::size_t>(i)] == col) {
      return xb_[static_cast<std::size_t>(i)];
    }
  }
  return 0.0;
}

void SimplexTableau::set_phase(int phase) {
  phase_ = phase;
  if (phase == 1) {
    // Start from the all-zero cost row (so d = 0) and let the re-pricing add
    // every violated row.
    cost_.assign(static_cast<std::size_t>(ncols_), 0.0);
    d_.assign(static_cast<std::size_t>(ncols_), 0.0);
    reprice_phase1();
  } else {
    cost_ = real_cost_;
    compute_reduced_costs();
  }
}

double SimplexTableau::violation_cost(int col, double v) const {
  if (v < lb_[static_cast<std::size_t>(col)] - params_.feasibility_tol) {
    return -1.0;
  }
  if (v > ub_[static_cast<std::size_t>(col)] + params_.feasibility_tol) {
    return 1.0;
  }
  return 0.0;
}

void SimplexTableau::reprice_phase1() {
  // d = c - c_B B^-1 A: a nonbasic cost change moves only its own d_j; a
  // basic cost change by delta moves d by -delta times its tableau row.
  for (int j = 0; j < ncols_; ++j) {
    const std::size_t k = static_cast<std::size_t>(j);
    if (stat_[k] != ColStatus::kBasic && cost_[k] != 0.0) {
      d_[k] -= cost_[k];
      cost_[k] = 0.0;
    }
  }
  violated_ = 0;
  for (int i = 0; i < m_; ++i) {
    const std::size_t b = static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
    const double c = violation_cost(static_cast<int>(b), xb_[static_cast<std::size_t>(i)]);
    if (c != 0.0) ++violated_;
    const double delta = c - cost_[b];
    if (delta == 0.0) continue;
    const double* row = &tab_[static_cast<std::size_t>(i) * ncols_];
    for (int j = 0; j < ncols_; ++j) d_[static_cast<std::size_t>(j)] -= delta * row[j];
    d_[b] = 0.0;
    cost_[b] = c;
  }
}

void SimplexTableau::compute_reduced_costs() {
  d_ = cost_;
  for (int i = 0; i < m_; ++i) {
    const double cb = cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    if (cb == 0.0) continue;
    const double* row = &tab_[static_cast<std::size_t>(i) * ncols_];
    for (int j = 0; j < ncols_; ++j) d_[static_cast<std::size_t>(j)] -= cb * row[j];
  }
  // Basic columns have zero reduced cost by definition; enforce exactly.
  for (int i = 0; i < m_; ++i) {
    d_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] = 0.0;
  }
}

int SimplexTableau::choose_entering(bool bland) const {
  int best = -1;
  double best_score = params_.optimality_tol;
  for (int j = 0; j < ncols_; ++j) {
    const ColStatus s = stat_[static_cast<std::size_t>(j)];
    if (s == ColStatus::kBasic) continue;
    const double dj = d_[static_cast<std::size_t>(j)];
    double score = 0.0;
    if ((s == ColStatus::kAtLower || s == ColStatus::kFreeZero) && dj < -params_.optimality_tol) {
      score = -dj;
    } else if ((s == ColStatus::kAtUpper || s == ColStatus::kFreeZero) && dj > params_.optimality_tol) {
      score = dj;
    } else {
      continue;
    }
    if (bland) return j;  // first eligible index
    if (score > best_score) {
      best_score = score;
      best = j;
    }
  }
  return best;
}

bool SimplexTableau::iterate(int entering, bool* made_progress) {
  const std::size_t q = static_cast<std::size_t>(entering);
  const double dq = d_[q];
  // Direction of movement of the entering variable.
  const ColStatus s = stat_[q];
  int dir;
  if (s == ColStatus::kAtLower) {
    dir = +1;
  } else if (s == ColStatus::kAtUpper) {
    dir = -1;
  } else {  // free at zero: move against the gradient
    dir = dq < 0.0 ? +1 : -1;
  }

  // Ratio test.
  double t_max = ub_[q] - lb_[q];  // bound-flip distance (may be inf/NaN)
  if (!std::isfinite(t_max)) t_max = kInfinity;
  int leave_row = -1;
  double leave_pivot = 0.0;
  bool leave_at_upper = false;
  for (int i = 0; i < m_; ++i) {
    const double y = tab(i, entering);
    if (std::abs(y) < params_.pivot_tol) continue;
    const int b = basis_[static_cast<std::size_t>(i)];
    const double v = xb_[static_cast<std::size_t>(i)];
    const double delta = -static_cast<double>(dir) * y;  // d(xB_i)/dt
    double limit;
    bool hits_upper;
    if (phase_ == 1 && cost_[static_cast<std::size_t>(b)] != 0.0) {
      // A violated basic blocks only at the violated bound it moves toward,
      // and leaves there feasible; moving away from it never blocks.
      const bool below = cost_[static_cast<std::size_t>(b)] < 0.0;
      if (below != (delta > 0.0)) continue;
      limit = below ? lb_[static_cast<std::size_t>(b)]
                    : ub_[static_cast<std::size_t>(b)];
      hits_upper = !below;
    } else if (delta < 0.0) {
      limit = lb_[static_cast<std::size_t>(b)];
      if (!std::isfinite(limit)) continue;
      hits_upper = false;
    } else {
      limit = ub_[static_cast<std::size_t>(b)];
      if (!std::isfinite(limit)) continue;
      hits_upper = true;
    }
    double t_i = (limit - v) / delta;
    if (t_i < 0.0) t_i = 0.0;  // degenerate step
    if (t_i < t_max - params_.pivot_tol ||
        (t_i < t_max + params_.pivot_tol &&
         std::abs(y) > std::abs(leave_pivot))) {
      if (t_i <= t_max) {
        t_max = t_i;
        leave_row = i;
        leave_pivot = y;
        leave_at_upper = hits_upper;
      }
    }
  }

  if (!std::isfinite(t_max)) {
    return false;  // unbounded direction
  }

  const double step = t_max;
  *made_progress = std::abs(step * dq) > 1e-12;

  // Apply the step to the basic values.
  if (step != 0.0) {
    for (int i = 0; i < m_; ++i) {
      const double y = tab(i, entering);
      if (y != 0.0) {
        xb_[static_cast<std::size_t>(i)] -= static_cast<double>(dir) * step * y;
      }
    }
  }

  if (leave_row < 0) {
    // Pure bound flip: the entering variable traverses to its other bound.
    stat_[q] = (dir > 0) ? ColStatus::kAtUpper : ColStatus::kAtLower;
    return true;
  }

  // Basis change: entering becomes basic at its new value; the leaving
  // variable exits at the bound it hit.
  ++pivots_;
  const std::size_t r = static_cast<std::size_t>(leave_row);
  const int leaving = basis_[r];
  const double entering_value =
      (s == ColStatus::kAtUpper ? ub_[q]
       : s == ColStatus::kAtLower ? lb_[q]
                                  : 0.0) +
      static_cast<double>(dir) * step;

  stat_[static_cast<std::size_t>(leaving)] =
      leave_at_upper ? ColStatus::kAtUpper : ColStatus::kAtLower;
  basis_[r] = entering;
  stat_[q] = ColStatus::kBasic;
  xb_[r] = entering_value;

  // Gauss-Jordan elimination on the pivot column.
  double* prow = &tab_[r * ncols_];
  const double pivot = prow[entering];
  const double inv = 1.0 / pivot;
  for (int j = 0; j < ncols_; ++j) prow[j] *= inv;
  prow[entering] = 1.0;
  for (int i = 0; i < m_; ++i) {
    if (i == leave_row) continue;
    double* row = &tab_[static_cast<std::size_t>(i) * ncols_];
    const double factor = row[entering];
    if (factor == 0.0) continue;
    for (int j = 0; j < ncols_; ++j) row[j] -= factor * prow[j];
    row[entering] = 0.0;
  }
  const double dfac = d_[q];
  if (dfac != 0.0) {
    for (int j = 0; j < ncols_; ++j) d_[static_cast<std::size_t>(j)] -= dfac * prow[j];
  }
  d_[q] = 0.0;
  return true;
}

bool SimplexTableau::state_is_finite() const {
  for (const double v : xb_) {
    if (!std::isfinite(v)) return false;
  }
  for (const double v : d_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double SimplexTableau::violation_sum() const {
  double total = 0.0;
  for (int i = 0; i < m_; ++i) {
    const std::size_t b = static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
    const double v = xb_[static_cast<std::size_t>(i)];
    total += std::max({0.0, lb_[b] - v, v - ub_[b]});
  }
  return total;
}

void SimplexTableau::extract(LpResult& result) const {
  result.x.assign(static_cast<std::size_t>(n_struct_), 0.0);
  for (int j = 0; j < n_struct_; ++j) {
    if (stat_[static_cast<std::size_t>(j)] != ColStatus::kBasic) {
      result.x[static_cast<std::size_t>(j)] = nonbasic_value(j);
    }
  }
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (b < n_struct_) {
      result.x[static_cast<std::size_t>(b)] = xb_[static_cast<std::size_t>(i)];
    }
  }
  double obj = 0.0;
  for (int j = 0; j < n_struct_; ++j) {
    obj += real_cost_[static_cast<std::size_t>(j)] * result.x[static_cast<std::size_t>(j)];
  }
  result.objective = obj;
}

void SimplexTableau::attach_farkas(LpResult& result) {
  // Phase-1 duals live in the slack columns: slack k's column is e_k, so with
  // y = c_B B^-1, d_slack_k = cost_k - y_k, i.e. the multiplier of row k is
  // cost_k - d_slack_k (cost_k is the slack's violation price when basic, 0
  // when nonbasic). Refresh first — the incrementally-updated cost row drifts.
  compute_reduced_costs();
  ++refactorizations_;
  if (!state_is_finite()) return;
  std::vector<double> ray(static_cast<std::size_t>(m_));
  double scale = 0.0;
  for (int k = 0; k < m_; ++k) {
    const std::size_t slack = static_cast<std::size_t>(n_struct_ + k);
    ray[static_cast<std::size_t>(k)] = cost_[slack] - d_[slack];
    scale = std::max(scale, std::abs(ray[static_cast<std::size_t>(k)]));
  }
  if (scale == 0.0) return;
  // The overall sign of the ray depends on conventions that are easy to get
  // wrong and on which phase-1 exit we came through; try both orientations
  // against a float evaluation of the Farkas condition and keep the one that
  // works. The exact checker (milp/certify) is authoritative either way.
  for (const double orient : {1.0, -1.0}) {
    std::vector<double> y(static_cast<std::size_t>(m_));
    bool signs_ok = true;
    for (int k = 0; k < m_ && signs_ok; ++k) {
      double v = orient * ray[static_cast<std::size_t>(k)];
      const Sense sense = problem_.rows[static_cast<std::size_t>(k)].sense;
      if ((sense == Sense::kLessEqual && v < 0.0) ||
          (sense == Sense::kGreaterEqual && v > 0.0)) {
        // Clamp roundoff-level sign violations; reject real ones.
        if (std::abs(v) <= 1e-7 * scale) {
          v = 0.0;
        } else {
          signs_ok = false;
        }
      }
      y[static_cast<std::size_t>(k)] = v;
    }
    if (!signs_ok) continue;
    // Aggregate w = sum y_k a_k and its box-minimum over the variable
    // bounds; infeasibility needs min > y.b strictly.
    std::vector<double> w(static_cast<std::size_t>(n_struct_), 0.0);
    double yb = 0.0;
    for (int k = 0; k < m_; ++k) {
      const double yk = y[static_cast<std::size_t>(k)];
      if (yk == 0.0) continue;
      const auto& row = problem_.rows[static_cast<std::size_t>(k)];
      for (const LinTerm& term : row.terms) {
        w[static_cast<std::size_t>(term.var)] += yk * term.coef;
      }
      yb += yk * row.rhs;
    }
    double box_min = 0.0;
    bool finite = true;
    for (int j = 0; j < n_struct_ && finite; ++j) {
      const double wj = w[static_cast<std::size_t>(j)];
      if (wj == 0.0) continue;
      const double bound = wj > 0.0 ? problem_.lb[static_cast<std::size_t>(j)]
                                    : problem_.ub[static_cast<std::size_t>(j)];
      if (!std::isfinite(bound)) {
        finite = false;
      } else {
        box_min += wj * bound;
      }
    }
    if (finite && box_min > yb) {
      result.certificate.kind = LpCertificate::Kind::kFarkas;
      result.certificate.y = std::move(y);
      return;
    }
  }
}

LpResult SimplexTableau::run() {
  LpResult result = run_phases();
  result.iterations = iterations_;
  result.pivots = pivots_;
  result.refactorizations = refactorizations_;
  return result;
}

LpResult SimplexTableau::run_phases() {
  LpResult result;
  if (SPARCS_FAILPOINT("milp.simplex.blowup")) {
    // Poison the state the way a real blow-up would (instead of returning the
    // failure status directly) so the detection path itself is exercised.
    if (!xb_.empty()) {
      xb_[0] = std::numeric_limits<double>::quiet_NaN();
    } else {
      result.status = LpStatus::kNumericalFailure;
      return result;
    }
  }
  if (SPARCS_FAILPOINT("milp.simplex.cycle")) {
    // Emulates the degenerate-cycling detector giving up (Bland's rule ran
    // cycle_limit iterations without terminating).
    result.status = LpStatus::kNumericalFailure;
    return result;
  }
  int stall = 0;
  int bland_run = 0;  ///< consecutive iterations under Bland's rule
  for (;;) {
    if (phase_ == 1 && violated_ == 0) {
      // Every basic variable is inside its bounds: the basis is feasible.
      set_phase(2);
      stall = 0;
      bland_run = 0;
    }
    const bool bland = stall > params_.stall_threshold;
    if (bland) {
      // Bland's rule terminates in exact arithmetic; if it spins this long we
      // are cycling on roundoff and no pivoting rule will save us.
      if (++bland_run > params_.cycle_limit) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iterations_;
        return result;
      }
    } else {
      bland_run = 0;
    }
    const int entering = choose_entering(bland);
    if (entering < 0) {
      // Current phase optimal.
      if (!state_is_finite()) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iterations_;
        return result;
      }
      if (phase_ == 1) {
        if (violation_sum() > 1e3 * params_.feasibility_tol) {
          result.status = LpStatus::kInfeasible;
          result.iterations = iterations_;
          if (params_.want_certificate) attach_farkas(result);
          return result;
        }
        set_phase(2);
        stall = 0;
        bland_run = 0;
        continue;
      }
      result.status = LpStatus::kOptimal;
      result.iterations = iterations_;
      extract(result);
      return result;
    }
    bool progress = false;
    if (!iterate(entering, &progress)) {
      if (!state_is_finite()) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iterations_;
        return result;
      }
      result.status =
          phase_ == 1 ? LpStatus::kInfeasible : LpStatus::kUnbounded;
      result.iterations = iterations_;
      if (phase_ == 1 && params_.want_certificate) attach_farkas(result);
      return result;
    }
    if (phase_ == 1) reprice_phase1();
    stall = progress ? 0 : stall + 1;
    if (++iterations_ >= params_.max_iterations) {
      result.status = LpStatus::kIterationLimit;
      result.iterations = iterations_;
      return result;
    }
    if (params_.should_abort && iterations_ % 128 == 0 &&
        params_.should_abort()) {
      result.status = LpStatus::kIterationLimit;
      result.iterations = iterations_;
      return result;
    }
    // Periodic refresh guards against accumulated roundoff in the cost row.
    if (iterations_ % 512 == 0) {
      set_phase(phase_);
      ++refactorizations_;
      if (!state_is_finite()) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iterations_;
        return result;
      }
    }
  }
}

}  // namespace

namespace {

/// Relaxes every finite bound outward by a relative epsilon. The perturbed
/// feasible region is a superset of the original, so an LP bound computed on
/// it is still a valid (conservative) bound for branch & bound pruning.
LpProblem perturb_bounds_outward(const LpProblem& problem, double eps) {
  LpProblem out = problem;
  for (int j = 0; j < out.num_vars(); ++j) {
    const std::size_t i = static_cast<std::size_t>(j);
    if (std::isfinite(out.lb[i])) out.lb[i] -= eps * (1.0 + std::abs(out.lb[i]));
    if (std::isfinite(out.ub[i])) out.ub[i] += eps * (1.0 + std::abs(out.ub[i]));
  }
  return out;
}

}  // namespace

LpResult solve_lp(const LpProblem& problem, const LpParams& params) {
  trace::Span span("simplex");
  span.arg("rows", static_cast<std::int64_t>(problem.num_rows()));
  span.arg("cols", static_cast<std::int64_t>(problem.num_vars()));
  for (int j = 0; j < problem.num_vars(); ++j) {
    if (problem.lb[static_cast<std::size_t>(j)] >
        problem.ub[static_cast<std::size_t>(j)] + params.feasibility_tol) {
      LpResult result;
      result.status = LpStatus::kInfeasible;
      if (params.want_certificate) {
        result.certificate.kind = LpCertificate::Kind::kEmptyBound;
        result.certificate.var = j;
      }
      return result;
    }
  }
  LpResult result = SimplexTableau(problem, params).run();
  // Numerical-failure recovery: retry with Bland's rule from iteration 0
  // (attempt 1) and additionally with outward bound perturbation (later
  // attempts). Iteration/pivot counts accumulate across attempts.
  for (int attempt = 1;
       result.status == LpStatus::kNumericalFailure &&
       attempt <= params.max_recoveries;
       ++attempt) {
    SPARCS_LOG(kDebug) << "simplex recovery attempt " << attempt
                       << " (Bland" << (attempt > 1 ? " + perturbation" : "")
                       << ")";
    LpParams retry = params;
    retry.stall_threshold = 0;  // Bland's rule from the first iteration
    LpResult prior = result;
    if (attempt > 1) {
      const LpProblem perturbed = perturb_bounds_outward(
          problem, params.perturbation * static_cast<double>(attempt));
      result = SimplexTableau(perturbed, retry).run();
    } else {
      result = SimplexTableau(problem, retry).run();
    }
    result.iterations += prior.iterations;
    result.pivots += prior.pivots;
    result.refactorizations += prior.refactorizations;
    result.recoveries = attempt;
  }
  if (result.certificate.kind == LpCertificate::Kind::kFarkas &&
      SPARCS_FAILPOINT("milp.certify.corrupt_ray")) {
    // Zero the dual ray: the aggregated Farkas product degenerates to
    // 0 > 0, so the exact checker must reject it — exercising the
    // distrust-and-retry demotion path end-to-end.
    std::fill(result.certificate.y.begin(), result.certificate.y.end(), 0.0);
  }
  return result;
}

LpProblem relaxation_of(const Model& model, bool* flip_objective) {
  LpProblem lp;
  const double sign = model.minimize() ? 1.0 : -1.0;
  if (flip_objective != nullptr) *flip_objective = !model.minimize();
  lp.obj.assign(static_cast<std::size_t>(model.num_vars()), 0.0);
  lp.lb.reserve(static_cast<std::size_t>(model.num_vars()));
  lp.ub.reserve(static_cast<std::size_t>(model.num_vars()));
  for (const VarInfo& v : model.vars()) {
    lp.lb.push_back(v.lb);
    lp.ub.push_back(v.ub);
  }
  for (const LinTerm& term : model.objective().terms()) {
    lp.obj[static_cast<std::size_t>(term.var)] += sign * term.coef;
  }
  for (const ConstraintInfo& c : model.constraints()) {
    lp.rows.push_back(LpProblem::Row{c.terms, c.sense, c.rhs});
  }
  return lp;
}

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kFeasible:
      return "feasible";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kLimitReached:
      return "limit-reached";
    case SolveStatus::kNumericalFailure:
      return "numerical-failure";
  }
  return "unknown";
}

std::string to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
    case LpStatus::kNumericalFailure:
      return "numerical-failure";
  }
  return "unknown";
}

}  // namespace sparcs::milp
