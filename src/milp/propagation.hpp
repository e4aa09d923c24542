// Trail-based variable domains and activity-based bound propagation.
//
// The propagation engine implements the classic MIP "bound strengthening"
// rule: for a row  sum_j a_j x_j (<=|>=|=) b  it computes the row's minimum
// and maximum activity from the current bounds, detects conflicts, and
// tightens every variable's bound implied by the other terms. Run to a
// fixpoint it subsumes unit propagation on the 0/1 structure of the temporal
// partitioning model (uniqueness rows fix siblings to 0, temporal-order rows
// prune partitions of successors, area/latency rows prune design points).
//
// Domains keeps every row's minimum and maximum activity up to date as bounds
// move, so the propagator can dismiss a queued row in O(1) when its slack
// exceeds the row's static range: no term can then tighten or conflict.
// Rows that are not dismissed get the exact from-scratch pass, so the
// tightenings (and derivation logs) do not depend on the maintained sums.
#pragma once

#include <cstdint>
#include <vector>

#include "milp/certificate.hpp"
#include "milp/compiled.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// Current bounds of every variable plus an undo trail for backtracking, and
/// the incrementally maintained activity range of every row.
class Domains {
 public:
  /// `model` must outlive the domains.
  explicit Domains(const CompiledModel& model);

  [[nodiscard]] double lb(VarId v) const { return lb_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] double ub(VarId v) const { return ub_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] bool is_fixed(VarId v) const {
    return lb_[static_cast<std::size_t>(v)] >= ub_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] int num_vars() const { return static_cast<int>(lb_.size()); }

  /// Raises the lower bound (no-op when not an improvement). Returns true
  /// when the bound actually changed. Records the old value on the trail.
  bool set_lb(VarId v, double value);
  /// Lowers the upper bound, symmetric to set_lb.
  bool set_ub(VarId v, double value);

  /// Trail position to roll back to later.
  [[nodiscard]] std::size_t checkpoint() const { return trail_.size(); }
  /// Restores all bounds recorded after `mark`.
  void rollback(std::size_t mark);

  /// Replaces every bound and clears the trail. Used by branch & bound
  /// workers to seat a subproblem snapshot taken on another thread.
  void reset_to(const std::vector<double>& lb, const std::vector<double>& ub);

  /// Minimum / maximum activity of row c over the current bounds, each bound
  /// clamped into the model box, maintained incrementally. Only rows with a
  /// finite CompiledModel::row_range() are tracked exactly; the others carry
  /// no meaning.
  [[nodiscard]] double min_activity(int c) const {
    return act_[2 * static_cast<std::size_t>(c)];
  }
  [[nodiscard]] double max_activity(int c) const {
    return act_[2 * static_cast<std::size_t>(c) + 1];
  }
  /// True while every bound lies inside the model box and every integer
  /// variable's bounds are integral. Then the clamping above changes
  /// nothing, and the maintained activities equal the true ones up to float
  /// drift of at most kActivityDriftRel times the row's scale, which the
  /// propagator's row-skip test relies on.
  [[nodiscard]] bool bounds_regular() const { return irregular_bounds_ == 0; }

  /// Relative bound (against CompiledModel::row_scale) on the drift of the
  /// maintained activities: they are recomputed from scratch after every
  /// kActivityRefreshUpdates row updates, each of which adds a rounding
  /// error below 8 u scale (u = 2^-53), so the drift stays below
  /// 2^20 * 8 * 2^-53 < 1e-9 of the scale; the constant leaves a 10x margin.
  static constexpr double kActivityDriftRel = 1e-8;
  static constexpr std::int64_t kActivityRefreshUpdates = std::int64_t{1} << 20;

 private:
  struct TrailEntry {
    VarId var;
    bool is_lb;
    double old_value;
  };
  /// Accounts a bound of v moving from `from` to `to` in the activities.
  void move_bound(VarId v, bool is_lb, double from, double to);
  /// True when `x` is out of v's model box or fractional on an integer v.
  [[nodiscard]] bool irregular(VarId v, double x) const;
  void recompute_activities();

  const CompiledModel* model_;
  std::vector<double> lb_, ub_;
  std::vector<TrailEntry> trail_;
  /// act_[2c] / act_[2c+1]: min / max activity of row c.
  std::vector<double> act_;
  /// Current bounds for which irregular() holds.
  std::int64_t irregular_bounds_ = 0;
  /// Row updates since the activities were last recomputed.
  std::int64_t updates_since_refresh_ = 0;
};

/// Statistics accumulated over propagate() calls.
struct PropagationStats {
  std::int64_t constraints_processed = 0;
  std::int64_t bounds_tightened = 0;
  std::int64_t vars_fixed = 0;  ///< tightenings that emptied a var's slack
  std::int64_t conflicts = 0;
};

/// Activity-based bound propagation over a compiled model.
class Propagator {
 public:
  Propagator(const CompiledModel& model, double feasibility_tol,
             int max_rounds);

  /// Propagates to a fixpoint starting from the constraints adjacent to
  /// `seed_vars` (or all constraints when empty). Returns false on conflict
  /// (some constraint proved unsatisfiable or a domain emptied).
  bool propagate(Domains& domains, const std::vector<VarId>& seed_vars,
                 PropagationStats& stats);

  /// Installs a derivation log (nullptr to detach). While attached, every
  /// bound tightening appends a Derivation and a conflict records its row or
  /// emptied variable, giving the certificate checker a replayable trace.
  /// The caller clears the log between propagate() calls.
  void set_log(DerivationLog* log) { log_ = log; }

 private:
  bool process_constraint(int c, Domains& domains, PropagationStats& stats);
  /// O(1) test: the row's slack on every side it constrains covers its
  /// static range plus a drift margin, so the exact pass cannot tighten
  /// anything nor find a conflict.
  bool slack_covers_range(int c, const CompiledConstraint& cc, bool need_le,
                          bool need_ge, const Domains& domains) const;
  void enqueue_var(VarId v);
  void enqueue_all();

  const CompiledModel& model_;
  double tol_;
  int max_rounds_;
  DerivationLog* log_ = nullptr;
  std::vector<std::int32_t> queue_;
  std::vector<bool> in_queue_;  ///< all false between propagate() calls
};

}  // namespace sparcs::milp
