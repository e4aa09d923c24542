// Compiled (solver-internal) form of a Model: CSR constraint storage, the
// transposed (column) CSR index, per-row static ranges, and an optional
// dynamic objective-cutoff row used by branch & bound to turn incumbent
// objectives into a constraint.
#pragma once

#include <span>
#include <vector>

#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// One compiled constraint; its terms live in the shared CSR arrays.
struct CompiledConstraint {
  std::int32_t begin = 0;  ///< first term index
  std::int32_t end = 0;    ///< one past the last term index
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
};

/// Immutable-by-convention compiled model (the cutoff rhs is the one mutable
/// field, owned by the branch & bound).
class CompiledModel {
 public:
  /// Compiles `model`. When `with_objective_cutoff` is true and the model has
  /// an objective, an extra row `obj <= +inf` is appended whose rhs the
  /// search tightens as incumbents are found (the objective is negated first
  /// for maximization so the compiled problem always minimizes).
  explicit CompiledModel(const Model& model, bool with_objective_cutoff = false);

  [[nodiscard]] int num_vars() const { return static_cast<int>(types_.size()); }
  [[nodiscard]] int num_constraints() const {
    return static_cast<int>(constraints_.size());
  }

  [[nodiscard]] const CompiledConstraint& constraint(int c) const {
    return constraints_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const double* coefs(const CompiledConstraint& c) const {
    return coef_.data() + c.begin;
  }
  [[nodiscard]] const VarId* vars(const CompiledConstraint& c) const {
    return var_.data() + c.begin;
  }
  [[nodiscard]] int size(const CompiledConstraint& c) const {
    return c.end - c.begin;
  }

  [[nodiscard]] VarType var_type(VarId v) const {
    return types_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool is_integral(VarId v) const {
    return types_[static_cast<std::size_t>(v)] != VarType::kContinuous;
  }
  [[nodiscard]] double lb(VarId v) const { return lb_[static_cast<std::size_t>(v)]; }
  [[nodiscard]] double ub(VarId v) const { return ub_[static_cast<std::size_t>(v)]; }

  /// Constraints containing variable v, in ascending row order.
  [[nodiscard]] std::span<const std::int32_t> constraints_of(VarId v) const {
    return {col_row_.data() + col_begin(v), col_len(v)};
  }
  /// Coefficient of v in each row of constraints_of(v), position by position.
  [[nodiscard]] std::span<const double> coefs_of(VarId v) const {
    return {col_coef_.data() + col_begin(v), col_len(v)};
  }

  /// Static range of row c: max_j |a_j| (ub_j - lb_j) over the model's
  /// bounds; +inf when a term is unbounded (or the row's scale overflows).
  /// Within the model box no single term can move the row's activity by
  /// more than this.
  [[nodiscard]] double row_range(int c) const {
    return row_range_[static_cast<std::size_t>(c)];
  }
  /// Magnitude scale of row c: sum_j |a_j| max(|lb_j|, |ub_j|) over the
  /// model's bounds, an upper bound on |activity| inside the model box.
  [[nodiscard]] double row_scale(int c) const {
    return row_scale_[static_cast<std::size_t>(c)];
  }

  /// Minimization objective (already sign-normalized); empty terms when the
  /// model is a pure feasibility problem.
  [[nodiscard]] const std::vector<LinTerm>& objective_terms() const {
    return obj_terms_;
  }
  [[nodiscard]] bool objective_flipped() const { return obj_flipped_; }

  [[nodiscard]] bool has_cutoff_row() const { return cutoff_row_ >= 0; }
  [[nodiscard]] int cutoff_row() const { return cutoff_row_; }
  /// Tightens the cutoff row to `obj <= value`.
  void set_cutoff(double value) {
    constraints_[static_cast<std::size_t>(cutoff_row_)].rhs = value;
  }

  /// Variable ids ordered by descending branch priority (ties: ascending id).
  [[nodiscard]] const std::vector<VarId>& branch_order() const {
    return branch_order_;
  }
  [[nodiscard]] double branch_hint(VarId v) const {
    return hints_[static_cast<std::size_t>(v)];
  }

 private:
  [[nodiscard]] std::size_t col_begin(VarId v) const {
    return static_cast<std::size_t>(col_start_[static_cast<std::size_t>(v)]);
  }
  [[nodiscard]] std::size_t col_len(VarId v) const {
    return static_cast<std::size_t>(
        col_start_[static_cast<std::size_t>(v) + 1] -
        col_start_[static_cast<std::size_t>(v)]);
  }

  std::vector<double> coef_;
  std::vector<VarId> var_;
  std::vector<CompiledConstraint> constraints_;
  // Column CSR: the entries of variable v are [col_start_[v], col_start_[v+1]).
  std::vector<std::int32_t> col_start_;
  std::vector<std::int32_t> col_row_;
  std::vector<double> col_coef_;
  std::vector<double> row_range_, row_scale_;
  std::vector<VarType> types_;
  std::vector<double> lb_, ub_;
  std::vector<double> hints_;
  std::vector<LinTerm> obj_terms_;
  std::vector<VarId> branch_order_;
  bool obj_flipped_ = false;
  int cutoff_row_ = -1;
};

}  // namespace sparcs::milp
