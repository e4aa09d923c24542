#include "milp/compiled.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace sparcs::milp {

CompiledModel::CompiledModel(const Model& model, bool with_objective_cutoff) {
  model.validate();
  const int n = model.num_vars();
  types_.reserve(static_cast<std::size_t>(n));
  lb_.reserve(static_cast<std::size_t>(n));
  ub_.reserve(static_cast<std::size_t>(n));
  hints_.reserve(static_cast<std::size_t>(n));
  for (const VarInfo& v : model.vars()) {
    types_.push_back(v.type);
    double lo = v.lb, hi = v.ub;
    if (v.type != VarType::kContinuous) {
      lo = std::ceil(lo - 1e-9);
      hi = std::floor(hi + 1e-9);
    }
    lb_.push_back(lo);
    ub_.push_back(hi);
    hints_.push_back(v.branch_hint);
  }

  auto append_row = [&](const std::vector<LinTerm>& terms, Sense sense,
                        double rhs) {
    CompiledConstraint cc;
    cc.begin = static_cast<std::int32_t>(var_.size());
    for (const LinTerm& t : terms) {
      if (t.coef == 0.0) continue;
      var_.push_back(t.var);
      coef_.push_back(t.coef);
    }
    cc.end = static_cast<std::int32_t>(var_.size());
    cc.sense = sense;
    cc.rhs = rhs;
    constraints_.push_back(cc);
  };

  for (const ConstraintInfo& c : model.constraints()) {
    append_row(c.terms, c.sense, c.rhs);
  }

  // Sign-normalize the objective to minimization.
  obj_flipped_ = model.has_objective() && !model.minimize();
  if (model.has_objective()) {
    const double sign = obj_flipped_ ? -1.0 : 1.0;
    for (const LinTerm& t : model.objective().terms()) {
      if (t.coef != 0.0) obj_terms_.push_back({t.var, sign * t.coef});
    }
  }

  if (with_objective_cutoff && !obj_terms_.empty()) {
    cutoff_row_ = static_cast<int>(constraints_.size());
    append_row(obj_terms_, Sense::kLessEqual, kInfinity);
  }

  // Column CSR by counting sort; rows are visited in order, so each
  // column lists its rows ascending.
  col_start_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const VarId v : var_) ++col_start_[static_cast<std::size_t>(v) + 1];
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
    col_start_[v + 1] += col_start_[v];
  }
  col_row_.resize(var_.size());
  col_coef_.resize(var_.size());
  std::vector<std::int32_t> fill(col_start_.begin(), col_start_.end() - 1);
  row_range_.reserve(constraints_.size());
  row_scale_.reserve(constraints_.size());
  for (int c = 0; c < num_constraints(); ++c) {
    const CompiledConstraint& cc = constraints_[static_cast<std::size_t>(c)];
    double range = 0.0, scale = 0.0;
    for (std::int32_t k = cc.begin; k < cc.end; ++k) {
      const auto v = static_cast<std::size_t>(var_[static_cast<std::size_t>(k)]);
      const double a = coef_[static_cast<std::size_t>(k)];
      const auto slot = static_cast<std::size_t>(fill[v]++);
      col_row_[slot] = c;
      col_coef_[slot] = a;
      range = std::max(range, std::abs(a) * (ub_[v] - lb_[v]));
      scale += std::abs(a) * std::max(std::abs(lb_[v]), std::abs(ub_[v]));
    }
    row_range_.push_back(std::isfinite(scale) ? range : kInfinity);
    row_scale_.push_back(scale);
  }

  branch_order_.reserve(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    if (is_integral(v)) branch_order_.push_back(v);
  }
  std::stable_sort(branch_order_.begin(), branch_order_.end(),
                   [&](VarId a, VarId b) {
                     return model.var(a).branch_priority >
                            model.var(b).branch_priority;
                   });
}

}  // namespace sparcs::milp
