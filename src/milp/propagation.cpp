#include "milp/propagation.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace sparcs::milp {

Domains::Domains(const CompiledModel& model) : model_(&model) {
  const int n = model.num_vars();
  lb_.reserve(static_cast<std::size_t>(n));
  ub_.reserve(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    lb_.push_back(model.lb(v));
    ub_.push_back(model.ub(v));
  }
  recompute_activities();
}

bool Domains::irregular(VarId v, double x) const {
  // Written so that NaN counts as irregular.
  if (!(x >= model_->lb(v) && x <= model_->ub(v))) return true;
  return model_->is_integral(v) && x != std::floor(x);
}

void Domains::move_bound(VarId v, bool is_lb, double from, double to) {
  irregular_bounds_ += static_cast<std::int64_t>(irregular(v, to)) -
                       static_cast<std::int64_t>(irregular(v, from));
  // Activities use bounds clamped into the model box: in the box (the case
  // the row-skip test needs) that changes nothing, and outside it the
  // magnitudes, hence the drift, stay bounded by the row scale.
  const double glb = model_->lb(v);
  const double gub = model_->ub(v);
  const double delta = std::min(std::max(to, glb), gub) -
                       std::min(std::max(from, glb), gub);
  // A non-finite delta only arises from a bound at infinity, and every row
  // of such a variable has an infinite range: it is never skipped.
  if (delta == 0.0 || !std::isfinite(delta)) return;
  const std::span<const std::int32_t> rows = model_->constraints_of(v);
  const std::span<const double> coefs = model_->coefs_of(v);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const double a = coefs[k];
    // A lower bound feeds the min activity when a > 0 and the max activity
    // when a < 0; an upper bound the other way round.
    const std::size_t side = (a < 0.0) == is_lb ? 1 : 0;
    act_[2 * static_cast<std::size_t>(rows[k]) + side] += a * delta;
  }
  updates_since_refresh_ += static_cast<std::int64_t>(rows.size());
  if (updates_since_refresh_ >= kActivityRefreshUpdates) {
    recompute_activities();
  }
}

void Domains::recompute_activities() {
  const int rows = model_->num_constraints();
  act_.assign(2 * static_cast<std::size_t>(rows), 0.0);
  for (int c = 0; c < rows; ++c) {
    const CompiledConstraint& cc = model_->constraint(c);
    const double* coefs = model_->coefs(cc);
    const VarId* vars = model_->vars(cc);
    double min_act = 0.0, max_act = 0.0;
    for (int k = 0; k < model_->size(cc); ++k) {
      const VarId v = vars[k];
      const double glb = model_->lb(v);
      const double gub = model_->ub(v);
      const double lo = std::min(std::max(lb(v), glb), gub);
      const double hi = std::min(std::max(ub(v), glb), gub);
      const double a = coefs[k];
      // Infinite contributions are left out, as in move_bound().
      const double contrib_min = a > 0.0 ? a * lo : a * hi;
      const double contrib_max = a > 0.0 ? a * hi : a * lo;
      if (std::isfinite(contrib_min)) min_act += contrib_min;
      if (std::isfinite(contrib_max)) max_act += contrib_max;
    }
    act_[2 * static_cast<std::size_t>(c)] = min_act;
    act_[2 * static_cast<std::size_t>(c) + 1] = max_act;
  }
  irregular_bounds_ = 0;
  for (VarId v = 0; v < num_vars(); ++v) {
    irregular_bounds_ += static_cast<std::int64_t>(irregular(v, lb(v))) +
                         static_cast<std::int64_t>(irregular(v, ub(v)));
  }
  updates_since_refresh_ = 0;
}

bool Domains::set_lb(VarId v, double value) {
  double& slot = lb_[static_cast<std::size_t>(v)];
  if (value <= slot) return false;
  trail_.push_back({v, true, slot});
  const double old = slot;
  slot = value;
  move_bound(v, true, old, value);
  return true;
}

bool Domains::set_ub(VarId v, double value) {
  double& slot = ub_[static_cast<std::size_t>(v)];
  if (value >= slot) return false;
  trail_.push_back({v, false, slot});
  const double old = slot;
  slot = value;
  move_bound(v, false, old, value);
  return true;
}

void Domains::rollback(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry e = trail_.back();
    trail_.pop_back();
    double& slot = e.is_lb ? lb_[static_cast<std::size_t>(e.var)]
                           : ub_[static_cast<std::size_t>(e.var)];
    const double current = slot;
    slot = e.old_value;
    move_bound(e.var, e.is_lb, current, e.old_value);
  }
}

Propagator::Propagator(const CompiledModel& model, double feasibility_tol,
                       int max_rounds)
    : model_(model),
      tol_(feasibility_tol),
      max_rounds_(max_rounds),
      in_queue_(static_cast<std::size_t>(model.num_constraints()), false) {}

void Propagator::enqueue_var(VarId v) {
  for (const std::int32_t c : model_.constraints_of(v)) {
    if (!in_queue_[static_cast<std::size_t>(c)]) {
      in_queue_[static_cast<std::size_t>(c)] = true;
      queue_.push_back(c);
    }
  }
}

void Propagator::enqueue_all() {
  for (int c = 0; c < model_.num_constraints(); ++c) {
    if (!in_queue_[static_cast<std::size_t>(c)]) {
      in_queue_[static_cast<std::size_t>(c)] = true;
      queue_.push_back(c);
    }
  }
}

bool Propagator::propagate(Domains& domains,
                           const std::vector<VarId>& seed_vars,
                           PropagationStats& stats) {
  std::size_t head = 0;
  // On every exit (including an exception) unflag only the rows still
  // queued: the processed ones were unflagged as they were popped.
  struct QueueReset {
    Propagator& self;
    const std::size_t& head;
    ~QueueReset() {
      for (std::size_t i = head; i < self.queue_.size(); ++i) {
        self.in_queue_[static_cast<std::size_t>(self.queue_[i])] = false;
      }
      self.queue_.clear();
    }
  } queue_reset{*this, head};

  if (seed_vars.empty()) {
    enqueue_all();
  } else {
    for (const VarId v : seed_vars) enqueue_var(v);
  }

  const std::int64_t budget =
      static_cast<std::int64_t>(max_rounds_) *
      std::max(1, model_.num_constraints());
  std::int64_t processed = 0;
  while (head < queue_.size()) {
    const int c = queue_[head++];
    in_queue_[static_cast<std::size_t>(c)] = false;
    if (!process_constraint(c, domains, stats)) {
      ++stats.conflicts;
      return false;
    }
    if (++processed > budget) break;  // settle for the bounds found so far
    // Compact the consumed prefix occasionally to bound memory.
    if (head > 4096 && head * 2 > queue_.size()) {
      queue_.erase(queue_.begin(),
                   queue_.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }
  }
  stats.constraints_processed += processed;
  return true;
}

bool Propagator::slack_covers_range(int c, const CompiledConstraint& cc,
                                    bool need_le, bool need_ge,
                                    const Domains& domains) const {
  if (!domains.bounds_regular()) return false;
  // Term k of a <= row tightens only when rhs - min_act < |a_k| (ub_k -
  // lb_k), and the row conflicts only when rhs - min_act < 0; the >= side
  // mirrors this with max_act. The margin absorbs tol_ and the drift of the
  // maintained sums against the exact pass's own rounding (DESIGN.md).
  const double need =
      model_.row_range(c) + tol_ +
      Domains::kActivityDriftRel * (model_.row_scale(c) + std::abs(cc.rhs));
  if (!(need < kInfinity)) return false;
  return (!need_le || cc.rhs - domains.min_activity(c) >= need) &&
         (!need_ge || domains.max_activity(c) - cc.rhs >= need);
}

bool Propagator::process_constraint(int c, Domains& domains,
                                    PropagationStats& stats) {
  const CompiledConstraint& cc = model_.constraint(c);
  const double* coefs = model_.coefs(cc);
  const VarId* vars = model_.vars(cc);
  const int len = model_.size(cc);
  if (!std::isfinite(cc.rhs)) return true;  // inactive cutoff row

  const bool need_le =
      cc.sense == Sense::kLessEqual || cc.sense == Sense::kEqual;
  const bool need_ge =
      cc.sense == Sense::kGreaterEqual || cc.sense == Sense::kEqual;
  if (slack_covers_range(c, cc, need_le, need_ge, domains)) return true;

  // Row activity bounds with infinite-contribution counters.
  double min_act = 0.0, max_act = 0.0;
  int min_infs = 0, max_infs = 0;
  for (int k = 0; k < len; ++k) {
    const double a = coefs[k];
    const double lo = domains.lb(vars[k]);
    const double hi = domains.ub(vars[k]);
    const double contrib_min = a > 0.0 ? a * lo : a * hi;
    const double contrib_max = a > 0.0 ? a * hi : a * lo;
    if (std::isfinite(contrib_min)) min_act += contrib_min; else ++min_infs;
    if (std::isfinite(contrib_max)) max_act += contrib_max; else ++max_infs;
  }

  if ((need_le && min_infs == 0 && min_act > cc.rhs + tol_) ||
      (need_ge && max_infs == 0 && max_act < cc.rhs - tol_)) {
    if (log_ != nullptr) log_->conflict_row = c;
    return false;
  }

  // Tighten each variable from the residual activity of the others.
  for (int k = 0; k < len; ++k) {
    const VarId v = vars[k];
    const double a = coefs[k];
    const double lo = domains.lb(v);
    const double hi = domains.ub(v);
    const double contrib_min = a > 0.0 ? a * lo : a * hi;
    const double contrib_max = a > 0.0 ? a * hi : a * lo;
    const bool self_min_inf = !std::isfinite(contrib_min);
    const bool self_max_inf = !std::isfinite(contrib_max);

    if (need_le && (min_infs == 0 || (min_infs == 1 && self_min_inf))) {
      // residual = min activity of the other terms
      const double residual = self_min_inf ? min_act : min_act - contrib_min;
      const double slack = cc.rhs - residual;
      // a*x <= slack
      double new_bound = slack / a;
      bool changed = false;
      if (a > 0.0) {
        if (model_.is_integral(v)) new_bound = std::floor(new_bound + tol_);
        if (new_bound < hi - tol_) changed = domains.set_ub(v, new_bound);
      } else {
        if (model_.is_integral(v)) new_bound = std::ceil(new_bound - tol_);
        if (new_bound > lo + tol_) changed = domains.set_lb(v, new_bound);
      }
      if (changed) {
        ++stats.bounds_tightened;
        if (log_ != nullptr) {
          log_->derivations.push_back({c, v, /*is_lb=*/a <= 0.0});
        }
        if (domains.lb(v) > domains.ub(v) + tol_) {
          if (log_ != nullptr) log_->conflict_var = v;
          return false;
        }
        if (domains.ub(v) - domains.lb(v) <= tol_) ++stats.vars_fixed;
        enqueue_var(v);
      }
    }
    if (need_ge && (max_infs == 0 || (max_infs == 1 && self_max_inf))) {
      const double residual = self_max_inf ? max_act : max_act - contrib_max;
      const double slack = cc.rhs - residual;
      // a*x >= slack
      double new_bound = slack / a;
      bool changed = false;
      if (a > 0.0) {
        if (model_.is_integral(v)) new_bound = std::ceil(new_bound - tol_);
        if (new_bound > domains.lb(v) + tol_) changed = domains.set_lb(v, new_bound);
      } else {
        if (model_.is_integral(v)) new_bound = std::floor(new_bound + tol_);
        if (new_bound < domains.ub(v) - tol_) changed = domains.set_ub(v, new_bound);
      }
      if (changed) {
        ++stats.bounds_tightened;
        if (log_ != nullptr) {
          log_->derivations.push_back({c, v, /*is_lb=*/a > 0.0});
        }
        if (domains.lb(v) > domains.ub(v) + tol_) {
          if (log_ != nullptr) log_->conflict_var = v;
          return false;
        }
        if (domains.ub(v) - domains.lb(v) <= tol_) ++stats.vars_fixed;
        enqueue_var(v);
      }
    }
  }
  return true;
}

}  // namespace sparcs::milp
