#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "milp/compiled.hpp"
#include "milp/propagation.hpp"

namespace sparcs::milp {
namespace {

TEST(PropagationTest, UnitPropagationOnEquality) {
  // x + y = 1 with x fixed to 1 forces y = 0.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint(LinExpr(x) + LinExpr(y) == 1.0, "uniq");
  m.tighten_bounds(x, 1, 1);
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.ub(y), 0.0);
  EXPECT_TRUE(domains.is_fixed(y));
}

TEST(PropagationTest, ConflictOnOverCommittedKnapsack) {
  // 5x + 5y <= 4 with both fixed to 1 is a conflict.
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_binary("y");
  m.add_constraint(5.0 * LinExpr(x) + 5.0 * LinExpr(y) <= 4.0, "cap");
  m.tighten_bounds(x, 1, 1);
  m.tighten_bounds(y, 1, 1);
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  EXPECT_FALSE(prop.propagate(domains, {}, st));
  EXPECT_EQ(st.conflicts, 1);
}

TEST(PropagationTest, KnapsackFixesImpossibleItem) {
  // 5x + 3y <= 4: x can never be 1.
  Model m;
  const VarId x = m.add_binary("x");
  m.add_binary("y");
  m.add_constraint(5.0 * LinExpr(x) + 3.0 * LinExpr(VarId{1}) <= 4.0, "cap");
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.ub(x), 0.0);
}

TEST(PropagationTest, ContinuousBoundTightening) {
  // d >= 3x with x = 1 and d <= 10 gives d in [3, 10].
  Model m;
  const VarId x = m.add_binary("x");
  const VarId d = m.add_continuous(0, 10, "d");
  m.add_constraint(3.0 * LinExpr(x) - LinExpr(d) <= 0.0, "def");
  m.tighten_bounds(x, 1, 1);
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_NEAR(domains.lb(d), 3.0, 1e-9);
}

TEST(PropagationTest, ChainedPropagationAcrossConstraints) {
  // x=1 -> y>=2 (row1), y>=2 -> z<=1 (row2 via z + y <= 3).
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_integer(0, 5, "y");
  const VarId z = m.add_integer(0, 5, "z");
  m.add_constraint(2.0 * LinExpr(x) - LinExpr(y) <= 0.0, "row1");
  m.add_constraint(LinExpr(z) + LinExpr(y) <= 3.0, "row2");
  m.tighten_bounds(x, 1, 1);
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.lb(y), 2.0);
  EXPECT_DOUBLE_EQ(domains.ub(z), 1.0);
}

TEST(PropagationTest, IntegerRounding) {
  // 2y >= 3 forces integer y >= 2.
  Model m;
  const VarId y = m.add_integer(0, 5, "y");
  m.add_constraint(2.0 * LinExpr(y) >= 3.0, "r");
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.lb(y), 2.0);
}

TEST(PropagationTest, InfiniteBoundsHandled) {
  // x free continuous, x >= 5 via row; no crash, bound set.
  Model m;
  const VarId x = m.add_continuous(-kInfinity, kInfinity, "x");
  const VarId y = m.add_continuous(-kInfinity, kInfinity, "y");
  m.add_constraint(LinExpr(x) >= 5.0, "r1");
  m.add_constraint(LinExpr(x) + LinExpr(y) <= 7.0, "r2");
  CompiledModel compiled(m);
  Domains domains(compiled);
  Propagator prop(compiled, 1e-7, 50);
  PropagationStats st;
  ASSERT_TRUE(prop.propagate(domains, {}, st));
  EXPECT_DOUBLE_EQ(domains.lb(x), 5.0);
  EXPECT_DOUBLE_EQ(domains.ub(y), 2.0);
}

TEST(PropagationTest, RollbackRestoresBounds) {
  Model m;
  const VarId x = m.add_binary("x");
  CompiledModel compiled(m);
  Domains domains(compiled);
  const std::size_t mark = domains.checkpoint();
  domains.set_lb(x, 1.0);
  EXPECT_TRUE(domains.is_fixed(x));
  domains.rollback(mark);
  EXPECT_DOUBLE_EQ(domains.lb(x), 0.0);
  EXPECT_FALSE(domains.is_fixed(x));
}

TEST(PropagationTest, SetBoundsIgnoreNonImprovements) {
  Model m;
  const VarId x = m.add_integer(2, 8, "x");
  CompiledModel compiled(m);
  Domains domains(compiled);
  EXPECT_FALSE(domains.set_lb(x, 1.0));
  EXPECT_FALSE(domains.set_ub(x, 9.0));
  EXPECT_TRUE(domains.set_lb(x, 3.0));
  EXPECT_TRUE(domains.set_ub(x, 7.0));
}

// ---------------------------------------------------------------------------
// Differential test: the propagator, with its incrementally maintained row
// activities and O(1) row skipping, against a plain from-scratch reference.

/// Reference propagator: the textbook activity-based bound strengthening
/// with every row recomputed from scratch on every visit, over plain bound
/// vectors with its own undo trail and its own variable -> row adjacency.
class ReferencePropagator {
 public:
  ReferencePropagator(const CompiledModel& model, double tol, int max_rounds)
      : model_(model), tol_(tol), max_rounds_(max_rounds) {
    for (VarId v = 0; v < model.num_vars(); ++v) {
      lb.push_back(model.lb(v));
      ub.push_back(model.ub(v));
    }
    adj_.resize(static_cast<std::size_t>(model.num_vars()));
    for (int c = 0; c < model.num_constraints(); ++c) {
      const CompiledConstraint& cc = model.constraint(c);
      for (int k = 0; k < model.size(cc); ++k) {
        adj_[static_cast<std::size_t>(model.vars(cc)[k])].push_back(c);
      }
    }
  }

  bool set_lb(VarId v, double value) {
    double& slot = lb[static_cast<std::size_t>(v)];
    if (value <= slot) return false;
    trail.push_back({v, true, slot});
    slot = value;
    return true;
  }
  bool set_ub(VarId v, double value) {
    double& slot = ub[static_cast<std::size_t>(v)];
    if (value >= slot) return false;
    trail.push_back({v, false, slot});
    slot = value;
    return true;
  }
  void rollback(std::size_t mark) {
    while (trail.size() > mark) {
      const Entry e = trail.back();
      trail.pop_back();
      (e.is_lb ? lb : ub)[static_cast<std::size_t>(e.var)] = e.old_value;
    }
  }
  void reset_to(const std::vector<double>& new_lb,
                const std::vector<double>& new_ub) {
    lb = new_lb;
    ub = new_ub;
    trail.clear();
  }

  bool propagate(const std::vector<VarId>& seeds, PropagationStats& stats,
                 DerivationLog& log) {
    std::vector<int> queue;
    std::vector<bool> queued(static_cast<std::size_t>(model_.num_constraints()),
                             false);
    auto push = [&](int c) {
      if (!queued[static_cast<std::size_t>(c)]) {
        queued[static_cast<std::size_t>(c)] = true;
        queue.push_back(c);
      }
    };
    if (seeds.empty()) {
      for (int c = 0; c < model_.num_constraints(); ++c) push(c);
    } else {
      for (const VarId v : seeds) {
        for (const int c : adj_[static_cast<std::size_t>(v)]) push(c);
      }
    }
    const std::int64_t budget = static_cast<std::int64_t>(max_rounds_) *
                                std::max(1, model_.num_constraints());
    std::int64_t processed = 0;
    for (std::size_t head = 0; head < queue.size();) {
      const int c = queue[head++];
      queued[static_cast<std::size_t>(c)] = false;
      if (!visit(c, stats, log, push)) {
        ++stats.conflicts;
        return false;
      }
      if (++processed > budget) break;
    }
    stats.constraints_processed += processed;
    return true;
  }

  struct Entry {
    VarId var;
    bool is_lb;
    double old_value;
  };
  std::vector<double> lb, ub;
  std::vector<Entry> trail;

 private:
  template <typename Push>
  bool visit(int c, PropagationStats& stats, DerivationLog& log, Push& push) {
    const CompiledConstraint& cc = model_.constraint(c);
    if (!std::isfinite(cc.rhs)) return true;
    const double* coefs = model_.coefs(cc);
    const VarId* vars = model_.vars(cc);
    const int len = model_.size(cc);
    auto lo_of = [&](VarId v) { return lb[static_cast<std::size_t>(v)]; };
    auto hi_of = [&](VarId v) { return ub[static_cast<std::size_t>(v)]; };
    double min_act = 0.0, max_act = 0.0;
    int min_infs = 0, max_infs = 0;
    for (int k = 0; k < len; ++k) {
      const double a = coefs[k];
      const double cmin = a > 0.0 ? a * lo_of(vars[k]) : a * hi_of(vars[k]);
      const double cmax = a > 0.0 ? a * hi_of(vars[k]) : a * lo_of(vars[k]);
      if (std::isfinite(cmin)) min_act += cmin; else ++min_infs;
      if (std::isfinite(cmax)) max_act += cmax; else ++max_infs;
    }
    const bool le = cc.sense != Sense::kGreaterEqual;
    const bool ge = cc.sense != Sense::kLessEqual;
    if ((le && min_infs == 0 && min_act > cc.rhs + tol_) ||
        (ge && max_infs == 0 && max_act < cc.rhs - tol_)) {
      log.conflict_row = c;
      return false;
    }
    // One tightening: records it and reports whether the domain emptied.
    auto tightened = [&](VarId v, bool is_lb) {
      ++stats.bounds_tightened;
      log.derivations.push_back({c, v, is_lb});
      if (lo_of(v) > hi_of(v) + tol_) {
        log.conflict_var = v;
        return false;
      }
      if (hi_of(v) - lo_of(v) <= tol_) ++stats.vars_fixed;
      for (const int r : adj_[static_cast<std::size_t>(v)]) push(r);
      return true;
    };
    for (int k = 0; k < len; ++k) {
      const VarId v = vars[k];
      const double a = coefs[k];
      const bool integral = model_.is_integral(v);
      const double lo = lo_of(v);
      const double hi = hi_of(v);
      const double cmin = a > 0.0 ? a * lo : a * hi;
      const double cmax = a > 0.0 ? a * hi : a * lo;
      const bool min_inf = !std::isfinite(cmin);
      const bool max_inf = !std::isfinite(cmax);
      if (le && (min_infs == 0 || (min_infs == 1 && min_inf))) {
        double bound = (cc.rhs - (min_inf ? min_act : min_act - cmin)) / a;
        bool changed = false;
        if (a > 0.0) {
          if (integral) bound = std::floor(bound + tol_);
          if (bound < hi - tol_) changed = set_ub(v, bound);
        } else {
          if (integral) bound = std::ceil(bound - tol_);
          if (bound > lo + tol_) changed = set_lb(v, bound);
        }
        if (changed && !tightened(v, a <= 0.0)) return false;
      }
      if (ge && (max_infs == 0 || (max_infs == 1 && max_inf))) {
        double bound = (cc.rhs - (max_inf ? max_act : max_act - cmax)) / a;
        bool changed = false;
        if (a > 0.0) {
          if (integral) bound = std::ceil(bound - tol_);
          if (bound > lo_of(v) + tol_) changed = set_lb(v, bound);
        } else {
          if (integral) bound = std::floor(bound + tol_);
          if (bound < hi_of(v) - tol_) changed = set_ub(v, bound);
        }
        if (changed && !tightened(v, a > 0.0)) return false;
      }
    }
    return true;
  }

  const CompiledModel& model_;
  double tol_;
  int max_rounds_;
  std::vector<std::vector<int>> adj_;
};

/// Random model with non-integer coefficients, binaries, general integers,
/// continuous variables with finite and infinite bounds, <=, >= and equality
/// rows (some tight, some far from binding) and an objective.
Model random_model(std::mt19937& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto coin = [&](double p) { return unit(rng) < p; };
  Model m("random");
  const int n = 4 + static_cast<int>(rng() % 20);
  for (int j = 0; j < n; ++j) {
    const std::string name = "x" + std::to_string(j);
    const double kind = unit(rng);
    if (kind < 0.4) {
      m.add_binary(name);
    } else if (kind < 0.65) {
      const double lo = static_cast<double>(static_cast<int>(rng() % 7) - 3);
      m.add_integer(lo, lo + static_cast<double>(rng() % 7), name);
    } else {
      const double lo = std::round(unit(rng) * 200.0 - 100.0) / 10.0;
      const double hi = lo + std::round(unit(rng) * 100.0) / 10.0;
      m.add_continuous(coin(0.12) ? -kInfinity : lo,
                       coin(0.12) ? kInfinity : hi, name);
    }
  }
  auto random_terms = [&](int max_len) {
    std::vector<VarId> pool(static_cast<std::size_t>(n));
    for (VarId v = 0; v < n; ++v) pool[static_cast<std::size_t>(v)] = v;
    std::shuffle(pool.begin(), pool.end(), rng);
    const int len = 1 + static_cast<int>(rng() % static_cast<unsigned>(
                                              std::min(n, max_len)));
    LinExpr expr;
    for (int k = 0; k < len; ++k) {
      double a = std::round((unit(rng) * 12.0 - 6.0) * 1000.0) / 1000.0;
      if (std::abs(a) < 0.05) a = 0.731;
      expr += LinExpr(pool[static_cast<std::size_t>(k)], a);
    }
    return expr;
  };
  const int rows = 3 + static_cast<int>(rng() % 18);
  for (int i = 0; i < rows; ++i) {
    LinExpr expr = random_terms(9);
    // Place the rhs relative to the row's activity range over the model
    // bounds: inside it (binding) or beyond it (slack, skippable).
    double lo = 0.0, hi = 0.0;
    for (const LinTerm& t : expr.terms()) {
      const VarInfo& info = m.var(t.var);
      lo += t.coef > 0.0 ? t.coef * info.lb : t.coef * info.ub;
      hi += t.coef > 0.0 ? t.coef * info.ub : t.coef * info.lb;
    }
    double pos = unit(rng) * 1.6 - 0.3;
    double rhs = std::isfinite(lo) && std::isfinite(hi)
                     ? lo + pos * (hi - lo)
                     : unit(rng) * 20.0 - 10.0;
    rhs = std::round(rhs * 100.0) / 100.0;
    const double sense = unit(rng);
    const Sense s = sense < 0.45   ? Sense::kLessEqual
                    : sense < 0.8 ? Sense::kGreaterEqual
                                  : Sense::kEqual;
    m.add_constraint(expr, s, rhs, "r" + std::to_string(i));
  }
  m.set_objective(random_terms(6), coin(0.5));
  return m;
}

/// Maintained activities of every finite-range row against a recompute from
/// the current bounds clamped into the model box.
void expect_activities_match(const CompiledModel& model, const Domains& d,
                             const std::string& where) {
  for (int c = 0; c < model.num_constraints(); ++c) {
    if (!std::isfinite(model.row_range(c))) continue;
    const CompiledConstraint& cc = model.constraint(c);
    double min_act = 0.0, max_act = 0.0;
    for (int k = 0; k < model.size(cc); ++k) {
      const VarId v = model.vars(cc)[k];
      const double a = model.coefs(cc)[k];
      const double lo = std::clamp(d.lb(v), model.lb(v), model.ub(v));
      const double hi = std::clamp(d.ub(v), model.lb(v), model.ub(v));
      min_act += a > 0.0 ? a * lo : a * hi;
      max_act += a > 0.0 ? a * hi : a * lo;
    }
    const double tol = 1e-9 * std::max(1.0, model.row_scale(c));
    EXPECT_NEAR(d.min_activity(c), min_act, tol) << where << " row " << c;
    EXPECT_NEAR(d.max_activity(c), max_act, tol) << where << " row " << c;
  }
}

TEST(PropagationDifferentialTest, MatchesFromScratchReference) {
  constexpr double kTol = 1e-6;
  constexpr int kRounds = 20;
  std::mt19937 rng(0xac71u);  // fixed seed: failures are reproducible
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::int64_t skippable_rows = 0;
  std::int64_t propagations = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Model m = random_model(rng);
    CompiledModel compiled(m, /*with_objective_cutoff=*/true);
    Domains domains(compiled);
    Propagator prop(compiled, kTol, kRounds);
    ReferencePropagator ref(compiled, kTol, kRounds);
    DerivationLog log, ref_log;
    prop.set_log(&log);
    PropagationStats stats, ref_stats;
    std::vector<std::size_t> marks;
    const int n = compiled.num_vars();
    const std::string at = "trial " + std::to_string(trial);

    // A new bound for v: mostly inside the current domain and integral for
    // integer variables; sometimes fractional, or beyond the model box.
    auto pick_value = [&](VarId v, bool lower) {
      const double lo = domains.lb(v), hi = domains.ub(v);
      const double base = lower ? (std::isfinite(lo) ? lo : -20.0)
                                : (std::isfinite(hi) ? hi : 20.0);
      const double width = std::isfinite(hi - lo) ? hi - lo : 10.0;
      double step = unit(rng) * (width + (unit(rng) < 0.1 ? 3.0 : 0.0));
      if (compiled.is_integral(v) && unit(rng) < 0.95) {
        step = std::ceil(step);
      }
      return lower ? base + step : base - step;
    };

    for (int op = 0; op < 250; ++op) {
      const double r = unit(rng);
      const auto v = static_cast<VarId>(rng() % static_cast<unsigned>(n));
      if (r < 0.25) {
        const double value = pick_value(v, true);
        EXPECT_EQ(domains.set_lb(v, value), ref.set_lb(v, value)) << at;
      } else if (r < 0.5) {
        const double value = pick_value(v, false);
        EXPECT_EQ(domains.set_ub(v, value), ref.set_ub(v, value)) << at;
      } else if (r < 0.7) {
        std::vector<VarId> seeds;
        if (unit(rng) < 0.7) {
          for (int k = 0, cnt = 1 + static_cast<int>(rng() % 3); k < cnt;
               ++k) {
            seeds.push_back(static_cast<VarId>(rng() % static_cast<unsigned>(n)));
          }
        }
        for (int c = 0; c < compiled.num_constraints(); ++c) {
          const CompiledConstraint& cc = compiled.constraint(c);
          const double need = compiled.row_range(c) + 1e-3;
          if (domains.bounds_regular() && std::isfinite(cc.rhs) &&
              (cc.sense == Sense::kGreaterEqual ||
               cc.rhs - domains.min_activity(c) > need) &&
              (cc.sense == Sense::kLessEqual ||
               domains.max_activity(c) - cc.rhs > need)) {
            ++skippable_rows;
          }
        }
        log.clear();
        ref_log.clear();
        const bool ok = prop.propagate(domains, seeds, stats);
        EXPECT_EQ(ok, ref.propagate(seeds, ref_stats, ref_log)) << at;
        ++propagations;
      } else if (r < 0.8) {
        marks.push_back(domains.checkpoint());
        EXPECT_EQ(marks.back(), ref.trail.size()) << at;
      } else if (r < 0.92) {
        if (marks.empty()) continue;
        const std::size_t k = rng() % marks.size();
        domains.rollback(marks[k]);
        ref.rollback(marks[k]);
        marks.resize(k);
        expect_activities_match(compiled, domains, at + " rollback");
      } else if (r < 0.96) {
        // Seat a sub-box of the current domains, as a worker does.
        std::vector<double> lb = ref.lb, ub = ref.ub;
        const auto w = static_cast<std::size_t>(v);
        if (std::isfinite(lb[w]) && lb[w] < ub[w]) {
          lb[w] = compiled.is_integral(v) ? std::ceil((lb[w] + ub[w]) / 2.0)
                                          : (lb[w] + ub[w]) / 2.0;
        }
        domains.reset_to(lb, ub);
        ref.reset_to(lb, ub);
        marks.clear();
        expect_activities_match(compiled, domains, at + " reset_to");
      } else if (compiled.has_cutoff_row()) {
        compiled.set_cutoff(unit(rng) < 0.2 ? kInfinity
                                            : unit(rng) * 40.0 - 20.0);
      }
      ASSERT_EQ(domains.checkpoint(), ref.trail.size()) << at;
      for (VarId u = 0; u < n; ++u) {
        ASSERT_EQ(domains.lb(u), ref.lb[static_cast<std::size_t>(u)])
            << at << " op " << op << " var " << u;
        ASSERT_EQ(domains.ub(u), ref.ub[static_cast<std::size_t>(u)])
            << at << " op " << op << " var " << u;
      }
      ASSERT_EQ(log.derivations.size(), ref_log.derivations.size()) << at;
      for (std::size_t i = 0; i < log.derivations.size(); ++i) {
        EXPECT_EQ(log.derivations[i].constraint,
                  ref_log.derivations[i].constraint) << at;
        EXPECT_EQ(log.derivations[i].var, ref_log.derivations[i].var) << at;
        EXPECT_EQ(log.derivations[i].is_lb, ref_log.derivations[i].is_lb)
            << at;
      }
      EXPECT_EQ(log.conflict_row, ref_log.conflict_row) << at;
      EXPECT_EQ(log.conflict_var, ref_log.conflict_var) << at;
    }
    EXPECT_EQ(stats.constraints_processed, ref_stats.constraints_processed)
        << at;
    EXPECT_EQ(stats.bounds_tightened, ref_stats.bounds_tightened) << at;
    EXPECT_EQ(stats.vars_fixed, ref_stats.vars_fixed) << at;
    EXPECT_EQ(stats.conflicts, ref_stats.conflicts) << at;
  }
  // The sequences must actually reach the skip path, not only exact passes.
  EXPECT_GT(propagations, 1000);
  EXPECT_GT(skippable_rows, 1000);
}

}  // namespace
}  // namespace sparcs::milp
