#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "milp/certify.hpp"
#include "milp/simplex.hpp"
#include "support/rng.hpp"

namespace sparcs::milp {
namespace {

constexpr double kTol = 1e-6;

TEST(SimplexTest, TwoVarMaximizationClassic) {
  // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0
  // => min -3x - 5y; optimum at (2, 6), objective -36.
  LpProblem lp;
  const int x = lp.add_var(-3.0, 0.0, kInfinity);
  const int y = lp.add_var(-5.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}}, Sense::kLessEqual, 4.0);
  lp.add_row({{y, 2.0}}, Sense::kLessEqual, 12.0);
  lp.add_row({{x, 3.0}, {y, 2.0}}, Sense::kLessEqual, 18.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -36.0, kTol);
  EXPECT_NEAR(r.x[0], 2.0, kTol);
  EXPECT_NEAR(r.x[1], 6.0, kTol);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y s.t. x + y = 5, x <= 3 => (3,2) not needed; optimum any point,
  // objective 5.
  LpProblem lp;
  const int x = lp.add_var(1.0, 0.0, 3.0);
  const int y = lp.add_var(1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kEqual, 5.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, kTol);
  EXPECT_NEAR(r.x[0] + r.x[1], 5.0, kTol);
}

TEST(SimplexTest, GreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 4, x - y >= -2, x,y >= 0. Optimum (1,3)? Check:
  // corner candidates: (4,0): obj 8; intersection x+y=4, y-x=2 -> (1,3): 11.
  // So optimum is (4,0) with objective 8.
  LpProblem lp;
  const int x = lp.add_var(2.0, 0.0, kInfinity);
  const int y = lp.add_var(3.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 4.0);
  lp.add_row({{x, 1.0}, {y, -1.0}}, Sense::kGreaterEqual, -2.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0, kTol);
  EXPECT_NEAR(r.x[0], 4.0, kTol);
  EXPECT_NEAR(r.x[1], 0.0, kTol);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x >= 5 and x <= 3 via rows.
  LpProblem lp;
  const int x = lp.add_var(1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}}, Sense::kGreaterEqual, 5.0);
  lp.add_row({{x, 1.0}}, Sense::kLessEqual, 3.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, InfeasibleBoundsDetected) {
  LpProblem lp;
  lp.add_var(1.0, 5.0, 3.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  // min -x with x >= 0 unconstrained above.
  LpProblem lp;
  const int x = lp.add_var(-1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}}, Sense::kGreaterEqual, 0.0);
  EXPECT_EQ(solve_lp(lp).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, BoundedAboveByVariableBound) {
  // min -x with 0 <= x <= 7: optimum 7 via a pure bound flip.
  LpProblem lp;
  lp.add_var(-1.0, 0.0, 7.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -7.0, kTol);
  EXPECT_NEAR(r.x[0], 7.0, kTol);
}

TEST(SimplexTest, FreeVariable) {
  // min x s.t. x >= -10 expressed as a row (variable itself free).
  LpProblem lp;
  const int x = lp.add_var(1.0, -kInfinity, kInfinity);
  lp.add_row({{x, 1.0}}, Sense::kGreaterEqual, -10.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -10.0, kTol);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x + y, x in [-5, 5], y in [-3, 3], x + y >= -6.
  LpProblem lp;
  const int x = lp.add_var(1.0, -5.0, 5.0);
  const int y = lp.add_var(1.0, -3.0, 3.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, -6.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -6.0, kTol);
}

TEST(SimplexTest, DegenerateProblem) {
  // Multiple redundant constraints intersecting at the optimum.
  LpProblem lp;
  const int x = lp.add_var(-1.0, 0.0, kInfinity);
  const int y = lp.add_var(-1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 2.0);
  lp.add_row({{x, 1.0}}, Sense::kLessEqual, 1.0);
  lp.add_row({{y, 1.0}}, Sense::kLessEqual, 1.0);
  lp.add_row({{x, 2.0}, {y, 2.0}}, Sense::kLessEqual, 4.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.0, kTol);
}

TEST(SimplexTest, FixedVariableViaBounds) {
  LpProblem lp;
  const int x = lp.add_var(1.0, 4.0, 4.0);
  const int y = lp.add_var(1.0, 0.0, kInfinity);
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kGreaterEqual, 9.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 4.0, kTol);
  EXPECT_NEAR(r.x[1], 5.0, kTol);
}

TEST(SimplexTest, ZeroObjectiveFeasibilityProblem) {
  LpProblem lp;
  const int x = lp.add_var(0.0, 0.0, 10.0);
  const int y = lp.add_var(0.0, 0.0, 10.0);
  lp.add_row({{x, 1.0}, {y, 2.0}}, Sense::kEqual, 8.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0] + 2.0 * r.x[1], 8.0, kTol);
}

TEST(SimplexTest, LargerDiet) {
  // A small diet-style LP with a known optimum.
  // min 0.6a + 0.35b s.t. 5a + 7b >= 8 ; 4a + 2b >= 15 ; a, b >= 0.
  // Binding: 4a + 2b = 15 with b = 0 -> a = 3.75 gives 5a = 18.75 >= 8 ok.
  // obj = 2.25. Alternative corner: intersection -> a = (15*7-2*8)/(4*7-2*5)
  // = (105-16)/18 = 4.944, b negative -> infeasible. So optimum 2.25.
  LpProblem lp;
  const int a = lp.add_var(0.6, 0.0, kInfinity);
  const int b = lp.add_var(0.35, 0.0, kInfinity);
  lp.add_row({{a, 5.0}, {b, 7.0}}, Sense::kGreaterEqual, 8.0);
  lp.add_row({{a, 4.0}, {b, 2.0}}, Sense::kGreaterEqual, 15.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.25, 1e-5);
}

TEST(SimplexTest, RelaxationOfModel) {
  Model m;
  const VarId x = m.add_binary("x");
  const VarId y = m.add_integer(0, 3, "y");
  m.add_constraint(LinExpr(x) + LinExpr(y) <= 2.5, "c");
  m.set_objective(-(LinExpr(x) + LinExpr(y)), /*minimize=*/true);
  const LpProblem lp = relaxation_of(m);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.5, kTol);
}

TEST(SimplexTest, MaximizationFlipReported) {
  Model m;
  const VarId x = m.add_continuous(0, 4, "x");
  m.set_objective(LinExpr(x), /*minimize=*/false);
  bool flipped = false;
  const LpProblem lp = relaxation_of(m, &flipped);
  EXPECT_TRUE(flipped);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, kTol);  // minimized negation
}

TEST(SimplexTest, FeasibleStartPointNeedsNoPivots) {
  // Every row holds at the start point (each variable at its bound nearest
  // zero), so the slack basis is already feasible and optimal for the zero
  // objective.
  LpProblem lp;
  const int x = lp.add_var(0.0, 0.0, 10.0);
  const int y = lp.add_var(0.0, -1.0, 4.0);  // starts at -1
  lp.add_row({{x, 1.0}, {y, 1.0}}, Sense::kLessEqual, 5.0);
  lp.add_row({{x, 1.0}, {y, -1.0}}, Sense::kGreaterEqual, -3.0);
  lp.add_row({{x, 1.0}, {y, 2.0}}, Sense::kEqual, -2.0);
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.pivots, 0);
  EXPECT_NEAR(r.x[0], 0.0, kTol);
  EXPECT_NEAR(r.x[1], -1.0, kTol);
}

/// Independent reference for tiny bounded LPs: every vertex lies on n of
/// the m + 2n hyperplanes (rows at equality, variables at a bound), so the
/// optimum is the best feasible solution of those n x n systems. Returns
/// nullopt when no vertex is feasible, i.e. the LP is infeasible (a
/// nonempty bounded polyhedron has a vertex).
std::optional<double> vertex_enumeration_optimum(const LpProblem& lp) {
  const std::size_t n = lp.obj.size();
  const std::size_t m = lp.rows.size();
  // Hyperplane h: coefs[h] . x = rhs[h]; rows first, then the bounds.
  std::vector<std::vector<double>> coefs;
  std::vector<double> rhs;
  for (const LpProblem::Row& row : lp.rows) {
    std::vector<double> a(n, 0.0);
    for (const LinTerm& t : row.terms) a[static_cast<std::size_t>(t.var)] += t.coef;
    coefs.push_back(a);
    rhs.push_back(row.rhs);
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (const double bound : {lp.lb[j], lp.ub[j]}) {
      std::vector<double> a(n, 0.0);
      a[j] = 1.0;
      coefs.push_back(a);
      rhs.push_back(bound);
    }
  }
  const std::size_t h = coefs.size();
  std::optional<double> best;
  // n-subsets of the h hyperplanes as increasing index tuples.
  std::vector<std::size_t> pick(n);
  for (std::size_t k = 0; k < n; ++k) pick[k] = k;
  while (true) {
    // Gauss-Jordan elimination with partial pivoting on [A | b].
    std::vector<std::vector<double>> mat;
    for (const std::size_t p : pick) {
      mat.push_back(coefs[p]);
      mat.back().push_back(rhs[p]);
    }
    bool singular = false;
    for (std::size_t c = 0; c < n && !singular; ++c) {
      std::size_t piv = c;
      for (std::size_t r = c + 1; r < n; ++r) {
        if (std::abs(mat[r][c]) > std::abs(mat[piv][c])) piv = r;
      }
      singular = std::abs(mat[piv][c]) < 1e-9;
      if (singular) break;
      std::swap(mat[c], mat[piv]);
      for (std::size_t r = 0; r < n; ++r) {
        if (r == c) continue;
        const double f = mat[r][c] / mat[c][c];
        for (std::size_t k = c; k <= n; ++k) mat[r][k] -= f * mat[c][k];
      }
    }
    if (!singular) {
      std::vector<double> x(n);
      for (std::size_t j = 0; j < n; ++j) x[j] = mat[j][n] / mat[j][j];
      bool feasible = true;
      for (std::size_t j = 0; j < n; ++j) {
        feasible = feasible && x[j] >= lp.lb[j] - 1e-9 && x[j] <= lp.ub[j] + 1e-9;
      }
      for (std::size_t i = 0; i < m && feasible; ++i) {
        double act = 0.0;
        for (std::size_t j = 0; j < n; ++j) act += coefs[i][j] * x[j];
        switch (lp.rows[i].sense) {
          case Sense::kLessEqual:
            feasible = act <= rhs[i] + 1e-9;
            break;
          case Sense::kGreaterEqual:
            feasible = act >= rhs[i] - 1e-9;
            break;
          case Sense::kEqual:
            feasible = std::abs(act - rhs[i]) <= 1e-9;
            break;
        }
      }
      if (feasible) {
        double obj = 0.0;
        for (std::size_t j = 0; j < n; ++j) obj += lp.obj[j] * x[j];
        if (!best || obj < *best) best = obj;
      }
    }
    // Next subset in lexicographic order.
    std::size_t k = n;
    while (k > 0 && pick[k - 1] == h - n + (k - 1)) --k;
    if (k == 0) break;
    ++pick[k - 1];
    for (std::size_t r = k; r < n; ++r) pick[r] = pick[r - 1] + 1;
  }
  return best;
}

/// Small integer data with negative right-hand sides and bounds, so the
/// slack basis starts outside some rows, plus fixed variables.
LpProblem random_tiny_lp(Rng& rng) {
  LpProblem lp;
  const int n = static_cast<int>(rng.uniform_int(1, 3));
  const int m = static_cast<int>(rng.uniform_int(1, 4));
  for (int j = 0; j < n; ++j) {
    const double lo = static_cast<double>(rng.uniform_int(-3, 2));
    const double hi = rng.uniform_int(0, 3) == 0
                          ? lo  // fixed
                          : lo + static_cast<double>(rng.uniform_int(1, 5));
    lp.add_var(static_cast<double>(rng.uniform_int(-3, 3)), lo, hi);
  }
  for (int i = 0; i < m; ++i) {
    std::vector<LinTerm> terms;
    for (int j = 0; j < n; ++j) {
      const auto a = rng.uniform_int(-3, 3);
      if (a != 0) terms.push_back({j, static_cast<double>(a)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    static constexpr Sense kSenses[] = {Sense::kLessEqual,
                                        Sense::kGreaterEqual, Sense::kEqual};
    lp.add_row(std::move(terms), kSenses[rng.uniform_int(0, 2)],
               static_cast<double>(rng.uniform_int(-6, 6)));
  }
  return lp;
}

/// The LP as a model, so its Farkas ray can go to the exact checker.
Model model_of(const LpProblem& lp) {
  Model model("tiny_lp");
  for (int j = 0; j < lp.num_vars(); ++j) {
    model.add_continuous(lp.lb[static_cast<std::size_t>(j)],
                         lp.ub[static_cast<std::size_t>(j)],
                         "x" + std::to_string(j));
  }
  for (int i = 0; i < lp.num_rows(); ++i) {
    const LpProblem::Row& row = lp.rows[static_cast<std::size_t>(i)];
    LinExpr lhs;
    for (const LinTerm& t : row.terms) lhs += t.coef * LinExpr(t.var);
    model.add_constraint(lhs, row.sense, row.rhs, "r" + std::to_string(i));
  }
  return model;
}

TEST(SimplexTest, MatchesVertexEnumerationOnRandomTinyLps) {
  Rng rng(20260418);
  int infeasible = 0;
  int infeasible_start = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const LpProblem lp = random_tiny_lp(rng);
    // Does some row reject the start point (each variable at its bound
    // nearest zero)?
    for (const LpProblem::Row& row : lp.rows) {
      double act = 0.0;
      for (const LinTerm& t : row.terms) {
        const double lo = lp.lb[static_cast<std::size_t>(t.var)];
        const double hi = lp.ub[static_cast<std::size_t>(t.var)];
        act += t.coef * (std::abs(lo) <= std::abs(hi) ? lo : hi);
      }
      if ((row.sense != Sense::kGreaterEqual && act > row.rhs) ||
          (row.sense != Sense::kLessEqual && act < row.rhs)) {
        ++infeasible_start;
        break;
      }
    }
    const std::optional<double> reference = vertex_enumeration_optimum(lp);
    LpParams params;
    params.want_certificate = true;
    const LpResult r = solve_lp(lp, params);
    if (!reference) {
      ++infeasible;
      ASSERT_EQ(r.status, LpStatus::kInfeasible);
      ASSERT_EQ(r.certificate.kind, LpCertificate::Kind::kFarkas);
      InfeasibilityProof proof;
      ProofNode leaf;
      leaf.kind = ProofNode::Kind::kFarkas;
      for (int i = 0; i < lp.num_rows(); ++i) leaf.rows.push_back(i);
      leaf.y = r.certificate.y;
      proof.nodes.push_back(leaf);
      const CertifyCheck check = certify_infeasible(model_of(lp), proof);
      EXPECT_TRUE(check.ok) << check.detail;
      continue;
    }
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    EXPECT_NEAR(r.objective, *reference, 1e-6 * (1.0 + std::abs(*reference)));
    for (int j = 0; j < lp.num_vars(); ++j) {
      EXPECT_GE(r.x[static_cast<std::size_t>(j)],
                lp.lb[static_cast<std::size_t>(j)] - kTol);
      EXPECT_LE(r.x[static_cast<std::size_t>(j)],
                lp.ub[static_cast<std::size_t>(j)] + kTol);
    }
  }
  // The mix must exercise both verdicts and infeasible start points.
  EXPECT_GE(infeasible, 40);
  EXPECT_GE(infeasible_start, 100);
}

}  // namespace
}  // namespace sparcs::milp
