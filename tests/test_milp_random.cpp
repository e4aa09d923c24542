// Property tests: the branch & bound must agree with brute-force enumeration
// on randomly generated small integer programs, with and without LP bounding.
#include <gtest/gtest.h>

#include <cmath>

#include "brute_force.hpp"
#include "milp/certificate.hpp"
#include "milp/checker.hpp"
#include "milp/solver.hpp"
#include "support/rng.hpp"

namespace sparcs::milp {
namespace {

/// Generates a random binary program with `n` variables and `rows`
/// constraints of mixed senses plus a random objective.
Model random_binary_model(std::uint64_t seed, int n, int rows) {
  Rng rng(seed);
  Model m("rand" + std::to_string(seed));
  for (int i = 0; i < n; ++i) m.add_binary("x" + std::to_string(i));
  for (int r = 0; r < rows; ++r) {
    LinExpr lhs;
    int nnz = 0;
    for (VarId v = 0; v < n; ++v) {
      if (rng.chance(0.6)) {
        lhs += static_cast<double>(rng.uniform_int(-4, 6)) * LinExpr(v);
        ++nnz;
      }
    }
    if (nnz == 0) continue;
    const double rhs = static_cast<double>(rng.uniform_int(-3, 8));
    const int pick = static_cast<int>(rng.uniform_int(0, 2));
    const Sense sense = pick == 0   ? Sense::kLessEqual
                        : pick == 1 ? Sense::kGreaterEqual
                                    : Sense::kEqual;
    m.add_constraint(lhs, sense, rhs, "r" + std::to_string(r));
  }
  LinExpr obj;
  for (VarId v = 0; v < n; ++v) {
    obj += static_cast<double>(rng.uniform_int(-5, 9)) * LinExpr(v);
  }
  m.set_objective(obj, /*minimize=*/rng.chance(0.5));
  return m;
}

class RandomMilpTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMilpTest, MatchesBruteForce) {
  const Model m = random_binary_model(GetParam(), 9, 5);
  const auto expected = testing::brute_force_best_objective(m);
  const MilpSolution s = Solver(m, optimality_params()).solve();
  if (!expected.has_value()) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible)
        << "solver found a solution for an infeasible model";
    return;
  }
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << to_string(s.status);
  EXPECT_NEAR(s.objective, *expected, 1e-6);
  EXPECT_TRUE(check_solution(m, s.values).ok);
}

TEST_P(RandomMilpTest, PropagationOnlyAgreesWithLpBounding) {
  const Model m = random_binary_model(GetParam() ^ 0xabcdef, 8, 4);
  SolverParams no_lp;
  no_lp.use_lp_bounding = false;
  SolverParams with_lp;
  with_lp.use_lp_bounding = true;
  const MilpSolution s1 = Solver(m, no_lp).solve();
  const MilpSolution s2 = Solver(m, with_lp).solve();
  EXPECT_EQ(s1.status, s2.status);
  if (s1.has_solution() && s2.has_solution()) {
    EXPECT_NEAR(s1.objective, s2.objective, 1e-6);
  }
}

TEST_P(RandomMilpTest, FirstFeasibleIsFeasible) {
  const Model m = random_binary_model(GetParam() * 31 + 7, 10, 6);
  const MilpSolution s = Solver(m, first_feasible_params()).solve();
  if (s.has_solution()) {
    EXPECT_TRUE(check_solution(m, s.values).ok);
  } else {
    EXPECT_FALSE(testing::brute_force_best_objective(m).has_value());
  }
}

TEST_P(RandomMilpTest, MixedIntegerAgainstBruteForceOnIntegers) {
  // Random model with small general-integer domains.
  Rng rng(GetParam() + 99);
  Model m;
  const int n = 5;
  for (int i = 0; i < n; ++i) {
    m.add_integer(0, 3, "z" + std::to_string(i));
  }
  for (int r = 0; r < 4; ++r) {
    LinExpr lhs;
    for (VarId v = 0; v < n; ++v) {
      lhs += static_cast<double>(rng.uniform_int(-2, 4)) * LinExpr(v);
    }
    m.add_constraint(lhs, Sense::kLessEqual,
                     static_cast<double>(rng.uniform_int(0, 14)),
                     "r" + std::to_string(r));
  }
  LinExpr obj;
  for (VarId v = 0; v < n; ++v) {
    obj += static_cast<double>(rng.uniform_int(-3, 5)) * LinExpr(v);
  }
  m.set_objective(obj);
  const auto expected = testing::brute_force_best_objective(m);
  const MilpSolution s = Solver(m, optimality_params()).solve();
  if (!expected.has_value()) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  } else {
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, *expected, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMilpTest,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Random program over general integers in [0, 3] with mixed-sense rows.
Model random_integer_model(std::uint64_t seed, int n, int rows) {
  Rng rng(seed);
  Model m("int" + std::to_string(seed));
  for (int i = 0; i < n; ++i) m.add_integer(0, 3, "z" + std::to_string(i));
  for (int r = 0; r < rows; ++r) {
    LinExpr lhs;
    for (VarId v = 0; v < n; ++v) {
      lhs += static_cast<double>(rng.uniform_int(-3, 4)) * LinExpr(v);
    }
    const Sense sense =
        rng.chance(0.3) ? Sense::kEqual
                        : (rng.chance(0.5) ? Sense::kLessEqual
                                           : Sense::kGreaterEqual);
    m.add_constraint(lhs, sense, static_cast<double>(rng.uniform_int(-4, 9)),
                     "r" + std::to_string(r));
  }
  LinExpr obj;
  for (VarId v = 0; v < n; ++v) {
    obj += static_cast<double>(rng.uniform_int(-3, 5)) * LinExpr(v);
  }
  m.set_objective(obj);
  return m;
}

/// Random packing program: conflict-graph rows x_i + x_j <= ub over
/// integers in [0, ub] plus a cardinality row sum x >= k. Its LP relaxation
/// sits at ub/2 on odd cycles, so branching leaves refutations the bound
/// propagation of single rows does not see.
Model random_packing_model(std::uint64_t seed, int n, int ub) {
  Rng rng(seed);
  Model m("pack" + std::to_string(seed));
  for (int i = 0; i < n; ++i) {
    m.add_integer(0, ub, "x" + std::to_string(i));
  }
  for (VarId i = 0; i < n; ++i) {
    for (VarId j = i + 1; j < n; ++j) {
      if (rng.chance(0.35)) {
        m.add_constraint(LinExpr(i) + LinExpr(j) <= static_cast<double>(ub),
                         "e" + std::to_string(i) + "_" + std::to_string(j));
      }
    }
  }
  LinExpr sum;
  for (VarId v = 0; v < n; ++v) sum += LinExpr(v);
  const double k = std::ceil(ub * n / 2.0) -
                   static_cast<double>(rng.uniform_int(0, 2));
  m.add_constraint(sum >= k, "card");
  LinExpr obj;
  for (VarId v = 0; v < n; ++v) {
    obj += static_cast<double>(rng.uniform_int(-3, 5)) * LinExpr(v);
  }
  m.set_objective(obj);
  return m;
}

// Node LPs fold fixed integral columns into the rhs and drop rows that hold
// over the node box, so a Farkas ray recorded below the root spans only part
// of the model; the exact checker must still accept every such refutation.
TEST(RandomMilpCertifyTest, InfeasibleVerdictsCarryCertifiedLpRefutations) {
  SolverParams params = optimality_params();
  params.certify = CertifyMode::kFull;
  int infeasible = 0;
  int partial_deep_rays = 0;  ///< below-root Farkas leaves over a row subset
  for (std::uint64_t seed = 1; seed <= 160; ++seed) {
    Model m;
    switch (seed % 4) {
      case 0:
        m = random_binary_model(seed * 7919, 9, 6);
        break;
      case 1:
        m = random_integer_model(seed * 7919, 5, 4);
        break;
      case 2:
        m = random_packing_model(seed, 10, 1);
        break;
      default:
        m = random_packing_model(seed, 6, 3);
        break;
    }
    const bool feasible = testing::brute_force_best_objective(m).has_value();
    const MilpSolution s = Solver(m, params).solve();
    if (feasible) {
      EXPECT_EQ(s.status, SolveStatus::kOptimal) << "seed " << seed;
      continue;
    }
    ++infeasible;
    ASSERT_EQ(s.status, SolveStatus::kInfeasible) << "seed " << seed;
    EXPECT_EQ(s.certified, CertifyStatus::kCertified)
        << "seed " << seed << ": " << s.certify_detail;
    ASSERT_NE(s.proof, nullptr) << "seed " << seed;
    for (const ProofNode& node : s.proof->nodes) {
      if (node.kind == ProofNode::Kind::kFarkas && !node.rank.empty() &&
          static_cast<int>(node.rows.size()) < m.num_constraints()) {
        ++partial_deep_rays;
      }
    }
  }
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(partial_deep_rays, 0);
}

}  // namespace
}  // namespace sparcs::milp
