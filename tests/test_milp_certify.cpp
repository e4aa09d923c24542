// Certificate-rejection suite: the exact checker must refuse certificates
// that are wrong by any margin — a Farkas ray with the wrong sign structure,
// an incumbent violating a constraint by one ulp, branch boxes that fail to
// cover a domain — and the solver/partitioner must answer a refused
// certificate by demoting the verdict, never by changing it.
#include <gtest/gtest.h>

#include <cmath>

#include "arch/device.hpp"
#include "core/bounds.hpp"
#include "core/refine_partitions.hpp"
#include "milp/certify.hpp"
#include "milp/solver.hpp"
#include "support/failpoint.hpp"
#include "workloads/ar_filter.hpp"

namespace sparcs::milp {
namespace {

// --- certify_feasible -------------------------------------------------------

/// max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6; optimum 20 at {b, c}.
Model knapsack_model() {
  Model m("knapsack");
  const VarId a = m.add_binary("a");
  const VarId b = m.add_binary("b");
  const VarId c = m.add_binary("c");
  m.add_constraint(3.0 * LinExpr(a) + 4.0 * LinExpr(b) + 2.0 * LinExpr(c) <=
                       6.0,
                   "cap");
  m.set_objective(10.0 * LinExpr(a) + 13.0 * LinExpr(b) + 7.0 * LinExpr(c),
                  /*minimize=*/false);
  return m;
}

TEST(CertifyFeasibleTest, AcceptsExactSolution) {
  const CertifyCheck check =
      certify_feasible(knapsack_model(), {0.0, 1.0, 1.0});
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST(CertifyFeasibleTest, RejectsOneUlpConstraintViolation) {
  // 0.1 * 3 evaluates to 0.30000000000000004 in doubles: exactly one ulp
  // above 0.3. Every tolerance-based checker accepts this point; the exact
  // checker must reject it, and the integral variable leaves no room for
  // the continuous-repair pass to mask the violation.
  Model m("ulp");
  m.add_integer(0, 10, "x");
  m.add_constraint(0.1 * LinExpr(0) <= 0.3, "tight");
  EXPECT_FALSE(certify_feasible(m, {3.0}).ok);
  // One step down the violation disappears (0.1 * 2 < 0.3 exactly).
  EXPECT_TRUE(certify_feasible(m, {2.0}).ok);
}

TEST(CertifyFeasibleTest, RejectsNonIntegralValue) {
  Model m("frac");
  m.add_integer(0, 10, "x");
  m.add_constraint(LinExpr(0) <= 5.0, "cap");
  EXPECT_FALSE(certify_feasible(m, {std::nextafter(3.0, 4.0)}).ok);
  EXPECT_TRUE(certify_feasible(m, {3.0}).ok);
}

TEST(CertifyFeasibleTest, RejectsOutOfBoundsValue) {
  Model m("oob");
  m.add_integer(0, 4, "x");
  EXPECT_FALSE(certify_feasible(m, {5.0}).ok);
}

// --- certify_infeasible -----------------------------------------------------

/// x + y >= 3 with x, y binary: infeasible (max lhs is 2).
Model infeasible_model() {
  Model m("infeasible");
  m.add_binary("x");
  m.add_binary("y");
  m.add_constraint(LinExpr(0) + LinExpr(1) >= 3.0, "need3");
  return m;
}

/// Infeasible in a way interval propagation cannot see: no single row
/// tightens any bound (each residual interval is slack), but summing the
/// three pairwise rows gives x + y + z <= 3, contradicting the >= 4 row —
/// a refutation only the LP finds, so the proof carries a Farkas leaf.
Model lp_refuted_model() {
  Model m("lp_refuted");
  const VarId x = m.add_integer(0, 2, "x");
  const VarId y = m.add_integer(0, 2, "y");
  const VarId z = m.add_integer(0, 2, "z");
  m.add_constraint(LinExpr(x) + LinExpr(y) <= 2.0, "xy");
  m.add_constraint(LinExpr(y) + LinExpr(z) <= 2.0, "yz");
  m.add_constraint(LinExpr(x) + LinExpr(z) <= 2.0, "xz");
  m.add_constraint(LinExpr(x) + LinExpr(y) + LinExpr(z) >= 4.0, "sum");
  return m;
}

TEST(CertifyInfeasibleTest, SolverProofPassesExactCheck) {
  SolverParams params = optimality_params();
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(infeasible_model(), params).solve();
  ASSERT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.certified, CertifyStatus::kCertified) << s.certify_detail;
  ASSERT_NE(s.proof, nullptr);
  EXPECT_TRUE(certify_infeasible(infeasible_model(), *s.proof).ok);
}

TEST(CertifyInfeasibleTest, LpRefutedProofCarriesFarkasLeafAndPasses) {
  SolverParams params = optimality_params();
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(lp_refuted_model(), params).solve();
  ASSERT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.certified, CertifyStatus::kCertified) << s.certify_detail;
  ASSERT_NE(s.proof, nullptr);
  bool saw_farkas = false;
  for (const ProofNode& node : s.proof->nodes) {
    saw_farkas |= node.kind == ProofNode::Kind::kFarkas;
  }
  EXPECT_TRUE(saw_farkas);
  EXPECT_TRUE(certify_infeasible(lp_refuted_model(), *s.proof).ok);
}

TEST(CertifyInfeasibleTest, RejectsFarkasRayOnFeasibleModel) {
  // A single-leaf "proof" whose ray claims the knapsack capacity row alone
  // refutes the box. No sign combination can: the model is feasible.
  InfeasibilityProof proof;
  ProofNode leaf;
  leaf.kind = ProofNode::Kind::kFarkas;
  leaf.rows = {0};
  leaf.y = {1.0};
  proof.nodes.push_back(leaf);
  EXPECT_FALSE(certify_infeasible(knapsack_model(), proof).ok);
}

TEST(CertifyInfeasibleTest, RejectsZeroAndWrongSignRays) {
  const Model m = infeasible_model();
  {
    InfeasibilityProof proof;
    ProofNode leaf;
    leaf.kind = ProofNode::Kind::kFarkas;
    leaf.rows = {0};
    leaf.y = {0.0};  // the zero ray proves nothing
    proof.nodes.push_back(leaf);
    EXPECT_FALSE(certify_infeasible(m, proof).ok);
  }
  {
    InfeasibilityProof proof;
    ProofNode leaf;
    leaf.kind = ProofNode::Kind::kFarkas;
    leaf.rows = {0};
    // need3 is a >= row: its multiplier must be <= 0 (y = -1 is the genuine
    // certificate). The sign condition rejects the flipped ray outright.
    leaf.y = {1.0};
    proof.nodes.push_back(leaf);
    EXPECT_FALSE(certify_infeasible(m, proof).ok);
  }
  {
    // And the correctly-signed ray on the same row is accepted.
    InfeasibilityProof proof;
    ProofNode leaf;
    leaf.kind = ProofNode::Kind::kFarkas;
    leaf.rows = {0};
    leaf.y = {-1.0};
    proof.nodes.push_back(leaf);
    EXPECT_TRUE(certify_infeasible(m, proof).ok);
  }
}

TEST(CertifyInfeasibleTest, RejectsBranchesThatDoNotCoverTheDomain) {
  // Interior node splits x in [0,10] into [0,4] and [6,10], silently
  // dropping x = 5 — exactly the hole a buggy (or corrupted) search would
  // leave. Both children carry genuine conflicts for their own boxes.
  Model m("hole");
  m.add_integer(0, 10, "x");
  m.add_constraint(LinExpr(0) >= 20.0, "big");  // conflicts everywhere
  InfeasibilityProof proof;
  ProofNode root;
  root.kind = ProofNode::Kind::kBranched;
  root.var = 0;
  root.branches = {{0.0, 4.0}, {6.0, 10.0}};
  proof.nodes.push_back(root);
  for (int child = 0; child < 2; ++child) {
    ProofNode leaf;
    leaf.rank = {child};
    leaf.kind = ProofNode::Kind::kConflict;
    leaf.conflict_row = 0;
    proof.nodes.push_back(leaf);
  }
  EXPECT_FALSE(certify_infeasible(m, proof).ok);
  // Closing the hole makes the same proof pass.
  proof.nodes[0].branches = {{0.0, 4.0}, {5.0, 10.0}};
  EXPECT_TRUE(certify_infeasible(m, proof).ok);
}

TEST(CertifyInfeasibleTest, RejectsOverflowedProof) {
  SolverParams params = optimality_params();
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(infeasible_model(), params).solve();
  ASSERT_NE(s.proof, nullptr);
  InfeasibilityProof truncated = *s.proof;
  truncated.overflowed = true;
  EXPECT_FALSE(certify_infeasible(infeasible_model(), truncated).ok);
}

TEST(CertifyInfeasibleTest, RejectsEmptyProof) {
  EXPECT_FALSE(certify_infeasible(infeasible_model(), {}).ok);
}

// --- corrupt certificates through the solver and the partitioner ------------

class CertifyFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kCompiledIn) {
      GTEST_SKIP() << "built without SPARCS_ENABLE_FAILPOINTS";
    }
    failpoint::disarm_all();
  }
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(CertifyFailpointTest, CorruptRayDemotesVerdictAfterDistrustRetry) {
  // Every Farkas ray is zeroed at extraction, so the first solve and the
  // distrust re-solve both produce uncheckable proofs. The verdict itself
  // must not move — infeasible stays infeasible — it just loses its
  // certificate.
  failpoint::arm("milp.certify.corrupt_ray");
  SolverParams params = optimality_params();
  params.certify = CertifyMode::kFull;
  const MilpSolution s = Solver(lp_refuted_model(), params).solve();
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.certified, CertifyStatus::kUncertified);
  EXPECT_EQ(s.stats.certify_retries, 1);
  EXPECT_GE(s.stats.certificates_failed, 1);
  EXPECT_EQ(s.stats.uncertified_verdicts, 1);
}

TEST_F(CertifyFailpointTest, CorruptProofDegradesSweepWithoutChangingLatency) {
  // End-to-end: with corrupt certificates the sweep's infeasible probes go
  // uncertified and the affected stages stop on a conservative window. The
  // reported latency must come only from certified feasible incumbents —
  // identical to the clean run's — with the damage surfaced as
  // degraded/kDegraded, not as a different answer. Both corruption sites
  // are armed; the partitioning probes are propagation-refuted, so
  // corrupt_proof is the one that fires here.
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = arch::custom("ar_dev", 200, 64, 50);
  core::RefinePartitionsParams params;
  params.budget.delta = 20.0;
  params.budget.solver.node_limit = 200000;
  params.budget.solver.certify = CertifyMode::kFull;

  const core::RefinePartitionsResult clean =
      core::refine_partitions_bound(g, dev, params);
  ASSERT_TRUE(clean.best.has_value());
  EXPECT_FALSE(clean.degraded);

  failpoint::arm("milp.certify.corrupt_ray");
  failpoint::arm("milp.certify.corrupt_proof");
  const core::RefinePartitionsResult corrupted =
      core::refine_partitions_bound(g, dev, params);
  failpoint::disarm_all();

  ASSERT_TRUE(corrupted.best.has_value());
  EXPECT_EQ(corrupted.achieved_latency, clean.achieved_latency);
  EXPECT_TRUE(corrupted.degraded);
  bool saw_degraded_stage = false;
  for (const core::StageAccount& stage : corrupted.stages) {
    saw_degraded_stage |= stage.status == core::StageStatus::kDegraded;
  }
  EXPECT_TRUE(saw_degraded_stage);
  bool saw_uncertified_probe = false;
  for (const core::IterationRecord& row : corrupted.trace) {
    saw_uncertified_probe |=
        row.outcome == core::IterationOutcome::kUncertified;
  }
  EXPECT_TRUE(saw_uncertified_probe);
  EXPECT_GT(corrupted.solver_stats.uncertified_verdicts, 0);
}

}  // namespace
}  // namespace sparcs::milp
