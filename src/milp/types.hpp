// Common types of the MILP subsystem.
//
// This subsystem is the repository's stand-in for the commercial ILP solver
// (CPLEX) used in the paper: a 0/1-oriented mixed-integer linear programming
// solver built from a bounded-variable two-phase simplex, activity-based
// bound propagation, and depth-first branch & bound with feasibility
// emphasis. The paper's algorithms only require "return the first feasible
// solution or prove infeasibility, under a time budget", plus an optimality
// mode for the small reference experiments; both are provided.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace sparcs::milp {

/// Index of a decision variable within its Model.
using VarId = std::int32_t;
/// Index of a linear constraint within its Model.
using ConstraintId = std::int32_t;

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class VarType : std::uint8_t {
  kContinuous,
  kBinary,   ///< integer restricted to {0, 1}
  kInteger,  ///< general bounded integer
};

/// Relational sense of a linear constraint.
enum class Sense : std::uint8_t {
  kLessEqual,
  kGreaterEqual,
  kEqual,
};

/// How much of the solve to certify (see milp/certificate.hpp and
/// milp/certify.hpp for the certificate data and the exact checker).
enum class CertifyMode : std::uint8_t {
  kOff,         ///< trust the floating-point verdicts (no overhead)
  kIncumbents,  ///< exact feasibility check of every returned solution
  kFull,        ///< kIncumbents plus infeasibility proofs for kInfeasible
};

/// Certification outcome of one verdict.
enum class CertifyStatus : std::uint8_t {
  kNotRequested,  ///< certification off, or nothing to certify (limit/cancel)
  kCertified,     ///< the verdict was re-established in exact arithmetic
  kUncertified,   ///< certificate check failed even after the distrust retry
};

[[nodiscard]] const char* to_string(CertifyStatus status);
[[nodiscard]] const char* to_string(CertifyMode mode);

/// Tree-shaped infeasibility proof (milp/certificate.hpp); carried by
/// MilpSolution behind a shared_ptr so types.hpp need not see its layout.
struct InfeasibilityProof;

/// Certificate attached to an infeasible LpResult by the simplex. The data
/// is plain doubles — a hint for the exact checker, never trusted directly.
struct LpCertificate {
  enum class Kind : std::uint8_t {
    kNone,        ///< no certificate available (extraction failed)
    kFarkas,      ///< dual ray `y`, one multiplier per LP row
    kEmptyBound,  ///< variable `var` arrived with lb > ub
  };
  Kind kind = Kind::kNone;
  std::vector<double> y;
  int var = -1;
};

/// Outcome of a MILP solve.
enum class SolveStatus : std::uint8_t {
  kOptimal,       ///< search exhausted; incumbent is proven optimal
  kFeasible,      ///< a feasible solution was found (first-feasible mode, or
                  ///< limits hit with an incumbent in hand)
  kInfeasible,    ///< search exhausted with no feasible solution
  kUnbounded,     ///< objective unbounded below (minimization)
  kLimitReached,  ///< node/time limit hit before any feasible solution
  kNumericalFailure,  ///< simplex blow-up/cycling exhausted every recovery
                      ///< (Bland's rule, bound perturbation, node rollback)
                      ///< before any feasible solution was found
};

[[nodiscard]] std::string to_string(SolveStatus status);

/// Shareable cooperative-cancellation handle. Copies share one flag, so a
/// token stored in SolverParams keeps working after the params are copied
/// into a Solver session. A default-constructed token is inert: it never
/// reports cancellation and ignores requests. All operations are thread-safe.
class CancelToken {
 public:
  CancelToken() = default;

  /// Makes a live token (the only way to obtain a non-inert one).
  [[nodiscard]] static CancelToken create() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// True when this token can carry a cancellation request.
  [[nodiscard]] bool valid() const { return flag_ != nullptr; }

  /// Requests cancellation; every copy of the token observes it.
  void request_cancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

  /// Re-arms a live token by clearing the shared flag in place. Unlike
  /// re-assigning a fresh token, every existing copy keeps observing the
  /// same flag, so there is no window where a concurrent request_cancel()
  /// lands on a retired flag and gets dropped.
  void reset() const {
    if (flag_) flag_->store(false, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Snapshot handed to incumbent callbacks when the search accepts a new best
/// solution. `values` points at solver-owned storage that is only valid for
/// the duration of the callback.
struct IncumbentEvent {
  double objective = 0.0;  ///< sign-corrected (caller's min/max convention)
  const std::vector<double>* values = nullptr;
  std::int64_t nodes_explored = 0;  ///< nodes explored when accepted
};

/// Invoked on every accepted incumbent, on the thread running the solve: keep
/// it cheap, and do not call back into the solver except
/// CancelToken::request_cancel().
using IncumbentCallback = std::function<void(const IncumbentEvent&)>;

/// Tuning knobs of the MILP solver.
struct SolverParams {
  /// Stop as soon as any feasible solution is found (constraint-satisfaction
  /// mode, the mode the paper's SolveModel() uses).
  bool stop_at_first_feasible = false;

  /// Wall-clock budget in seconds; exceeded => kLimitReached / kFeasible.
  double time_limit_sec = kInfinity;

  /// Maximum number of branch & bound nodes explored.
  std::int64_t node_limit = std::numeric_limits<std::int64_t>::max();

  /// Use LP-relaxation bounding/pruning at search nodes (optimality_params()
  /// sets it). Strong but costly; the search skips it on models past a fixed
  /// size (branch_and_bound.cpp).
  bool use_lp_bounding = false;

  /// Feasibility tolerance of propagation, of the node-LP row drop and of
  /// the incumbent check.
  double feasibility_tol = 1e-6;

  /// Minimum improvement required of a new incumbent (objective cutoff step).
  double objective_improvement = 1e-6;

  /// Maximum propagation sweeps per node before settling.
  int max_propagation_rounds = 50;

  /// Ignored: the search always runs on the calling thread. Kept only
  /// because the benchmark driver (perfbench/) still assigns it; dropped
  /// with the next change to the benchmark.
  int num_threads = 0;

  /// Cooperative cancellation: when the token reports cancellation the solve
  /// stops at the next node boundary and returns kLimitReached (or kFeasible
  /// when an incumbent is already in hand). Inert by default.
  CancelToken cancel;

  /// Certify verdicts in exact rational arithmetic (milp/certify). A failed
  /// check triggers one distrust re-solve; see Solver::solve().
  CertifyMode certify = CertifyMode::kOff;

  /// Distrust mode, set internally by the certification retry: the simplex
  /// runs Bland's rule from the first iteration and the solver tightens its
  /// tolerances, trading speed for the numerical caution that usually makes
  /// the second certificate check pass.
  bool distrust = false;
};

/// One timestamped event on a solve's convergence timeline: an accepted
/// incumbent or a tightened global bound, in caller convention (maximization
/// objectives are reported as the caller sees them).
struct ConvergenceEvent {
  enum class Kind : std::uint8_t { kIncumbent, kBound };
  double t_sec = 0.0;      ///< since the solve started
  double objective = 0.0;  ///< incumbent objective or bound value
  std::int64_t nodes = 0;  ///< nodes explored when the event fired
  Kind kind = Kind::kIncumbent;
};

/// Per-layer search statistics of one MILP solve, filled by the simplex,
/// propagation and branch & bound layers and returned in MilpSolution. All
/// fields are plain accumulators; merge() sums the stats of several solves
/// (a sweep's probes, or a solve and its distrust re-solve).
struct SolverStats {
  // Branch & bound.
  std::int64_t nodes_explored = 0;
  std::int64_t nodes_pruned_by_bound = 0;    ///< LP-relaxation refutations
  std::int64_t nodes_pruned_infeasible = 0;  ///< propagation conflicts
  std::int64_t incumbent_updates = 0;
  std::int64_t max_depth = 0;  ///< deepest DFS stack reached

  // Bound propagation (all nodes, root included).
  std::int64_t propagated_constraints = 0;
  std::int64_t bounds_tightened = 0;
  std::int64_t vars_fixed = 0;
  std::int64_t conflicts = 0;

  // Root-node propagation, the solver's built-in presolve.
  std::int64_t presolve_bounds_tightened = 0;
  std::int64_t presolve_vars_fixed = 0;

  // Simplex (LP bounding + continuous-completion solves).
  std::int64_t simplex_calls = 0;
  std::int64_t simplex_iterations = 0;
  std::int64_t simplex_pivots = 0;           ///< basis changes
  std::int64_t simplex_refactorizations = 0;  ///< reduced-cost refreshes

  // Robustness: numerical-failure recovery and incumbent validation.
  std::int64_t numerical_failures = 0;   ///< LP solves lost to blow-up/cycling
  std::int64_t lp_recoveries = 0;        ///< LP solves saved by Bland/perturb
  std::int64_t checker_rejections = 0;   ///< incumbents rejected by validation
  std::int64_t allocation_failures = 0;  ///< nodes rolled back on bad_alloc

  // Certification (exact rational verdict checking, milp/certify).
  std::int64_t certificates_checked = 0;  ///< exact checks performed
  std::int64_t certificates_failed = 0;   ///< checks that did not verify
  std::int64_t certify_retries = 0;       ///< distrust re-solves triggered
  std::int64_t uncertified_verdicts = 0;  ///< verdicts demoted after retry

  /// Incumbent/bound improvement timeline, in the order the search found
  /// the events. Each solve times its events from its own start, so after
  /// merge() the timeline is per solve in call order, not time-sorted.
  std::vector<ConvergenceEvent> convergence;

  /// Renders every accumulator plus the convergence timeline as one JSON
  /// object (implemented in stats_json.cpp; shared by the CLI report and the
  /// telemetry stream).
  [[nodiscard]] std::string to_json() const;

  /// Accumulates another solve's stats (sums; max for max_depth; the other
  /// timeline is appended after this one).
  void merge(const SolverStats& other) {
    nodes_explored += other.nodes_explored;
    nodes_pruned_by_bound += other.nodes_pruned_by_bound;
    nodes_pruned_infeasible += other.nodes_pruned_infeasible;
    incumbent_updates += other.incumbent_updates;
    max_depth = max_depth > other.max_depth ? max_depth : other.max_depth;
    propagated_constraints += other.propagated_constraints;
    bounds_tightened += other.bounds_tightened;
    vars_fixed += other.vars_fixed;
    conflicts += other.conflicts;
    presolve_bounds_tightened += other.presolve_bounds_tightened;
    presolve_vars_fixed += other.presolve_vars_fixed;
    simplex_calls += other.simplex_calls;
    simplex_iterations += other.simplex_iterations;
    simplex_pivots += other.simplex_pivots;
    simplex_refactorizations += other.simplex_refactorizations;
    numerical_failures += other.numerical_failures;
    lp_recoveries += other.lp_recoveries;
    checker_rejections += other.checker_rejections;
    allocation_failures += other.allocation_failures;
    certificates_checked += other.certificates_checked;
    certificates_failed += other.certificates_failed;
    certify_retries += other.certify_retries;
    uncertified_verdicts += other.uncertified_verdicts;
    convergence.insert(convergence.end(), other.convergence.begin(),
                       other.convergence.end());
  }
};

/// Result of a MILP solve.
struct MilpSolution {
  SolveStatus status = SolveStatus::kLimitReached;
  double objective = 0.0;              ///< valid when a solution exists
  std::vector<double> values;          ///< per-variable values (empty if none)
  std::int64_t nodes_explored = 0;     ///< == stats.nodes_explored
  std::int64_t propagations = 0;       ///< == stats.propagated_constraints
  double seconds = 0.0;
  SolverStats stats;                   ///< per-layer search statistics

  /// Certification outcome of this verdict (kNotRequested unless
  /// SolverParams::certify asked for it and the verdict was certifiable).
  CertifyStatus certified = CertifyStatus::kNotRequested;
  /// Reason of a failed certification, or a note on how it was closed.
  std::string certify_detail;
  /// Infeasibility proof recorded by branch & bound (kFull mode only; kept
  /// for report/debug dumps after the exact check has consumed it).
  std::shared_ptr<const InfeasibilityProof> proof;

  [[nodiscard]] bool has_solution() const {
    return status == SolveStatus::kOptimal || status == SolveStatus::kFeasible;
  }
};

/// Outcome of an LP solve.
enum class LpStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalFailure,  ///< non-finite tableau values or unrecoverable cycling
};

[[nodiscard]] std::string to_string(LpStatus status);

/// Result of a pure LP solve.
struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> x;  ///< primal values, one per variable
  int iterations = 0;
  int pivots = 0;            ///< basis changes (iterations minus bound flips)
  int refactorizations = 0;  ///< periodic reduced-cost refreshes
  int recoveries = 0;  ///< numerical-failure retries (Bland / perturbation)
                       ///< that were needed to produce this result
  /// Infeasibility certificate (LpParams::want_certificate; kNone otherwise
  /// or when extraction failed — never required to be present).
  LpCertificate certificate;
};

}  // namespace sparcs::milp
