#include "milp/solver.hpp"

#include <utility>

#include "milp/branch_and_bound.hpp"
#include "milp/certify.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/span.hpp"
#include "support/telemetry.hpp"

namespace sparcs::milp {
namespace {

/// Runs the exact certificate check matching the solution's verdict, stamping
/// `certified` / `certify_detail` and the check counters. Statuses that make
/// no certifiable claim (limits, cancellation, unbounded, numerical failure)
/// keep kNotRequested.
void certify_verdict(const Model& model, const SolverParams& params,
                     MilpSolution& solution) {
  solution.certified = CertifyStatus::kNotRequested;
  solution.certify_detail.clear();
  if (params.certify == CertifyMode::kOff) return;

  const bool feasible_verdict = (solution.status == SolveStatus::kOptimal ||
                                 solution.status == SolveStatus::kFeasible) &&
                                !solution.values.empty();
  const bool infeasible_verdict =
      solution.status == SolveStatus::kInfeasible &&
      params.certify == CertifyMode::kFull;

  if (feasible_verdict) {
    ++solution.stats.certificates_checked;
    const CertifyCheck check = certify_feasible(model, solution.values);
    solution.certified =
        check.ok ? CertifyStatus::kCertified : CertifyStatus::kUncertified;
    solution.certify_detail = check.detail;
    if (!check.ok) ++solution.stats.certificates_failed;
  } else if (infeasible_verdict) {
    ++solution.stats.certificates_checked;
    if (solution.proof == nullptr) {
      solution.certified = CertifyStatus::kUncertified;
      solution.certify_detail = "no infeasibility proof was recorded";
      ++solution.stats.certificates_failed;
      return;
    }
    const CertifyCheck check = certify_infeasible(model, *solution.proof);
    solution.certified =
        check.ok ? CertifyStatus::kCertified : CertifyStatus::kUncertified;
    solution.certify_detail = check.detail;
    if (!check.ok) ++solution.stats.certificates_failed;
  }
}

/// Publishes one solve's statistics to the process-wide metrics registry.
/// Handles are resolved once; the adds are relaxed atomics gated on the
/// global enable flag, so the per-solve cost is negligible either way.
void export_to_registry(const MilpSolution& solution) {
  if (!metrics::enabled()) return;
  metrics::Registry& reg = metrics::registry();
  static metrics::Counter& solves = reg.counter("milp.solves");
  static metrics::Counter& nodes = reg.counter("milp.bnb.nodes_explored");
  static metrics::Counter& pruned_bound =
      reg.counter("milp.bnb.nodes_pruned_by_bound");
  static metrics::Counter& pruned_infeasible =
      reg.counter("milp.bnb.nodes_pruned_infeasible");
  static metrics::Counter& incumbents =
      reg.counter("milp.bnb.incumbent_updates");
  static metrics::Counter& propagated =
      reg.counter("milp.propagation.constraints");
  static metrics::Counter& tightened =
      reg.counter("milp.propagation.bounds_tightened");
  static metrics::Counter& fixed = reg.counter("milp.propagation.vars_fixed");
  static metrics::Counter& conflicts =
      reg.counter("milp.propagation.conflicts");
  static metrics::Counter& sx_calls = reg.counter("milp.simplex.calls");
  static metrics::Counter& sx_iters = reg.counter("milp.simplex.iterations");
  static metrics::Counter& sx_pivots = reg.counter("milp.simplex.pivots");
  static metrics::Counter& sx_refactor =
      reg.counter("milp.simplex.refactorizations");
  static metrics::Counter& num_failures =
      reg.counter("milp.numerical_failures");
  static metrics::Counter& lp_recoveries = reg.counter("milp.lp_recoveries");
  static metrics::Counter& checker_rejections =
      reg.counter("milp.checker_rejections");
  static metrics::Counter& alloc_failures =
      reg.counter("milp.allocation_failures");
  static metrics::Counter& cert_checked =
      reg.counter("milp.certify.checked");
  static metrics::Counter& cert_failed = reg.counter("milp.certify.failed");
  static metrics::Counter& cert_retries =
      reg.counter("milp.certify.retries");
  static metrics::Counter& cert_uncertified =
      reg.counter("milp.certify.uncertified");
  static metrics::Timer& solve_timer = reg.timer("milp.solve");
  static metrics::Gauge& depth_gauge = reg.gauge("milp.bnb.last_max_depth");

  const SolverStats& s = solution.stats;
  solves.add(1);
  nodes.add(s.nodes_explored);
  pruned_bound.add(s.nodes_pruned_by_bound);
  pruned_infeasible.add(s.nodes_pruned_infeasible);
  incumbents.add(s.incumbent_updates);
  propagated.add(s.propagated_constraints);
  tightened.add(s.bounds_tightened);
  fixed.add(s.vars_fixed);
  conflicts.add(s.conflicts);
  sx_calls.add(s.simplex_calls);
  sx_iters.add(s.simplex_iterations);
  sx_pivots.add(s.simplex_pivots);
  sx_refactor.add(s.simplex_refactorizations);
  num_failures.add(s.numerical_failures);
  lp_recoveries.add(s.lp_recoveries);
  checker_rejections.add(s.checker_rejections);
  alloc_failures.add(s.allocation_failures);
  cert_checked.add(s.certificates_checked);
  cert_failed.add(s.certificates_failed);
  cert_retries.add(s.certify_retries);
  cert_uncertified.add(s.uncertified_verdicts);
  solve_timer.record(solution.seconds);
  depth_gauge.set(static_cast<double>(s.max_depth));
}

}  // namespace

Solver::Solver(const Model& model, SolverParams params)
    : model_(model),
      params_(std::move(params)),
      cancel_(CancelToken::create()) {}

MilpSolution Solver::solve() {
  // Registers the solve in the live telemetry table (no-op while telemetry
  // is inactive) and pins its correlation id to this thread.
  telemetry::SolveScope live("milp::solve");
  // The span keeps the historical "milp::solve" name so trace consumers see
  // an unchanged event stream across the free-function -> session migration.
  trace::Span span("milp::solve");
  span.arg("vars", static_cast<std::int64_t>(model_.num_vars()));
  span.arg("constraints",
           static_cast<std::int64_t>(model_.num_constraints()));
  if (live.id() != 0) {
    span.arg("corr", static_cast<std::int64_t>(live.id()));
  }
  BnbCallbacks callbacks;
  callbacks.session_cancel = cancel_;
  callbacks.on_incumbent = on_incumbent_;
  callbacks.live = live.slot();
  MilpSolution solution = solve_branch_and_bound(model_, params_, callbacks);
  certify_verdict(model_, params_, solution);
  if (solution.certified == CertifyStatus::kUncertified && !params_.distrust) {
    // Distrust-and-retry: one re-solve under numerically cautious settings
    // (Bland's rule from the start, tightened tolerances). The retry's
    // verdict replaces the distrusted one; its stats absorb the first
    // attempt's so the session accounts for the total work.
    SPARCS_WLOG << "verdict " << to_string(solution.status)
                << " failed exact certification (" << solution.certify_detail
                << "); re-solving with distrust settings";
    SolverParams retry_params = params_;
    retry_params.distrust = true;
    MilpSolution retried =
        solve_branch_and_bound(model_, retry_params, callbacks);
    retried.stats.merge(solution.stats);
    retried.stats.certify_retries += 1;
    solution = std::move(retried);
    certify_verdict(model_, retry_params, solution);
  }
  if (solution.certified == CertifyStatus::kUncertified) {
    ++solution.stats.uncertified_verdicts;
    SPARCS_WLOG << "verdict " << to_string(solution.status)
                << " remains uncertified: " << solution.certify_detail;
  }
  span.arg("status", to_string(solution.status));
  if (params_.certify != CertifyMode::kOff) {
    span.arg("certified", to_string(solution.certified));
  }
  span.arg("nodes", solution.stats.nodes_explored);
  span.arg("simplex_iterations", solution.stats.simplex_iterations);
  export_to_registry(solution);
  return solution;
}

void Solver::cancel() { cancel_.request_cancel(); }

// Clears the shared flag in place rather than swapping in a fresh token:
// cancel() is documented safe from any thread, and re-assigning the
// shared_ptr would both race the concurrent read and let a cancel() that
// grabbed the old token fire into a retired flag — silently dropping the
// cancellation meant for the next solve.
void Solver::reset_cancel() { cancel_.reset(); }

void Solver::set_incumbent_callback(IncumbentCallback callback) {
  on_incumbent_ = std::move(callback);
}

SolverParams first_feasible_params(SolverParams base) {
  base.stop_at_first_feasible = true;
  return base;
}

SolverParams optimality_params(SolverParams base) {
  base.stop_at_first_feasible = false;
  base.use_lp_bounding = true;
  return base;
}

}  // namespace sparcs::milp
