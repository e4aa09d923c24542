#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <new>
#include <thread>
#include <utility>

#include "milp/certificate.hpp"
#include "milp/checker.hpp"
#include "milp/compiled.hpp"
#include "milp/propagation.hpp"
#include "milp/simplex.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/logging.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace sparcs::milp {
namespace {

/// Hard cap on recorded infeasibility-proof nodes. Past it the proof is
/// flagged overflowed — the exact checker refuses it and the verdict honestly
/// stays uncertified — instead of letting a pathological search exhaust
/// memory on bookkeeping.
constexpr std::size_t kMaxProofNodes = 200'000;

/// One open decision in the DFS stack.
struct Frame {
  VarId var = -1;
  /// Branches as [lb, ub] boxes to impose on `var`, tried in order.
  std::vector<std::pair<double, double>> branches;
  std::size_t next = 0;
  std::size_t trail_mark = 0;
};

class BnbSearch {
 public:
  BnbSearch(const Model& model, const SolverParams& params,
            const BnbCallbacks& callbacks)
      : params_(params),
        callbacks_(callbacks),
        compiled_(model, /*with_objective_cutoff=*/model.has_objective()),
        domains_(compiled_),
        propagator_(compiled_, params.feasibility_tol,
                    params.max_propagation_rounds),
        model_(model),
        live_(callbacks.live),
        tree_on_(telemetry::tree_active()),
        proof_on_(params.certify == CertifyMode::kFull) {
    if (proof_on_) propagator_.set_log(&prop_log_);
  }

  MilpSolution run();

 private:
  /// First unfixed integral variable in branch-priority order, or -1.
  VarId pick_branch_var() const;
  std::vector<std::pair<double, double>> make_branches(VarId v) const;
  /// Completes continuous variables by LP. Returns true when a feasible
  /// completion exists and fills `candidate`; `unbounded` reports an
  /// unbounded continuous objective.
  bool complete_continuous(std::vector<double>& candidate, bool* unbounded);
  /// LP-relaxation feasibility probe under the current domains.
  bool lp_prune();
  /// Handles a fully integral node. Returns true when the search must stop.
  bool handle_leaf(MilpSolution& result);
  void record_incumbent(std::vector<double> values, MilpSolution& result);
  /// True when a budget or cancellation stops the search; the first hit is
  /// latched (limit_stopped_) and decides the final status.
  bool limits_hit();
  bool cancel_requested() const;
  void absorb_lp(const LpResult& lp_result);
  /// LP parameters for in-node solves: wires the global limits into the
  /// simplex abort hook, so a deadline/cancel unwinds from inside a long LP
  /// run instead of waiting for the next node boundary.
  LpParams node_lp_params();
  /// Marks the search incomplete (a subtree was dropped for a numerical or
  /// allocation reason): exhaustion no longer proves infeasibility.
  void mark_incomplete();
  void export_stats(MilpSolution& result);
  void search_loop(MilpSolution& result);
  /// Pushes node/LP-iteration deltas and the open-node count into
  /// the live telemetry slot (called every kLivePublishPeriod nodes).
  void publish_live();
  /// Solves one root LP with the true objective and publishes the resulting
  /// dual bound to the live slot and the convergence timeline. Only runs
  /// while a live telemetry slot is attached (costs one extra LP).
  void publish_root_bound();

  // ---- Infeasibility-proof recording (active when certify == kFull) ------

  /// Appends a proof node (respecting the size cap).
  void record_proof_node(ProofNode&& node) {
    if (!proof_on_) return;
    if (proof_nodes_.size() >= kMaxProofNodes) {
      proof_overflowed_ = true;
      return;
    }
    proof_nodes_.push_back(std::move(node));
  }
  /// Moves the entry-propagation derivations of the current node out of the
  /// staging slot (they were parked there by the propagate call that entered
  /// the node).
  [[nodiscard]] std::vector<Derivation> take_pending_derivations() {
    return std::move(pending_derivations_);
  }
  /// Parks a successful propagate() call's derivations for the node it just
  /// entered, and resets the log for the next call.
  void stage_propagation_log() {
    if (!proof_on_) return;
    pending_derivations_ = std::move(prop_log_.derivations);
    prop_log_.clear();
  }
  /// Records the refutation of the current node, whose entry propagate()
  /// failed, using the partial derivation trace plus the conflict the log
  /// captured.
  void record_conflict_leaf() {
    if (!proof_on_) return;
    ProofNode node;
    node.rank = path_;
    node.kind = ProofNode::Kind::kConflict;
    node.derivations = std::move(prop_log_.derivations);
    node.conflict_row = prop_log_.conflict_row;
    node.conflict_var = prop_log_.conflict_var;
    prop_log_.clear();
    if (SPARCS_FAILPOINT("milp.certify.corrupt_proof")) {
      // Strip the leaf's refutation: the exact checker rejects a leaf that
      // carries no certificate, demoting the whole verdict to uncertified —
      // the fault-injection hook for propagation-refuted infeasibilities
      // (milp.certify.corrupt_ray covers the LP-refuted ones).
      node.kind = ProofNode::Kind::kUnproven;
    }
    record_proof_node(std::move(node));
  }
  /// Records the refutation of the current node from an infeasible LP
  /// (completion or prune), translating the stashed LP certificate.
  void record_lp_leaf() {
    if (!proof_on_) return;
    ProofNode node;
    node.rank = path_;
    node.derivations = take_pending_derivations();
    switch (lp_cert_.kind) {
      case LpCertificate::Kind::kFarkas:
        node.kind = ProofNode::Kind::kFarkas;
        node.rows = std::move(lp_cert_rows_);
        node.y = std::move(lp_cert_.y);
        break;
      case LpCertificate::Kind::kEmptyBound:
        node.kind = ProofNode::Kind::kEmptyBox;
        node.var = lp_cert_empty_var_;
        break;
      case LpCertificate::Kind::kNone:
        node.kind = ProofNode::Kind::kUnproven;
        break;
    }
    record_proof_node(std::move(node));
  }
  /// Stops recording once an incumbent exists: the final status can no
  /// longer be kInfeasible, so the proof would be dead weight.
  void drop_proof_recording() {
    if (!proof_on_) return;
    proof_on_ = false;
    propagator_.set_log(nullptr);
    proof_nodes_.clear();
    pending_derivations_.clear();
    prop_log_.clear();
  }
  /// Hands the recorded tree to an infeasible result (no-op on any
  /// other status, where the nodes are dead weight).
  void attach_proof(MilpSolution& result) {
    if (!proof_on_ || result.status != SolveStatus::kInfeasible) return;
    auto proof = std::make_shared<InfeasibilityProof>();
    proof->nodes = std::move(proof_nodes_);
    proof->overflowed = proof_overflowed_;
    result.proof = std::move(proof);
  }

  const SolverParams& params_;
  BnbCallbacks callbacks_;
  CompiledModel compiled_;
  Domains domains_;
  Propagator propagator_;
  const Model& model_;
  Stopwatch stopwatch_;
  PropagationStats prop_stats_;
  SolverStats stats_;
  std::vector<Frame> stack_;
  /// Branch index applied at each stack frame (-1 until the frame applies
  /// its first branch): the DFS position of the node being processed, which
  /// is also its rank in the infeasibility proof.
  std::vector<std::int32_t> path_;
  std::vector<double> incumbent_;
  double incumbent_obj_ = kInfinity;
  bool have_incumbent_ = false;
  std::int64_t nodes_ = 0;
  bool stop_ = false;
  /// True once any subtree was abandoned (allocation failure, checker
  /// rejection, LP numerical failure at a leaf); see mark_incomplete().
  bool incomplete_ = false;
  /// True when the search stopped because allocation failures exhausted the
  /// retry budget (distinguishes this stop_ from a record_incumbent stop).
  bool alloc_stop_ = false;
  /// Latched by limits_hit() when a budget or cancellation stopped the
  /// search.
  bool limit_stopped_ = false;

  // -- telemetry (all inert unless live_ / tree_on_ are set) ---------------
  telemetry::LiveSolve* live_ = nullptr;  ///< live slot; null = off
  const bool tree_on_;                    ///< cached once per search
  /// Owner node id of each open frame; parallel to stack_ while tree_on_.
  std::vector<std::int64_t> frame_node_ids_;
  /// Branch applied to enter the node about to descend (-1: root).
  VarId last_branch_var_ = -1;
  double last_branch_lo_ = 0.0;
  double last_branch_hi_ = 0.0;
  /// High-water marks of what was already pushed into live_ (deltas only,
  /// so the distrust re-solve adds to the first attempt's counts).
  std::int64_t live_pub_nodes_ = 0;
  std::int64_t live_pub_lp_iters_ = 0;

  // -- infeasibility-proof recording (inert unless proof_on_) --------------
  bool proof_on_ = false;
  DerivationLog prop_log_;
  /// Entry-propagation derivations of the node being processed, parked
  /// between the propagate() call that entered it and its proof record.
  std::vector<Derivation> pending_derivations_;
  std::vector<ProofNode> proof_nodes_;
  bool proof_overflowed_ = false;
  /// LP certificate stash of the most recent infeasible in-node LP solve.
  LpCertificate lp_cert_;
  std::vector<ConstraintId> lp_cert_rows_;  ///< model row of each LP row
  VarId lp_cert_empty_var_ = -1;            ///< model var of a kEmptyBound
  /// True when the current leaf's continuous completion LP was infeasible
  /// (set by complete_continuous, consumed by handle_leaf).
  bool lp_refuted_ = false;

  /// Live-slot publish period in nodes (power of two, used as a mask).
  static constexpr std::int64_t kLivePublishPeriod = 256;

  /// Allocation failures tolerated (with node rollback) before giving up.
  static constexpr std::int64_t kMaxAllocationFailures = 16;
};

VarId BnbSearch::pick_branch_var() const {
  for (const VarId v : compiled_.branch_order()) {
    if (domains_.ub(v) - domains_.lb(v) >= 0.5) return v;
  }
  return -1;
}

std::vector<std::pair<double, double>> BnbSearch::make_branches(VarId v) const {
  const double lo = domains_.lb(v);
  const double hi = domains_.ub(v);
  std::vector<std::pair<double, double>> branches;
  const double span = hi - lo;
  if (span <= 8.5) {
    // Enumerate values, branch hint first, then from the top down (for the
    // 0/1 assignment variables of the partitioning model "try 1 first"
    // makes the DFS behave like a greedy constructor).
    double hint = compiled_.branch_hint(v);
    std::vector<double> values;
    if (std::isfinite(hint)) {
      hint = std::round(hint);
      if (hint >= lo && hint <= hi) values.push_back(hint);
    }
    for (double x = hi; x >= lo - 0.5; x -= 1.0) {
      if (values.empty() || std::round(x) != values.front()) {
        values.push_back(std::round(x));
      }
    }
    branches.reserve(values.size());
    for (const double x : values) branches.emplace_back(x, x);
  } else {
    const double mid = std::floor((lo + hi) / 2.0);
    branches.emplace_back(lo, mid);
    branches.emplace_back(mid + 1.0, hi);
  }
  return branches;
}

bool BnbSearch::complete_continuous(std::vector<double>& candidate,
                                    bool* unbounded) {
  *unbounded = false;
  const int n = compiled_.num_vars();
  std::vector<int> cont_index(static_cast<std::size_t>(n), -1);
  std::vector<VarId> cont_var;  ///< model var of each LP var (proof only)
  LpProblem lp;
  for (VarId v = 0; v < n; ++v) {
    if (!compiled_.is_integral(v)) {
      cont_index[static_cast<std::size_t>(v)] =
          lp.add_var(0.0, domains_.lb(v), domains_.ub(v));
      if (proof_on_) cont_var.push_back(v);
    }
  }

  candidate.assign(static_cast<std::size_t>(n), 0.0);
  for (VarId v = 0; v < n; ++v) {
    if (compiled_.is_integral(v)) {
      candidate[static_cast<std::size_t>(v)] = domains_.lb(v);
    }
  }

  if (lp.num_vars() == 0) return true;  // nothing to complete

  for (const LinTerm& t : compiled_.objective_terms()) {
    const int j = cont_index[static_cast<std::size_t>(t.var)];
    if (j >= 0) lp.obj[static_cast<std::size_t>(j)] += t.coef;
  }
  std::vector<ConstraintId> row_ids;  ///< model row of each LP row (proof)
  for (int c = 0; c < compiled_.num_constraints(); ++c) {
    const CompiledConstraint& cc = compiled_.constraint(c);
    if (!std::isfinite(cc.rhs)) continue;  // inactive cutoff
    const double* coefs = compiled_.coefs(cc);
    const VarId* vars = compiled_.vars(cc);
    std::vector<LinTerm> terms;
    double rhs = cc.rhs;
    // Activity range of the row over the current continuous domains; rows
    // satisfied for every point of the box are redundant here (propagation
    // has typically tightened the bounds enough to prune almost all rows,
    // which keeps the completion LP small on large models).
    double min_act = 0.0, max_act = 0.0;
    for (int k = 0; k < compiled_.size(cc); ++k) {
      const VarId v = vars[k];
      const int j = cont_index[static_cast<std::size_t>(v)];
      if (j >= 0) {
        const double a = coefs[k];
        terms.push_back({j, a});
        min_act += a * (a > 0.0 ? domains_.lb(v) : domains_.ub(v));
        max_act += a * (a > 0.0 ? domains_.ub(v) : domains_.lb(v));
      } else {
        rhs -= coefs[k] * candidate[static_cast<std::size_t>(vars[k])];
      }
    }
    if (terms.empty()) continue;
    const double tol = params_.feasibility_tol;
    bool redundant = false;
    switch (cc.sense) {
      case Sense::kLessEqual:
        redundant = max_act <= rhs + tol;
        break;
      case Sense::kGreaterEqual:
        redundant = min_act >= rhs - tol;
        break;
      case Sense::kEqual:
        redundant = max_act <= rhs + tol && min_act >= rhs - tol;
        break;
    }
    if (!redundant) {
      lp.add_row(std::move(terms), cc.sense, rhs);
      if (proof_on_) row_ids.push_back(c);
    }
  }

  const LpResult lp_result = solve_lp(lp, node_lp_params());
  absorb_lp(lp_result);
  switch (lp_result.status) {
    case LpStatus::kOptimal:
      break;
    case LpStatus::kInfeasible:
      lp_refuted_ = true;
      if (proof_on_) {
        // Stash the certificate in model coordinates: the ray is over the
        // folded rows, but the folding only changed the rhs by the fixed
        // integral contributions, which the exact checker re-derives from
        // the full model row and the node box.
        lp_cert_ = lp_result.certificate;
        lp_cert_rows_ = std::move(row_ids);
        lp_cert_empty_var_ =
            lp_cert_.kind == LpCertificate::Kind::kEmptyBound &&
                    lp_cert_.var >= 0 &&
                    lp_cert_.var < static_cast<int>(cont_var.size())
                ? cont_var[static_cast<std::size_t>(lp_cert_.var)]
                : -1;
        if (lp_cert_.kind == LpCertificate::Kind::kEmptyBound &&
            lp_cert_empty_var_ < 0) {
          lp_cert_.kind = LpCertificate::Kind::kNone;
        }
      }
      return false;
    case LpStatus::kUnbounded:
      *unbounded = true;
      return false;
    case LpStatus::kIterationLimit:
    case LpStatus::kNumericalFailure:
      // No completion found, but none ruled out either: the leaf's subregion
      // was not fully explored, so exhaustion no longer proves infeasibility.
      mark_incomplete();
      return false;
  }
  for (VarId v = 0; v < n; ++v) {
    const int j = cont_index[static_cast<std::size_t>(v)];
    if (j >= 0) {
      candidate[static_cast<std::size_t>(v)] =
          lp_result.x[static_cast<std::size_t>(j)];
    }
  }
  return true;
}

bool BnbSearch::lp_prune() {
  LpProblem lp;
  const int n = compiled_.num_vars();
  for (VarId v = 0; v < n; ++v) {
    lp.add_var(0.0, domains_.lb(v), domains_.ub(v));
  }
  std::vector<ConstraintId> row_ids;  ///< model row of each LP row (proof)
  for (int c = 0; c < compiled_.num_constraints(); ++c) {
    const CompiledConstraint& cc = compiled_.constraint(c);
    if (!std::isfinite(cc.rhs)) continue;
    const double* coefs = compiled_.coefs(cc);
    const VarId* vars = compiled_.vars(cc);
    std::vector<LinTerm> terms;
    terms.reserve(static_cast<std::size_t>(compiled_.size(cc)));
    for (int k = 0; k < compiled_.size(cc); ++k) {
      terms.push_back({vars[k], coefs[k]});
    }
    lp.add_row(std::move(terms), cc.sense, cc.rhs);
    if (proof_on_) row_ids.push_back(c);
  }
  const LpResult lp_result = solve_lp(lp, node_lp_params());
  absorb_lp(lp_result);
  if (proof_on_ && lp_result.status == LpStatus::kInfeasible) {
    lp_cert_ = lp_result.certificate;
    lp_cert_rows_ = std::move(row_ids);
    // LP variables are the model variables here, so a kEmptyBound var needs
    // no translation.
    lp_cert_empty_var_ =
        lp_cert_.kind == LpCertificate::Kind::kEmptyBound ? lp_cert_.var : -1;
  }
  // kNumericalFailure (recovery exhausted) keeps the node: skipping the LP
  // prune is always sound, just slower.
  return lp_result.status != LpStatus::kInfeasible;  // true = keep node
}

void BnbSearch::absorb_lp(const LpResult& lp_result) {
  ++stats_.simplex_calls;
  stats_.simplex_iterations += lp_result.iterations;
  stats_.simplex_pivots += lp_result.pivots;
  stats_.simplex_refactorizations += lp_result.refactorizations;
  stats_.lp_recoveries += lp_result.recoveries;
  if (lp_result.status == LpStatus::kNumericalFailure) {
    ++stats_.numerical_failures;
  }
}

LpParams BnbSearch::node_lp_params() {
  LpParams lp;
  lp.should_abort = [this] { return limits_hit(); };
  lp.want_certificate = proof_on_;
  if (params_.distrust) {
    // Certification retry: Bland's rule from the first iteration and
    // tightened tolerances — slower, but the numerically cautious pivoting
    // usually makes the re-extracted certificates verify exactly.
    lp.stall_threshold = 0;
    lp.feasibility_tol = std::min(lp.feasibility_tol, 1e-9);
    lp.optimality_tol = std::min(lp.optimality_tol, 1e-9);
  }
  return lp;
}

void BnbSearch::mark_incomplete() { incomplete_ = true; }

void BnbSearch::publish_live() {
  if (live_ == nullptr) return;
  live_->nodes.fetch_add(nodes_ - live_pub_nodes_, std::memory_order_relaxed);
  live_pub_nodes_ = nodes_;
  live_->lp_iterations.fetch_add(
      stats_.simplex_iterations - live_pub_lp_iters_,
      std::memory_order_relaxed);
  live_pub_lp_iters_ = stats_.simplex_iterations;
  live_->open_nodes.store(static_cast<std::int64_t>(stack_.size()),
                          std::memory_order_relaxed);
}

void BnbSearch::publish_root_bound() {
  if (live_ == nullptr || !params_.use_lp_bounding ||
      compiled_.objective_terms().empty()) {
    return;
  }
  LpProblem lp;
  const int n = compiled_.num_vars();
  for (VarId v = 0; v < n; ++v) {
    lp.add_var(0.0, domains_.lb(v), domains_.ub(v));
  }
  for (const LinTerm& t : compiled_.objective_terms()) {
    lp.obj[static_cast<std::size_t>(t.var)] += t.coef;
  }
  for (int c = 0; c < compiled_.num_constraints(); ++c) {
    const CompiledConstraint& cc = compiled_.constraint(c);
    if (!std::isfinite(cc.rhs)) continue;  // inactive cutoff
    const double* coefs = compiled_.coefs(cc);
    const VarId* vars = compiled_.vars(cc);
    std::vector<LinTerm> terms;
    terms.reserve(static_cast<std::size_t>(compiled_.size(cc)));
    for (int k = 0; k < compiled_.size(cc); ++k) {
      terms.push_back({vars[k], coefs[k]});
    }
    lp.add_row(std::move(terms), cc.sense, cc.rhs);
  }
  const LpResult lp_result = solve_lp(lp, node_lp_params());
  absorb_lp(lp_result);
  if (lp_result.status != LpStatus::kOptimal) return;
  const double caller_bound = compiled_.objective_flipped()
                                  ? -lp_result.objective
                                  : lp_result.objective;
  live_->best_bound.store(caller_bound, std::memory_order_relaxed);
  live_->has_bound.store(true, std::memory_order_relaxed);
  stats_.convergence.push_back({stopwatch_.seconds(), caller_bound, nodes_,
                                ConvergenceEvent::Kind::kBound});
}

void BnbSearch::export_stats(MilpSolution& result) {
  stats_.nodes_explored = nodes_;
  stats_.propagated_constraints = prop_stats_.constraints_processed;
  stats_.bounds_tightened = prop_stats_.bounds_tightened;
  stats_.vars_fixed = prop_stats_.vars_fixed;
  stats_.conflicts = prop_stats_.conflicts;
  result.stats = stats_;
  result.nodes_explored = nodes_;
  result.propagations = prop_stats_.constraints_processed;
}

void BnbSearch::record_incumbent(std::vector<double> values,
                                 MilpSolution& result) {
  double obj = 0.0;
  for (const LinTerm& t : compiled_.objective_terms()) {
    obj += t.coef * values[static_cast<std::size_t>(t.var)];
  }
  if (have_incumbent_ && obj >= incumbent_obj_) return;
  drop_proof_recording();  // a feasible point rules out an infeasible verdict
  incumbent_ = std::move(values);
  incumbent_obj_ = obj;
  have_incumbent_ = true;
  ++stats_.incumbent_updates;
  const double caller_obj =
      compiled_.objective_flipped() ? -incumbent_obj_ : incumbent_obj_;
  stats_.convergence.push_back({stopwatch_.seconds(), caller_obj, nodes_,
                                ConvergenceEvent::Kind::kIncumbent});
  if (live_ != nullptr) {
    live_->incumbent.store(caller_obj, std::memory_order_relaxed);
    live_->has_incumbent.store(true, std::memory_order_relaxed);
    live_->incumbent_updates.fetch_add(1, std::memory_order_relaxed);
  }
  if (compiled_.has_cutoff_row()) {
    compiled_.set_cutoff(incumbent_obj_ - params_.objective_improvement);
  }
  if (callbacks_.on_incumbent) {
    IncumbentEvent event;
    event.objective =
        compiled_.objective_flipped() ? -incumbent_obj_ : incumbent_obj_;
    event.values = &incumbent_;
    event.nodes_explored = nodes_;
    callbacks_.on_incumbent(event);
  }
  SPARCS_DLOG << "incumbent objective " << incumbent_obj_ << " at node "
              << nodes_;
  if (params_.stop_at_first_feasible || compiled_.objective_terms().empty()) {
    result.status = compiled_.objective_terms().empty() && !params_.stop_at_first_feasible
                        ? SolveStatus::kOptimal
                        : SolveStatus::kFeasible;
    stop_ = true;
  }
}

bool BnbSearch::cancel_requested() const {
  return params_.cancel.cancelled() || callbacks_.session_cancel.cancelled();
}

bool BnbSearch::limits_hit() {
  if (limit_stopped_) return true;
  limit_stopped_ = SPARCS_FAILPOINT("milp.solve.timeout") ||
                   cancel_requested() || nodes_ >= params_.node_limit ||
                   stopwatch_.seconds() >= params_.time_limit_sec;
  return limit_stopped_;
}

bool BnbSearch::handle_leaf(MilpSolution& result) {
  std::vector<double> candidate;
  bool unbounded = false;
  lp_refuted_ = false;
  if (complete_continuous(candidate, &unbounded)) {
    if (SPARCS_FAILPOINT("milp.bnb.corrupt_leaf") && !candidate.empty()) {
      // Simulates a wrong completion (the failure the checker gate exists
      // for); the corrupted candidate must be rejected, never returned.
      candidate[0] += 1e3;
    }
    // Exact final check guards against tolerance drift across propagation.
    // Every accepted incumbent passes through here, so a numerically wrong
    // completion is rejected (and counted) rather than returned.
    if (check_solution(model_, candidate, 1e2 * params_.feasibility_tol)
            .ok) {
      record_incumbent(std::move(candidate), result);
    } else {
      ++stats_.checker_rejections;
      mark_incomplete();
      SPARCS_WLOG << "rejected checker-invalid completion at node " << nodes_;
    }
  } else if (unbounded && !have_incumbent_) {
    result.status = SolveStatus::kUnbounded;
    stop_ = true;
    return true;
  } else if (!unbounded && lp_refuted_) {
    // Integral leaf with no continuous completion: the stashed LP
    // certificate becomes this leaf's refutation.
    record_lp_leaf();
  }
  return stop_;
}

void BnbSearch::search_loop(MilpSolution& result) {
  const bool lp_bounding =
      params_.use_lp_bounding &&
      compiled_.num_vars() <= params_.lp_bounding_max_vars;

  // DFS over decision frames. `descend` signals that the current domains may
  // hold new work (fresh node); false means resume the top frame.
  bool descend = true;
  while (!stop_) {
    if (limits_hit()) break;
    if (descend) {
      ++nodes_;
      double stall_sec = 0.0;
      if (SPARCS_FAILPOINT_STALL("milp.bnb.node_stall", &stall_sec) &&
          stall_sec > 0.0) {
        // Simulates a wedged search; the deadline watchdog (or the time
        // limit) must still end the solve through cooperative cancellation.
        std::this_thread::sleep_for(std::chrono::duration<double>(stall_sec));
      }
      if (live_ != nullptr && (nodes_ % kLivePublishPeriod) == 0) {
        publish_live();
      }
      if (params_.log_every_nodes > 0 &&
          nodes_ % params_.log_every_nodes == 0) {
        SPARCS_ILOG << "nodes=" << nodes_ << " depth=" << stack_.size()
                    << " incumbent="
                    << (have_incumbent_ ? incumbent_obj_ : kInfinity);
      }
      // Search-tree record of this node: classified at whichever exit the
      // node takes below; interior nodes become the parent of their frame's
      // branches.
      telemetry::TreeNode tnode;
      bool tnode_recorded = false;
      if (tree_on_) {
        tnode.id = telemetry::tree_next_id();
        tnode.parent = frame_node_ids_.empty() ? -1 : frame_node_ids_.back();
        tnode.depth = static_cast<std::int32_t>(stack_.size());
        tnode.branch_var = last_branch_var_;
        tnode.branch_lb = last_branch_lo_;
        tnode.branch_ub = last_branch_hi_;
      }
      // Node body under an allocation guard: on bad_alloc the node is rolled
      // back (its subtree dropped, the search marked incomplete) and the DFS
      // resumes with the siblings, up to kMaxAllocationFailures times.
      try {
        if (SPARCS_FAILPOINT("milp.bnb.alloc_fail")) throw std::bad_alloc();
        const VarId v = pick_branch_var();
        if (v < 0) {
          const std::int64_t rejections_before = stats_.checker_rejections;
          const bool stop_now = handle_leaf(result);
          if (tree_on_) {
            tnode.kind = stats_.checker_rejections > rejections_before
                             ? telemetry::NodeKind::kRejected
                             : telemetry::NodeKind::kIntegral;
            telemetry::tree_record(tnode);
          }
          if (stop_now) break;
          descend = false;  // backtrack to explore alternatives
          continue;
        }
        if (lp_bounding && !lp_prune()) {
          ++stats_.nodes_pruned_by_bound;
          // Without an incumbent the prune can only come from an infeasible
          // relaxation, so the stashed LP certificate refutes this node.
          record_lp_leaf();
          if (tree_on_) {
            tnode.kind = telemetry::NodeKind::kPrunedBound;
            telemetry::tree_record(tnode);
          }
          descend = false;
          continue;
        }
        Frame frame;
        frame.var = v;
        frame.branches = make_branches(v);
        frame.trail_mark = domains_.checkpoint();
        if (proof_on_) {
          // Interior node: its branch list is the coverage obligation the
          // checker verifies.
          ProofNode inode;
          inode.rank = path_;
          inode.kind = ProofNode::Kind::kBranched;
          inode.derivations = take_pending_derivations();
          inode.var = v;
          inode.branches = frame.branches;
          record_proof_node(std::move(inode));
        }
        if (tree_on_) {
          // Record (and register as owner) before the stack pushes: a push
          // failure below leaves a childless "branched" record, which the
          // dump-time fixup relabels as "budget".
          tnode.kind = telemetry::NodeKind::kBranched;
          telemetry::tree_record(tnode);
          tnode_recorded = true;
          frame_node_ids_.push_back(tnode.id);
        }
        stack_.push_back(std::move(frame));
        path_.push_back(-1);
      } catch (const std::bad_alloc&) {
        if (stack_.size() > path_.size()) {
          // path_.push_back threw after stack_.push_back: undo the frame to
          // restore the stack/path pairing.
          domains_.rollback(stack_.back().trail_mark);
          stack_.pop_back();
        }
        if (tree_on_) {
          // Re-pair the owner-id vector with the frame stack, then record
          // the dropped node with its real reason (unless already recorded).
          while (frame_node_ids_.size() > stack_.size()) {
            frame_node_ids_.pop_back();
          }
          if (!tnode_recorded) {
            tnode.kind = telemetry::NodeKind::kBudget;
            telemetry::tree_record(tnode);
          }
        }
        ++stats_.allocation_failures;
        mark_incomplete();
        SPARCS_WLOG << "allocation failure at node " << nodes_
                    << "; dropping subtree ("
                    << stats_.allocation_failures << "/"
                    << kMaxAllocationFailures << ")";
        if (stats_.allocation_failures >= kMaxAllocationFailures) {
          alloc_stop_ = true;
          stop_ = true;
          break;
        }
        descend = false;
        continue;
      }
      const auto depth = static_cast<std::int64_t>(stack_.size());
      if (depth > stats_.max_depth) stats_.max_depth = depth;
    }

    // Try the next branch of the top frame; pop exhausted frames.
    if (stack_.empty()) break;
    Frame& top = stack_.back();
    domains_.rollback(top.trail_mark);
    if (top.next >= top.branches.size()) {
      stack_.pop_back();
      path_.pop_back();
      if (tree_on_ && !frame_node_ids_.empty()) frame_node_ids_.pop_back();
      descend = false;
      continue;
    }
    const auto [blo, bhi] = top.branches[top.next++];
    path_.back() = static_cast<std::int32_t>(top.next - 1);
    const VarId v = top.var;
    bool ok = true;
    bool empty_on_arrival = false;
    if (blo > domains_.lb(v)) ok = ok && (domains_.set_lb(v, blo), true);
    if (bhi < domains_.ub(v)) ok = ok && (domains_.set_ub(v, bhi), true);
    if (domains_.lb(v) > domains_.ub(v)) {
      ok = false;
      empty_on_arrival = true;
    }
    if (ok) {
      ok = propagator_.propagate(domains_, {v}, prop_stats_);
      if (ok) stage_propagation_log();
    }
    if (!ok) {
      // Conflict: stay on this frame and try its next branch.
      if (proof_on_) {
        if (empty_on_arrival) {
          // The branch box itself was empty: no propagation ran, the
          // emptiness at the branch variable is the whole refutation.
          ProofNode leaf;
          leaf.rank = path_;
          leaf.kind = ProofNode::Kind::kEmptyBox;
          leaf.var = v;
          record_proof_node(std::move(leaf));
        } else {
          record_conflict_leaf();
        }
      }
      ++stats_.nodes_pruned_infeasible;
      if (tree_on_) {
        // The refuted branch never descends, so its record is created here.
        telemetry::TreeNode child;
        child.id = telemetry::tree_next_id();
        child.parent = frame_node_ids_.empty() ? -1 : frame_node_ids_.back();
        child.depth = static_cast<std::int32_t>(stack_.size());
        child.branch_var = v;
        child.branch_lb = blo;
        child.branch_ub = bhi;
        child.kind = telemetry::NodeKind::kPrunedInfeasible;
        telemetry::tree_record(child);
      }
      descend = false;
      continue;
    }
    last_branch_var_ = v;
    last_branch_lo_ = blo;
    last_branch_hi_ = bhi;
    descend = true;
  }
}

MilpSolution BnbSearch::run() {
  MilpSolution result;

  // Root propagation doubles as presolve.
  const bool root_ok = propagator_.propagate(domains_, {}, prop_stats_);
  if (root_ok) stage_propagation_log();
  stats_.presolve_bounds_tightened = prop_stats_.bounds_tightened;
  stats_.presolve_vars_fixed = prop_stats_.vars_fixed;
  if (!root_ok) {
    record_conflict_leaf();  // the root itself is the refuted node
    result.status = SolveStatus::kInfeasible;
    result.seconds = stopwatch_.seconds();
    attach_proof(result);
    export_stats(result);
    return result;
  }

  publish_root_bound();
  search_loop(result);
  publish_live();  // final flush of node/LP deltas

  export_stats(result);
  result.seconds = stopwatch_.seconds();
  if (stop_ && have_incumbent_ && !alloc_stop_) {
    // Early stop after recording a solution (first-feasible or pure
    // feasibility mode); status was set in record_incumbent.
  } else if (have_incumbent_) {
    // An incomplete tree (dropped subtrees) can still certify feasibility,
    // but no longer optimality.
    result.status = limit_stopped_ || incomplete_ ? SolveStatus::kFeasible
                                                  : SolveStatus::kOptimal;
  } else if (result.status == SolveStatus::kUnbounded) {
    // keep
  } else if (limit_stopped_) {
    result.status = SolveStatus::kLimitReached;
  } else {
    // Exhaustion only proves infeasibility when no subtree was dropped.
    result.status = incomplete_ ? SolveStatus::kNumericalFailure
                                : SolveStatus::kInfeasible;
  }
  if (have_incumbent_) {
    result.values = incumbent_;
    result.objective =
        compiled_.objective_flipped() ? -incumbent_obj_ : incumbent_obj_;
  }
  attach_proof(result);
  return result;
}

}  // namespace

MilpSolution solve_branch_and_bound(const Model& model,
                                    const SolverParams& params,
                                    const BnbCallbacks& callbacks) {
  BnbSearch search(model, params, callbacks);
  return search.run();
}

}  // namespace sparcs::milp
