#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <map>
#include <mutex>
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

/// Position of a subproblem in the depth-first order of the full tree: the
/// branch indices (trial order within each frame) leading from the root to
/// the subproblem. std::vector's lexicographic compare gives exactly the DFS
/// order, with a prefix ordering before its extensions (an ancestor region
/// still contains leaves on both sides of any of its descendants).
using Rank = std::vector<std::int32_t>;

/// Hard cap on recorded infeasibility-proof nodes (per worker and for the
/// merged proof). Past it the proof is flagged overflowed — the exact checker
/// refuses it and the verdict honestly stays uncertified — instead of letting
/// a pathological search exhaust memory on bookkeeping.
constexpr std::size_t kMaxProofNodes = 200'000;

/// One donated unit of work: a bounds box (the donor's propagation fixpoint
/// plus one untried branch) and the variable whose bound changed, so the
/// receiving worker can re-run seeded propagation exactly as the donor's
/// serial search would have.
struct Subproblem {
  Rank rank;
  std::vector<double> lb, ub;
  VarId seed = -1;  ///< -1: root subproblem (full propagation)
  /// Telemetry search-tree id of the donor node (-1: no recording / root),
  /// so donated subtrees attach to their real parent in the dump.
  std::int64_t tree_parent = -1;
};

/// Shared state of one multi-threaded solve: the rank-ordered subproblem
/// pool, the incumbent/candidate, global limits, and termination detection.
class ParallelContext {
 public:
  ParallelContext(const SolverParams& params, const BnbCallbacks& callbacks,
                  bool first_feasible_mode, bool objective_flipped,
                  int num_workers)
      : params_(params),
        callbacks_(callbacks),
        first_feasible_mode_(first_feasible_mode),
        objective_flipped_(objective_flipped),
        hungry_below_(2 * num_workers),
        live_(callbacks.live) {}

  Stopwatch stopwatch;

  // ---- Subproblem pool --------------------------------------------------

  void push(Subproblem&& node) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A candidate already beats every leaf of this subtree: drop it.
      if (have_candidate_ && node.rank > candidate_rank_) return;
      Rank key = node.rank;
      pool_.emplace(std::move(key), std::move(node));
      pool_size_.store(static_cast<int>(pool_.size()),
                       std::memory_order_relaxed);
    }
    cv_.notify_one();
  }

  /// Hands out the rank-smallest open subproblem. Blocks while the pool is
  /// empty but other workers may still donate; returns false once the solve
  /// is over (pool drained and all workers idle, limits hit, or stopped).
  bool acquire(Subproblem& out) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (stop_requested_.load(std::memory_order_relaxed) ||
          global_limits_hit()) {
        return false;
      }
      if (!pool_.empty()) {
        out = std::move(pool_.begin()->second);
        pool_.erase(pool_.begin());
        pool_size_.store(static_cast<int>(pool_.size()),
                         std::memory_order_relaxed);
        ++active_;
        return true;
      }
      if (active_ == 0) return false;
      cv_.wait(lock);
    }
  }

  /// Declares the previously acquired subproblem finished.
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    // Waiters must re-check the exit condition even when no work appeared.
    cv_.notify_all();
  }

  /// True when workers should donate untried branches into the pool.
  [[nodiscard]] bool hungry() const {
    return pool_size_.load(std::memory_order_relaxed) < hungry_below_;
  }

  /// Open-subproblem estimate for live telemetry (pool only; per-worker DFS
  /// stacks are not counted — this is a progress indicator, not an exact
  /// frontier size).
  [[nodiscard]] std::int64_t open_estimate() const {
    return pool_size_.load(std::memory_order_relaxed);
  }

  /// Merged incumbent timeline of this solve (call after workers joined).
  [[nodiscard]] std::vector<ConvergenceEvent>&& take_convergence() {
    return std::move(convergence_);
  }

  // ---- Limits -----------------------------------------------------------

  void count_node() { total_nodes_.fetch_add(1, std::memory_order_relaxed); }

  [[nodiscard]] std::int64_t total_nodes() const {
    return total_nodes_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool global_limits_hit() {
    return stop_requested_.load(std::memory_order_relaxed) ||
           budget_limits_hit();
  }

  /// True once a budget or cancellation has stopped the run. The first hit
  /// is latched, so every worker winds down and the final status mapping
  /// reads the cause recorded when the search stopped: a cancel that is
  /// reset in between cannot make a cut-short search look exhausted. The
  /// timeout failpoint fires here — the shared check every worker consults
  /// — so an injected timeout is classified exactly like a real one.
  bool budget_limits_hit() {
    if (limit_stopped_.load(std::memory_order_relaxed)) return true;
    const bool hit = SPARCS_FAILPOINT("milp.solve.timeout") ||
                     total_nodes_.load(std::memory_order_relaxed) >=
                         params_.node_limit ||
                     params_.cancel.cancelled() ||
                     callbacks_.session_cancel.cancelled() ||
                     stopwatch.seconds() >= params_.time_limit_sec;
    if (hit) limit_stopped_.store(true, std::memory_order_relaxed);
    return hit;
  }

  /// True when a budget or cancellation stopped the run (the latch above).
  [[nodiscard]] bool limit_stopped() const {
    return limit_stopped_.load(std::memory_order_relaxed);
  }

  /// Records that a worker stopped on a limit at DFS position `rank`, so
  /// the tree from `rank` on was not fully explored.
  void note_abandoned(const Rank& rank) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!have_abandoned_ || rank < abandoned_rank_) {
      have_abandoned_ = true;
      abandoned_rank_ = rank;
    }
  }

  /// True when the first-feasible candidate is the DFS-first feasible leaf,
  /// i.e. no subproblem ranked before it was abandoned or left in the pool
  /// (call after workers joined). Only then may a cut-short run return it:
  /// the serial search would not have reached any later leaf.
  [[nodiscard]] bool candidate_precedes_abandoned() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (have_abandoned_ && !(candidate_rank_ < abandoned_rank_)) return false;
    return pool_.empty() || candidate_rank_ < pool_.begin()->first;
  }

  void request_stop() {
    stop_requested_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
  }

  void flag_unbounded() {
    unbounded_.store(true, std::memory_order_relaxed);
    request_stop();
  }

  [[nodiscard]] bool unbounded() const {
    return unbounded_.load(std::memory_order_relaxed);
  }

  /// Marks the search as incomplete: some subtree was abandoned for a
  /// numerical/allocation reason, so an exhausted tree no longer proves
  /// infeasibility or optimality.
  void flag_incomplete() {
    incomplete_.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] bool incomplete() const {
    return incomplete_.load(std::memory_order_relaxed);
  }

  // ---- First-feasible candidates ----------------------------------------
  // In first-feasible (and pure-feasibility) mode the winner is the
  // rank-smallest feasible leaf, which is exactly the solution the serial
  // DFS returns; acceptance is therefore by rank, not by arrival time.

  [[nodiscard]] std::uint64_t candidate_version() const {
    return candidate_version_.load(std::memory_order_acquire);
  }

  /// Copies the current best candidate rank; false when none exists yet.
  bool copy_candidate_rank(Rank* out) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (!have_candidate_) return false;
    *out = candidate_rank_;
    return true;
  }

  /// Offers a feasible leaf; keeps it only when it precedes the current
  /// candidate in DFS order. Prunes now-beaten pool entries either way.
  bool offer_candidate(Rank rank, std::vector<double>&& values, double obj) {
    IncumbentEvent event;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (have_candidate_ && !(rank < candidate_rank_)) return false;
      have_candidate_ = true;
      candidate_rank_ = std::move(rank);
      candidate_values_ = std::move(values);
      candidate_obj_ = obj;
      candidate_version_.fetch_add(1, std::memory_order_release);
      pool_.erase(pool_.upper_bound(candidate_rank_), pool_.end());
      pool_size_.store(static_cast<int>(pool_.size()),
                       std::memory_order_relaxed);
      record_convergence_locked(obj);
      if (!callbacks_.on_incumbent) return true;
      event.objective = objective_flipped_ ? -obj : obj;
      event.values = &candidate_values_;
      event.nodes_explored = total_nodes();
      callbacks_.on_incumbent(event);
    }
    return true;
  }

  [[nodiscard]] bool has_candidate() const {
    std::lock_guard<std::mutex> lock(mu_);
    return have_candidate_;
  }

  // ---- Shared incumbent (optimality mode) --------------------------------

  [[nodiscard]] double shared_best() const {
    return best_obj_.load(std::memory_order_relaxed);
  }

  /// Offers an improving incumbent (minimized-space objective). Ties on the
  /// objective are broken toward the DFS-smaller rank so repeated runs
  /// converge to the same solution where timing allows.
  bool offer_incumbent(Rank rank, std::vector<double>&& values, double obj) {
    IncumbentEvent event;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (have_incumbent_ &&
          (obj > incumbent_obj_ ||
           (obj == incumbent_obj_ && !(rank < candidate_rank_)))) {
        return false;
      }
      have_incumbent_ = true;
      incumbent_obj_ = obj;
      candidate_rank_ = std::move(rank);
      candidate_values_ = std::move(values);
      best_obj_.store(obj, std::memory_order_relaxed);
      record_convergence_locked(obj);
      if (!callbacks_.on_incumbent) return true;
      event.objective = objective_flipped_ ? -obj : obj;
      event.values = &candidate_values_;
      event.nodes_explored = total_nodes();
      callbacks_.on_incumbent(event);
    }
    return true;
  }

  // ---- Infeasibility-proof fragments -------------------------------------
  // Workers deposit their recorded proof nodes here on exit; ranks never
  // collide because the pool hands every subproblem to exactly one worker
  // and each worker's DFS enters each of its ranks once.

  void contribute_proof(std::vector<ProofNode>&& nodes, bool overflowed) {
    std::lock_guard<std::mutex> lock(mu_);
    proof_overflowed_ = proof_overflowed_ || overflowed ||
                        proof_nodes_.size() + nodes.size() > kMaxProofNodes;
    if (!proof_overflowed_) {
      proof_nodes_.insert(proof_nodes_.end(),
                          std::make_move_iterator(nodes.begin()),
                          std::make_move_iterator(nodes.end()));
    }
  }

  /// Stitches the fragments into one proof (call after workers joined).
  [[nodiscard]] std::shared_ptr<const InfeasibilityProof> take_proof() {
    auto proof = std::make_shared<InfeasibilityProof>();
    proof->nodes = std::move(proof_nodes_);
    proof->overflowed = proof_overflowed_;
    return proof;
  }

  // ---- Result extraction (single-threaded, after join) -------------------

  [[nodiscard]] bool have_solution() const {
    return have_candidate_ || have_incumbent_;
  }
  [[nodiscard]] std::vector<double>&& take_values() {
    return std::move(candidate_values_);
  }
  [[nodiscard]] double solution_objective() const {
    return first_feasible_mode_ ? candidate_obj_ : incumbent_obj_;
  }
  [[nodiscard]] bool first_feasible_mode() const {
    return first_feasible_mode_;
  }

 private:
  /// Appends an accepted incumbent (minimized-space objective `obj`) to the
  /// solve's timeline and publishes it to the live telemetry slot. Caller
  /// holds mu_, which keeps the timeline time-ordered across workers.
  void record_convergence_locked(double obj) {
    const double caller_obj = objective_flipped_ ? -obj : obj;
    convergence_.push_back({stopwatch.seconds(), caller_obj, total_nodes(),
                            ConvergenceEvent::Kind::kIncumbent});
    if (live_ != nullptr) {
      live_->incumbent.store(caller_obj, std::memory_order_relaxed);
      live_->has_incumbent.store(true, std::memory_order_relaxed);
      live_->incumbent_updates.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const SolverParams& params_;
  const BnbCallbacks& callbacks_;
  const bool first_feasible_mode_;
  const bool objective_flipped_;
  const int hungry_below_;
  telemetry::LiveSolve* const live_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<Rank, Subproblem> pool_;
  int active_ = 0;
  std::atomic<int> pool_size_{0};
  std::atomic<std::int64_t> total_nodes_{0};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> unbounded_{false};
  std::atomic<bool> incomplete_{false};
  std::atomic<bool> limit_stopped_{false};
  bool have_abandoned_ = false;  ///< under mu_
  Rank abandoned_rank_;          ///< under mu_; smallest abandoned position

  // Candidate (first-feasible mode) / incumbent (optimality mode); both use
  // candidate_rank_/candidate_values_ for storage.
  bool have_candidate_ = false;
  bool have_incumbent_ = false;
  Rank candidate_rank_;
  std::vector<double> candidate_values_;
  double candidate_obj_ = 0.0;
  double incumbent_obj_ = kInfinity;
  std::atomic<double> best_obj_{kInfinity};
  std::atomic<std::uint64_t> candidate_version_{0};
  std::vector<ConvergenceEvent> convergence_;  ///< under mu_
  std::vector<ProofNode> proof_nodes_;         ///< under mu_
  bool proof_overflowed_ = false;              ///< under mu_
};

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
            const BnbCallbacks& callbacks, ParallelContext* ctx = nullptr)
      : params_(params),
        callbacks_(callbacks),
        ctx_(ctx),
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

  /// Single-threaded entry point (ctx == nullptr).
  MilpSolution run();

  /// Worker entry point: drains the shared pool until the solve is over.
  void run_worker();

  /// Totals of this worker, finalized by run_worker().
  [[nodiscard]] const SolverStats& worker_stats() const { return stats_; }

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
  void worker_record(std::vector<double> values, double obj);
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
  void donate_siblings(Frame& frame);
  void sync_shared_incumbent();
  /// Pushes per-worker node/LP-iteration deltas and the open-node count into
  /// the live telemetry slot (called every kLivePublishPeriod nodes).
  void publish_live();
  /// Solves one root LP with the true objective and publishes the resulting
  /// dual bound to the live slot and the convergence timeline. Only runs
  /// while a live telemetry slot is attached (costs one extra LP).
  void publish_root_bound();
  bool position_pruned();
  bool first_feasible_mode() const {
    return params_.stop_at_first_feasible ||
           compiled_.objective_terms().empty();
  }

  // ---- Infeasibility-proof recording (active when certify == kFull) ------

  /// This worker's DFS position, the rank of the node being processed.
  [[nodiscard]] Rank current_rank() const {
    Rank rank = base_rank_;
    rank.insert(rank.end(), path_.begin(), path_.end());
    return rank;
  }
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
  /// Records the refutation of a node whose entry propagate() failed, using
  /// the partial derivation trace plus the conflict the log captured.
  void record_conflict_leaf(Rank rank) {
    if (!proof_on_) return;
    ProofNode node;
    node.rank = std::move(rank);
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
    node.rank = current_rank();
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
  /// Hands the recorded tree to an infeasible serial result (no-op on any
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
  ParallelContext* ctx_ = nullptr;
  CompiledModel compiled_;
  Domains domains_;
  Propagator propagator_;
  const Model& model_;
  Stopwatch stopwatch_;
  PropagationStats prop_stats_;
  SolverStats stats_;
  std::vector<Frame> stack_;
  /// Branch index applied at each stack frame (-1 until the frame applies
  /// its first branch); base_rank_ ++ path_ is this worker's DFS position.
  std::vector<std::int32_t> path_;
  Rank base_rank_;
  std::uint64_t seen_candidate_version_ = ~std::uint64_t{0};
  Rank candidate_rank_copy_;
  bool have_candidate_copy_ = false;
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
  /// Serial search: latched by limits_hit() when a budget or cancellation
  /// stopped the search (parallel workers latch in the ParallelContext).
  bool limit_stopped_ = false;

  // -- telemetry (all inert unless live_ / tree_on_ are set) ---------------
  telemetry::LiveSolve* live_ = nullptr;  ///< live slot; null = off
  const bool tree_on_;                    ///< cached once per search
  /// Search-tree parent of this (sub)tree's base node.
  std::int64_t tree_parent_ = -1;
  /// Id of the node whose frame is currently being built (donation parent).
  std::int64_t current_node_id_ = -1;
  /// Owner node id of each open frame; parallel to stack_ while tree_on_.
  std::vector<std::int64_t> frame_node_ids_;
  /// Branch applied to enter the node about to descend (-1: root).
  VarId last_branch_var_ = -1;
  double last_branch_lo_ = 0.0;
  double last_branch_hi_ = 0.0;
  /// High-water marks of what was already pushed into live_ (deltas only,
  /// so per-worker counters aggregate correctly across threads).
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

void BnbSearch::mark_incomplete() {
  incomplete_ = true;
  if (ctx_ != nullptr) ctx_->flag_incomplete();
}

void BnbSearch::publish_live() {
  if (live_ == nullptr) return;
  live_->nodes.fetch_add(nodes_ - live_pub_nodes_, std::memory_order_relaxed);
  live_pub_nodes_ = nodes_;
  live_->lp_iterations.fetch_add(
      stats_.simplex_iterations - live_pub_lp_iters_,
      std::memory_order_relaxed);
  live_pub_lp_iters_ = stats_.simplex_iterations;
  live_->open_nodes.store(
      ctx_ != nullptr ? ctx_->open_estimate()
                      : static_cast<std::int64_t>(stack_.size()),
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
  if (ctx_ != nullptr) {
    worker_record(std::move(values), obj);
    return;
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

void BnbSearch::worker_record(std::vector<double> values, double obj) {
  // Whether or not this offer wins the race, some worker holds a feasible
  // point, so the solve can no longer end kInfeasible: stop recording.
  drop_proof_recording();
  Rank leaf = base_rank_;
  leaf.insert(leaf.end(), path_.begin(), path_.end());
  if (first_feasible_mode()) {
    if (ctx_->offer_candidate(std::move(leaf), std::move(values), obj)) {
      ++stats_.incumbent_updates;
    }
    // Every remaining leaf of this subproblem follows the one just found in
    // DFS order, so whether or not the offer won, this subtree is done.
    stop_ = true;
    return;
  }
  if (have_incumbent_ && obj >= incumbent_obj_) return;
  if (ctx_->offer_incumbent(std::move(leaf), std::move(values), obj)) {
    ++stats_.incumbent_updates;
    incumbent_obj_ = obj;
    have_incumbent_ = true;
    if (compiled_.has_cutoff_row()) {
      compiled_.set_cutoff(incumbent_obj_ - params_.objective_improvement);
    }
  } else {
    sync_shared_incumbent();  // someone else got there first
  }
}

void BnbSearch::sync_shared_incumbent() {
  if (first_feasible_mode()) return;
  const double best = ctx_->shared_best();
  if (best < incumbent_obj_) {
    incumbent_obj_ = best;
    have_incumbent_ = true;
    if (compiled_.has_cutoff_row()) {
      compiled_.set_cutoff(incumbent_obj_ - params_.objective_improvement);
    }
  }
}

bool BnbSearch::cancel_requested() const {
  return params_.cancel.cancelled() || callbacks_.session_cancel.cancelled();
}

bool BnbSearch::limits_hit() {
  if (ctx_ != nullptr) return ctx_->global_limits_hit();
  if (limit_stopped_) return true;
  limit_stopped_ = SPARCS_FAILPOINT("milp.solve.timeout") ||
                   cancel_requested() || nodes_ >= params_.node_limit ||
                   stopwatch_.seconds() >= params_.time_limit_sec;
  return limit_stopped_;
}

bool BnbSearch::position_pruned() {
  const std::uint64_t version = ctx_->candidate_version();
  if (version != seen_candidate_version_) {
    seen_candidate_version_ = version;
    have_candidate_copy_ = ctx_->copy_candidate_rank(&candidate_rank_copy_);
  }
  if (!have_candidate_copy_) return false;
  // DFS never revisits earlier ranks, so once this worker's position passes
  // the candidate every leaf it could still reach is DFS-later: abandon.
  // A position that is a prefix of the candidate compares smaller (its
  // subtree still holds leaves preceding the candidate) and keeps running.
  const Rank& cand = candidate_rank_copy_;
  std::size_t i = 0;
  for (const std::int32_t digit : base_rank_) {
    if (i >= cand.size()) return true;  // candidate is a strict prefix
    if (digit != cand[i]) return digit > cand[i];
    ++i;
  }
  for (const std::int32_t digit : path_) {
    if (digit < 0) break;  // unapplied top frame: position ends here
    if (i >= cand.size()) return true;
    if (digit != cand[i]) return digit > cand[i];
    ++i;
  }
  return false;  // equal to or a prefix of the candidate
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
    if (ctx_ != nullptr) {
      ctx_->flag_unbounded();
      stop_ = true;
      return true;
    }
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

void BnbSearch::donate_siblings(Frame& frame) {
  // The domains currently sit at this frame's pre-branch fixpoint, so a
  // plain bounds snapshot plus one branch box reproduces exactly the state
  // the serial search would enter that branch with.
  const int n = compiled_.num_vars();
  std::vector<double> lb(static_cast<std::size_t>(n));
  std::vector<double> ub(static_cast<std::size_t>(n));
  for (VarId v = 0; v < n; ++v) {
    lb[static_cast<std::size_t>(v)] = domains_.lb(v);
    ub[static_cast<std::size_t>(v)] = domains_.ub(v);
  }
  for (std::size_t j = 1; j < frame.branches.size(); ++j) {
    Subproblem node;
    node.rank = base_rank_;
    node.rank.insert(node.rank.end(), path_.begin(), path_.end());
    node.rank.push_back(static_cast<std::int32_t>(j));
    node.lb = lb;
    node.ub = ub;
    const auto [blo, bhi] = frame.branches[j];
    const auto var = static_cast<std::size_t>(frame.var);
    node.lb[var] = std::max(node.lb[var], blo);
    node.ub[var] = std::min(node.ub[var], bhi);
    node.seed = frame.var;
    node.tree_parent = current_node_id_;
    ctx_->push(std::move(node));
  }
  frame.branches.resize(1);
}

void BnbSearch::search_loop(MilpSolution& result) {
  const bool lp_bounding =
      params_.use_lp_bounding &&
      compiled_.num_vars() <= params_.lp_bounding_max_vars;

  // DFS over decision frames. `descend` signals that the current domains may
  // hold new work (fresh node); false means resume the top frame.
  bool descend = true;
  while (!stop_) {
    if (limits_hit()) {
      // Everything from this position on stays unexplored.
      if (ctx_ != nullptr && ctx_->limit_stopped()) {
        ctx_->note_abandoned(current_rank());
      }
      break;
    }
    if (descend) {
      ++nodes_;
      if (ctx_ != nullptr) {
        ctx_->count_node();
        sync_shared_incumbent();
        if (position_pruned()) break;
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
        tnode.parent =
            frame_node_ids_.empty() ? tree_parent_ : frame_node_ids_.back();
        tnode.depth =
            static_cast<std::int32_t>(stack_.size() + base_rank_.size());
        tnode.branch_var = last_branch_var_;
        tnode.branch_lb = last_branch_lo_;
        tnode.branch_ub = last_branch_hi_;
        current_node_id_ = tnode.id;
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
          // Interior node: its branch list (recorded before any donation
          // trims it) is the coverage obligation the checker verifies.
          ProofNode inode;
          inode.rank = current_rank();
          inode.kind = ProofNode::Kind::kBranched;
          inode.derivations = take_pending_derivations();
          inode.var = v;
          inode.branches = frame.branches;
          record_proof_node(std::move(inode));
        }
        if (ctx_ != nullptr && frame.branches.size() > 1 && ctx_->hungry()) {
          donate_siblings(frame);
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
      const auto depth =
          static_cast<std::int64_t>(stack_.size() + base_rank_.size());
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
          leaf.rank = current_rank();
          leaf.kind = ProofNode::Kind::kEmptyBox;
          leaf.var = v;
          record_proof_node(std::move(leaf));
        } else {
          record_conflict_leaf(current_rank());
        }
      }
      ++stats_.nodes_pruned_infeasible;
      if (tree_on_) {
        // The refuted branch never descends, so its record is created here.
        telemetry::TreeNode child;
        child.id = telemetry::tree_next_id();
        child.parent =
            frame_node_ids_.empty() ? tree_parent_ : frame_node_ids_.back();
        child.depth =
            static_cast<std::int32_t>(stack_.size() + base_rank_.size());
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
    record_conflict_leaf({});  // the root itself is the refuted node
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

void BnbSearch::run_worker() {
  Subproblem node;
  MilpSolution sink;  // workers report through ctx_, never through a result
  while (ctx_->acquire(node)) {
    double stall_sec = 0.0;
    if (SPARCS_FAILPOINT_STALL("milp.bnb.worker_stall", &stall_sec) &&
        stall_sec > 0.0) {
      // Simulates a wedged worker; the deadline watchdog (or the time limit)
      // must still terminate the solve through cooperative cancellation.
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_sec));
    }
    base_rank_ = std::move(node.rank);
    domains_.reset_to(node.lb, node.ub);
    stack_.clear();
    path_.clear();
    stop_ = false;
    seen_candidate_version_ = ~std::uint64_t{0};
    have_candidate_copy_ = false;
    if (tree_on_) {
      frame_node_ids_.clear();
      tree_parent_ = node.tree_parent;
      current_node_id_ = node.tree_parent;
      last_branch_var_ = node.seed;
      if (node.seed >= 0) {
        last_branch_lo_ = node.lb[static_cast<std::size_t>(node.seed)];
        last_branch_hi_ = node.ub[static_cast<std::size_t>(node.seed)];
      } else {
        last_branch_lo_ = 0.0;
        last_branch_hi_ = 0.0;
      }
    }
    sync_shared_incumbent();

    bool ok = true;
    bool empty_on_arrival = false;
    std::vector<VarId> seeds;
    if (node.seed >= 0) {
      if (domains_.lb(node.seed) > domains_.ub(node.seed)) {
        ok = false;
        empty_on_arrival = true;
      } else {
        seeds.push_back(node.seed);
      }
    }
    if (ok) ok = propagator_.propagate(domains_, seeds, prop_stats_);
    if (proof_on_) {
      if (ok) {
        stage_propagation_log();
      } else if (empty_on_arrival) {
        // The donated branch box refuted on arrival; mirror the serial
        // search's empty-box leaf at the subtree's base rank.
        ProofNode leaf;
        leaf.rank = base_rank_;
        leaf.kind = ProofNode::Kind::kEmptyBox;
        leaf.var = node.seed;
        record_proof_node(std::move(leaf));
      } else {
        record_conflict_leaf(base_rank_);
      }
    }
    if (node.seed < 0) {
      // Root subproblem: its fixpoint is the solver's presolve.
      stats_.presolve_bounds_tightened = prop_stats_.bounds_tightened;
      stats_.presolve_vars_fixed = prop_stats_.vars_fixed;
      if (ok) publish_root_bound();
    }
    if (ok) {
      search_loop(sink);
    } else if (node.seed >= 0) {
      ++stats_.nodes_pruned_infeasible;
      if (tree_on_) {
        // The donated branch box refuted on arrival: record it so the
        // donor's subtree keeps a complete child list in the dump.
        telemetry::TreeNode child;
        child.id = telemetry::tree_next_id();
        child.parent = tree_parent_;
        child.depth = static_cast<std::int32_t>(base_rank_.size());
        child.branch_var = node.seed;
        child.branch_lb = node.lb[static_cast<std::size_t>(node.seed)];
        child.branch_ub = node.ub[static_cast<std::size_t>(node.seed)];
        child.kind = telemetry::NodeKind::kPrunedInfeasible;
        telemetry::tree_record(child);
      }
    }
    ctx_->release();
  }
  publish_live();  // final flush of this worker's deltas
  if (params_.certify == CertifyMode::kFull) {
    // Merge this worker's proof fragment (empty when recording was dropped;
    // harmless, since an incumbent rules out an infeasible verdict anyway).
    ctx_->contribute_proof(std::move(proof_nodes_), proof_overflowed_);
  }
  stats_.nodes_explored = nodes_;
  stats_.propagated_constraints = prop_stats_.constraints_processed;
  stats_.bounds_tightened = prop_stats_.bounds_tightened;
  stats_.vars_fixed = prop_stats_.vars_fixed;
  stats_.conflicts = prop_stats_.conflicts;
}

/// Resolves SolverParams::num_threads against the hardware and the model
/// size (tiny models finish before a pool spins up).
int effective_threads(const SolverParams& params, const Model& model) {
  if (params.num_threads == 1) return 1;
  int threads = params.num_threads > 0
                    ? params.num_threads
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (threads <= 1) return 1;
  constexpr int kParallelMinVars = 48;
  if (model.num_vars() < kParallelMinVars) return 1;
  return threads;
}

MilpSolution solve_parallel(const Model& model, const SolverParams& params,
                            const BnbCallbacks& callbacks, int num_workers) {
  // Mode flags must be known before workers start; compile once (without the
  // cutoff row) to read the normalized objective.
  const CompiledModel probe(model, /*with_objective_cutoff=*/false);
  const bool first_feasible_mode =
      params.stop_at_first_feasible || probe.objective_terms().empty();
  const bool flipped = probe.objective_flipped();

  ParallelContext ctx(params, callbacks, first_feasible_mode, flipped,
                      num_workers);
  {
    Subproblem root;
    root.lb.reserve(static_cast<std::size_t>(probe.num_vars()));
    root.ub.reserve(static_cast<std::size_t>(probe.num_vars()));
    for (VarId v = 0; v < probe.num_vars(); ++v) {
      root.lb.push_back(probe.lb(v));
      root.ub.push_back(probe.ub(v));
    }
    ctx.push(std::move(root));
  }

  std::vector<SolverStats> worker_stats(static_cast<std::size_t>(num_workers));
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(num_workers));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers.emplace_back([&, i] {
      // Workers inherit the solve's correlation id so their log lines and
      // spans join the session's telemetry stream.
      telemetry::CorrelationScope corr(callbacks.correlation);
      try {
        BnbSearch search(model, params, callbacks, &ctx);
        search.run_worker();
        worker_stats[static_cast<std::size_t>(i)] = search.worker_stats();
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
        ctx.request_stop();
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  MilpSolution result;
  for (const SolverStats& stats : worker_stats) result.stats.merge(stats);
  {
    // Incumbent acceptances were recorded centrally (under the context
    // lock); bound events live in the worker stats merged above.
    std::vector<ConvergenceEvent> accepted = ctx.take_convergence();
    auto& timeline = result.stats.convergence;
    timeline.insert(timeline.end(), accepted.begin(), accepted.end());
    std::stable_sort(timeline.begin(), timeline.end(),
                     [](const ConvergenceEvent& a, const ConvergenceEvent& b) {
                       return a.t_sec < b.t_sec;
                     });
  }
  result.nodes_explored = result.stats.nodes_explored;
  result.propagations = result.stats.propagated_constraints;
  result.seconds = ctx.stopwatch.seconds();

  const bool limit_stopped = ctx.limit_stopped();
  // A cut-short first-feasible run keeps its candidate only when it is the
  // answer the serial search would give.
  const bool solution_usable =
      ctx.have_solution() &&
      !(first_feasible_mode && limit_stopped &&
        !ctx.candidate_precedes_abandoned());
  if (solution_usable) {
    if (first_feasible_mode) {
      result.status = params.stop_at_first_feasible || ctx.incomplete()
                          ? SolveStatus::kFeasible
                          : SolveStatus::kOptimal;
    } else {
      result.status = limit_stopped || ctx.incomplete()
                          ? SolveStatus::kFeasible
                          : SolveStatus::kOptimal;
    }
    const double obj = ctx.solution_objective();
    result.values = ctx.take_values();
    result.objective = flipped ? -obj : obj;
  } else if (ctx.unbounded()) {
    result.status = SolveStatus::kUnbounded;
  } else if (limit_stopped) {
    result.status = SolveStatus::kLimitReached;
  } else {
    // With dropped subtrees an exhausted pool no longer proves infeasibility.
    result.status = ctx.incomplete() ? SolveStatus::kNumericalFailure
                                     : SolveStatus::kInfeasible;
  }
  if (result.status == SolveStatus::kInfeasible &&
      params.certify == CertifyMode::kFull) {
    result.proof = ctx.take_proof();
  }
  return result;
}

}  // namespace

MilpSolution solve_branch_and_bound(const Model& model,
                                    const SolverParams& params,
                                    const BnbCallbacks& callbacks) {
  const int threads = effective_threads(params, model);
  if (threads <= 1) {
    BnbSearch search(model, params, callbacks);
    return search.run();
  }
  return solve_parallel(model, params, callbacks, threads);
}

}  // namespace sparcs::milp
