// Solver session: the single entry point the rest of the system uses,
// mirroring the narrow slice of a commercial ILP solver's API the paper
// depends on (CPLEX-style "build model, create solver, solve, re-solve").
//
// A Solver owns a reference to the model plus a mutable copy of the solve
// parameters, so one session can be re-solved several times with tightened
// limits or bounds between calls (the paper's Reduce_Latency loop re-probes
// the same formulation with shrinking latency windows). The search runs on
// the thread that calls solve(); cancel() aborts it from any other thread,
// and set_incumbent_callback() observes every accepted incumbent as it is
// found.
#pragma once

#include "milp/model.hpp"
#include "milp/types.hpp"

namespace sparcs::milp {

/// One solving session over a fixed model.
///
/// Thread-safety contract: the session object is externally synchronized —
/// at most one solve() may be in flight at a time, and params() must not be
/// mutated while one is. cancel() is the exception: it is safe to call from
/// any thread at any time. Separate sessions may solve on separate threads.
class Solver {
 public:
  /// Binds the session to `model`, which must outlive the Solver and stay
  /// unmodified while any solve() is in flight.
  explicit Solver(const Model& model, SolverParams params = {});

  /// Runs the search with the current parameters. Reusable: later calls see
  /// any parameter changes made through params() in between.
  MilpSolution solve();

  /// Requests cooperative cancellation of the in-flight solve (it returns
  /// kLimitReached, or kFeasible when an incumbent is already in hand).
  /// Sticky: cancels every later solve() too, until reset_cancel().
  void cancel();

  /// Re-arms a session whose cancel() was used, allowing further solves.
  /// The session keeps one cancellation flag for its whole lifetime (the
  /// flag is cleared in place), so a cancel() racing a reset from another
  /// thread is never dropped: it either cancels the finishing solve or the
  /// next one, never neither.
  void reset_cancel();

  [[nodiscard]] bool cancel_requested() const { return cancel_.cancelled(); }

  /// Observes every accepted incumbent. The callback runs inside solve(),
  /// on its thread: keep it cheap, and only call back into the solver via
  /// cancel().
  void set_incumbent_callback(IncumbentCallback callback);

  /// Mutable parameters, applied to the next solve() call. Typical re-solve
  /// pattern: tighten time_limit_sec / node_limit, flip
  /// stop_at_first_feasible, then call solve() again.
  [[nodiscard]] SolverParams& params() { return params_; }
  [[nodiscard]] const SolverParams& params() const { return params_; }

  [[nodiscard]] const Model& model() const { return model_; }

 private:
  const Model& model_;
  SolverParams params_;
  CancelToken cancel_;
  IncumbentCallback on_incumbent_;
};

/// Parameter preset for constraint-satisfaction queries (the paper's
/// SolveModel()): stop at the first feasible assignment.
[[nodiscard]] SolverParams first_feasible_params(SolverParams base = {});

/// Parameter preset for optimality queries, with LP bounding enabled for
/// models small enough to afford it.
[[nodiscard]] SolverParams optimality_params(SolverParams base = {});

}  // namespace sparcs::milp
