// Algorithm Refine_Partitions_Bound (Figure 2): the partition-space sweep.
//
// Starting from N = N^l_min + alpha, the sweep calls Reduce_Latency per
// partition bound. Infeasible bounds increase N until a first solution
// exists; afterwards N keeps relaxing (up to N^u_min + gamma or the time
// budget), each time searching only below the best achieved latency Da, and
// stops early as soon as MinLatency(N) >= Da — for large reconfiguration
// overheads that fires immediately after the first solution.
//
// The sweep is one sequence of Reduce_Latency calls on the calling thread, in
// N order, so the trace lists every SolveModel() call in the order it ran.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "core/reduce_latency.hpp"
#include "core/solution.hpp"
#include "core/trace.hpp"
#include "graph/task_graph.hpp"

namespace sparcs::core {

// Defined in core/checkpoint.hpp; the sweep takes them by pointer so the
// checkpoint subsystem can layer on top of this header without a cycle.
struct SweepCheckpoint;
class CheckpointWriter;

/// How the sweep treated one partition bound N.
enum class StageStatus : std::uint8_t {
  kProbed,    ///< Reduce_Latency ran to natural termination
  kCutShort,  ///< Reduce_Latency started but was interrupted mid-refinement
  kSkipped,   ///< never started: the budget/deadline expired first
  /// An uncertified solver verdict stopped the stage's refinement on a
  /// conservative window; its incumbent (if any) is certified, but the
  /// window did not converge to delta.
  kDegraded,
};

[[nodiscard]] std::string to_string(StageStatus status);

/// Per-partition-bound account of the sweep, the basis of the anytime
/// degradation report: on budget expiry the caller can see exactly which N
/// values were probed, which were cut short, and which never ran.
struct StageAccount {
  int num_partitions = 0;
  StageStatus status = StageStatus::kProbed;
  int solves = 0;        ///< ILP solves spent on this bound
  double seconds = 0.0;  ///< solver wall time spent on this bound
};

struct RefinePartitionsParams {
  int alpha = 0;  ///< starting partition relaxation (added to N^l_min)
  int gamma = 1;  ///< ending partition relaxation (added to N^u_min)
  /// Shared tolerance/limit/formulation block (delta, time budget, solver,
  /// formulation), forwarded to every Reduce_Latency call.
  SearchBudget budget;
  /// Hard cap on N in case a pathological instance never becomes feasible.
  int max_partitions = 64;
  /// Validated snapshot to continue from instead of starting the sweep at
  /// N^l_min + alpha. Borrowed; may be null. The caller is responsible for
  /// fingerprint-checking it against this run's inputs (core/checkpoint).
  const SweepCheckpoint* resume = nullptr;
  /// Destination for ongoing snapshots (stage completions and throttled
  /// mid-refinement states). Borrowed; may be null = no checkpointing.
  CheckpointWriter* checkpoint = nullptr;
};

struct RefinePartitionsResult {
  std::optional<PartitionedDesign> best;
  double achieved_latency = 0.0;  ///< Da of the returned design; 0 if none
  int best_num_partitions = 0;    ///< N at which `best` was found
  Trace trace;                    ///< all SolveModel() calls, in order
  int ilp_solves = 0;
  double seconds = 0.0;
  /// True when the sweep ended because MinLatency(N) >= Da.
  bool stopped_by_lower_bound = false;
  milp::SolverStats solver_stats;  ///< aggregate over the whole sweep
  /// True when the sweep stopped on a time budget / deadline / cancellation
  /// before natural termination: `best` (when present) is an anytime
  /// incumbent, not the converged answer.
  bool degraded = false;
  /// One entry per partition bound the nominal sweep range covers, in N
  /// order: probed, cut short, or skipped (see StageStatus).
  std::vector<StageAccount> stages;

  /// Renders the result as a JSON object (shared ReportWriter schema).
  [[nodiscard]] std::string to_json() const;
};

RefinePartitionsResult refine_partitions_bound(
    const graph::TaskGraph& graph, const arch::Device& device,
    const RefinePartitionsParams& params);

}  // namespace sparcs::core
