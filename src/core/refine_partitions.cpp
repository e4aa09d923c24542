#include "core/refine_partitions.hpp"

#include <algorithm>
#include <utility>

#include "core/bounds.hpp"
#include "core/checkpoint.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/span.hpp"
#include "support/stopwatch.hpp"
#include "support/telemetry.hpp"

namespace sparcs::core {

std::string to_string(StageStatus status) {
  switch (status) {
    case StageStatus::kProbed:
      return "probed";
    case StageStatus::kCutShort:
      return "cut-short";
    case StageStatus::kSkipped:
      return "skipped";
    case StageStatus::kDegraded:
      return "degraded";
  }
  return "unknown";
}

RefinePartitionsResult refine_partitions_bound(
    const graph::TaskGraph& graph, const arch::Device& device,
    const RefinePartitionsParams& params) {
  SPARCS_REQUIRE(params.alpha >= 0, "alpha must be non-negative");
  SPARCS_REQUIRE(params.gamma >= 0, "gamma must be non-negative");
  graph.validate();
  device.validate();

  RefinePartitionsResult result;
  trace::Span sweep_span("Refine_Partitions_Bound");
  Stopwatch stopwatch;

  ReduceLatencyParams inner;
  inner.budget = params.budget;

  const int n_min_lower = min_area_partitions(graph, device);
  const int n_min_upper = max_area_partitions(graph, device);
  const int n_stop = n_min_upper + params.gamma;

  // ---- checkpoint plumbing ----
  // `ckpt` is the evolving durable state: completed stages only, kept apart
  // from result.stages (which finish() additionally pollutes with skipped
  // placeholders). Mid-refinement snapshots carry the pre-stage globals plus
  // an in_progress window; stage completions fold the stage in and clear it.
  CheckpointWriter* const ckpt_writer = params.checkpoint;
  const SweepCheckpoint* const resume = params.resume;
  SweepCheckpoint ckpt;
  double base_seconds = 0.0;

  auto sync_ckpt_globals = [&] {
    ckpt.best = result.best;
    ckpt.achieved_latency = result.achieved_latency;
    ckpt.best_num_partitions = result.best_num_partitions;
    ckpt.ilp_solves = result.ilp_solves;
    ckpt.seconds = base_seconds + stopwatch.seconds();
    ckpt.stopped_by_lower_bound = result.stopped_by_lower_bound;
  };

  /// Declares the stage the sweep is about to run: mid-refinement snapshots
  /// written while it runs restore to "re-enter stage `stage_n` in `phase`,
  /// globals as of the previous stage".
  auto arm_stage = [&](int stage_n, int phase) {
    inner.on_progress = nullptr;
    if (ckpt_writer == nullptr) return;
    ckpt.phase = phase;
    ckpt.next_n = stage_n;
    sync_ckpt_globals();
    inner.on_progress = [&ckpt, ckpt_writer, stage_n](
                            double d_max, double d_min, int iteration,
                            const PartitionedDesign& incumbent) {
      CheckpointInProgress ip;
      ip.num_partitions = stage_n;
      ip.d_max = d_max;
      ip.d_min = d_min;
      ip.iteration = iteration;
      ip.achieved_latency = incumbent.total_latency_ns;
      ip.incumbent = incumbent;
      ckpt.in_progress = std::move(ip);
      ckpt_writer->write(ckpt, /*force=*/false);
    };
  };

  /// Persists a completed (not cut-short) stage. Cut-short stages are never
  /// recorded as done: a resume re-enters them through in_progress instead.
  auto checkpoint_stage_done = [&](int stage_n, bool cut_short, int phase) {
    if (ckpt_writer == nullptr || cut_short) return;
    ckpt.stages.push_back(result.stages.back());
    ckpt.in_progress.reset();
    ckpt.phase = phase;
    ckpt.next_n = stage_n + 1;
    sync_ckpt_globals();
    ckpt_writer->write(ckpt, /*force=*/true);
  };

  if (resume != nullptr) {
    // Restore the globals of the interrupted run; the loops below then skip
    // every stage the checkpoint accounts as completed.
    result.best = resume->best;
    result.achieved_latency = resume->achieved_latency;
    result.best_num_partitions = resume->best_num_partitions;
    result.ilp_solves = resume->ilp_solves;
    result.stages = resume->stages;
    result.stopped_by_lower_bound = resume->stopped_by_lower_bound;
    base_seconds = resume->seconds;
    ckpt = *resume;
    if (result.best) {
      telemetry::publish_best_latency(result.achieved_latency,
                                      result.best_num_partitions);
    }
    SPARCS_ILOG << "Refine_Partitions_Bound: resuming from checkpoint ("
                << resume->stages.size() << " stages done, phase "
                << resume->phase << ", next N=" << resume->next_n
                << (resume->in_progress ? ", mid-refinement" : "") << ")";
  }

  auto time_expired = [&] {
    return stopwatch.seconds() >= params.budget.time_budget_sec ||
           params.budget.interrupted();
  };

  /// Appends the stage account for partition bound `n`: its solve count and
  /// the solver wall time of the trace rows it appended.
  auto record_stage = [&](int stage_n, const ReduceLatencyResult& reduced,
                          std::size_t first_row) {
    StageAccount account;
    account.num_partitions = stage_n;
    account.status = reduced.cut_short    ? StageStatus::kCutShort
                     : reduced.degraded ? StageStatus::kDegraded
                                        : StageStatus::kProbed;
    account.solves = reduced.ilp_solves;
    for (std::size_t i = first_row; i < result.trace.size(); ++i) {
      account.seconds += result.trace[i].seconds;
    }
    result.stages.push_back(account);
  };

  /// Marks every bound in [first_n, n_stop] as skipped: the budget expired
  /// before the sweep reached them.
  auto mark_skipped = [&](int first_n, int n_stop_bound) {
    for (int skipped = first_n; skipped <= n_stop_bound; ++skipped) {
      result.stages.push_back(
          StageAccount{skipped, StageStatus::kSkipped, 0, 0.0});
    }
  };

  auto finish = [&] {
    // A stage interrupted mid-refinement — or stopped on an uncertified
    // verdict — degrades the result even when the sweep then terminated at
    // its natural end of range.
    for (const StageAccount& account : result.stages) {
      if (account.status == StageStatus::kCutShort ||
          account.status == StageStatus::kDegraded) {
        result.degraded = true;
      }
    }
    result.seconds = base_seconds + stopwatch.seconds();
    if (ckpt_writer != nullptr) {
      if (!result.degraded) {
        // Natural termination: seal the checkpoint as a complete record of
        // the answer; resuming it reproduces the report without solving.
        ckpt.complete = true;
        ckpt.in_progress.reset();
        sync_ckpt_globals();
      }
      // A degraded finish deliberately does NOT sync the globals: the
      // cut-short stage's partial solves are already folded into
      // result.ilp_solves, but on resume that stage re-runs from
      // in_progress and re-reports its full count — syncing here would
      // double-count them. The checkpoint keeps the last consistent
      // (stage-boundary) globals plus the freshest in_progress window,
      // which the throttle may have withheld from disk until now.
      ckpt_writer->write(ckpt, /*force=*/true);
    }
    telemetry::publish_degraded(result.degraded);
    telemetry::set_stage("done", result.best_num_partitions);
  };

  if (resume != nullptr && resume->complete) {
    // The interrupted run had already terminated naturally; the restored
    // globals and stage accounts ARE the final answer.
    finish();
    return result;
  }

  // The stage (if any) the checkpoint left mid-refinement; consumed by the
  // first matching stage below, which re-enters its bisection window.
  int resume_mid_stage = -1;
  if (resume != nullptr && resume->in_progress) {
    resume_mid_stage = resume->in_progress->num_partitions;
  }
  auto consume_mid_stage = [&](int stage_n) {
    inner.resume.reset();
    if (resume_mid_stage != stage_n) return;
    BisectionResume bisection;
    bisection.d_max = resume->in_progress->d_max;
    bisection.d_min = resume->in_progress->d_min;
    bisection.iteration = resume->in_progress->iteration;
    bisection.incumbent = resume->in_progress->incumbent;
    inner.resume = std::move(bisection);
    resume_mid_stage = -1;
  };

  // Phase 1: find the first feasible partition bound, starting at
  // N^l_min + alpha and incrementing while Reduce_Latency returns Da = 0.
  // Any design uses at most one partition per task, so feasibility is
  // settled once N reaches the task count: growing N further cannot help.
  const int n_phase1_cap = std::min(
      params.max_partitions, std::max(graph.num_tasks(), n_stop));
  int n = n_min_lower + params.alpha;
  const bool skip_phase1 = resume != nullptr && resume->phase == 2;
  if (skip_phase1) {
    // The checkpointed run already found its first feasible bound; re-enter
    // phase 2 so its next iteration probes exactly N = resume->next_n.
    n = std::max(n, resume->next_n - 1);
  } else {
    if (resume != nullptr) n = std::max(n, resume->next_n);
    while (true) {
      if (n > n_phase1_cap) {
        finish();
        return result;  // provably no solution in the explorable range
      }
      telemetry::set_stage("phase1", n);
      arm_stage(n, /*phase=*/1);
      consume_mid_stage(n);
      const std::size_t first_row = result.trace.size();
      ReduceLatencyResult reduced =
          reduce_latency(graph, device, n, max_latency(graph, device, n),
                         min_latency(graph, device, n), inner, result.trace);
      result.ilp_solves += reduced.ilp_solves;
      result.solver_stats.merge(reduced.solver_stats);
      record_stage(n, reduced, first_row);
      if (reduced.best) {
        result.best = std::move(reduced.best);
        result.achieved_latency = reduced.achieved_latency;
        result.best_num_partitions = n;
        telemetry::publish_best_latency(result.achieved_latency, n);
        checkpoint_stage_done(n, reduced.cut_short, /*phase=*/2);
        break;
      }
      checkpoint_stage_done(n, reduced.cut_short, /*phase=*/1);
      if (time_expired()) {
        result.degraded = true;
        mark_skipped(n + 1, n_stop);
        finish();
        return result;  // no solution within the budget
      }
      ++n;
    }
  }

  // Phase 2: relax N looking for strictly better solutions; the achieved
  // latency Da becomes the upper bound of every further search.
  while (n < n_stop && !time_expired()) {
    ++n;
    telemetry::set_stage("phase2", n);
    const double d_min = min_latency(graph, device, n);
    if (d_min >= result.achieved_latency) {
      // Even a perfect schedule at N partitions pays more reconfiguration
      // overhead than the incumbent: the incumbent is final.
      result.stopped_by_lower_bound = true;
      break;
    }
    arm_stage(n, /*phase=*/2);
    consume_mid_stage(n);
    // Seed the new partition bound with the incumbent design: it stays valid
    // when N grows and focuses the solver on local improvements.
    inner.warm_start = result.best;
    const std::size_t first_row = result.trace.size();
    ReduceLatencyResult reduced =
        reduce_latency(graph, device, n, result.achieved_latency, d_min, inner,
                       result.trace);
    result.ilp_solves += reduced.ilp_solves;
    result.solver_stats.merge(reduced.solver_stats);
    record_stage(n, reduced, first_row);
    if (reduced.best &&
        reduced.achieved_latency < result.achieved_latency) {
      result.best = std::move(reduced.best);
      result.achieved_latency = reduced.achieved_latency;
      result.best_num_partitions = n;
      telemetry::publish_best_latency(result.achieved_latency, n);
    }
    checkpoint_stage_done(n, reduced.cut_short, /*phase=*/2);
  }
  if (!result.stopped_by_lower_bound && n < n_stop) {
    // The phase-2 loop gave up before its natural end of range: the budget
    // or deadline expired. Account the bounds that never ran.
    result.degraded = true;
    mark_skipped(n + 1, n_stop);
  }

  finish();
  sweep_span.arg("Da_ns", result.achieved_latency);
  sweep_span.arg("best_N", static_cast<std::int64_t>(result.best_num_partitions));
  sweep_span.arg("ilp_solves", static_cast<std::int64_t>(result.ilp_solves));
  if (metrics::enabled()) {
    metrics::Registry& reg = metrics::registry();
    reg.counter("core.sweeps").add(1);
    if (result.degraded) reg.counter("core.sweeps_degraded").add(1);
    reg.counter("core.ilp_solves").add(result.ilp_solves);
    reg.timer("core.sweep").record(result.seconds);
    if (result.best) {
      reg.gauge("core.best_latency_ns").set(result.achieved_latency);
      reg.gauge("core.best_num_partitions")
          .set(static_cast<double>(result.best_num_partitions));
    }
  }
  SPARCS_ILOG << "Refine_Partitions_Bound: Da=" << result.achieved_latency
              << " ns at N=" << result.best_num_partitions << " ("
              << result.ilp_solves << " solves, "
              << result.seconds << " s)";
  return result;
}

}  // namespace sparcs::core
