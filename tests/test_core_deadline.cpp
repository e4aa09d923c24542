// Deadline, watchdog and anytime-degradation tests: a tight deadline must
// return a degraded report promptly with a per-stage account, an inert or
// generous deadline must leave results identical to an unconstrained run,
// and the watchdog must force-cancel a run that overstays its grace.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "arch/device.hpp"
#include "core/deadline.hpp"
#include "core/partitioner.hpp"
#include "core/refine_partitions.hpp"
#include "core/search_budget.hpp"
#include "support/stopwatch.hpp"
#include "workloads/ar_filter.hpp"

namespace sparcs::core {
namespace {

arch::Device ar_device(double ct_ns) {
  return arch::custom("ar_dev", 200, 64, ct_ns);
}

PartitionerOptions slow_options() {
  // A fine tolerance forces many subdivision iterations per bound, so the
  // unconstrained run comfortably outlasts the tight deadlines below.
  PartitionerOptions options;
  options.budget.delta = 0.05;
  return options;
}

TEST(DeadlineTest, InertDeadlineNeverExpires) {
  const Deadline d;
  EXPECT_FALSE(d.valid());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_sec()));
  EXPECT_TRUE(std::isinf(d.horizon_sec()));
}

TEST(DeadlineTest, ExpiresAfterHorizon) {
  const Deadline d = Deadline::after_seconds(0.02);
  EXPECT_TRUE(d.valid());
  EXPECT_LE(d.remaining_sec(), 0.02);
  EXPECT_DOUBLE_EQ(d.horizon_sec(), 0.02);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(d.expired());
  EXPECT_LT(d.remaining_sec(), 0.0);
}

TEST(DeadlineTest, BudgetClampsSolverTimeLimit) {
  SearchBudget budget;
  budget.solver.time_limit_sec = 100.0;
  EXPECT_DOUBLE_EQ(budget.clamped_solver().time_limit_sec, 100.0);

  budget.deadline = Deadline::after_seconds(5.0);
  EXPECT_LE(budget.clamped_solver().time_limit_sec, 5.0);
  EXPECT_GT(budget.clamped_solver().time_limit_sec, 0.0);
  EXPECT_FALSE(budget.interrupted());

  // An already-expired deadline still yields a positive (floored) limit and
  // reports the run as interrupted.
  budget.deadline = Deadline::after_seconds(-1.0);
  EXPECT_TRUE(budget.interrupted());
  EXPECT_GT(budget.clamped_solver().time_limit_sec, 0.0);
}

TEST(DeadlineTest, WatchdogFiresPastGraceAndCancels) {
  const milp::CancelToken token = milp::CancelToken::create();
  const Deadline d = Deadline::after_seconds(0.01);
  DeadlineWatchdog watchdog(d, /*grace_sec=*/0.01, token);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_TRUE(watchdog.fired());
  EXPECT_TRUE(token.cancelled());
}

TEST(DeadlineTest, WatchdogStandsDownOnDestruction) {
  const milp::CancelToken token = milp::CancelToken::create();
  {
    const Deadline d = Deadline::after_seconds(60.0);
    DeadlineWatchdog watchdog(d, 0.1, token);
    EXPECT_FALSE(watchdog.fired());
  }  // destroyed long before expiry: must not fire
  EXPECT_FALSE(token.cancelled());
}

TEST(DeadlineTest, DefaultGraceScalesWithHorizon) {
  EXPECT_GE(DeadlineWatchdog::default_grace_sec(Deadline::after_seconds(0.1)),
            0.05);
  EXPECT_NEAR(
      DeadlineWatchdog::default_grace_sec(Deadline::after_seconds(10.0)), 1.0,
      1e-9);
}

TEST(DeadlineDegradationTest, TightDeadlineReturnsDegradedReportPromptly) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  PartitionerOptions options = slow_options();
  options.budget.deadline = Deadline::after_seconds(0.02);
  Stopwatch stopwatch;
  const PartitionerReport report =
      TemporalPartitioner(g, dev, options).run();
  // Generous ceiling (deadline + grace + slack); the point is that the run
  // did not last anywhere near the unconstrained sweep.
  EXPECT_LT(stopwatch.seconds(), 2.0);
  EXPECT_TRUE(report.degraded);
  ASSERT_FALSE(report.stages.empty());
  // The account must cover a contiguous range of bounds: anything after the
  // interruption point is recorded as skipped, nothing is silently missing.
  bool saw_unfinished = false;
  for (const StageAccount& stage : report.stages) {
    if (stage.status != StageStatus::kProbed) saw_unfinished = true;
    if (stage.status == StageStatus::kSkipped) {
      EXPECT_EQ(stage.solves, 0);
      EXPECT_DOUBLE_EQ(stage.seconds, 0.0);
    }
  }
  EXPECT_TRUE(saw_unfinished);
  // Any anytime incumbent handed back must be a valid design (the
  // partitioner re-validates it; reaching here means it passed).
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"stages\""), std::string::npos);
}

TEST(DeadlineDegradationTest, GenerousDeadlineMatchesUnconstrainedRun) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);

  const PartitionerReport unconstrained =
      TemporalPartitioner(g, dev, slow_options()).run();
  ASSERT_TRUE(unconstrained.feasible);
  EXPECT_FALSE(unconstrained.degraded);
  EXPECT_FALSE(unconstrained.watchdog_fired);

  PartitionerOptions with_deadline = slow_options();
  with_deadline.budget.deadline = Deadline::after_seconds(300.0);
  const PartitionerReport report =
      TemporalPartitioner(g, dev, with_deadline).run();
  ASSERT_TRUE(report.feasible);
  EXPECT_FALSE(report.degraded);
  EXPECT_FALSE(report.watchdog_fired);
  EXPECT_DOUBLE_EQ(report.achieved_latency, unconstrained.achieved_latency);
  EXPECT_EQ(report.best_num_partitions, unconstrained.best_num_partitions);
  EXPECT_EQ(report.trace.size(), unconstrained.trace.size());
  ASSERT_EQ(report.stages.size(), unconstrained.stages.size());
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    EXPECT_EQ(report.stages[i].num_partitions,
              unconstrained.stages[i].num_partitions);
    EXPECT_EQ(report.stages[i].status, unconstrained.stages[i].status);
    EXPECT_EQ(report.stages[i].solves, unconstrained.stages[i].solves);
  }
}

TEST(DeadlineDegradationTest, StageAccountIsConsistentWhenUnconstrained) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  RefinePartitionsParams params;
  params.budget = slow_options().budget;
  const RefinePartitionsResult result =
      refine_partitions_bound(g, dev, params);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_FALSE(result.degraded);
  ASSERT_FALSE(result.stages.empty());
  int total_solves = 0;
  for (const StageAccount& stage : result.stages) {
    EXPECT_EQ(stage.status, StageStatus::kProbed) << "N=" << stage.num_partitions;
    total_solves += stage.solves;
  }
  EXPECT_EQ(total_solves, result.ilp_solves);
}

TEST(DeadlineDegradationTest, PreCancelledBudgetDegradesImmediately) {
  const graph::TaskGraph g = workloads::ar_filter_task_graph();
  const arch::Device dev = ar_device(50);
  RefinePartitionsParams params;
  params.budget = slow_options().budget;
  params.budget.solver.cancel = milp::CancelToken::create();
  params.budget.solver.cancel.request_cancel();
  const RefinePartitionsResult result =
      refine_partitions_bound(g, dev, params);
  EXPECT_TRUE(result.degraded);
  EXPECT_FALSE(result.best.has_value());
}

TEST(DeadlineDegradationTest, StageStatusNamesAreStable) {
  EXPECT_EQ(to_string(StageStatus::kProbed), "probed");
  EXPECT_EQ(to_string(StageStatus::kCutShort), "cut-short");
  EXPECT_EQ(to_string(StageStatus::kSkipped), "skipped");
}

}  // namespace
}  // namespace sparcs::core
