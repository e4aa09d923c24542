// Telemetry-overhead microbenchmarks backing the pipeline's core invariant:
// with every observability subsystem disabled, an instrumented hot path pays
// one relaxed atomic load (or one null check) per call site. The flags-off
// variants must stay within noise of the raw loop; the flags-on variants
// document what turning each feature on costs.
#include <benchmark/benchmark.h>

#include <sstream>

#include "milp/solver.hpp"
#include "support/metrics.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace sparcs;

/// Baseline: the loop body without any telemetry call, for comparison.
void BM_DisabledBaseline(benchmark::State& state) {
  std::int64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(x += 1);
  }
}
BENCHMARK(BM_DisabledBaseline);

void BM_DisabledSolveScope(benchmark::State& state) {
  telemetry::set_active(false);
  for (auto _ : state) {
    telemetry::SolveScope scope("bench");
    benchmark::DoNotOptimize(scope.slot());
  }
}
BENCHMARK(BM_DisabledSolveScope);

void BM_DisabledTreeRecord(benchmark::State& state) {
  telemetry::set_tree_active(false);
  const telemetry::TreeNode node{1, 0, 1, 2, 0.0, 1.0,
                                 telemetry::NodeKind::kBranched};
  for (auto _ : state) {
    telemetry::tree_record(node);
  }
}
BENCHMARK(BM_DisabledTreeRecord);

void BM_DisabledStagePublish(benchmark::State& state) {
  telemetry::set_active(false);
  for (auto _ : state) {
    telemetry::set_stage("bench", 1);
  }
}
BENCHMARK(BM_DisabledStagePublish);

void BM_DisabledCounterAdd(benchmark::State& state) {
  metrics::set_enabled(false);
  metrics::Counter& counter = metrics::registry().counter("bench.counter");
  for (auto _ : state) {
    counter.add(1);
  }
}
BENCHMARK(BM_DisabledCounterAdd);

void BM_EnabledLivePublish(benchmark::State& state) {
  telemetry::set_active(true);
  {
    telemetry::SolveScope scope("bench");
    telemetry::LiveSolve* live = scope.slot();
    for (auto _ : state) {
      live->nodes.fetch_add(1, std::memory_order_relaxed);
    }
  }
  telemetry::set_active(false);
}
BENCHMARK(BM_EnabledLivePublish);

void BM_EnabledTreeRecord(benchmark::State& state) {
  telemetry::set_tree_active(true);
  telemetry::tree_clear();
  for (auto _ : state) {
    const std::int64_t id = telemetry::tree_next_id();
    telemetry::tree_record({id, id - 1, 1, 2, 0.0, 1.0,
                            telemetry::NodeKind::kIntegral});
  }
  telemetry::set_tree_active(false);
  telemetry::tree_clear();
}
BENCHMARK(BM_EnabledTreeRecord);

/// A whole MILP solve with telemetry off vs. on: the end-to-end check that
/// the disabled pipeline does not tax the solver. Solves the same
/// first-feasible pick-K query each iteration.
milp::Model pick_model(int vars, int k) {
  milp::Model m("pick");
  milp::LinExpr sum;
  for (int i = 0; i < vars; ++i) {
    sum += milp::LinExpr(m.add_binary("x" + std::to_string(i)));
  }
  m.add_constraint(std::move(sum) == static_cast<double>(k), "pick");
  return m;
}

void BM_SolveTelemetryOff(benchmark::State& state) {
  telemetry::set_active(false);
  const milp::Model m = pick_model(24, 6);
  milp::SolverParams params = milp::first_feasible_params();
  for (auto _ : state) {
    milp::MilpSolution s = milp::Solver(m, params).solve();
    benchmark::DoNotOptimize(s.status);
  }
}
BENCHMARK(BM_SolveTelemetryOff);

void BM_SolveTelemetryOn(benchmark::State& state) {
  std::ostringstream sink;
  telemetry::SamplerOptions options;
  options.sink = &sink;
  options.interval_sec = 0.05;
  options.include_metrics = false;
  telemetry::start_sampler(options);
  const milp::Model m = pick_model(24, 6);
  milp::SolverParams params = milp::first_feasible_params();
  for (auto _ : state) {
    milp::MilpSolution s = milp::Solver(m, params).solve();
    benchmark::DoNotOptimize(s.status);
  }
  telemetry::stop_sampler();
}
BENCHMARK(BM_SolveTelemetryOn);

}  // namespace

BENCHMARK_MAIN();
