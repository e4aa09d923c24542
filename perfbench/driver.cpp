// Closed-loop benchmark driver for the temporal partitioner.
//
// One process, one solver thread, one client: the next design is requested
// only after the previous one returned. Every probe runs under a node budget
// (Workload::node_budget); the wall-clock limit is only a safety net, so every
// trace is deterministic and wall time tracks the work done.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--max-designs K] [--commit ID] [--spans-out FILE]
//
// Prints a context line ({"context": ...}: machine, build, budget, sample
// counts, per-layer self times) and, last, the result line the benchmark
// contract defines: {"correct", "attempted", "failed", "metrics"}. The exit
// status is 0 when every design passed the correctness gate and the
// determinism self-check, 1 when one did not, 2 on a usage error.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "core/baselines.hpp"
#include "core/bounds.hpp"
#include "core/formulation.hpp"
#include "core/partitioner.hpp"
#include "core/solution.hpp"
#include "graph/task_graph.hpp"
#include "milp/certificate.hpp"
#include "milp/certify.hpp"
#include "milp/compiled.hpp"
#include "milp/presolve.hpp"
#include "milp/propagation.hpp"
#include "milp/simplex.hpp"
#include "milp/solver.hpp"
#include "support/report_writer.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sparcs;
using Clock = std::chrono::steady_clock;

/// Branch & bound nodes one probe may explore. The smallest round budget
/// that reproduces the published DCT trace: the costliest feasible probe of
/// dct_refute needs 585 nodes, and at 500 that probe turns into a Limit and
/// the windows change.
constexpr std::int64_t kProbeNodeBudget = 1000;
/// Nodes one reference solve of ar_optimal may explore. The solves must run
/// to a proof (287 nodes over the whole range); the budget only bounds a
/// runaway search.
constexpr std::int64_t kReferenceNodeBudget = 20000;
/// Wall-clock safety net per probe. A probe that stops on it instead of on
/// its node budget is a failed operation.
constexpr double kSafetyNetSec = 60.0;
/// Set-ups timed before each design (the last one is the design's input);
/// setup_s is their median over the run, so it sees the same machine state
/// as the designs do.
constexpr int kSetupsPerDesign = 3;
/// Share of a traced run that may go to root LP samples (the DCT root LP
/// takes seconds, so it is sampled on a seed-chosen subset of probes).
constexpr double kRootLpShare = 0.25;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Consecutive designs are grouped into windows of at least kWindowSec of
/// design time; design_p50_s is the median of the windows' mean design
/// times. On a shared host the same design runs in one of two speed states
/// that switch every few seconds, and the median of single designs flipped
/// between them from run to run; a window averages over the switches.
constexpr double kWindowSec = 2.0;

std::vector<double> window_means(const std::vector<double>& design_s) {
  std::vector<double> out;
  double sum = 0.0;
  std::size_t count = 0;
  for (const double s : design_s) {
    sum += s;
    ++count;
    if (sum >= kWindowSec) {
      out.push_back(sum / static_cast<double>(count));
      sum = 0.0;
      count = 0;
    }
  }
  // A run shorter than one window reports its only, partial window.
  if (out.empty() && count > 0) out.push_back(sum / static_cast<double>(count));
  return out;
}

/// The tail: the highest percentile with at least ten samples beyond it,
/// capped at p95 and never below the median. Every design of a workload
/// does the same work, so without the cap a run of thousands of millisecond
/// designs would report how often the machine stalled the process rather
/// than the program. With fewer than 21 samples the qualifying percentile
/// would lie under the median, so the median is reported; the tail then
/// moves smoothly with the sample count instead of jumping to the maximum.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  // Sample index i has n-1-i samples beyond it: at least ten, and at least
  // 5% of the run.
  const std::size_t beyond = std::max<std::size_t>(10, n / 20);
  const std::size_t i = std::max(n > beyond ? n - 1 - beyond : 0, (n - 1) / 2);
  t.value = v[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  t.beyond = n - 1 - i;
  return t;
}

// ---------------------------------------------------------------- workloads

/// One row of a reference trace: the probed window and, for feasible probes,
/// the latency found. Window bounds are dyadic, so they compare exactly.
struct WindowRef {
  int n;
  double d_max;
  double d_min;
  double da;  ///< 0 for a probe without a design (Inf. or Limit)
};

struct Workload {
  const char* name;
  bool dct;  ///< DCT 4x4 graph, else the AR filter
  double rmax, mmax, ct_ns, delta;
  bool optimal;  ///< solve_optimal_over_range instead of the sweep
  std::int64_t node_budget;  ///< per probe, or per reference solve
  milp::CertifyMode certify;
  double ref_da;
  int ref_n;
  std::vector<WindowRef> ref_windows;  ///< empty for the optimal reference
};

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {
      // Table 3 of the paper: 8 of 13 probes exhaust their node budget while
      // refuting a tightened window (propagation and branching dominate).
      {"dct_refute", true, 576, 4096, 100, 200, false, kProbeNodeBudget,
       milp::CertifyMode::kOff, 3030, 6,
       {{5, 25940, 1295, 4610},
        {5, 4375.625, 1295, 4340},
        {5, 2817.5, 1295, 0},
        {5, 3578.75, 2817.5, 0},
        {5, 3959.375, 3578.75, 3920},
        {5, 3749.375, 3578.75, 0},
        {6, 3920, 1395, 3030},
        {6, 2657.5, 1395, 0},
        {6, 2973.125, 2657.5, 0},
        {7, 3030, 1495, 3030},
        {7, 2262.5, 1495, 0},
        {7, 2646.25, 2262.5, 0},
        {7, 2838.125, 2646.25, 0}}},
      // Same graph on a roomy device: every probe closes in ~100 nodes, so
      // per-probe model building dominates.
      {"dct_easy", true, 2048, 4096, 100, 200, false, kProbeNodeBudget,
       milp::CertifyMode::kOff, 1145, 2,
       {{2, 25640, 995, 1415},
        {2, 1380.078125, 995, 1145},
        {3, 1145, 1095, 1145}}},
      // Table 1 optimal reference: LP bounding at every node, simplex-bound.
      {"ar_optimal", false, 200, 64, 50, 10, true, kReferenceNodeBudget,
       milp::CertifyMode::kOff, 1120, 4, {}},
      // Table 1 iterative sweep with every verdict certified exactly.
      {"ar_certify", false, 200, 64, 50, 10, false, kProbeNodeBudget,
       milp::CertifyMode::kFull, 1120, 4,
       {{2, 2050, 1000, 0},
        {3, 2100, 1050, 1530},
        {3, 1312.5, 1050, 1300},
        {3, 1175, 1050, 0},
        {3, 1237.5, 1175, 0},
        {3, 1268.75, 1237.5, 0},
        {3, 1284.375, 1268.75, 0},
        {3, 1292.1875, 1284.375, 0},
        {4, 1300, 1100, 1300},
        {4, 1200, 1100, 1120},
        {4, 1110, 1100, 0},
        {4, 1115, 1110, 0}}},
  };
  return all;
}

struct Instance {
  graph::TaskGraph graph;
  arch::Device device;
};

Instance build_instance(const Workload& w) {
  Instance inst;
  inst.graph = w.dct ? workloads::dct_task_graph()
                     : workloads::ar_filter_task_graph();
  inst.device = arch::custom(w.dct ? "dct_dev" : "ar_dev", w.rmax, w.mmax,
                             w.ct_ns);
  return inst;
}

milp::SolverParams solver_params(const Workload& w) {
  milp::SolverParams p;
  p.num_threads = 1;
  p.node_limit = w.node_budget;
  p.time_limit_sec = kSafetyNetSec;
  p.certify = w.certify;
  return p;
}

core::PartitionerOptions sweep_options(const Workload& w) {
  core::PartitionerOptions o;
  o.alpha = 0;
  o.gamma = 1;
  o.budget.delta = w.delta;
  o.budget.solver = solver_params(w);
  return o;
}

// ------------------------------------------------------------ design + gate

/// What one design returned, reduced to what the gates and metrics need.
struct Design {
  double seconds = 0.0;  ///< call to return, set-up excluded
  std::optional<core::PartitionerReport> report;
  std::optional<core::OptimalResult> optimal;
  int solver_calls = 0;  ///< probes, or reference solves (ar_optimal)
  int no_verdict = 0;
  // Determinism signature, with solver_calls.
  std::int64_t nodes = 0, tightened = 0, simplex_iters = 0;
  std::string failure;  ///< empty when the design passed every gate

  [[nodiscard]] const milp::SolverStats& stats() const {
    static const milp::SolverStats kNone;
    return report ? report->solver_stats
                  : optimal ? optimal->solver_stats : kNone;
  }
  /// Da of the returned design; 0 when the call threw.
  [[nodiscard]] double latency() const {
    return report ? report->achieved_latency
                  : optimal ? optimal->latency_ns : 0.0;
  }
  [[nodiscard]] bool same_counts(const Design& o) const {
    return solver_calls == o.solver_calls && nodes == o.nodes &&
           tightened == o.tightened && simplex_iters == o.simplex_iters;
  }
};

bool near(double a, double b) { return std::abs(a - b) <= 1e-6; }

std::string check_design(const Workload& w, const Instance& inst,
                         const core::PartitionedDesign* best, double da) {
  if (best == nullptr) return "no design returned";
  const core::DesignCheck check =
      core::validate_design(inst.graph, inst.device, *best);
  if (!check.ok) return "validate_design: " + check.violation;
  if (!near(da, w.ref_da) || !near(best->total_latency_ns, w.ref_da)) {
    return "Da " + std::to_string(da) + " != reference " +
           std::to_string(w.ref_da);
  }
  return {};
}

/// Correctness gate plus verdict accounting for a sweep design.
void gate_sweep(const Workload& w, const Instance& inst, Design& d) {
  const core::PartitionerReport& r = *d.report;
  d.solver_calls = static_cast<int>(r.trace.size());
  for (const core::IterationRecord& row : r.trace) {
    const bool verdict = row.outcome == core::IterationOutcome::kFeasible ||
                         row.outcome == core::IterationOutcome::kInfeasible;
    if (!verdict) ++d.no_verdict;
    if (row.outcome == core::IterationOutcome::kLimit &&
        row.nodes < w.node_budget && d.failure.empty()) {
      d.failure = "probe N=" + std::to_string(row.num_partitions) + " I=" +
                  std::to_string(row.iteration) +
                  " stopped before its node budget (wall-clock safety net "
                  "or numerical failure)";
    }
  }
  if (!d.failure.empty()) return;
  if (r.degraded) {
    d.failure = "sweep degraded";
    return;
  }
  d.failure = check_design(w, inst, r.best ? &*r.best : nullptr,
                           r.achieved_latency);
  if (!d.failure.empty()) return;
  if (r.best_num_partitions != w.ref_n) {
    d.failure = "best N " + std::to_string(r.best_num_partitions) +
                " != reference " + std::to_string(w.ref_n);
    return;
  }
  if (r.trace.size() != w.ref_windows.size()) {
    d.failure = "trace has " + std::to_string(r.trace.size()) +
                " windows, reference " +
                std::to_string(w.ref_windows.size());
    return;
  }
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const core::IterationRecord& row = r.trace[i];
    const WindowRef& ref = w.ref_windows[i];
    const bool feasible = row.outcome == core::IterationOutcome::kFeasible;
    if (row.num_partitions != ref.n || !near(row.d_max_bound, ref.d_max) ||
        !near(row.d_min_bound, ref.d_min) || feasible != (ref.da > 0) ||
        (feasible && !near(row.achieved_latency, ref.da))) {
      d.failure = "trace window " + std::to_string(i + 1) +
                  " differs from the reference";
      return;
    }
  }
}

/// Correctness gate plus verdict accounting for the optimal reference. Each
/// N in the range is one reference solve; OptimalResult aggregates them, so a
/// solve is known to have ended with a verdict only when no limit could have
/// cut any of them: fewer nodes in total than one solve's budget, well
/// inside the safety net, and no numerical failure. Otherwise every solve of
/// the design is counted as without a verdict.
void gate_optimal(const Workload& w, const Instance& inst, Design& d) {
  const core::OptimalResult& r = *d.optimal;
  const int n_lo = core::min_area_partitions(inst.graph, inst.device);
  const int n_hi = core::max_area_partitions(inst.graph, inst.device) + 1;
  d.solver_calls = n_hi - n_lo + 1;
  const milp::SolverStats& s = r.solver_stats;
  const bool limit_possible = r.nodes >= w.node_budget ||
                              r.seconds >= kSafetyNetSec ||
                              s.numerical_failures > 0 ||
                              s.uncertified_verdicts > 0;
  d.no_verdict = limit_possible ? d.solver_calls : 0;
  if (r.status != milp::SolveStatus::kOptimal) {
    d.failure = "reference status " + milp::to_string(r.status);
    return;
  }
  if (limit_possible) {
    d.failure = "a reference solve may have stopped on a limit";
    return;
  }
  d.failure =
      check_design(w, inst, r.best ? &*r.best : nullptr, r.latency_ns);
  if (d.failure.empty() && r.best->num_partitions_allocated != w.ref_n) {
    d.failure = "best N " + std::to_string(r.best->num_partitions_allocated) +
                " != reference " + std::to_string(w.ref_n);
  }
}

Design run_design(const Workload& w, const Instance& inst) {
  Design d;
  const Clock::time_point t0 = Clock::now();
  try {
    if (w.optimal) {
      d.optimal = core::solve_optimal_over_range(inst.graph, inst.device, 0,
                                                 1, solver_params(w));
    } else {
      d.report = core::TemporalPartitioner(inst.graph, inst.device,
                                           sweep_options(w))
                     .run();
    }
  } catch (const std::exception& e) {
    d.seconds = seconds_since(t0);
    d.failure = std::string("exception: ") + e.what();
    return d;
  }
  d.seconds = seconds_since(t0);
  if (w.optimal) {
    gate_optimal(w, inst, d);
  } else {
    gate_sweep(w, inst, d);
  }
  const milp::SolverStats& s = d.stats();
  d.nodes = s.nodes_explored;
  d.tightened = s.bounds_tightened;
  d.simplex_iters = s.simplex_iterations;
  return d;
}

// ------------------------------------------------------------------ tracing

/// Spans recorded by the benchmark around its own calls into each layer.
/// Kept in memory and written out when the run ends.
struct SpanRecord {
  int id;
  int parent;  ///< 0 for a design's root span
  int design;
  const char* name;
  double start_us;
  double end_us;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t) {
      index_ = t_.spans_.size();
      const int parent = t_.stack_.empty() ? 0 : t_.stack_.back();
      const int id = static_cast<int>(index_) + 1;
      t_.spans_.push_back({id, parent, t_.design_, name, t_.now_us(), 0.0});
      t_.stack_.push_back(id);
    }
    ~Scope() {
      t_.spans_[index_].end_us = t_.now_us();
      t_.stack_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] double ms() const {
      const SpanRecord& s = t_.spans_[index_];
      return (t_.now_us() - s.start_us) / 1e3;
    }

   private:
    Tracer& t_;
    std::size_t index_;
  };

  void begin_design(int design) { design_ = design; }

  /// Self time per span name, in ms: duration minus the part of it covered
  /// by child spans.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const SpanRecord& s : spans_) {
      if (s.parent > 0) {
        child_us[static_cast<std::size_t>(s.parent - 1)] +=
            s.end_us - s.start_us;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out[s.name] += (s.end_us - s.start_us - child_us[i]) / 1e3;
    }
    return out;
  }

  void write_json(const std::string& path) const {
    std::ofstream f(path);
    f << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"id\":%d,\"parent\":%d,\"design\":%d,\"name\":\"%s\","
                    "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                    s.id, s.parent, s.design, s.name, s.start_us, s.end_us,
                    i + 1 < spans_.size() ? "," : "");
      f << buf;
    }
    f << "]\n";
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  int design_ = 0;
};

/// Per-layer accumulators over the traced designs.
/// Layer times that are not plain span sums come from here; the others are
/// the spans' self times.
struct LayerTotals {
  std::vector<double> root_lp_ms;
  std::int64_t root_lp_iters = 0;
  std::vector<double> solve_ms;  ///< per probe / per reference solve
  double solve_seconds = 0.0;    ///< summed solver wall time
  std::int64_t replay_mismatches = 0;
};

/// Replays one probe window (or one reference solve) through the public
/// layer calls under spans: IlpFormulation construction, CompiledModel,
/// presolve, root propagation, the root LP relaxation (when sampled), the
/// re-solve that yields the values to decode or the proof to certify,
/// decode and the exact certificate checks.
class Replayer {
 public:
  Replayer(const Workload& w, const Instance& inst, Tracer& tracer,
           LayerTotals& totals, std::mt19937_64& rng, double lp_budget_ms)
      : w_(w),
        inst_(inst),
        tracer_(tracer),
        totals_(totals),
        rng_(rng),
        lp_budget_ms_(lp_budget_ms) {}

  /// Replays every probe of a sweep design in trace order, rebuilding the
  /// warm-start portfolio the sweep used so the re-solves take its path.
  void replay_sweep(const core::PartitionerReport& report) {
    std::optional<core::PartitionedDesign> sweep_best;
    std::vector<core::PartitionedDesign> portfolio;
    std::optional<core::PartitionedDesign> stage_best;
    int stage = 0;
    for (std::size_t i = 0; i < report.trace.size(); ++i) {
      const core::IterationRecord& row = report.trace[i];
      if (row.num_partitions != stage) {
        // New Reduce_Latency stage: the sweep's best so far seeds it.
        if (stage_best &&
            (!sweep_best || stage_best->total_latency_ns <
                                sweep_best->total_latency_ns)) {
          sweep_best = stage_best;
        }
        stage = row.num_partitions;
        stage_best.reset();
        portfolio.clear();
        Tracer::Scope span(tracer_, "core.warm_start");
        if (sweep_best && sweep_best->num_partitions_used <= stage) {
          portfolio.push_back(*sweep_best);
        }
        for (const core::PointPolicy policy :
             {core::PointPolicy::kMinArea, core::PointPolicy::kMinLatency}) {
          if (auto g = core::greedy_first_fit(inst_.graph, inst_.device,
                                              policy, stage)) {
            portfolio.push_back(std::move(*g));
          }
        }
      }
      totals_.solve_ms.push_back(row.seconds * 1e3);
      totals_.solve_seconds += row.seconds;
      const bool feasible = row.outcome == core::IterationOutcome::kFeasible;
      const bool resolve =
          feasible || (w_.certify == milp::CertifyMode::kFull &&
                       row.outcome == core::IterationOutcome::kInfeasible);
      auto design = replay_window(row.num_partitions, row.d_max_bound,
                                  row.d_min_bound,
                                  pick_hint(portfolio, row.d_max_bound),
                                  sample_lp(), resolve, feasible);
      if (feasible && (!design || !near(design->total_latency_ns,
                                        row.achieved_latency))) {
        ++totals_.replay_mismatches;
      }
      if (feasible && design) {
        stage_best = *design;
        portfolio.push_back(*design);
      }
    }
  }

  /// Replays the reference solve of every N in the optimal range.
  void replay_optimal() {
    const int n_lo = core::min_area_partitions(inst_.graph, inst_.device);
    const int n_hi = core::max_area_partitions(inst_.graph, inst_.device) + 1;
    for (int n = n_lo; n <= n_hi; ++n) {
      replay_window(n, core::max_latency(inst_.graph, inst_.device, n),
                    core::min_latency(inst_.graph, inst_.device, n), nullptr,
                    sample_lp(), /*resolve=*/true, /*expect_design=*/false);
    }
  }

 private:
  /// Whether to solve this probe's root LP: a seed-driven coin flip, while
  /// the run's root-LP time stays under its budget.
  bool sample_lp() {
    const bool coin = std::bernoulli_distribution(0.5)(rng_);
    return coin && std::accumulate(totals_.root_lp_ms.begin(),
                                   totals_.root_lp_ms.end(),
                                   0.0) < lp_budget_ms_;
  }

  /// The hint Reduce_Latency picks: the fastest portfolio design inside the
  /// window, else the fastest overall.
  static const core::PartitionedDesign* pick_hint(
      const std::vector<core::PartitionedDesign>& portfolio,
      double window_max) {
    const core::PartitionedDesign* fitting = nullptr;
    const core::PartitionedDesign* fastest = nullptr;
    for (const core::PartitionedDesign& d : portfolio) {
      if (fastest == nullptr || d.total_latency_ns < fastest->total_latency_ns)
        fastest = &d;
      if (d.total_latency_ns <= window_max + 1e-9 &&
          (fitting == nullptr ||
           d.total_latency_ns < fitting->total_latency_ns))
        fitting = &d;
    }
    return fitting != nullptr ? fitting : fastest;
  }

  std::optional<core::PartitionedDesign> replay_window(
      int n, double d_max, double d_min, const core::PartitionedDesign* hint,
      bool lp, bool resolve, bool expect_design) {
    Tracer::Scope probe_span(tracer_, "core.probe");
    std::optional<core::IlpFormulation> form;
    {
      Tracer::Scope s(tracer_, "core.formulate");
      form.emplace(inst_.graph, inst_.device, n, d_max, d_min);
      if (w_.optimal) form->set_latency_objective();
      if (hint != nullptr) form->apply_hints(*hint);
    }
    const milp::Model& model = form->model();
    const milp::SolverParams base = solver_params(w_);
    std::optional<milp::CompiledModel> compiled;
    {
      Tracer::Scope s(tracer_, "milp.compile");
      compiled.emplace(model, model.has_objective());
    }
    {
      Tracer::Scope s(tracer_, "milp.root_propagate");
      milp::Propagator propagator(*compiled, base.feasibility_tol,
                                  base.max_propagation_rounds);
      milp::Domains domains(*compiled);
      milp::PropagationStats stats;
      (void)propagator.propagate(domains, {}, stats);
    }
    {
      Tracer::Scope s(tracer_, "milp.presolve");
      (void)milp::presolve(model);
    }
    if (lp) {
      Tracer::Scope s(tracer_, "milp.root_lp");
      const milp::LpResult lp_result =
          milp::solve_lp(milp::relaxation_of(model));
      totals_.root_lp_ms.push_back(s.ms());
      totals_.root_lp_iters += lp_result.iterations;
    }
    if (!resolve) return std::nullopt;
    milp::MilpSolution solution;
    {
      Tracer::Scope s(tracer_, "milp.resolve");
      milp::SolverParams params;
      if (w_.optimal) {
        params = milp::optimality_params(base);
        params.objective_improvement =
            std::max(params.objective_improvement, 1.0);
      } else {
        params = milp::first_feasible_params(base);
      }
      solution = milp::Solver(model, params).solve();
      if (w_.optimal) {
        const double ms = s.ms();
        totals_.solve_ms.push_back(ms);
        totals_.solve_seconds += ms / 1e3;
      }
    }
    std::optional<core::PartitionedDesign> design;
    if (solution.has_solution()) {
      Tracer::Scope s(tracer_, "core.decode");
      design = form->decode(solution.values);
    } else if (expect_design) {
      ++totals_.replay_mismatches;
    }
    if (w_.certify != milp::CertifyMode::kOff) {
      Tracer::Scope s(tracer_, "milp.certify");
      bool ok = true;
      if (solution.has_solution()) {
        ok = milp::certify_feasible(model, solution.values).ok;
      } else if (solution.proof != nullptr) {
        ok = milp::certify_infeasible(model, *solution.proof).ok;
      }
      if (!ok) ++totals_.replay_mismatches;
    }
    return design;
  }

  const Workload& w_;
  const Instance& inst_;
  Tracer& tracer_;
  LayerTotals& totals_;
  std::mt19937_64& rng_;
  double lp_budget_ms_;
};

// ------------------------------------------------------------------- output

/// The 1-, 5- and 15-minute load averages (zeros when unavailable).
std::vector<double> loadavg() {
  std::vector<double> l(3, 0.0);
  if (getloadavg(l.data(), 3) != 3) l.assign(3, 0.0);
  return l;
}

void write_loadavg(report::ReportWriter& out, const std::string& key,
                   const std::vector<double>& l) {
  out.begin_array(key);
  for (const double v : l) out.element(v);
  out.end_array();
}

/// Peak resident set of this process (VmHWM). getrusage's ru_maxrss is not
/// used: Linux carries the parent's high-water mark across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  int max_designs = 0;  ///< 0 = no cap
  std::string commit = "unknown";
  std::string spans_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--max-designs") a.max_designs = std::stoi(v);
      else if (k == "--commit") a.commit = v;
      else if (k == "--spans-out") a.spans_out = v;
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !(a.seconds > 0) ||
      (a.trace != 0 && a.trace != 1) || a.max_designs < 0) {
    return std::nullopt;
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  const Workload* w = nullptr;
  if (args) {
    for (const Workload& cand : all_workloads()) {
      if (args->workload == cand.name) w = &cand;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr,
                 "usage: %s --workload dct_refute|dct_easy|ar_optimal|"
                 "ar_certify --seed N --seconds S --trace 0|1 "
                 "[--max-designs K] [--commit ID] [--spans-out FILE]\n",
                 argv[0]);
    return 2;
  }
  const std::vector<double> load_before = loadavg();

  // Set-up: graph, design points and device.
  std::vector<double> setup_s;
  Instance inst;
  auto set_up = [&] {
    for (int i = 0; i < kSetupsPerDesign; ++i) {
      const Clock::time_point t0 = Clock::now();
      inst = build_instance(*w);
      setup_s.push_back(seconds_since(t0));
    }
  };

  // Closed loop, one client. A traced run spends its first half untraced
  // (the baseline the tracing overhead is measured against) and its second
  // half on designs followed by their layer replays.
  const double untraced_budget =
      args->trace == 1 ? args->seconds / 2 : args->seconds;
  // Only the first design is kept: later ones are compared with it and
  // dropped, so memory does not grow with the number of designs.
  std::optional<Design> first;
  std::vector<double> design_s;
  std::vector<std::string> failures;
  int attempted = 0;
  int failed = 0;
  int solver_calls = 0;
  int no_verdict = 0;
  auto account = [&](Design&& d) {
    ++attempted;
    solver_calls += d.solver_calls;
    no_verdict += d.no_verdict;
    std::string why = d.failure;
    if (why.empty() && first && !d.same_counts(*first)) {
      why = "counts differ from the run's first design (determinism)";
    }
    if (!why.empty()) {
      ++failed;
      if (failures.size() < 5) failures.push_back(why);
    }
    if (!first) first = std::move(d);
  };
  auto capped = [&] {
    return args->max_designs > 0 && attempted >= args->max_designs;
  };

  const Clock::time_point loop_start = Clock::now();
  do {
    set_up();
    Design d = run_design(*w, inst);
    design_s.push_back(d.seconds);
    account(std::move(d));
  } while (seconds_since(loop_start) < untraced_budget && !capped());

  Tracer tracer(loop_start);
  LayerTotals totals;
  std::vector<double> traced_run_s;
  std::vector<double> replay_s;
  if (args->trace == 1) {
    std::mt19937_64 rng(args->seed);
    Replayer replayer(*w, inst, tracer, totals, rng,
                      kRootLpShare * args->seconds * 1e3);
    const Clock::time_point traced_start = Clock::now();
    int traced = 0;
    do {
      tracer.begin_design(++traced);
      Tracer::Scope design_span(tracer, "design");
      {
        Tracer::Scope setup_span(tracer, "workloads.setup");
        set_up();
      }
      Design d;
      {
        Tracer::Scope run_span(tracer, w->optimal
                                           ? "core.solve_optimal_over_range"
                                           : "core.TemporalPartitioner::run");
        d = run_design(*w, inst);
      }
      traced_run_s.push_back(d.seconds);
      // The replay copies Reduce_Latency's warm-start policy; if the two
      // drift apart, the layer times no longer describe the sweep's solves.
      const std::int64_t mismatches = totals.replay_mismatches;
      const Clock::time_point replay_start = Clock::now();
      if (d.report) replayer.replay_sweep(*d.report);
      if (d.optimal) replayer.replay_optimal();
      replay_s.push_back(seconds_since(replay_start));
      if (totals.replay_mismatches > mismatches && d.failure.empty()) {
        d.failure = "traced replay diverged from the design's own solves";
      }
      account(std::move(d));
    } while (seconds_since(traced_start) < args->seconds - untraced_budget &&
             !(args->max_designs > 0 && traced >= args->max_designs));
  }

  const double fail_share =
      solver_calls > 0 ? static_cast<double>(no_verdict) / solver_calls : 0.0;
  const Tail tail = tail_of(design_s);
  const bool correct = failed == 0;

  report::ReportWriter result;
  result.begin_object();
  result.field("correct", correct);
  result.field("attempted", attempted);
  result.field("failed", failed);
  result.begin_object("metrics");
  auto metric = [&](const char* name, double value, const char* unit) {
    result.begin_object(name);
    result.field("value", value);
    result.field("unit", unit);
    result.end_object();
  };
  if (args->trace == 0) {
    metric("design_p50_s", median(window_means(design_s)), "s");
    metric("designs_per_s",
           static_cast<double>(design_s.size()) /
               std::accumulate(design_s.begin(), design_s.end(), 0.0),
           "1/s");
    metric("design_latency_ns", first->latency(), "model_ns");
    metric("solve_verdict_share", 1.0 - fail_share, "share");
    metric("setup_s", median(setup_s), "s");
    metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double n = static_cast<double>(traced_run_s.size());
    const double run_ms =
        std::accumulate(traced_run_s.begin(), traced_run_s.end(), 0.0) * 1e3;
    const milp::SolverStats& s = first->stats();
    const double nodes = static_cast<double>(s.nodes_explored);
    const std::map<std::string, double> self = tracer.self_ms();
    auto layer_ms = [&](const char* span) {
      const auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second / n;
    };
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double lp_ms = std::accumulate(totals.root_lp_ms.begin(),
                                         totals.root_lp_ms.end(), 0.0);
    metric("core.formulate_ms", layer_ms("core.formulate"), "ms");
    metric("milp.compile_ms", layer_ms("milp.compile"), "ms");
    metric("milp.presolve_ms", layer_ms("milp.presolve"), "ms");
    metric("milp.root_propagate_ms", layer_ms("milp.root_propagate"), "ms");
    metric("core.decode_ms", layer_ms("core.decode"), "ms");
    metric("core.probe_overhead_share",
           per(layer_ms("core.formulate") + layer_ms("milp.compile") +
                   layer_ms("core.decode"),
               run_ms / n),
           "share");
    metric("milp.bnb.nodes", nodes, "count");
    metric("milp.bnb.nodes_per_s", per(nodes * n, totals.solve_seconds),
           "1/s");
    metric("milp.bnb.pruned_share",
           per(static_cast<double>(s.nodes_pruned_by_bound +
                                   s.nodes_pruned_infeasible),
               nodes),
           "share");
    metric("milp.bnb.max_depth", static_cast<double>(s.max_depth), "count");
    metric("milp.propagate.bounds_tightened",
           static_cast<double>(s.bounds_tightened), "count");
    metric("milp.propagate.tightenings_per_node",
           per(static_cast<double>(s.bounds_tightened), nodes), "count");
    metric("milp.simplex.calls", static_cast<double>(s.simplex_calls),
           "count");
    metric("milp.simplex.iterations",
           static_cast<double>(s.simplex_iterations), "count");
    metric("milp.simplex.us_per_iteration",
           per(lp_ms * 1e3, static_cast<double>(totals.root_lp_iters)), "us");
    metric("milp.simplex.root_lp_ms", median(totals.root_lp_ms), "ms");
    metric("milp.certify.checks",
           static_cast<double>(s.certificates_checked), "count");
    metric("milp.certify.failed", static_cast<double>(s.certificates_failed),
           "count");
    metric("milp.certify_ms", layer_ms("milp.certify"), "ms");
    metric("milp.certify.share", per(layer_ms("milp.certify"), run_ms / n),
           "share");
    metric("core.probes", first->solver_calls, "count");
    metric("milp.solver.solve_ms.p50", median(totals.solve_ms), "ms");
    metric("milp.solver.solve_ms.tail", tail_of(totals.solve_ms).value, "ms");
    metric("workloads.graph_ms", median(setup_s) * 1e3, "ms");
    // The spans wrap run_design from outside, so this is ~0 by
    // construction (and may be negative): the cost of tracing is the
    // replay, reported as replay_design_p50_s in the context line.
    metric("bench.trace_overhead_ms",
           (median(traced_run_s) - median(design_s)) * 1e3, "ms");
  }
  result.end_object();
  result.end_object();

  if (args->trace == 1 && !args->spans_out.empty()) {
    tracer.write_json(args->spans_out);
  }

  report::ReportWriter ctx;
  ctx.begin_object();
  ctx.begin_object("context");
  ctx.field("workload", w->name);
  ctx.field("seed", static_cast<std::int64_t>(args->seed));
  ctx.field("trace", args->trace);
  ctx.field("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  write_loadavg(ctx, "loadavg_before", load_before);
  write_loadavg(ctx, "loadavg_after", loadavg());
  ctx.field("build_type", PERFBENCH_BUILD_TYPE);
  ctx.field("commit", args->commit);
  ctx.field("node_budget", w->node_budget);
  ctx.field("safety_net_sec", kSafetyNetSec);
  ctx.field("solver_threads", 1);
  ctx.field("setup_samples", static_cast<std::int64_t>(setup_s.size()));
  ctx.field("design_samples", static_cast<std::int64_t>(design_s.size()));
  ctx.field("p50_windows",
            static_cast<std::int64_t>(window_means(design_s).size()));
  ctx.field("traced_designs", static_cast<std::int64_t>(traced_run_s.size()));
  // Reported beside the metrics, not among them: every design does the same
  // work, so across runs the tail tracks how often the host slowed the
  // process, and it moved by up to 40% between runs of the same binary.
  ctx.begin_object("design_tail_s");
  ctx.field("value", tail.value);
  ctx.field("unit", "s");
  ctx.field("percentile", tail.percentile);
  ctx.field("samples_beyond", static_cast<std::int64_t>(tail.beyond));
  ctx.end_object();
  ctx.field("solver_calls", solver_calls);
  ctx.field("solver_calls_without_verdict", no_verdict);
  ctx.field("solve_fail_share", fail_share);
  ctx.field("probes_per_design", first->solver_calls);
  ctx.field("nodes_per_design", first->nodes);
  ctx.field("bounds_tightened_per_design", first->tightened);
  ctx.field("simplex_iterations_per_design", first->simplex_iters);
  if (args->trace == 1) {
    ctx.begin_object("self_ms_per_design");
    for (const auto& [name, ms] : tracer.self_ms()) {
      ctx.field(name, ms / static_cast<double>(traced_run_s.size()));
    }
    ctx.end_object();
    ctx.field("root_lp_samples",
              static_cast<std::int64_t>(totals.root_lp_ms.size()));
    ctx.field("replay_mismatches", totals.replay_mismatches);
    ctx.field("untraced_design_p50_s", median(design_s));
    ctx.field("traced_design_p50_s", median(traced_run_s));
    ctx.field("replay_design_p50_s", median(replay_s));
  }
  ctx.begin_array("failures");
  for (const std::string& why : failures) {
    ctx.begin_object();
    ctx.field("why", why);
    ctx.end_object();
  }
  ctx.end_array();
  ctx.end_object();
  ctx.end_object();

  std::printf("%s\n%s\n", ctx.str().c_str(), result.str().c_str());
  return correct ? 0 : 1;
}
