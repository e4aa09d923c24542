// Live telemetry pipeline: a background sampler that streams newline-
// delimited JSON records describing what the solver is doing *right now*
// (per-solve incumbent/bound/gap/node counts, pipeline stage, RSS), plus the
// correlation-id and search-tree machinery the rest of the observability
// stack joins on.
//
// Everything here follows the repository's observability invariant: disabled
// paths cost one relaxed atomic load (or one null-pointer check), so call
// sites instrument hot paths unconditionally. The sampler thread shuts down
// through a condition variable and is joined before stop_sampler() returns,
// which keeps teardown clean under Deadline/CancelToken cancellation.
//
// Correlation: every MILP solve is tagged with a process-unique correlation
// id (a plain uint64). The id lives in thread-local storage for the duration
// of the solve, flows into trace-span args ("corr"), JSON log records
// ("corr") and the sampler's per-solve entries, so one solve can be joined
// across all three streams.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "milp/types.hpp"

namespace sparcs::telemetry {

/// True when the telemetry pipeline is on (sampler running, or a consumer
/// such as the JSON log sink wants correlation ids). One relaxed load.
bool active();

/// Globally enables or disables telemetry publishing (the sampler flips this
/// on its own when started/stopped; tests and embedders may set it directly).
void set_active(bool on);

// ---------------------------------------------------------------------------
// Correlation ids
// ---------------------------------------------------------------------------

/// Allocates a fresh process-unique correlation id (never 0).
std::uint64_t next_correlation_id();

/// The correlation id attached to the calling thread (0 = none).
std::uint64_t current_correlation_id();

/// RAII swap of the calling thread's correlation id; used by solve probes to
/// scope an id over a FormModel+SolveModel round trip, and by service jobs
/// to carry the job's id.
class CorrelationScope {
 public:
  explicit CorrelationScope(std::uint64_t id);
  ~CorrelationScope();
  CorrelationScope(const CorrelationScope&) = delete;
  CorrelationScope& operator=(const CorrelationScope&) = delete;

 private:
  std::uint64_t prev_;
};

// ---------------------------------------------------------------------------
// Live solve table
// ---------------------------------------------------------------------------

/// Live state of one in-flight MILP solve. Publishers use relaxed stores,
/// the sampler uses relaxed loads: every field is an independent progress
/// indicator, so cross-field tearing is acceptable by design.
struct LiveSolve {
  std::atomic<std::uint64_t> correlation{0};  ///< 0 = slot free
  std::atomic<std::int64_t> nodes{0};
  std::atomic<std::int64_t> open_nodes{0};  ///< DFS stack / subproblem pool
  std::atomic<std::int64_t> lp_iterations{0};
  std::atomic<std::int64_t> incumbent_updates{0};
  /// Caller-convention objective of the current incumbent; meaningful only
  /// while has_incumbent is true.
  std::atomic<double> incumbent{0.0};
  std::atomic<bool> has_incumbent{false};
  /// Root LP relaxation bound (caller convention); only published when LP
  /// bounding is enabled for the solve, NaN otherwise.
  std::atomic<double> best_bound{0.0};
  std::atomic<bool> has_bound{false};
  std::atomic<std::uint64_t> start_us{0};  ///< monotonic, sampler-relative
};

/// RAII registration of one MILP solve in the live table. Inert (id() == 0,
/// slot() == nullptr) while telemetry is inactive; when the table is full the
/// scope still carries an id but publishes nowhere.
class SolveScope {
 public:
  explicit SolveScope(const char* what);
  ~SolveScope();
  SolveScope(const SolveScope&) = delete;
  SolveScope& operator=(const SolveScope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] LiveSolve* slot() const { return slot_; }

 private:
  LiveSolve* slot_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t prev_tls_ = 0;
  bool swapped_tls_ = false;
};

/// Number of solves completed since process start while telemetry was active
/// (drives the --progress line's solve counter).
std::int64_t solves_completed();

/// Capacity of the live solve table (slots are CAS-claimed per in-flight
/// solve; scopes beyond the capacity degrade gracefully, see below).
inline constexpr int kLiveSolveSlots = 64;

/// Slots currently claimed by in-flight solves (scans the table; cheap).
std::int64_t live_solve_slots_in_use();

/// SolveScopes constructed while every slot was taken, since the last
/// reset_pipeline(). Such scopes keep a working correlation id (logs and
/// trace spans stay joinable) — they are merely invisible to the sampler's
/// per-solve entries. Each occurrence also bumps the
/// "telemetry.live_solve.slot_exhausted" metrics counter, so a service
/// running more concurrent solves than the table holds sees the shortfall
/// in its metrics instead of silently losing coverage.
std::int64_t live_solve_slots_exhausted();

// ---------------------------------------------------------------------------
// Pipeline stage (the partition sweep publishes, the sampler reads)
// ---------------------------------------------------------------------------

/// Publishes the sweep's current stage. `stage` must be a string literal (or
/// otherwise immortal). Triggers an immediate sampler record, so every stage
/// transition yields at least one sample even under coarse intervals.
void set_stage(const char* stage, int num_partitions);

/// Publishes an improved incumbent design (monotonically non-increasing
/// latency over a run) and emits a "convergence" JSONL record.
void publish_best_latency(double latency_ns, int num_partitions);

/// Publishes the run's degraded flag (budget/deadline expiry mid-sweep);
/// reflected in sample records and the sampler's final record.
void publish_degraded(bool degraded);

/// Clears stage/incumbent/degraded state and the completed-solve counter
/// between runs (CLI entry).
void reset_pipeline();

// ---------------------------------------------------------------------------
// Search-tree introspection
// ---------------------------------------------------------------------------

/// Why a branch & bound node stopped being interesting.
enum class NodeKind : std::uint8_t {
  kBranched,          ///< interior node: branched on a variable
  kIntegral,          ///< leaf: all integral variables fixed
  kPrunedBound,       ///< refuted by the LP relaxation
  kPrunedInfeasible,  ///< propagation conflict on the entering branch
  kRejected,          ///< leaf completion rejected by the exact checker
  kBudget,            ///< abandoned: limits/cancellation cut the subtree
};

[[nodiscard]] const char* to_string(NodeKind kind);

/// One recorded branch & bound node.
struct TreeNode {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root of a (sub)tree
  std::int32_t depth = 0;
  std::int32_t branch_var = -1;        ///< variable branched to enter; -1 root
  double branch_lb = 0.0, branch_ub = 0.0;  ///< bounds imposed on branch_var
  NodeKind kind = NodeKind::kBranched;
};

/// True when per-node recording is on. One relaxed load; the solver caches
/// it once per solve.
bool tree_active();

/// Enables/disables per-node recording (records accumulate across solves
/// until tree_clear()).
void set_tree_active(bool on);

/// Caps the ring buffer (oldest records evicted first; parents are recorded
/// before their children, so surviving interior nodes keep their children).
void set_tree_capacity(std::size_t cap);

/// Drops every recorded node and resets the id counter.
void tree_clear();

/// Allocates the next node id (process-wide, so ids are unique across
/// concurrent sessions and across solves).
std::int64_t tree_next_id();

/// Records one node (no-op while recording is disabled).
void tree_record(const TreeNode& node);

/// Nodes currently held (after eviction).
std::size_t tree_size();

/// Writes {"capacity":..,"recorded":..,"evicted":..,"nodes":[...]}. A node
/// recorded as "branched" whose children were all evicted or never explored
/// (budget cut) is re-labelled "budget" at dump time, so every non-root node
/// in the dump carries a prune reason or has children present.
void write_tree_json(std::ostream& os);

/// Graphviz rendering of the same dump (one node per record, edges to
/// parents, prune reason as label/color).
void write_tree_dot(std::ostream& os);

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

struct SamplerOptions {
  /// Sampling period. Stage transitions and convergence events also emit
  /// records immediately, so coarse intervals still capture every stage.
  double interval_sec = 0.2;
  /// JSONL sink (one record per line); must outlive the sampler. Required.
  std::ostream* sink = nullptr;
  /// When set, a single-line progress report (stage, N, incumbent, solves,
  /// elapsed) is rewritten here on every sample ('\r'-terminated).
  std::ostream* progress = nullptr;
  /// Include a counters/gauges section from the metrics registry in each
  /// sample (only when metric collection is enabled).
  bool include_metrics = true;
  /// Optional: when this token reports cancellation the sampler marks its
  /// records "cancelled":true (it keeps sampling until stop_sampler(), so
  /// the shutdown path stays observable).
  milp::CancelToken cancel;
};

/// Starts the process-wide sampler thread and flips telemetry active. Writes
/// a "start" record immediately. Returns false (and does nothing) when a
/// sampler is already running or options.sink is null.
bool start_sampler(const SamplerOptions& options);

/// Stops and joins the sampler thread, writing a "final" record (elapsed,
/// sample count, degraded flag). Telemetry stays active only if it was
/// activated independently of the sampler. No-op without a running sampler.
void stop_sampler();

[[nodiscard]] bool sampler_running();

/// Forces one sample record now (no-op without a running sampler). `trigger`
/// tags the record ("interval", "stage", "manual", ...).
void sample_now(const char* trigger = "manual");

// ---------------------------------------------------------------------------
// Process memory (Linux /proc/self/status; zeros elsewhere)
// ---------------------------------------------------------------------------

struct MemoryStatus {
  std::int64_t rss_kb = 0;       ///< VmRSS
  std::int64_t rss_peak_kb = 0;  ///< VmHWM
};

[[nodiscard]] MemoryStatus read_memory_status();

}  // namespace sparcs::telemetry
