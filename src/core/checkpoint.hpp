// Crash-safe checkpoint/resume for the partition sweep.
//
// The paper's outer loops (Refine_Partitions_Bound over Reduce_Latency) are
// long-running searches whose only durable output used to be the final
// report: a crash or preemption at minute 59 lost everything. A
// SweepCheckpoint is a versioned snapshot of everything the sweep needs to
// re-enter where it left off: the completed partition bounds with their
// per-N accounts, the incumbent design and its latency Da (the carried upper
// bound and warm-start hint), and — when a Reduce_Latency bisection was
// interrupted mid-window — the exact (d_max, d_min, incumbent) window state,
// so resume continues the subdivision instead of re-probing from scratch.
//
// Snapshots are sealed (CRC32 trailer, see support/atomic_file.hpp) and
// written atomically; a resume validates version, CRC and a fingerprint of
// the inputs (task graph, device, search tolerances, formulation), and the
// restored designs are re-validated against the graph and device before they
// are trusted. Any mismatch degrades to "reject with a diagnostic and start
// fresh" — a damaged checkpoint can cost time, never correctness.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "arch/device.hpp"
#include "core/formulation.hpp"
#include "core/refine_partitions.hpp"
#include "core/solution.hpp"
#include "graph/task_graph.hpp"

namespace sparcs::core {

/// Bump when the snapshot schema changes incompatibly; older files are
/// rejected with kVersionSkew (never reinterpreted).
inline constexpr int kCheckpointVersion = 1;

/// Mid-bisection state of one interrupted Reduce_Latency(N) run: the window
/// as left after the last recorded probe, plus this N's incumbent, so resume
/// re-enters the subdivision loop at the exact next target the uninterrupted
/// run would have probed.
struct CheckpointInProgress {
  int num_partitions = 0;
  double d_max = 0.0;
  double d_min = 0.0;
  int iteration = 0;  ///< probes already recorded for this N
  double achieved_latency = 0.0;
  PartitionedDesign incumbent;
};

/// Durable state of the partition sweep between two solves.
struct SweepCheckpoint {
  /// True only when the sweep reached natural termination: resuming a
  /// complete checkpoint reproduces the final report without solving.
  bool complete = false;
  int phase = 1;   ///< 1 = searching first feasible N, 2 = relaxing N
  int next_n = 0;  ///< partition bound the sweep runs next
  double achieved_latency = 0.0;  ///< Da carried into resumed searches
  int best_num_partitions = 0;
  int ilp_solves = 0;  ///< solves accounted in completed stages
  double seconds = 0.0;  ///< solver wall time accumulated before this run
  bool stopped_by_lower_bound = false;
  std::optional<PartitionedDesign> best;
  /// Completed stages only; an interrupted stage lives in `in_progress` and
  /// is re-entered (not re-counted) on resume.
  std::vector<StageAccount> stages;
  std::optional<CheckpointInProgress> in_progress;
};

/// FNV-1a fingerprint of everything that determines the sweep's trajectory:
/// the task graph (tasks, design points, edges), the device capacities, the
/// search shape (alpha, gamma, delta, max_partitions) and the formulation
/// options. Deliberately excludes time limits and deadlines — a resume may
/// legitimately run with a new budget or on different hardware.
[[nodiscard]] std::uint64_t checkpoint_fingerprint(
    const graph::TaskGraph& graph, const arch::Device& device, int alpha,
    int gamma, double delta, int max_partitions,
    const FormulationOptions& formulation);

/// Renders the snapshot as one sealed JSON document (CRC32 trailer included)
/// ready for atomic writing.
[[nodiscard]] std::string serialize_checkpoint(const SweepCheckpoint& cp,
                                               std::uint64_t fingerprint);

enum class CheckpointLoadStatus : std::uint8_t {
  kOk,
  kMissing,              ///< file absent or unreadable
  kCorrupt,              ///< bad CRC, malformed JSON, or invalid contents
  kVersionSkew,          ///< written by an incompatible schema version
  kFingerprintMismatch,  ///< inputs differ from the run that wrote it
};

[[nodiscard]] const char* to_string(CheckpointLoadStatus status);

struct CheckpointLoadResult {
  CheckpointLoadStatus status = CheckpointLoadStatus::kCorrupt;
  SweepCheckpoint checkpoint;
  std::string error;  ///< diagnostic for non-kOk outcomes
};

/// Parses and fully validates a sealed snapshot: CRC, version, fingerprint,
/// schema, and every restored design re-checked against `graph`/`device`.
[[nodiscard]] CheckpointLoadResult parse_checkpoint(
    const std::string& sealed_text, std::uint64_t expected_fingerprint,
    const graph::TaskGraph& graph, const arch::Device& device);

/// parse_checkpoint over the contents of `path` (kMissing when unreadable).
[[nodiscard]] CheckpointLoadResult load_checkpoint(
    const std::string& path, std::uint64_t expected_fingerprint,
    const graph::TaskGraph& graph, const arch::Device& device);

/// Serializes snapshots to one path with atomic writes and interval
/// throttling. Stage completions and terminal snapshots are written with
/// force=true and always land; mid-bisection snapshots pass force=false and
/// are skipped while the minimum interval has not elapsed. Thread-safe;
/// write failures are logged once per run and never abort the solve.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, double min_interval_sec,
                   std::uint64_t fingerprint);

  /// Returns true when a snapshot landed on disk (false: throttled or
  /// failed; see failed()).
  bool write(const SweepCheckpoint& cp, bool force);

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int writes() const;
  [[nodiscard]] bool failed() const;

  /// Test hook: observes every snapshot that landed, after the write.
  void set_observer(std::function<void(const SweepCheckpoint&)> observer);

 private:
  std::string path_;
  double min_interval_sec_;
  std::uint64_t fingerprint_;
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point last_write_{};
  bool wrote_any_ = false;
  bool failed_ = false;
  int writes_ = 0;
  std::function<void(const SweepCheckpoint&)> observer_;
};

}  // namespace sparcs::core
