// Failpoint framework: named failure sites compiled into debug/CI builds so
// the fault-injection suite can force the rare paths (simplex numerical
// blow-up, LP cycling, a stalled search node, allocation failure, solve
// timeout) that production traffic only hits under load.
//
// A site is a string name evaluated through SPARCS_FAILPOINT(name). In
// regular builds the macro is a compile-time `false` with zero overhead; when
// the build defines SPARCS_ENABLE_FAILPOINTS (CMake option
// -DSPARCS_ENABLE_FAILPOINTS=ON) the site consults a process-wide registry.
// Sites are armed programmatically (failpoint::arm) or through the
// SPARCS_FAILPOINTS environment variable:
//
//   SPARCS_FAILPOINTS="milp.simplex.blowup=1,milp.bnb.node_stall"
//
// where `name` alone arms a site for every hit and `name=N` arms it for the
// first N hits only. All operations are thread-safe: sites fire from every
// thread that solves (concurrent sessions, service jobs).
#pragma once

#include <string>

namespace sparcs::failpoint {

#if defined(SPARCS_ENABLE_FAILPOINTS)
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

/// How an armed site behaves.
struct Spec {
  /// Ignore this many hits before the site starts firing.
  int skip = 0;
  /// Fire at most this many times, then go inert (-1 = unlimited).
  int max_hits = -1;
  /// For stall sites: how long the site should block when it fires.
  double stall_sec = 0.0;
};

/// Arms `name`; replaces any previous arming (and resets its counters).
void arm(const std::string& name, Spec spec = {});

/// Disarms `name` (no-op when not armed).
void disarm(const std::string& name);

/// Disarms every site and forgets all counters (test teardown).
void disarm_all();

/// Evaluates the site: counts the hit and reports whether it fires now.
/// When `stall_sec` is non-null it receives the armed stall duration (0 when
/// the site does not fire or stalls are not requested).
bool should_fail(const std::string& name, double* stall_sec = nullptr);

/// How many times the site has fired since it was armed.
[[nodiscard]] int trigger_count(const std::string& name);

/// Parses SPARCS_FAILPOINTS and arms the listed sites. Called lazily by the
/// first should_fail(); safe to call again (idempotent per process).
void arm_from_env();

}  // namespace sparcs::failpoint

#if defined(SPARCS_ENABLE_FAILPOINTS)
#define SPARCS_FAILPOINT(name) (::sparcs::failpoint::should_fail(name))
#define SPARCS_FAILPOINT_STALL(name, out_sec) \
  (::sparcs::failpoint::should_fail(name, out_sec))
#else
#define SPARCS_FAILPOINT(name) (false)
#define SPARCS_FAILPOINT_STALL(name, out_sec) (false)
#endif
