// Minimal leveled logger used across SPARCS-TP.
//
// Logging is stream-based and writes to stderr; the level is a process-wide
// setting so benchmarks and tests can silence solver chatter. An optional
// JSON sink mirrors every emitted line as a single-line JSON object carrying
// the active telemetry correlation id, which is what lets a log line be
// joined with trace spans and telemetry samples post-hoc.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>

namespace sparcs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kOff = 4,
};

/// Returns the current process-wide log level (default: kWarning).
LogLevel log_level();

/// Sets the process-wide log level.
void set_log_level(LogLevel level);

/// Installs (or, with nullptr, removes) a stream that receives every emitted
/// log statement as one JSON object per line:
///   {"t_sec":..., "level":"info", "file":"solver.cpp", "line":81,
///    "corr":42, "msg":"..."}
/// The `corr` field is present only when a telemetry correlation id is bound
/// to the emitting thread. Writes are serialized under an internal mutex; the
/// caller keeps ownership of the stream and must remove the sink before
/// destroying it. The human-readable stderr line is unaffected.
void set_json_log_sink(std::ostream* sink);

/// Additionally routes the JSON records of one correlation id to a dedicated
/// stream — the solve service registers one per job, so every log line a job
/// emits lands in that job's own JSONL file regardless of how many jobs run
/// concurrently. The global sink, when set, still receives every record.
/// Writes share the global sink mutex; the caller owns the stream and must
/// remove the sink (remove_correlation_json_log_sink) before destroying it.
void add_correlation_json_log_sink(std::uint64_t correlation,
                                   std::ostream* sink);
void remove_correlation_json_log_sink(std::uint64_t correlation);

namespace detail {

/// Collects one log statement and emits it on destruction. The message body
/// is accumulated separately from the "[T file:line]" prefix so the JSON
/// sink can emit the structured fields without re-parsing the text line.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace sparcs

#define SPARCS_LOG(level) \
  ::sparcs::detail::LogMessage(::sparcs::LogLevel::level, __FILE__, __LINE__)

#define SPARCS_DLOG SPARCS_LOG(kDebug)
#define SPARCS_ILOG SPARCS_LOG(kInfo)
#define SPARCS_WLOG SPARCS_LOG(kWarning)
#define SPARCS_ELOG SPARCS_LOG(kError)
