// Wire protocol of the solve service (src/service/server.hpp): newline-
// delimited JSON over a SOCK_STREAM unix socket. Each request is one JSON
// object on one line; the server answers every request with exactly one JSON
// object on one line, in order, so clients can pipeline.
//
// Request grammar (fields not listed for an op are ignored):
//
//   {"op":"submit", "workload":"ar"|"dct"|"ewf" | "graph_text":"<.tg text>",
//    "priority":INT, "detach":BOOL, "options":{
//        "rmax":NUM, "mmax":NUM, "ct":NUM,          // device overrides
//        "delta":NUM, "alpha":INT, "gamma":INT,
//        "time_limit_sec":NUM, "deadline_sec":NUM,  // per-solve / whole-job
//        "certify":"off"|"incumbents"|"full",
//        "checkpoint":BOOL,                         // per-job sweep checkpoint
//        "est_memory_mb":NUM}}                      // admission estimate override
//   {"op":"status",  "job":"job-N"}
//   {"op":"result",  "job":"job-N", "wait":BOOL}
//   {"op":"cancel",  "job":"job-N"}
//   {"op":"list"}
//   {"op":"shutdown"}
//
// Responses always carry "ok" and echo "op". Success responses add op-
// specific fields (see server.cpp); failures look like
//   {"ok":false,"op":...,"error":{"code":"...","message":"..."}}
// with machine-readable codes: parse_error, bad_request, unknown_job,
// queue_full, memory_limit, not_finished, shutting_down.
//
// Jobs are owned by the submitting connection by default: if that connection
// closes before the job reaches a terminal state, the job is cancelled
// ("detach":true opts out). This is what makes a client crash mid-solve
// reclaim the worker instead of leaking it.
#pragma once

#include <optional>
#include <string>

namespace sparcs::service {

/// Solve parameters of one submit request, defaults matching the one-shot
/// CLI.
struct SubmitRequest {
  std::string workload;    ///< builtin workload name; exclusive with graph_text
  std::string graph_text;  ///< inline .tg document; exclusive with workload
  int priority = 0;        ///< higher runs first; FIFO within a priority
  bool detach = false;     ///< survive the submitting connection's close
  std::optional<double> rmax, mmax, ct;
  double delta = 0.0;
  int alpha = 0;
  int gamma = 1;
  double time_limit_sec = 10.0;
  double deadline_sec = 0.0;  ///< whole-job wall deadline; 0 = none
  std::string certify = "off";
  bool checkpoint = true;        ///< arm the per-job sweep checkpoint
  double est_memory_mb = 0.0;    ///< admission estimate override; 0 = derive
};

/// One decoded request line.
struct Request {
  std::string op;  ///< submit | status | result | cancel | list | shutdown
  std::string job;
  bool wait = false;  ///< result: block until the job reaches a terminal state
  SubmitRequest submit;
};

/// Decodes one request line. Returns false with a diagnostic in *error on
/// malformed JSON, an unknown op, or field validation failure; the server
/// turns that into a parse_error/bad_request response instead of closing.
[[nodiscard]] bool parse_request(const std::string& line, Request* out,
                                 std::string* error);

/// Encodes a request as one line (no trailing newline); the inverse of
/// parse_request, used by the client library and tests.
[[nodiscard]] std::string serialize_request(const Request& request);

/// Renders the uniform failure response line (no trailing newline).
[[nodiscard]] std::string error_response(const std::string& op,
                                         const std::string& code,
                                         const std::string& message);

}  // namespace sparcs::service
