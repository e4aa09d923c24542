#include "cli/app.hpp"

#include <atomic>
#include <csignal>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>

#include "arch/device.hpp"
#include "core/partitioner.hpp"
#include "io/csv.hpp"
#include "io/dot.hpp"
#include "io/table.hpp"
#include "io/tg_format.hpp"
#include "milp/types.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "sim/executor.hpp"
#include "support/json.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/span.hpp"
#include "support/telemetry.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"
#include "workloads/ewf.hpp"

namespace sparcs::cli {
namespace {

struct Arguments {
  std::string input_file;
  std::string workload;
  std::optional<double> rmax, mmax, ct;
  double delta = 0.0;
  int alpha = 0;
  int gamma = 1;
  double time_limit = 10.0;
  double deadline_sec = 0.0;  ///< whole-run wall deadline; 0 = none
  bool optimal = false;
  bool simulate = false;
  bool quiet = false;
  std::optional<LogLevel> log_level;
  std::string dot_file;
  std::string csv_file;
  std::string metrics_json_file;
  std::string trace_json_file;
  std::string report_json_file;
  std::string telemetry_jsonl_file;
  double telemetry_interval_ms = 200.0;
  bool progress = false;
  std::string search_tree_json_file;
  std::string search_tree_dot_file;
  std::string log_json_file;
  std::string checkpoint_file;
  double checkpoint_interval_sec = 5.0;
  bool resume = false;
  milp::CertifyMode certify = milp::CertifyMode::kOff;
};

milp::CertifyMode parse_certify(const std::string& name) {
  if (name == "off") return milp::CertifyMode::kOff;
  if (name == "incumbents") return milp::CertifyMode::kIncumbents;
  if (name == "full") return milp::CertifyMode::kFull;
  SPARCS_REQUIRE(false, "unknown --certify mode '" + name +
                            "' (expected off, incumbents or full)");
  return milp::CertifyMode::kOff;
}

// ---------------------------------------------------------------------------
// Graceful preemption. SIGINT/SIGTERM flip an atomic flag and trip the run's
// cancellation token — both async-signal-safe relaxed stores — so the solve
// unwinds cooperatively through the same anytime-degradation path a deadline
// uses: destructors run, the final checkpoint and telemetry records land,
// and the process reports exit code 5 instead of dying mid-write.

std::atomic<bool> g_preempted{false};
std::atomic<int> g_signal{0};
milp::CancelToken g_signal_token;  // NOLINT: reassigned per run()

void handle_preempt_signal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  g_preempted.store(true, std::memory_order_relaxed);
  g_signal_token.request_cancel();
}

/// Installs the preemption handlers for the duration of one run() and
/// restores default dispositions afterwards, so embedding processes (tests)
/// keep their own signal behavior outside the run.
class SignalGuard {
 public:
  explicit SignalGuard(milp::CancelToken token) {
    g_signal_token = std::move(token);
    g_preempted.store(false, std::memory_order_relaxed);
    g_signal.store(0, std::memory_order_relaxed);
    previous_int_ = std::signal(SIGINT, handle_preempt_signal);
    previous_term_ = std::signal(SIGTERM, handle_preempt_signal);
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;
  ~SignalGuard() {
    std::signal(SIGINT, previous_int_);
    std::signal(SIGTERM, previous_term_);
  }

  [[nodiscard]] static bool preempted() {
    return g_preempted.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static const char* signal_name() {
    return g_signal.load(std::memory_order_relaxed) == SIGTERM ? "SIGTERM"
                                                               : "SIGINT";
  }

 private:
  void (*previous_int_)(int) = SIG_DFL;
  void (*previous_term_)(int) = SIG_DFL;
};

/// Lands one artifact atomically (temp + fsync + rename). Failures are a
/// warning, not an abort — the run's result has already been computed and
/// printed — but they surface in the exit code (6) when the run was
/// otherwise clean, so scripts cannot mistake a half-written artifact set
/// for success.
bool write_artifact(const std::string& path, std::string_view contents,
                    const char* what, std::ostream& out, std::ostream& err) {
  std::string error;
  if (!atomicfile::write_file_atomic(path, contents, &error)) {
    err << "warning: cannot write " << what << " to " << path << ": " << error
        << "\n";
    return false;
  }
  out << "wrote " << path << "\n";
  return true;
}

LogLevel parse_log_level(const std::string& name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warning") return LogLevel::kWarning;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  SPARCS_REQUIRE(false, "unknown log level '" + name +
                            "' (expected debug, info, warning, error or off)");
  return LogLevel::kWarning;
}

Arguments parse_args(const std::vector<std::string>& args) {
  Arguments parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const std::string& {
      SPARCS_REQUIRE(i + 1 < args.size(), arg + " needs a value");
      return args[++i];
    };
    if (arg == "--workload") {
      parsed.workload = value();
    } else if (arg == "--rmax") {
      parsed.rmax = std::stod(value());
    } else if (arg == "--mmax") {
      parsed.mmax = std::stod(value());
    } else if (arg == "--ct") {
      parsed.ct = std::stod(value());
    } else if (arg == "--delta") {
      parsed.delta = std::stod(value());
    } else if (arg == "--alpha") {
      parsed.alpha = std::stoi(value());
    } else if (arg == "--gamma") {
      parsed.gamma = std::stoi(value());
    } else if (arg == "--time-limit") {
      parsed.time_limit = std::stod(value());
    } else if (arg == "--deadline-sec") {
      parsed.deadline_sec = std::stod(value());
      SPARCS_REQUIRE(parsed.deadline_sec > 0.0, "--deadline-sec must be > 0");
    } else if (arg == "--optimal") {
      parsed.optimal = true;
    } else if (arg == "--simulate") {
      parsed.simulate = true;
    } else if (arg == "--quiet") {
      parsed.quiet = true;
    } else if (arg == "--log-level") {
      parsed.log_level = parse_log_level(value());
    } else if (arg == "--dot") {
      parsed.dot_file = value();
    } else if (arg == "--csv") {
      parsed.csv_file = value();
    } else if (arg == "--metrics-json") {
      parsed.metrics_json_file = value();
    } else if (arg == "--trace-json") {
      parsed.trace_json_file = value();
    } else if (arg == "--report-json") {
      parsed.report_json_file = value();
    } else if (arg == "--telemetry-jsonl") {
      parsed.telemetry_jsonl_file = value();
    } else if (arg == "--telemetry-interval-ms") {
      parsed.telemetry_interval_ms = std::stod(value());
      SPARCS_REQUIRE(parsed.telemetry_interval_ms > 0.0,
                     "--telemetry-interval-ms must be > 0");
    } else if (arg == "--progress") {
      parsed.progress = true;
    } else if (arg == "--search-tree-json") {
      parsed.search_tree_json_file = value();
    } else if (arg == "--search-tree-dot") {
      parsed.search_tree_dot_file = value();
    } else if (arg == "--log-json") {
      parsed.log_json_file = value();
    } else if (arg == "--checkpoint") {
      parsed.checkpoint_file = value();
    } else if (arg == "--checkpoint-interval-sec") {
      parsed.checkpoint_interval_sec = std::stod(value());
      SPARCS_REQUIRE(parsed.checkpoint_interval_sec >= 0.0,
                     "--checkpoint-interval-sec must be >= 0");
    } else if (arg == "--resume") {
      parsed.resume = true;
    } else if (arg == "--certify") {
      parsed.certify = parse_certify(value());
    } else if (arg.rfind("--certify=", 0) == 0) {
      parsed.certify = parse_certify(arg.substr(std::string("--certify=").size()));
    } else if (!arg.empty() && arg[0] == '-') {
      SPARCS_REQUIRE(false, "unknown option " + arg);
    } else {
      SPARCS_REQUIRE(parsed.input_file.empty(),
                     "multiple input files given");
      parsed.input_file = arg;
    }
  }
  SPARCS_REQUIRE(parsed.input_file.empty() != parsed.workload.empty(),
                 "give exactly one of <graph.tg> or --workload");
  SPARCS_REQUIRE(!parsed.resume || !parsed.checkpoint_file.empty(),
                 "--resume needs --checkpoint FILE to resume from");
  return parsed;
}

graph::TaskGraph builtin_workload(const std::string& name) {
  if (name == "ar") return workloads::ar_filter_task_graph();
  if (name == "dct") return workloads::dct_task_graph();
  if (name == "ewf") return workloads::ewf_task_graph();
  SPARCS_REQUIRE(false, "unknown workload '" + name +
                            "' (expected ar, dct or ewf)");
  return {};
}

/// Enables the requested observability subsystems (metrics registry, trace
/// recorder, telemetry sampler, search-tree recorder, JSON log sink) for the
/// duration of one `run()`, and writes their output files in finalize()
/// (called explicitly so a write failure can drive the exit code; the
/// destructor finalizes as a backstop when an exception unwinds past it).
/// Restores the disabled state on every exit path so repeated in-process
/// runs (tests, library embedding) start clean.
///
/// Sharing rules: every subsystem this guard touches — the metrics registry,
/// the trace recorder, the sampler, the search-tree recorder, the *global*
/// JSON log sink (set_json_log_sink) and reset_pipeline() — is process-global
/// state; there is exactly one observability pipeline per process. Guards are
/// therefore serialized on a process-wide mutex held from construction until
/// finalize(): concurrent in-process run() calls (tests, embedders) queue
/// here instead of interleaving resets and sink swaps mid-run. Code that
/// needs concurrent per-run observability must not use this guard — the
/// solve service attaches per-job correlation-routed log sinks
/// (add_correlation_json_log_sink) and per-job artifacts instead.
class ObservabilityGuard {
 public:
  ObservabilityGuard(const Arguments& parsed, std::ostream& out,
                     std::ostream& err)
      : lock_(pipeline_mutex()),
        metrics_file_(parsed.metrics_json_file),
        trace_file_(parsed.trace_json_file),
        telemetry_file_(parsed.telemetry_jsonl_file),
        tree_json_file_(parsed.search_tree_json_file),
        tree_dot_file_(parsed.search_tree_dot_file),
        log_json_file_(parsed.log_json_file),
        out_(out),
        err_(err) {
    // The telemetry samples embed a metrics snapshot, so --telemetry-jsonl
    // turns collection on even without --metrics-json (which controls only
    // whether the end-of-run snapshot file is written).
    if (!metrics_file_.empty() || !telemetry_file_.empty()) {
      metrics::registry().reset();
      metrics::set_enabled(true);
    }
    if (!trace_file_.empty()) {
      trace::clear();
      trace::set_enabled(true);
    }
    telemetry::reset_pipeline();
    if (!tree_json_file_.empty() || !tree_dot_file_.empty()) {
      telemetry::tree_clear();
      telemetry::set_tree_active(true);
    }
    if (!log_json_file_.empty()) {
      log_json_os_.open(log_json_file_);
      if (log_json_os_.good()) {
        set_json_log_sink(&log_json_os_);
        // Correlation ids are only allocated while telemetry is active;
        // without this a sampler-less --log-json run would log corr-less
        // records that cannot be joined with --trace-json spans.
        telemetry::set_active(true);
        activated_telemetry_ = true;
      } else {
        SPARCS_ELOG << "cannot write JSON logs to " << log_json_file_;
        log_json_file_.clear();
      }
    }
    if (!telemetry_file_.empty() || parsed.progress) {
      std::ostream* sink = &discard_;
      if (!telemetry_file_.empty()) {
        telemetry_os_.open(telemetry_file_);
        if (telemetry_os_.good()) {
          sink = &telemetry_os_;
        } else {
          SPARCS_ELOG << "cannot write telemetry to " << telemetry_file_;
          telemetry_file_.clear();
        }
      }
      // --progress without --telemetry-jsonl still runs the sampler (it
      // drives the progress line); records go to an in-memory discard
      // buffer, bounded by the CLI run's lifetime.
      telemetry::SamplerOptions sampler;
      sampler.interval_sec = parsed.telemetry_interval_ms / 1000.0;
      sampler.sink = sink;
      sampler.progress = parsed.progress ? &err : nullptr;
      sampler.include_metrics = true;
      sampler_started_ = telemetry::start_sampler(sampler);
    }
  }
  ObservabilityGuard(const ObservabilityGuard&) = delete;
  ObservabilityGuard& operator=(const ObservabilityGuard&) = delete;
  ~ObservabilityGuard() { finalize(); }

  /// Stops the collectors and lands every requested artifact atomically.
  /// Idempotent; returns false if any artifact failed to land (including a
  /// telemetry/log JSONL stream that went bad mid-run). The JSONL sinks are
  /// flushed after the sampler stops, so --telemetry-jsonl files end with
  /// the well-formed `final` record even on preemption or degradation.
  bool finalize() {
    if (finalized_) return finalize_ok_;
    finalized_ = true;
    bool ok = true;
    if (sampler_started_) {
      telemetry::stop_sampler();
      if (!telemetry_file_.empty()) {
        telemetry_os_.flush();
        if (telemetry_os_.good()) {
          out_ << "wrote " << telemetry_file_ << "\n";
        } else {
          err_ << "warning: telemetry stream to " << telemetry_file_
               << " failed\n";
          ok = false;
        }
      }
    }
    if (!metrics_file_.empty() || !telemetry_file_.empty()) {
      metrics::set_enabled(false);
    }
    if (!metrics_file_.empty()) {
      ok &= write_artifact(metrics_file_,
                           metrics::registry().snapshot().to_json() + "\n",
                           "metrics", out_, err_);
    }
    if (!trace_file_.empty()) {
      trace::set_enabled(false);
      std::ostringstream os;
      trace::write_chrome_json(os);
      os << "\n";
      ok &= write_artifact(trace_file_, os.str(), "trace", out_, err_);
    }
    if (!tree_json_file_.empty() || !tree_dot_file_.empty()) {
      telemetry::set_tree_active(false);
      if (!tree_json_file_.empty()) {
        std::ostringstream os;
        telemetry::write_tree_json(os);
        ok &= write_artifact(tree_json_file_, os.str(), "search tree", out_,
                             err_);
      }
      if (!tree_dot_file_.empty()) {
        std::ostringstream os;
        telemetry::write_tree_dot(os);
        ok &= write_artifact(tree_dot_file_, os.str(), "search tree", out_,
                             err_);
      }
      telemetry::tree_clear();
    }
    if (!log_json_file_.empty()) {
      set_json_log_sink(nullptr);
      log_json_os_.flush();
      if (!log_json_os_.good()) {
        err_ << "warning: JSON log stream to " << log_json_file_
             << " failed\n";
        ok = false;
      }
    }
    if (activated_telemetry_) telemetry::set_active(false);
    telemetry::reset_pipeline();
    finalize_ok_ = ok;
    lock_.unlock();
    return ok;
  }

 private:
  /// Leaked (never destroyed) so guards in static-teardown paths stay safe.
  static std::mutex& pipeline_mutex() {
    static std::mutex* mu = new std::mutex;
    return *mu;
  }

  std::unique_lock<std::mutex> lock_;
  std::string metrics_file_;
  std::string trace_file_;
  std::string telemetry_file_;
  std::string tree_json_file_;
  std::string tree_dot_file_;
  std::string log_json_file_;
  std::ostream& out_;
  std::ostream& err_;
  std::ofstream telemetry_os_;
  std::ofstream log_json_os_;
  std::ostringstream discard_;
  bool sampler_started_ = false;
  bool activated_telemetry_ = false;
  bool finalized_ = false;
  bool finalize_ok_ = true;
};

// ---------------------------------------------------------------------------
// Solve service: daemon mode (--serve) and the client verbs.
// ---------------------------------------------------------------------------

struct ServeArguments {
  std::string socket_path;
  int workers = 2;
  int queue_depth = 16;
  double memory_mb = 4096.0;
  std::string artifact_dir;
  bool quiet = false;
  std::optional<LogLevel> log_level;
};

ServeArguments parse_serve_args(const std::vector<std::string>& args) {
  ServeArguments parsed;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const std::string& {
      SPARCS_REQUIRE(i + 1 < args.size(), arg + " needs a value");
      return args[++i];
    };
    if (arg == "--serve") {
      parsed.socket_path = value();
    } else if (arg == "--serve-workers") {
      parsed.workers = std::stoi(value());
      SPARCS_REQUIRE(parsed.workers >= 0, "--serve-workers must be >= 0");
    } else if (arg == "--serve-queue-depth") {
      parsed.queue_depth = std::stoi(value());
      SPARCS_REQUIRE(parsed.queue_depth > 0,
                     "--serve-queue-depth must be > 0");
    } else if (arg == "--serve-memory-mb") {
      parsed.memory_mb = std::stod(value());
      SPARCS_REQUIRE(parsed.memory_mb > 0.0, "--serve-memory-mb must be > 0");
    } else if (arg == "--serve-artifact-dir") {
      parsed.artifact_dir = value();
    } else if (arg == "--log-level") {
      parsed.log_level = parse_log_level(value());
    } else if (arg == "--quiet") {
      parsed.quiet = true;
    } else {
      SPARCS_REQUIRE(false, "unknown --serve option " + arg);
    }
  }
  SPARCS_REQUIRE(!parsed.socket_path.empty(), "--serve needs a socket path");
  return parsed;
}

int run_serve(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  const ServeArguments parsed = parse_serve_args(args);
  // The daemon defaults to kInfo: job lifecycle messages are its primary
  // human-facing output (clients get JSON responses, not this stream).
  set_log_level(parsed.log_level.value_or(parsed.quiet ? LogLevel::kError
                                                       : LogLevel::kInfo));

  service::ServerOptions options;
  options.socket_path = parsed.socket_path;
  options.num_workers = parsed.workers;
  options.max_queue_depth = parsed.queue_depth;
  options.max_est_memory_mb = parsed.memory_mb;
  options.artifact_dir = parsed.artifact_dir;
  options.stop = milp::CancelToken::create();

  // SIGINT/SIGTERM trip the server's stop token: the accept loop notices,
  // preempts in-flight jobs through their cancel tokens (running sweeps land
  // checkpoints and reports on the way out) and returns cleanly.
  SignalGuard signals(options.stop);
  out << "serving on " << parsed.socket_path << "\n";
  service::Server server(std::move(options));
  const int code = server.serve();
  if (SignalGuard::preempted()) {
    err << "shut down by " << SignalGuard::signal_name()
        << ": in-flight jobs preempted, artifacts flushed\n";
  }
  return code;
}

bool is_client_verb(const std::string& arg) {
  return arg == "submit" || arg == "status" || arg == "result" ||
         arg == "cancel" || arg == "list" || arg == "shutdown";
}

struct ClientArguments {
  std::string verb;
  std::string socket_path;
  std::string job;
  bool wait = false;
  service::SubmitRequest submit;
  std::string input_file;  ///< .tg file read client-side into graph_text
};

ClientArguments parse_client_args(const std::vector<std::string>& args) {
  ClientArguments parsed;
  parsed.verb = args[0];
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&]() -> const std::string& {
      SPARCS_REQUIRE(i + 1 < args.size(), arg + " needs a value");
      return args[++i];
    };
    if (arg == "--socket") {
      parsed.socket_path = value();
    } else if (arg == "--job") {
      parsed.job = value();
    } else if (arg == "--wait") {
      parsed.wait = true;
    } else if (arg == "--priority") {
      parsed.submit.priority = std::stoi(value());
    } else if (arg == "--detach") {
      parsed.submit.detach = true;
    } else if (arg == "--workload") {
      parsed.submit.workload = value();
    } else if (arg == "--rmax") {
      parsed.submit.rmax = std::stod(value());
    } else if (arg == "--mmax") {
      parsed.submit.mmax = std::stod(value());
    } else if (arg == "--ct") {
      parsed.submit.ct = std::stod(value());
    } else if (arg == "--delta") {
      parsed.submit.delta = std::stod(value());
    } else if (arg == "--alpha") {
      parsed.submit.alpha = std::stoi(value());
    } else if (arg == "--gamma") {
      parsed.submit.gamma = std::stoi(value());
    } else if (arg == "--time-limit") {
      parsed.submit.time_limit_sec = std::stod(value());
    } else if (arg == "--deadline-sec") {
      parsed.submit.deadline_sec = std::stod(value());
    } else if (arg == "--certify") {
      parsed.submit.certify = value();
    } else if (arg == "--no-checkpoint") {
      parsed.submit.checkpoint = false;
    } else if (arg == "--est-memory-mb") {
      parsed.submit.est_memory_mb = std::stod(value());
    } else if (!arg.empty() && arg[0] == '-') {
      SPARCS_REQUIRE(false, "unknown " + parsed.verb + " option " + arg);
    } else {
      SPARCS_REQUIRE(parsed.input_file.empty(), "multiple input files given");
      parsed.input_file = arg;
    }
  }
  SPARCS_REQUIRE(!parsed.socket_path.empty(),
                 parsed.verb + " needs --socket PATH");
  if (parsed.verb == "submit") {
    SPARCS_REQUIRE(parsed.input_file.empty() != parsed.submit.workload.empty(),
                   "submit needs exactly one of <graph.tg> or --workload");
  } else {
    SPARCS_REQUIRE(parsed.input_file.empty() && parsed.submit.workload.empty(),
                   parsed.verb + " takes no graph argument");
  }
  if (parsed.verb == "status" || parsed.verb == "result" ||
      parsed.verb == "cancel") {
    SPARCS_REQUIRE(!parsed.job.empty(), parsed.verb + " needs --job ID");
  }
  return parsed;
}

/// Maps one response line to a process exit code: admission rejections get
/// their own code (8) so scripts can distinguish backpressure from a bad
/// request, and a terminal job result carries the exit code the equivalent
/// one-shot run would have returned.
int client_exit_code(const json::Value& response) {
  if (!response.member_bool("ok")) {
    const json::Value* error = response.find("error");
    const std::string code =
        error != nullptr ? error->member_string("code") : "";
    if (code == "queue_full" || code == "memory_limit" ||
        code == "shutting_down") {
      return 8;
    }
    return 4;
  }
  const json::Value* exit_code = response.find("exit_code");
  if (exit_code != nullptr) return static_cast<int>(exit_code->as_int());
  return 0;
}

int run_client(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  const ClientArguments parsed = parse_client_args(args);
  set_log_level(LogLevel::kWarning);

  service::Request request;
  request.op = parsed.verb;
  request.job = parsed.job;
  request.wait = parsed.wait && parsed.verb == "result";
  if (parsed.verb == "submit") {
    request.submit = parsed.submit;
    if (!parsed.input_file.empty()) {
      std::ifstream file(parsed.input_file);
      SPARCS_REQUIRE(file.good(), "cannot open " + parsed.input_file);
      std::ostringstream text;
      text << file.rdbuf();
      request.submit.graph_text = text.str();
    }
  }

  service::Client client(parsed.socket_path);
  std::string line = client.call(request);
  out << line << "\n";
  json::ParseResult response = json::parse(line);
  if (!response.ok) {
    err << "error: malformed response from the service: " << response.error
        << "\n";
    return 4;
  }
  // submit --wait blocks on the same connection for the job's terminal
  // result and prints it as a second response line, so one command covers
  // the submit-then-collect loop (and keeps the connection open — closing
  // it would cancel the job we are waiting on).
  if (parsed.verb == "submit" && parsed.wait &&
      response.value.member_bool("ok")) {
    service::Request result_request;
    result_request.op = "result";
    result_request.job = response.value.member_string("job");
    result_request.wait = true;
    line = client.call(result_request);
    out << line << "\n";
    response = json::parse(line);
    if (!response.ok) {
      err << "error: malformed response from the service: " << response.error
          << "\n";
      return 4;
    }
  }
  return client_exit_code(response.value);
}

}  // namespace

std::string usage() {
  return R"(usage: sparcs-tp <graph.tg> [options]
       sparcs-tp --workload {ar|dct|ewf} [options]
       sparcs-tp --serve SOCKET [service options]
       sparcs-tp {submit|status|result|cancel|list|shutdown} --socket SOCKET
                 [client options]

options:
  --rmax R --mmax M --ct CT  device parameters (override the file's device)
  --delta D                  latency tolerance in ns (default: 2% of MaxLatency)
  --alpha A / --gamma G      partition relaxations (defaults 0 / 1)
  --time-limit S             per-ILP-solve wall budget (default 10 s)
  --deadline-sec S           wall-clock deadline for the whole run; on expiry
                             the best incumbent so far is returned with a
                             degraded report (exit code 3)
  --certify MODE             exact-rational certificate checking of solver
                             verdicts: off (default), incumbents (every
                             reported design re-checked exactly), full
                             (incumbents plus Farkas/propagation proofs for
                             every infeasible verdict). A failed check
                             triggers one distrust re-solve; a verdict still
                             uncertified afterwards degrades the run
                             conservatively and exits with code 7
  --optimal                  also run the optimal-ILP reference
  --simulate                 simulate the best design (Gantt-style report)
  --dot FILE / --csv FILE    export the design / the iteration trace
  --metrics-json FILE        write a metrics snapshot (counters/gauges/timers)
  --trace-json FILE          write Chrome trace-event JSON (chrome://tracing)
  --report-json FILE         write the partitioner report as JSON
  --telemetry-jsonl FILE     stream live telemetry samples as JSON Lines: one
                             record per sampling interval, stage transition
                             and incumbent improvement (plus start/final)
  --telemetry-interval-ms N  sampling period for --telemetry-jsonl/--progress
                             (default 200)
  --progress                 rewrite a one-line live status report on stderr
                             (stage, N, incumbent, solves, elapsed)
  --search-tree-json FILE    dump the recorded branch & bound search tree as
                             JSON (ring-buffered; schema in DESIGN.md)
  --search-tree-dot FILE     dump the search tree as Graphviz DOT
  --log-json FILE            mirror every log statement as a JSON Lines
                             record carrying the solve correlation id
  --checkpoint FILE          maintain a crash-safe sweep checkpoint (atomic
                             rename, CRC-sealed JSON): rewritten after every
                             completed partition bound and, rate-limited by
                             --checkpoint-interval-sec, after bisection steps
  --checkpoint-interval-sec S
                             minimum seconds between mid-stage checkpoint
                             writes (default 5; stage completions always
                             write immediately)
  --resume                   resume from --checkpoint FILE: finished bounds
                             are not re-solved and an interrupted bisection
                             continues from its saved window. A checkpoint
                             written for different inputs (or a damaged one)
                             is rejected with a warning and the run starts
                             fresh; a missing file also starts fresh
  --log-level L              debug|info|warning|error|off (default: warning)
  --quiet                    shorthand for --log-level error; also suppresses
                             the iteration trace table (the --*-json files are
                             still written)

service (daemon):
  --serve SOCKET             run as a persistent solve service on a unix
                             socket: line-delimited JSON requests (submit,
                             status, result, cancel, list, shutdown), a
                             bounded priority job queue with admission
                             control, and a shared solver worker pool
  --serve-workers N          concurrent solver workers (default 2)
  --serve-queue-depth N      max queued jobs before submits are rejected
                             with queue_full (default 16)
  --serve-memory-mb X        summed per-job memory-estimate ceiling before
                             submits are rejected with memory_limit
                             (default 4096)
  --serve-artifact-dir DIR   land per-job artifacts here (<job>.report.json,
                             <job>.ckpt, <job>.logs.jsonl); omit to keep
                             results in memory only

service (client verbs; all print the raw JSON response to stdout):
  submit {<graph.tg>|--workload W} [--priority N] [--detach] [--wait]
         [solve options: --rmax/--mmax/--ct/--delta/--alpha/--gamma/
          --time-limit/--deadline-sec/--certify/--no-checkpoint/
          --est-memory-mb]
                             queue one job; --wait blocks for its terminal
                             result (a second response line) and exits with
                             the job's one-shot-equivalent exit code; without
                             --detach, closing the connection cancels the job
  status --job ID            one job's live state
  result --job ID [--wait]   a terminal job's full report
  cancel --job ID            cancel a queued or running job
  list                       queue depth, running jobs, admission headroom
  shutdown                   graceful daemon shutdown (in-flight jobs are
                             preempted through their checkpoint path)

signals:
  SIGINT/SIGTERM preempt the run gracefully: the in-flight solve cancels
  cooperatively, the best incumbent so far is reported, and the final
  checkpoint plus all artifact files are flushed before exiting with code 5.
  A daemon (--serve) shuts down the same way: queued jobs cancel, running
  jobs preempt and land their artifacts, then the socket is unlinked.

exit codes:
  0  success (converged result)
  2  no feasible partitioning in the explored range
  3  degraded: the time budget or --deadline-sec expired before the sweep
     finished (any printed result is the best incumbent so far)
  4  bad input: unusable arguments or a malformed graph file
  5  preempted by SIGINT/SIGTERM (state flushed; rerun with --resume)
  6  an artifact file (--report-json, --dot, ...) failed to land on an
     otherwise successful run
  7  uncertified: with --certify, at least one solver verdict failed its
     exact certificate check even after the distrust re-solve (the report
     marks the affected probes; printed results are conservative)
  8  rejected: the solve service refused the submission (queue_full,
     memory_limit or shutting_down; the response's error.code says which)
)";
}

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty()) {
    err << usage();
    return 4;
  }
  // Service modes peel off before the one-shot path: a client verb as the
  // first argument, or --serve anywhere, select them.
  try {
    if (is_client_verb(args[0])) return run_client(args, out, err);
    for (const std::string& arg : args) {
      if (arg == "--serve") return run_serve(args, out, err);
    }
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n" << usage();
    return 4;
  }
  try {
    const Arguments parsed = parse_args(args);

    // --log-level wins over --quiet; set explicitly every run so repeated
    // in-process invocations do not inherit a previous run's level.
    set_log_level(parsed.log_level.value_or(
        parsed.quiet ? LogLevel::kError : LogLevel::kWarning));
    ObservabilityGuard observability(parsed, out, err);

    // One cancellation token is shared by the signal handler, the deadline
    // watchdog and every solve: SIGINT/SIGTERM preempt the run through the
    // same cooperative path a deadline uses.
    milp::CancelToken run_cancel = milp::CancelToken::create();
    SignalGuard signals(run_cancel);
    bool artifacts_ok = true;

    int code = [&]() -> int {
    graph::TaskGraph graph;
    std::optional<arch::Device> device;
    if (!parsed.workload.empty()) {
      graph = builtin_workload(parsed.workload);
    } else {
      std::ifstream file(parsed.input_file);
      SPARCS_REQUIRE(file.good(), "cannot open " + parsed.input_file);
      io::TaskGraphFile parsed_file = io::read_task_graph(file);
      graph = std::move(parsed_file.graph);
      device = parsed_file.device;
    }

    const double rmax = parsed.rmax.value_or(
        device ? device->resource_capacity : 576.0);
    const double mmax =
        parsed.mmax.value_or(device ? device->memory_capacity : 4096.0);
    const double ct =
        parsed.ct.value_or(device ? device->reconfig_time_ns : 100.0);
    const arch::Device dev = arch::custom("cli-device", rmax, mmax, ct);

    out << "graph '" << graph.name() << "': " << graph.num_tasks()
        << " tasks, " << graph.num_edges() << " edges; device Rmax=" << rmax
        << " Mmax=" << mmax << " Ct=" << ct << " ns\n";

    core::PartitionerOptions options;
    options.budget.delta = parsed.delta;
    options.alpha = parsed.alpha;
    options.gamma = parsed.gamma;
    options.budget.solver.time_limit_sec = parsed.time_limit;
    options.budget.solver.cancel = run_cancel;
    if (parsed.deadline_sec > 0.0) {
      options.budget.deadline =
          core::Deadline::after_seconds(parsed.deadline_sec);
    }
    options.budget.solver.certify = parsed.certify;
    options.checkpoint.path = parsed.checkpoint_file;
    options.checkpoint.min_interval_sec = parsed.checkpoint_interval_sec;
    options.checkpoint.resume = parsed.resume;
    const core::PartitionerReport report =
        core::TemporalPartitioner(graph, dev, options).run();

    if (report.resumed) {
      out << "resumed from checkpoint " << parsed.checkpoint_file << "\n";
    }
    if (!report.resume_error.empty()) {
      err << "warning: started fresh, " << report.resume_error << "\n";
    }

    // The human trace table follows the log level (--quiet implies kError),
    // but the observability files above never do: --trace-json and
    // --metrics-json are written even at --log-level error/off.
    if (log_level() < LogLevel::kError) {
      out << io::render_trace(report.trace, ct, false);
    }
    if (!parsed.report_json_file.empty()) {
      artifacts_ok &= write_artifact(parsed.report_json_file,
                                     report.to_json() + "\n", "report", out,
                                     err);
    }
    // Certification summary: how many verdicts were checked exactly and
    // whether any stayed uncertified after the distrust retry.
    const bool uncertified = report.solver_stats.uncertified_verdicts > 0;
    if (parsed.certify != milp::CertifyMode::kOff) {
      out << "certified: " << report.solver_stats.certificates_checked
          << " verdicts checked exactly, "
          << report.solver_stats.certify_retries << " distrust retries, "
          << report.solver_stats.uncertified_verdicts << " uncertified\n";
    }
    // Degradation summary: which partition bounds the sweep probed, cut
    // short or never reached before the budget/deadline expired — or
    // stopped conservatively on an uncertified verdict.
    if (report.degraded) {
      int probed = 0, cut_short = 0, skipped = 0, degraded_stages = 0;
      for (const core::StageAccount& stage : report.stages) {
        switch (stage.status) {
          case core::StageStatus::kProbed:
            ++probed;
            break;
          case core::StageStatus::kCutShort:
            ++cut_short;
            break;
          case core::StageStatus::kSkipped:
            ++skipped;
            break;
          case core::StageStatus::kDegraded:
            ++degraded_stages;
            break;
        }
      }
      out << "degraded: budget/deadline expired or verdicts went uncertified ("
          << probed << " bounds probed, " << cut_short << " cut short, "
          << skipped << " skipped, " << degraded_stages << " uncertified"
          << (report.watchdog_fired ? "; watchdog fired" : "") << ")\n";
    }
    if (!report.feasible) {
      out << "no feasible partitioning in the explored range\n";
      if (uncertified) return 7;
      return report.degraded ? 3 : 2;
    }
    out << (report.degraded ? "best so far: " : "best: ")
        << report.achieved_latency << " ns at N="
        << report.best_num_partitions << " (delta=" << report.delta_used
        << ", " << report.ilp_solves << " ILP solves, " << report.seconds
        << " s)\n"
        << report.best->to_string(graph);

    // A preempted run still reports its incumbent and flushes artifacts,
    // but skips the optional extra solves (--optimal) and the simulation:
    // the user asked the process to wind down, not start new work.
    if (parsed.optimal && !SignalGuard::preempted()) {
      const core::OptimalResult optimal = core::solve_optimal_over_range(
          graph, dev, parsed.alpha, parsed.gamma, options.budget.solver);
      if (optimal.best) {
        out << "optimal reference: " << optimal.latency_ns << " ns ("
            << milp::to_string(optimal.status) << ")\n";
      } else {
        out << "optimal reference: no solution ("
            << milp::to_string(optimal.status) << ")\n";
      }
    }
    if (parsed.simulate && !SignalGuard::preempted()) {
      out << sim::simulate(graph, dev, *report.best).to_string(graph);
    }
    if (!parsed.dot_file.empty()) {
      std::ostringstream dot;
      io::write_dot(dot, graph, *report.best);
      artifacts_ok &=
          write_artifact(parsed.dot_file, dot.str(), "design DOT", out, err);
    }
    if (!parsed.csv_file.empty()) {
      std::ostringstream csv;
      io::write_trace_csv(csv, report.trace);
      artifacts_ok &=
          write_artifact(parsed.csv_file, csv.str(), "trace CSV", out, err);
    }
    if (uncertified) return 7;
    return report.degraded ? 3 : 0;
    }();

    if (SignalGuard::preempted()) {
      // Grab one last telemetry sample while the sampler is still running so
      // the JSONL stream records the preemption, then report and remap the
      // exit code: 5 says "interrupted, state flushed, resume with --resume".
      telemetry::sample_now("preempt");
      err << "preempted by " << SignalGuard::signal_name()
          << ": best incumbent reported, artifacts flushed"
          << (parsed.checkpoint_file.empty()
                  ? ""
                  : ", checkpoint saved (rerun with --resume)")
          << "\n";
      code = 5;
    }
    if (!observability.finalize()) artifacts_ok = false;
    // Artifact failures only take over a clean exit: degraded/infeasible/
    // preempted codes carry more information than "a file didn't land".
    if (!artifacts_ok && code == 0) code = 6;
    return code;
  } catch (const Error& e) {
    err << "error: " << e.what() << "\n" << usage();
    return 4;
  }
}

}  // namespace sparcs::cli
