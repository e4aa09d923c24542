#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/deadline.hpp"
#include "io/tg_format.hpp"
#include "service/protocol.hpp"
#include "support/atomic_file.hpp"
#include "support/error.hpp"
#include "support/logging.hpp"
#include "support/metrics.hpp"
#include "support/report_writer.hpp"
#include "support/telemetry.hpp"
#include "workloads/ar_filter.hpp"
#include "workloads/dct.hpp"
#include "workloads/ewf.hpp"

namespace sparcs::service {
namespace {

milp::CertifyMode certify_mode(const std::string& name) {
  if (name == "incumbents") return milp::CertifyMode::kIncumbents;
  if (name == "full") return milp::CertifyMode::kFull;
  return milp::CertifyMode::kOff;
}

/// Writes `text` fully; false on a broken connection. MSG_NOSIGNAL keeps a
/// peer that vanished between request and response from killing the daemon
/// with SIGPIPE.
bool send_all(int fd, std::string_view text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void append_job_fields(report::ReportWriter& w, const JobInfo& info,
                       bool include_report) {
  w.field("job", info.name);
  w.field("state", to_string(info.state));
  w.field("priority", info.priority);
  w.field("detached", info.detached);
  w.field("source", info.source);
  w.field("est_memory_mb", info.est_memory_mb);
  if (info.correlation != 0) {
    w.field("corr", static_cast<std::int64_t>(info.correlation));
  }
  if (info.cancel_requested) w.field("cancel_requested", true);
  w.field("queued_sec", info.queued_sec);
  w.field("run_sec", info.run_sec);
  if (is_terminal(info.state)) {
    w.field("exit_code", info.exit_code());
    w.field("feasible", info.feasible);
    w.field("degraded", info.degraded);
    w.field("uncertified", info.uncertified);
    if (info.feasible) {
      w.field("latency_ns", info.latency_ns);
      w.field("num_partitions", info.num_partitions);
    }
    w.field("ilp_solves", info.ilp_solves);
    if (!info.error.empty()) w.field("error_message", info.error);
    if (!info.report_path.empty()) w.field("report_path", info.report_path);
    if (include_report && !info.report_json.empty()) {
      w.raw_field("report", info.report_json);
    }
  }
}

}  // namespace

/// Per-connection state. The handler thread owns everything except `fd`,
/// which the shutdown path pokes (::shutdown) under `mu` to unblock recv().
struct Server::Connection {
  int fd = -1;
  std::thread thread;
  std::atomic<bool> finished{false};
  std::mutex mu;  ///< guards fd against close() vs shutdown() races
  /// Jobs this connection must reap if it dies: submit registers, terminal
  /// result/cancel responses and "detach" unregister. Handler-thread only.
  std::vector<std::string> owned_jobs;

  void interrupt() {
    std::lock_guard<std::mutex> lock(mu);
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
  void close_fd() {
    std::lock_guard<std::mutex> lock(mu);
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      queue_([&] {
        JobQueue::Limits limits;
        limits.max_queue_depth = options_.max_queue_depth;
        limits.max_est_memory_mb = options_.max_est_memory_mb;
        return limits;
      }()) {
  SPARCS_REQUIRE(!options_.socket_path.empty(), "socket_path is required");
  SPARCS_REQUIRE(options_.num_workers >= 0, "num_workers must be >= 0");
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::request_shutdown() {
  stopping_.store(true, std::memory_order_release);
}

int Server::serve() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    SPARCS_ELOG << "socket path too long: " << options_.socket_path;
    return 4;
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    SPARCS_ELOG << "cannot create socket: " << std::strerror(errno);
    return 4;
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    if (errno == EADDRINUSE) {
      // A stale socket file from a dead daemon blocks the bind; probe it and
      // reclaim the path only when nobody answers.
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      const bool alive =
          probe >= 0 && ::connect(probe, reinterpret_cast<const sockaddr*>(
                                             &addr),
                                  sizeof(addr)) == 0;
      if (probe >= 0) ::close(probe);
      if (alive) {
        SPARCS_ELOG << "another daemon is serving " << options_.socket_path;
        ::close(listen_fd_);
        listen_fd_ = -1;
        return 4;
      }
      ::unlink(options_.socket_path.c_str());
    }
    if (listen_fd_ >= 0 &&
        ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      SPARCS_ELOG << "cannot bind " << options_.socket_path << ": "
                  << std::strerror(errno);
      ::close(listen_fd_);
      listen_fd_ = -1;
      return 4;
    }
  }
  if (::listen(listen_fd_, 64) != 0) {
    SPARCS_ELOG << "cannot listen on " << options_.socket_path << ": "
                << std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return 4;
  }
  if (!options_.artifact_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.artifact_dir, ec);
    if (ec) {
      SPARCS_ELOG << "cannot create artifact dir " << options_.artifact_dir
                  << ": " << ec.message();
      ::close(listen_fd_);
      listen_fd_ = -1;
      return 4;
    }
  }

  // Correlation ids are only allocated while telemetry is active; without
  // this, concurrent jobs could not be told apart in logs or trace spans.
  const bool telemetry_was_active = telemetry::active();
  telemetry::set_active(true);

  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  listening_.store(true, std::memory_order_release);
  SPARCS_ILOG << "serving on " << options_.socket_path << " ("
              << options_.num_workers << " workers, queue depth "
              << queue_.limits().max_queue_depth << ", memory limit "
              << queue_.limits().max_est_memory_mb << " MB)";

  while (!stopping_.load(std::memory_order_acquire) &&
         !options_.stop.cancelled()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready > 0 && (pfd.revents & POLLIN) != 0) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) {
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.push_back(conn);
        conn->thread = std::thread([this, conn] { connection_loop(conn); });
      }
    }
    reap_connections(/*all=*/false);
  }

  // Graceful shutdown: reject new work, preempt everything in flight
  // through the jobs' cancel tokens (running sweeps land their checkpoints
  // and reports on the way out), then tear the threads down.
  stopping_.store(true, std::memory_order_release);
  const int preempted = queue_.cancel_all();
  if (preempted > 0) {
    SPARCS_ILOG << "shutdown: preempted " << preempted << " jobs";
  }
  queue_.stop();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) conn->interrupt();
  }
  reap_connections(/*all=*/true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  listening_.store(false, std::memory_order_release);
  telemetry::set_active(telemetry_was_active);
  return 0;
}

void Server::reap_connections(bool all) {
  std::vector<std::shared_ptr<Connection>> to_join;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto keep = conns_.begin();
    for (auto& conn : conns_) {
      if (all || conn->finished.load(std::memory_order_acquire)) {
        to_join.push_back(std::move(conn));
      } else {
        *keep++ = std::move(conn);
      }
    }
    conns_.erase(keep, conns_.end());
  }
  for (const auto& conn : to_join) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void Server::worker_loop() {
  while (true) {
    const std::shared_ptr<Job> job = queue_.pop(telemetry::next_correlation_id());
    if (job == nullptr) return;
    run_job(job);
  }
}

void Server::run_job(const std::shared_ptr<Job>& job) {
  // The correlation scope is what joins this job's log lines, trace spans
  // and telemetry entries.
  const telemetry::CorrelationScope scope(job->correlation);
  static metrics::Counter& jobs_started =
      metrics::registry().counter("service.jobs.started");
  jobs_started.add();

  std::ofstream log_os;
  bool log_sink_registered = false;
  if (!options_.artifact_dir.empty()) {
    log_os.open(options_.artifact_dir + "/" + job->name + ".logs.jsonl");
    if (log_os.good()) {
      add_correlation_json_log_sink(job->correlation, &log_os);
      log_sink_registered = true;
    }
  }

  JobResult result;
  try {
    core::PartitionerOptions options = job->spec.options;
    options.budget.solver.cancel = job->cancel;
    if (job->spec.deadline_sec > 0.0) {
      options.budget.deadline =
          core::Deadline::after_seconds(job->spec.deadline_sec);
    }
    if (!options_.artifact_dir.empty() && job->spec.checkpoint) {
      options.checkpoint.path =
          options_.artifact_dir + "/" + job->name + ".ckpt";
    }
    SPARCS_ILOG << job->name << ": solving '" << job->spec.source << "' ("
                << job->spec.graph.num_tasks() << " tasks)";
    const core::PartitionerReport report =
        core::TemporalPartitioner(job->spec.graph, job->spec.device, options)
            .run();
    result.feasible = report.feasible;
    result.degraded = report.degraded;
    result.uncertified = report.solver_stats.uncertified_verdicts > 0;
    result.latency_ns = report.achieved_latency;
    result.num_partitions = report.best_num_partitions;
    result.ilp_solves = report.ilp_solves;
    result.solve_sec = report.seconds;
    result.report_json = report.to_json();
    if (!options_.artifact_dir.empty()) {
      const std::string path =
          options_.artifact_dir + "/" + job->name + ".report.json";
      std::string error;
      if (atomicfile::write_file_atomic(path, result.report_json + "\n",
                                        &error)) {
        result.report_path = path;
      } else {
        SPARCS_WLOG << job->name << ": cannot land report at " << path << ": "
                    << error;
      }
    }
    // A preempted sweep comes back degraded with the token tripped; a sweep
    // that finished before its cancel landed is still a completed job.
    result.state = job->cancel.cancelled() && report.degraded
                       ? JobState::kCancelled
                       : JobState::kDone;
  } catch (const Error& e) {
    result.state = JobState::kFailed;
    result.error = e.what();
    SPARCS_WLOG << job->name << ": failed: " << e.what();
  }

  if (log_sink_registered) {
    remove_correlation_json_log_sink(job->correlation);
    log_os.flush();
  }
  static metrics::Counter& jobs_finished =
      metrics::registry().counter("service.jobs.finished");
  jobs_finished.add();
  queue_.finish(job, std::move(result));
}

void Server::connection_loop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  char chunk[4096];
  bool alive = true;
  while (alive) {
    std::size_t newline;
    while (alive && (newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.empty()) continue;
      const std::string response = dispatch(line, conn);
      alive = send_all(conn->fd, response + "\n");
    }
    if (!alive) break;
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  // A connection that dies with live non-detached jobs reclaims their
  // workers: queued jobs cancel instantly, running ones preempt through the
  // same path a deadline uses. This is what lets the daemon survive a client
  // crash mid-solve without leaking the solve.
  for (const std::string& name : conn->owned_jobs) {
    JobInfo info;
    if (queue_.lookup(name, &info) && !is_terminal(info.state)) {
      SPARCS_ILOG << name << ": submitter disconnected, cancelling";
      queue_.cancel(name);
    }
  }
  conn->close_fd();
  conn->finished.store(true, std::memory_order_release);
}

std::string Server::dispatch(const std::string& line,
                             const std::shared_ptr<Connection>& conn) {
  Request request;
  std::string error;
  if (!parse_request(line, &request, &error)) {
    return error_response(request.op, "parse_error", error);
  }
  try {
    if (request.op == "submit") return handle_submit(request.submit, conn);
    if (request.op == "status") return handle_status(request.job);
    if (request.op == "result") return handle_result(request.job, request.wait);
    if (request.op == "cancel") return handle_cancel(request.job);
    if (request.op == "list") return handle_list();
    if (request.op == "shutdown") return handle_shutdown();
  } catch (const Error& e) {
    // A handler bug must cost one request, not the daemon.
    return error_response(request.op, "internal_error", e.what());
  }
  return error_response(request.op, "bad_request", "unhandled op");
}

std::string Server::handle_submit(const SubmitRequest& submit,
                                  const std::shared_ptr<Connection>& conn) {
  if (stopping_.load(std::memory_order_acquire)) {
    return error_response("submit", "shutting_down",
                          "the service is shutting down");
  }
  auto job = std::make_shared<Job>();
  try {
    JobSpec& spec = job->spec;
    std::optional<arch::Device> file_device;
    if (!submit.workload.empty()) {
      if (submit.workload == "ar") {
        spec.graph = workloads::ar_filter_task_graph();
      } else if (submit.workload == "dct") {
        spec.graph = workloads::dct_task_graph();
      } else if (submit.workload == "ewf") {
        spec.graph = workloads::ewf_task_graph();
      } else {
        return error_response("submit", "bad_request",
                              "unknown workload '" + submit.workload +
                                  "' (expected ar, dct or ewf)");
      }
      spec.source = submit.workload;
    } else {
      io::TaskGraphFile file = io::read_task_graph_string(submit.graph_text);
      spec.graph = std::move(file.graph);
      file_device = file.device;
      spec.source = spec.graph.name().empty() ? "<inline>" : spec.graph.name();
    }
    const double rmax = submit.rmax.value_or(
        file_device ? file_device->resource_capacity : 576.0);
    const double mmax = submit.mmax.value_or(
        file_device ? file_device->memory_capacity : 4096.0);
    const double ct = submit.ct.value_or(
        file_device ? file_device->reconfig_time_ns : 100.0);
    spec.device = arch::custom("service-device", rmax, mmax, ct);
    spec.options.alpha = submit.alpha;
    spec.options.gamma = submit.gamma;
    spec.options.max_partitions = options_.max_partitions;
    spec.options.budget.delta = submit.delta;
    spec.options.budget.solver.time_limit_sec = submit.time_limit_sec;
    spec.options.budget.solver.certify = certify_mode(submit.certify);
    spec.deadline_sec = submit.deadline_sec;
    spec.checkpoint = submit.checkpoint;
  } catch (const Error& e) {
    return error_response("submit", "bad_request", e.what());
  }
  job->priority = submit.priority;
  job->detached = submit.detach;
  job->est_memory_mb =
      submit.est_memory_mb > 0.0
          ? submit.est_memory_mb
          : estimate_job_memory_mb(job->spec.graph, options_.max_partitions);

  const JobQueue::Admit admit = queue_.submit(job);
  report::ReportWriter w;
  w.begin_object();
  w.field("ok", admit.ok);
  w.field("op", "submit");
  if (admit.ok) {
    w.field("job", admit.name);
    w.field("state", "queued");
    w.field("position", admit.position);
    w.field("est_memory_mb", job->est_memory_mb);
    if (!job->detached) conn->owned_jobs.push_back(admit.name);
  } else {
    w.begin_object("error");
    w.field("code", admit.code);
    w.field("message", admit.message);
    w.end_object();
    static metrics::Counter& rejected =
        metrics::registry().counter("service.jobs.rejected");
    rejected.add();
  }
  w.field("queue_depth", queue_.queue_depth());
  w.field("running", queue_.running());
  w.field("est_memory_in_use_mb", queue_.est_memory_in_use_mb());
  w.field("max_queue_depth", queue_.limits().max_queue_depth);
  w.field("max_est_memory_mb", queue_.limits().max_est_memory_mb);
  w.end_object();
  return w.str();
}

std::string Server::handle_status(const std::string& job_name) {
  JobInfo info;
  if (!queue_.lookup(job_name, &info)) {
    return error_response("status", "unknown_job",
                          "no such job '" + job_name + "'");
  }
  report::ReportWriter w;
  w.begin_object();
  w.field("ok", true);
  w.field("op", "status");
  append_job_fields(w, info, /*include_report=*/false);
  w.end_object();
  return w.str();
}

std::string Server::handle_result(const std::string& job_name, bool wait) {
  JobInfo info;
  const bool known =
      wait ? queue_.wait_terminal(job_name, &info) : queue_.lookup(job_name, &info);
  if (!known) {
    return error_response("result", "unknown_job",
                          "no such job '" + job_name + "'");
  }
  if (!is_terminal(info.state)) {
    return error_response("result", "not_finished",
                          "job '" + job_name + "' is " +
                              to_string(info.state) +
                              " (pass \"wait\":true to block)");
  }
  report::ReportWriter w;
  w.begin_object();
  w.field("ok", true);
  w.field("op", "result");
  append_job_fields(w, info, /*include_report=*/true);
  w.end_object();
  return w.str();
}

std::string Server::handle_cancel(const std::string& job_name) {
  const JobQueue::CancelOutcome outcome = queue_.cancel(job_name);
  if (outcome == JobQueue::CancelOutcome::kUnknownJob) {
    return error_response("cancel", "unknown_job",
                          "no such job '" + job_name + "'");
  }
  JobInfo info;
  if (!queue_.lookup(job_name, &info)) {
    // Evicted between cancel and lookup: it was terminal either way.
    return error_response("cancel", "unknown_job",
                          "no such job '" + job_name + "'");
  }
  report::ReportWriter w;
  w.begin_object();
  w.field("ok", true);
  w.field("op", "cancel");
  w.field("job", job_name);
  w.field("state", to_string(info.state));
  w.field("cancel_requested",
          outcome != JobQueue::CancelOutcome::kAlreadyTerminal);
  w.end_object();
  return w.str();
}

std::string Server::handle_list() {
  const std::vector<JobInfo> jobs = queue_.list();
  report::ReportWriter w;
  w.begin_object();
  w.field("ok", true);
  w.field("op", "list");
  w.field("queue_depth", queue_.queue_depth());
  w.field("running", queue_.running());
  w.field("est_memory_in_use_mb", queue_.est_memory_in_use_mb());
  w.field("max_queue_depth", queue_.limits().max_queue_depth);
  w.field("max_est_memory_mb", queue_.limits().max_est_memory_mb);
  w.begin_array("jobs");
  for (const JobInfo& info : jobs) {
    w.begin_object();
    append_job_fields(w, info, /*include_report=*/false);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string Server::handle_shutdown() {
  SPARCS_ILOG << "shutdown requested over the socket";
  report::ReportWriter w;
  w.begin_object();
  w.field("ok", true);
  w.field("op", "shutdown");
  w.field("live_jobs", queue_.queue_depth() + queue_.running());
  w.end_object();
  // Flip the flag after building the response: the accept loop notices
  // within one poll interval and runs the same teardown a signal triggers.
  request_shutdown();
  return w.str();
}

}  // namespace sparcs::service
