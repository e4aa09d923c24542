// Persistent multi-client solve service: a unix-domain-socket daemon that
// amortizes process startup across requests and multiplexes the temporal
// partitioner over a shared worker pool.
//
// Architecture (one Server instance == one daemon):
//
//   accept loop (serve() thread)
//     '- one handler thread per connection, speaking the line protocol of
//        service/protocol.hpp; responses are written in request order
//   worker pool (ServerOptions::num_workers threads)
//     '- each worker pops admitted jobs from the JobQueue and runs
//        core::TemporalPartitioner under a per-job telemetry
//        CorrelationScope, with the job's own CancelToken, a Deadline armed
//        at start, and (when an artifact dir is configured) the job's own
//        checkpoint file, report JSON and correlated JSONL log — every
//        per-process facility of the one-shot CLI, made per-job.
//
// Shutdown: the "shutdown" op or a cancellation request on
// ServerOptions::stop (the CLI wires SIGINT/SIGTERM to it) stops the accept
// loop, cancels every queued and in-flight job — running sweeps unwind
// through the same anytime/checkpoint path a one-shot deadline uses, landing
// their artifacts — then joins workers and connections and unlinks the
// socket. serve() returns 0 on a clean shutdown.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "milp/types.hpp"
#include "service/job_queue.hpp"
#include "service/protocol.hpp"

namespace sparcs::service {

struct ServerOptions {
  /// Path of the unix socket to bind (required). A stale socket file from a
  /// dead daemon is replaced; a live one fails the bind.
  std::string socket_path;
  /// Solver worker threads. 0 is allowed (jobs queue but never run) and is
  /// used by tests to exercise queue semantics deterministically.
  int num_workers = 2;
  /// Admission control (see JobQueue::Limits).
  int max_queue_depth = 16;
  double max_est_memory_mb = 4096.0;
  /// Directory for per-job artifacts (<job>.report.json, <job>.ckpt,
  /// <job>.logs.jsonl); empty keeps results in memory only. Created if
  /// missing.
  std::string artifact_dir;
  /// Upper bound a submit's max_partitions-driven memory estimate uses.
  int max_partitions = 64;
  /// External preemption: the daemon shuts down gracefully when this token
  /// reports cancellation (the CLI trips it from SIGINT/SIGTERM).
  milp::CancelToken stop;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Binds the socket and runs the daemon until shutdown; returns the
  /// process exit code (0 clean shutdown, 4 socket setup failure).
  int serve();

  /// True once the socket is bound and accepting (for tests/embedders that
  /// run serve() on a background thread and must wait for readiness).
  [[nodiscard]] bool listening() const {
    return listening_.load(std::memory_order_acquire);
  }

  /// Requests the same graceful shutdown the "shutdown" op performs.
  void request_shutdown();

  [[nodiscard]] const JobQueue& queue() const { return queue_; }

 private:
  struct Connection;

  void worker_loop();
  void run_job(const std::shared_ptr<Job>& job);
  void connection_loop(const std::shared_ptr<Connection>& conn);
  std::string dispatch(const std::string& line,
                       const std::shared_ptr<Connection>& conn);
  std::string handle_submit(const SubmitRequest& submit,
                            const std::shared_ptr<Connection>& conn);
  std::string handle_status(const std::string& job_name);
  std::string handle_result(const std::string& job_name, bool wait);
  std::string handle_cancel(const std::string& job_name);
  std::string handle_list();
  std::string handle_shutdown();
  void reap_connections(bool all);

  ServerOptions options_;
  JobQueue queue_;
  std::atomic<bool> listening_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  std::vector<std::thread> workers_;
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
};

}  // namespace sparcs::service
