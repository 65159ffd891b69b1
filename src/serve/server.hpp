// The serelin job server: a persistent daemon that accepts concurrent
// retiming jobs over a local unix socket and schedules them onto a bounded
// worker pool (docs/SERVING.md).
//
// Design points, each load-bearing:
//
//  * Jobs are the unit of parallelism. Each worker runs one job's full
//    oracle-gated fallback pipeline (flow/pipeline.hpp); the solver
//    kernels inside stay effectively single-threaded per job because the
//    shared thread pool serializes parallel regions across threads
//    (support/parallel.cpp holds the pool mutex for a whole region), so N
//    workers never oversubscribe the machine.
//  * The queue is bounded. A submission beyond `max_queue` is rejected
//    with a structured backpressure error carrying a retry-after hint —
//    the server never buffers unboundedly and never blocks the accepting
//    connection on a full queue.
//  * Results are cached by pipeline_fingerprint(circuit, options), the
//    same digest checkpoints are stamped with. Only clean (ok, not
//    degraded, not cancelled) results are admitted, so a cache hit is
//    bit-identical to what a fresh run would have produced.
//  * Drain is graceful: on cancellation of run()'s token (SIGTERM via
//    SignalGuard) the server stops accepting, cancels queued jobs,
//    cancels the tokens of running jobs — whose pipelines then finish
//    degraded or leave a checkpoint in the scratch directory — and joins
//    every thread before returning.
//
// The wire protocol (newline-delimited JSON, serve/protocol.hpp) is
// documented op-by-op in docs/SERVING.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/sockets.hpp"
#include "support/annotations.hpp"
#include "support/deadline.hpp"
#include "support/sync.hpp"

namespace serelin {

struct PipelineOptions;  // flow/pipeline.hpp (needed only in server.cpp)

struct ServerConfig {
  std::string socket_path;       ///< unix socket to bind (required)
  int workers = 2;               ///< job worker threads (min 1)
  int max_queue = 16;            ///< queued-job bound; beyond = backpressure
  std::size_t cache_capacity = 64;  ///< result-cache entries; 0 disables
  std::string scratch_dir;       ///< checkpoint dir for in-flight jobs;
                                 ///< empty = drain finishes without snapshots
  double max_deadline_s = 300.0; ///< per-job budget cap (and default)
  bool verify = true;            ///< oracle-gate every job (the default)
};

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,       ///< terminal: result available (possibly degraded)
  kFailed,     ///< terminal: pipeline threw; `error` says why
  kCancelled,  ///< terminal: cancelled before a result was accepted
};

/// "queued" / "running" / "done" / "failed" / "cancelled".
const char* job_state_name(JobState s);

/// Monotonic server-wide counters, snapshotted by the `stats` op.
struct ServerStats {
  std::int64_t connections = 0;
  std::int64_t submitted = 0;    ///< accepted submissions (incl. cache hits)
  std::int64_t completed = 0;    ///< jobs that reached kDone by running
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;
  std::int64_t cache_hits = 0;   ///< submissions answered from the cache
  std::int64_t rejected_backpressure = 0;
  std::int64_t rejected_bad_request = 0;  ///< bad JSON / bad fields / bad op
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket and launches the workers. Throws BindError when the
  /// address is held by a live server (tools map that to exit 79). After
  /// start() returns the socket accepts connections — callers may connect
  /// before run() is entered; requests queue in the listen backlog.
  void start();

  /// Accept loop. Returns after a graceful drain, triggered by `stop`
  /// firing (SIGTERM) or a `shutdown` request. May be called exactly once.
  void run(CancelToken stop);

  const std::string& socket_path() const { return config_.socket_path; }

  ServerStats stats() const;

  /// Test/bench visibility into the job table after (or during) a run.
  struct JobSnapshot {
    std::string id;
    JobState state = JobState::kQueued;
    bool cached = false;    ///< answered from the result cache
    bool degraded = false;  ///< pipeline fell back / stopped early
    std::string error;
  };
  std::vector<JobSnapshot> jobs() const;

  std::int64_t cache_hits() const { return cache_.hits(); }
  std::int64_t cache_misses() const { return cache_.misses(); }

 private:
  /// One submitted job. All mutable fields are guarded by Server::mutex_
  /// (documented rather than annotated: thread-safety capabilities cannot
  /// name another object's mutex). `token` is itself thread-safe.
  struct Job {
    std::string id;
    std::uint64_t seq = 0;   ///< FIFO tiebreak within a priority level
    int priority = 0;        ///< higher runs first
    Netlist circuit;
    std::uint64_t fingerprint = 0;
    // Result-affecting knobs (forwarded into PipelineOptions).
    double period = 0.0;
    double rmin = -1.0;
    double area_weight = 0.0;
    int patterns = 128;
    int frames = 4;
    int warmup = 8;
    std::string start = "minobswin";
    double deadline_s = 0.0;
    bool use_cache = true;
    /// Test-only: hold the job for this long (interruptibly) before the
    /// pipeline runs, so cancel/backpressure/drain tests are deterministic.
    int test_delay_ms = 0;

    JobState state = JobState::kQueued;
    bool cancel_requested = false;  ///< a client asked; drain did not
    CancelToken token;
    std::vector<std::string> events;  ///< journal records, for `stream`

    // Terminal-state payload.
    std::string result_text;  ///< retimed circuit, canonical BENCH
    std::string stage;
    double result_period = 0.0;
    double result_rmin = 0.0;
    std::int64_t objective_gain = 0;
    bool degraded = false;
    bool verified = false;
    bool cached = false;
    std::string error;
    double wall_ms = 0.0;
  };
  using JobPtr = std::shared_ptr<Job>;

  void worker_loop();
  void connection_loop(UnixStream stream);
  void execute(const JobPtr& job);
  void drain();

  /// The result-affecting pipeline configuration of a job — the exact
  /// object fingerprinted at submit and executed in the worker, so the
  /// cache key and the run can never disagree.
  PipelineOptions pipeline_options_for(const Job& job) const;

  /// True for queued/running.
  static bool active(JobState s) {
    return s == JobState::kQueued || s == JobState::kRunning;
  }

  // Request dispatch (each returns the response line to send; `stream`
  // writes intermediate lines itself).
  std::string handle_request(const Request& req, UnixStream& stream);
  std::string op_submit(const Request& req);
  std::string op_status(const Request& req);
  std::string op_result(const Request& req);
  std::string op_cancel(const Request& req);
  std::string op_stream(const Request& req, UnixStream& stream);
  std::string op_stats();

  /// Counts a rejected request and returns its "bad-request" line.
  std::string bad_request(const std::string& why);

  JobPtr find_job(const std::string& id) const;

  const ServerConfig config_;
  const CellLibrary library_;
  UnixListener listener_;
  ResultCache cache_;

  mutable Mutex mutex_;
  CondVar queue_cv_;  ///< signalled when work arrives or stop flips
  CondVar state_cv_;  ///< signalled on any job state/event change
  std::map<std::string, JobPtr> jobs_by_id_ SERELIN_GUARDED_BY(mutex_);
  std::vector<JobPtr> queue_ SERELIN_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ SERELIN_GUARDED_BY(mutex_) = 0;
  bool draining_ SERELIN_GUARDED_BY(mutex_) = false;
  bool shutdown_requested_ SERELIN_GUARDED_BY(mutex_) = false;
  ServerStats stats_ SERELIN_GUARDED_BY(mutex_);
  /// Confined to the lifecycle thread (start()/run()/drain()/dtor), never
  /// touched by the workers themselves — deliberately *not* guarded by
  /// mutex_: drain() joins these threads, and a join under the lock would
  /// deadlock against workers acquiring mutex_ to finish their jobs.
  std::vector<std::thread> workers_;
  std::vector<std::thread> connections_ SERELIN_GUARDED_BY(mutex_);
  bool started_ SERELIN_GUARDED_BY(mutex_) = false;
  bool ran_ SERELIN_GUARDED_BY(mutex_) = false;
};

}  // namespace serelin
