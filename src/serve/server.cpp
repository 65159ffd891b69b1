#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>

#include "flow/journal.hpp"
#include "flow/pipeline.hpp"
#include "netlist/bench_io.hpp"
#include "rgraph/apply.hpp"
#include "rgraph/retiming_graph.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"

namespace serelin {

namespace {

/// Read slice for every blocking socket wait: long enough to be cheap,
/// short enough that threads notice drain promptly.
constexpr int kPollSliceMs = 200;

std::string error_line(const char* code, const std::string& detail) {
  JsonObject o;
  o.set("ok", false).set("error", code).set("detail", detail);
  return o.str();
}

/// One allowed request field and the JSON kind its value must have.
struct FieldSpec {
  const char* name;
  JsonValue::Kind kind;
};

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kString: return "a string";
    case JsonValue::Kind::kNumber: return "a number";
    case JsonValue::Kind::kBool: return "a boolean";
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kNested: return "an object or array";
  }
  return "unknown";
}

/// Fields are checked per-op against a typed allowlist, so a typo'd knob or
/// a value of the wrong JSON kind fails loudly instead of silently running
/// with defaults. Returns the complaint, empty when every field passes.
std::string check_fields(const Request& req,
                         std::initializer_list<FieldSpec> allowed) {
  for (const auto& [key, value] : req.fields) {
    const FieldSpec* spec = nullptr;
    for (const FieldSpec& a : allowed)
      if (key == a.name) spec = &a;
    if (!spec) return "unknown field '" + key + "'";
    if (value.kind != spec->kind)
      return "'" + key + "' must be " + kind_name(spec->kind);
  }
  return {};
}

/// Reads the integer field `key`, when present, into `out`. False, with
/// the complaint in `why`, when it is not an integer in [lo, hi]; the range
/// is checked on the int64 value, before any narrowing.
bool read_int(const Request& req, const char* key, std::int64_t lo,
              std::int64_t hi, int& out, std::string& why) {
  if (!req.fields.contains(key)) return true;
  const std::optional<std::int64_t> v = req.get_int(key);
  if (!v || *v < lo || *v > hi) {
    why = "'" + std::string(key) + "' must be an integer in [" +
          std::to_string(lo) + ", " + std::to_string(hi) + "]";
    return false;
  }
  out = static_cast<int>(*v);
  return true;
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

Server::Server(ServerConfig config)
    : config_(std::move(config)), cache_(config_.cache_capacity) {
  SERELIN_REQUIRE(!config_.socket_path.empty(),
                  "server needs a socket path");
  SERELIN_REQUIRE(config_.workers >= 1, "server needs at least one worker");
  SERELIN_REQUIRE(config_.max_queue >= 1,
                  "server needs a positive queue bound");
  SERELIN_REQUIRE(config_.max_deadline_s > 0,
                  "server needs a positive deadline cap");
}

Server::~Server() {
  // A server that was started but never run still owns worker threads.
  bool need_drain = false;
  {
    MutexLock lock(mutex_);
    need_drain = started_ && !ran_;
  }
  if (need_drain) drain();
}

void Server::start() {
  {
    MutexLock lock(mutex_);
    SERELIN_REQUIRE(!started_, "start() may be called once");
  }
  listener_.bind(config_.socket_path);  // throws BindError -> exit 79
  {
    // Flipped only after a successful bind: a BindError leaves the server
    // never-started, so the destructor does not drain.
    MutexLock lock(mutex_);
    started_ = true;
  }
  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i)
    workers_.emplace_back(&Server::worker_loop, this);
}

void Server::run(CancelToken stop) {
  {
    MutexLock lock(mutex_);
    SERELIN_REQUIRE(started_, "run() needs start() first");
    SERELIN_REQUIRE(!ran_, "run() may be called once");
    ran_ = true;
  }
  for (;;) {
    if (stop.cancelled()) break;
    {
      MutexLock lock(mutex_);
      if (shutdown_requested_) break;
    }
    UnixStream conn = listener_.accept(kPollSliceMs);
    if (!conn.valid()) continue;  // slice elapsed; re-check the stop flags
    MutexLock lock(mutex_);
    ++stats_.connections;
    connections_.emplace_back(&Server::connection_loop, this,
                              std::move(conn));
  }
  drain();
}

void Server::drain() {
  {
    MutexLock lock(mutex_);
    draining_ = true;
    // Queued jobs never started: cancel them outright. Running jobs get
    // their tokens cancelled — the pipeline finishes degraded (identity
    // cannot fail) or leaves a checkpoint in the scratch directory.
    for (const JobPtr& job : queue_) {
      job->state = JobState::kCancelled;
      job->error = "server draining";
      ++stats_.cancelled;
    }
    queue_.clear();
    for (const auto& [id, job] : jobs_by_id_)
      if (job->state == JobState::kRunning) job->token.cancel();
    queue_cv_.notify_all();
    state_cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  std::vector<std::thread> conns;
  {
    MutexLock lock(mutex_);
    conns.swap(connections_);
  }
  for (std::thread& t : conns) t.join();
  listener_.close();
}

ServerStats Server::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

std::vector<Server::JobSnapshot> Server::jobs() const {
  MutexLock lock(mutex_);
  std::vector<JobSnapshot> out;
  out.reserve(jobs_by_id_.size());
  for (const auto& [id, job] : jobs_by_id_)
    out.push_back({id, job->state, job->cached, job->degraded, job->error});
  return out;
}

Server::JobPtr Server::find_job(const std::string& id) const {
  MutexLock lock(mutex_);
  const auto it = jobs_by_id_.find(id);
  return it == jobs_by_id_.end() ? nullptr : it->second;
}

// ---------------------------------------------------------------------------
// Connection handling

void Server::connection_loop(UnixStream stream) {
  for (;;) {
    std::string line;
    const UnixStream::ReadStatus st = stream.read_line(line, kPollSliceMs);
    if (st == UnixStream::ReadStatus::kTimeout) {
      MutexLock lock(mutex_);
      if (draining_) return;
      continue;
    }
    if (st != UnixStream::ReadStatus::kLine) return;  // EOF or dead stream
    if (line.empty()) continue;
    const ParseOutcome parsed = parse_request(line);
    std::string response;
    if (!parsed.ok) {
      {
        MutexLock lock(mutex_);
        ++stats_.rejected_bad_request;
      }
      // One malformed line answers with a structured error and the
      // connection lives on: a client bug must not sever a session.
      response = error_line("bad-json", parsed.error);
    } else {
      response = handle_request(parsed.request, stream);
    }
    if (!stream.write_line(response)) return;
  }
}

std::string Server::handle_request(const Request& req, UnixStream& stream) {
  if (req.op == "submit") return op_submit(req);
  if (req.op == "status") return op_status(req);
  if (req.op == "result") return op_result(req);
  if (req.op == "cancel") return op_cancel(req);
  if (req.op == "stream") return op_stream(req, stream);
  if (req.op != "stats" && req.op != "ping" && req.op != "shutdown")
    return bad_request("unknown op '" + req.op + "'");
  // The field-less ops.
  if (std::string why = check_fields(req, {}); !why.empty())
    return bad_request(why);
  if (req.op == "stats") return op_stats();
  if (req.op == "shutdown") {
    MutexLock lock(mutex_);
    shutdown_requested_ = true;
    queue_cv_.notify_all();
  }
  JsonObject o;
  o.set("ok", true).set("event", req.op == "ping" ? "pong" : "shutting-down");
  return o.str();
}

std::string Server::bad_request(const std::string& why) {
  MutexLock lock(mutex_);
  ++stats_.rejected_bad_request;
  return error_line("bad-request", why);
}

std::string Server::op_submit(const Request& req) {
  using Kind = JsonValue::Kind;
  if (std::string why = check_fields(
          req, {{"circuit", Kind::kString}, {"period", Kind::kNumber},
                {"rmin", Kind::kNumber}, {"area_weight", Kind::kNumber},
                {"patterns", Kind::kNumber}, {"frames", Kind::kNumber},
                {"warmup", Kind::kNumber}, {"deadline_s", Kind::kNumber},
                {"priority", Kind::kNumber}, {"cache", Kind::kBool},
                {"start", Kind::kString}, {"test_delay_ms", Kind::kNumber}});
      !why.empty())
    return bad_request(why);
  const auto circuit_text = req.get_string("circuit");
  if (!circuit_text) return bad_request("submit needs a string 'circuit'");

  auto job = std::make_shared<Job>();
  job->period = req.get_number("period").value_or(0.0);
  job->rmin = req.get_number("rmin").value_or(-1.0);
  job->area_weight = req.get_number("area_weight").value_or(0.0);
  job->deadline_s = req.get_number("deadline_s").value_or(0.0);
  job->use_cache = req.get_bool("cache").value_or(true);
  job->start = req.get_string("start").value_or("minobswin");

  // The CLI's bounds for patterns and frames, the sidecar parser's for
  // warmup.
  std::string why;
  if (!read_int(req, "patterns", 64, 1 << 20, job->patterns, why) ||
      !read_int(req, "frames", 1, 1 << 16, job->frames, why) ||
      !read_int(req, "warmup", 0, 100000, job->warmup, why) ||
      !read_int(req, "priority", -1000000, 1000000, job->priority, why) ||
      !read_int(req, "test_delay_ms", 0, 600000, job->test_delay_ms, why))
    return bad_request(why);
  if (job->patterns % 64 != 0)
    return bad_request("'patterns' must be a multiple of 64");
  if (job->start != "minobswin" && job->start != "minobs")
    return bad_request("'start' must be minobswin or minobs");
  // Per-job budget, capped by the server's configured maximum.
  if (job->deadline_s <= 0 || job->deadline_s > config_.max_deadline_s)
    job->deadline_s = config_.max_deadline_s;

  try {
    std::istringstream in(*circuit_text);
    job->circuit = read_bench(in);
  } catch (const Error& e) {
    MutexLock lock(mutex_);
    ++stats_.rejected_bad_request;
    return error_line("bad-circuit", e.what());
  }
  job->fingerprint =
      pipeline_fingerprint(job->circuit, pipeline_options_for(*job));

  // The cache is consulted before the queue bound: a hit costs no queue
  // slot, so duplicates of completed work always succeed even under
  // saturation.
  std::optional<CachedResult> hit;
  if (job->use_cache) hit = cache_.lookup(job->fingerprint);

  MutexLock lock(mutex_);
  if (draining_ || shutdown_requested_)
    return error_line("draining", "server is shutting down");
  if (hit) {
    SERELIN_COUNT(kServeCacheHits, 1);
    job->seq = next_seq_++;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "j-%06llu",
                  static_cast<unsigned long long>(job->seq + 1));
    job->id = buf;
    job->state = JobState::kDone;
    job->cached = true;
    job->result_text = hit->circuit_text;
    job->stage = hit->stage;
    job->result_period = hit->period;
    job->result_rmin = hit->rmin;
    job->objective_gain = hit->objective_gain;
    job->verified = hit->verified;
    jobs_by_id_[job->id] = job;
    ++stats_.submitted;
    ++stats_.cache_hits;
    state_cv_.notify_all();
    JsonObject o;
    o.set("ok", true).set("job", job->id).set("cached", true)
        .set("queue_depth", static_cast<std::int64_t>(queue_.size()));
    return o.str();
  }
  if (queue_.size() >= static_cast<std::size_t>(config_.max_queue)) {
    ++stats_.rejected_backpressure;
    // Retry hint: how long until a queue slot plausibly frees up if every
    // queued job burns its full budget across the workers. A hint, not a
    // promise — clients own their retry policy.
    const double retry =
        std::min(config_.max_deadline_s,
                 std::max(0.05, static_cast<double>(queue_.size()) *
                                    config_.max_deadline_s /
                                    (static_cast<double>(config_.workers) *
                                     static_cast<double>(config_.max_queue))));
    JsonObject o;
    o.set("ok", false).set("error", "backpressure")
        .set("detail", "job queue is full")
        .set("retry_after_s", retry)
        .set("queue_depth", static_cast<std::int64_t>(queue_.size()));
    return o.str();
  }
  SERELIN_COUNT(kServeCacheMisses, 1);
  job->seq = next_seq_++;
  char buf[16];
  std::snprintf(buf, sizeof(buf), "j-%06llu",
                static_cast<unsigned long long>(job->seq + 1));
  job->id = buf;
  jobs_by_id_[job->id] = job;
  queue_.push_back(job);
  ++stats_.submitted;
  queue_cv_.notify_one();
  JsonObject o;
  o.set("ok", true).set("job", job->id).set("cached", false)
      .set("queue_depth", static_cast<std::int64_t>(queue_.size()));
  return o.str();
}

std::string Server::op_status(const Request& req) {
  if (std::string why = check_fields(req, {{"job", JsonValue::Kind::kString}});
      !why.empty())
    return bad_request(why);
  const auto id = req.get_string("job");
  if (!id) return bad_request("status needs a string 'job'");
  const JobPtr job = find_job(*id);
  if (!job) return error_line("unknown-job", "no job '" + *id + "'");
  MutexLock lock(mutex_);
  JsonObject o;
  o.set("ok", true).set("job", job->id)
      .set("state", job_state_name(job->state))
      .set("cached", job->cached)
      .set("degraded", job->degraded)
      .set("queue_depth", static_cast<std::int64_t>(queue_.size()));
  if (!job->error.empty()) o.set("detail", job->error);
  return o.str();
}

std::string Server::op_result(const Request& req) {
  using Kind = JsonValue::Kind;
  if (std::string why = check_fields(req, {{"job", Kind::kString},
                                           {"wait", Kind::kBool},
                                           {"timeout_s", Kind::kNumber}});
      !why.empty())
    return bad_request(why);
  const auto id = req.get_string("job");
  if (!id) return bad_request("result needs a string 'job'");
  const double timeout_s =
      req.get_number("timeout_s").value_or(2.0 * config_.max_deadline_s);
  if (timeout_s < 0) return bad_request("'timeout_s' must be non-negative");
  const JobPtr job = find_job(*id);
  if (!job) return error_line("unknown-job", "no job '" + *id + "'");
  const bool wait = req.get_bool("wait").value_or(false);
  const Deadline patience = Deadline::after(timeout_s);
  {
    MutexLock lock(mutex_);
    while (active(job->state)) {
      if (!wait)
        return error_line("not-ready",
                          "job is " + std::string(job_state_name(job->state)));
      if (patience.expired())
        return error_line("timeout", "job still running after wait");
      state_cv_.wait_for(mutex_, std::chrono::milliseconds(kPollSliceMs));
    }
    JsonObject o;
    o.set("ok", true).set("job", job->id)
        .set("state", job_state_name(job->state))
        .set("cached", job->cached)
        .set("degraded", job->degraded)
        .set("verified", job->verified)
        .set("wall_ms", job->wall_ms);
    if (job->state == JobState::kDone) {
      o.set("stage", job->stage)
          .set("period", job->result_period)
          .set("rmin", job->result_rmin)
          .set("objective_gain", job->objective_gain)
          .set("circuit", job->result_text);
    }
    if (!job->error.empty()) o.set("detail", job->error);
    return o.str();
  }
}

std::string Server::op_cancel(const Request& req) {
  if (std::string why = check_fields(req, {{"job", JsonValue::Kind::kString}});
      !why.empty())
    return bad_request(why);
  const auto id = req.get_string("job");
  if (!id) return bad_request("cancel needs a string 'job'");
  const JobPtr job = find_job(*id);
  if (!job) return error_line("unknown-job", "no job '" + *id + "'");
  MutexLock lock(mutex_);
  if (job->state == JobState::kQueued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), job),
                 queue_.end());
    job->state = JobState::kCancelled;
    job->cancel_requested = true;
    job->error = "cancelled by client";
    ++stats_.cancelled;
    state_cv_.notify_all();
  } else if (job->state == JobState::kRunning) {
    job->cancel_requested = true;
    job->token.cancel();
    state_cv_.notify_all();
  }
  JsonObject o;
  o.set("ok", true).set("job", job->id)
      .set("state", job_state_name(job->state));
  return o.str();
}

std::string Server::op_stream(const Request& req, UnixStream& stream) {
  if (std::string why = check_fields(req, {{"job", JsonValue::Kind::kString}});
      !why.empty())
    return bad_request(why);
  const auto id = req.get_string("job");
  if (!id) return bad_request("stream needs a string 'job'");
  const JobPtr job = find_job(*id);
  if (!job) return error_line("unknown-job", "no job '" + *id + "'");
  std::size_t sent = 0;
  for (;;) {
    std::vector<std::string> batch;
    JobState state;
    {
      MutexLock lock(mutex_);
      // Drain needs no special case here: it drives every job to a
      // terminal state, which ends the follow naturally.
      while (sent == job->events.size() && active(job->state))
        state_cv_.wait_for(mutex_, std::chrono::milliseconds(kPollSliceMs));
      batch.assign(job->events.begin() + static_cast<std::ptrdiff_t>(sent),
                   job->events.end());
      state = job->state;
    }
    sent += batch.size();
    for (const std::string& record : batch)
      if (!stream.write_line(record)) return error_line("gone", "peer left");
    if (!active(state) && batch.empty()) {
      JsonObject o;
      o.set("ok", true).set("event", "end")
          .set("state", job_state_name(state));
      return o.str();
    }
  }
}

std::string Server::op_stats() {
  MutexLock lock(mutex_);
  JsonObject o;
  o.set("ok", true)
      .set("connections", stats_.connections)
      .set("submitted", stats_.submitted)
      .set("completed", stats_.completed)
      .set("failed", stats_.failed)
      .set("cancelled", stats_.cancelled)
      .set("cache_hits", stats_.cache_hits)
      .set("cache_misses", cache_.misses())
      .set("rejected_backpressure", stats_.rejected_backpressure)
      .set("rejected_bad_request", stats_.rejected_bad_request)
      .set("queue_depth", static_cast<std::int64_t>(queue_.size()))
      .set("workers", config_.workers)
      .set("max_queue", config_.max_queue);
  return o.str();
}

// ---------------------------------------------------------------------------
// Job execution

PipelineOptions Server::pipeline_options_for(const Job& job) const {
  PipelineOptions po;
  po.sim.patterns = job.patterns;
  po.sim.frames = job.frames;
  po.sim.warmup = job.warmup;
  po.period = job.period;
  po.rmin = job.rmin;
  po.area_weight = job.area_weight;
  po.verify = config_.verify;
  po.start = job.start == "minobs" ? PipelineStage::kMinObs
                                   : PipelineStage::kMinObsWin;
  return po;
}

void Server::worker_loop() {
  for (;;) {
    JobPtr job;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !draining_) queue_cv_.wait(mutex_);
      if (queue_.empty()) return;  // draining with nothing left to run
      // Highest priority first; FIFO (submission order) within a level.
      auto best = queue_.begin();
      for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it)
        if ((*it)->priority > (*best)->priority ||
            ((*it)->priority == (*best)->priority &&
             (*it)->seq < (*best)->seq))
          best = it;
      job = *best;
      queue_.erase(best);
      job->state = JobState::kRunning;
      state_cv_.notify_all();
    }
    execute(job);
  }
}

void Server::execute(const JobPtr& job) {
  Stopwatch watch;
  SERELIN_COUNT(kServeJobs, 1);

  // Test-only hold: park the job (interruptibly) before solving so tests
  // can pin a worker deterministically.
  if (job->test_delay_ms > 0) {
    const Deadline hold = Deadline::after(job->test_delay_ms / 1000.0);
    MutexLock lock(mutex_);
    while (!hold.expired() && !job->token.cancelled())
      state_cv_.wait_for(mutex_, std::chrono::milliseconds(50));
  }
  {
    // A client cancel that lands before (or during) the hold skips the
    // pipeline entirely; a drain cancel falls through and produces the
    // degraded identity result instead.
    MutexLock lock(mutex_);
    if (job->cancel_requested) {
      job->state = JobState::kCancelled;
      job->error = "cancelled by client";
      job->wall_ms = watch.seconds() * 1000.0;
      ++stats_.cancelled;
      state_cv_.notify_all();
      return;
    }
  }

  PipelineOptions po = pipeline_options_for(*job);
  po.deadline = Deadline::after(job->deadline_s).attach(job->token);
  if (!config_.scratch_dir.empty())
    po.checkpoint_path = config_.scratch_dir + "/" + job->id + ".ckpt";
  po.journal_observer = [this, job](const std::string& record) {
    MutexLock lock(mutex_);
    job->events.push_back(record);
    state_cv_.notify_all();
  };

  bool admit = false;
  CachedResult entry;
  try {
    RetimingGraph g(job->circuit, library_);
    const PipelineResult res = run_pipeline(job->circuit, library_, po);
    std::string text;
    if (res.ok) {
      const Netlist out =
          apply_retiming(g, res.solver.r, job->circuit.name() + "_rt");
      std::ostringstream bench;
      write_bench(bench, out);
      text = bench.str();
    }
    MutexLock lock(mutex_);
    job->wall_ms = watch.seconds() * 1000.0;
    if (!res.ok) {
      job->state = JobState::kFailed;
      job->error = "no pipeline stage produced an accepted result";
      ++stats_.failed;
    } else {
      job->result_text = std::move(text);
      job->stage = pipeline_stage_name(res.stage);
      job->result_period = res.timing.period;
      job->result_rmin = res.rmin;
      job->objective_gain = res.solver.objective_gain;
      job->degraded = res.degraded;
      job->verified = config_.verify;  // pipeline gates acceptance on it
      if (job->cancel_requested) {
        job->state = JobState::kCancelled;
        job->error = "cancelled by client";
        ++stats_.cancelled;
      } else {
        job->state = JobState::kDone;
        ++stats_.completed;
        // Only clean results are cacheable: a degraded result encodes
        // where a budget ran out, which the next identical submission
        // must not inherit.
        if (job->use_cache && !job->degraded) {
          admit = true;
          entry = CachedResult{job->result_text, job->stage,
                               job->result_period, job->result_rmin,
                               job->objective_gain, job->verified};
        }
      }
    }
    state_cv_.notify_all();
  } catch (const std::exception& e) {
    MutexLock lock(mutex_);
    job->wall_ms = watch.seconds() * 1000.0;
    if (job->cancel_requested) {
      job->state = JobState::kCancelled;
      job->error = "cancelled by client";
      ++stats_.cancelled;
    } else {
      job->state = JobState::kFailed;
      job->error = e.what();
      ++stats_.failed;
    }
    state_cv_.notify_all();
  }
  if (admit) cache_.insert(job->fingerprint, std::move(entry));
}

}  // namespace serelin
