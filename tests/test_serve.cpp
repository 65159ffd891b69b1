// Tests for the job server (src/serve): wire protocol hardening, cache
// determinism, backpressure, cancellation, graceful drain and event
// streaming. Every server here runs in-process on its own unix socket;
// nothing depends on wall-clock ordering — blocking steps are made
// deterministic with the submit-time `test_delay_ms` hold.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/journal.hpp"
#include "helpers.hpp"
#include "netlist/bench_io.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/sockets.hpp"
#include "support/deadline.hpp"

namespace serelin {
namespace {

std::string tiny_bench() {
  std::ostringstream out;
  write_bench(out, test::tiny_reconvergent());
  return out.str();
}

/// An in-process server on a fresh socket, drained on destruction.
struct TestServer {
  ServerConfig cfg;
  std::unique_ptr<Server> server;
  std::thread thread;
  CancelToken stop;

  explicit TestServer(int workers = 2, int max_queue = 8,
                      std::size_t cache = 16) {
    static std::atomic<int> counter{0};
    cfg.socket_path = "/tmp/serelin_t" +
                      std::to_string(static_cast<long long>(::getpid())) +
                      "_" + std::to_string(counter++) + ".sock";
    cfg.workers = workers;
    cfg.max_queue = max_queue;
    cfg.cache_capacity = cache;
    cfg.max_deadline_s = 30.0;
    server = std::make_unique<Server>(cfg);
    server->start();
    thread = std::thread([this] { server->run(stop); });
  }

  ~TestServer() { drain(); }

  void drain() {
    if (thread.joinable()) {
      stop.cancel();
      thread.join();
    }
  }

  UnixStream connect() { return UnixStream::connect(cfg.socket_path); }
};

/// One request/response exchange with a bounded wait.
Request rpc(UnixStream& stream, const std::string& line) {
  EXPECT_TRUE(stream.write_line(line));
  const Deadline patience = Deadline::after(30.0);
  std::string response;
  for (;;) {
    const UnixStream::ReadStatus st = stream.read_line(response, 200);
    if (st == UnixStream::ReadStatus::kLine) break;
    if (st != UnixStream::ReadStatus::kTimeout || patience.expired()) {
      ADD_FAILURE() << "no response from server";
      return {};
    }
  }
  const ParseOutcome parsed = parse_object(response);
  EXPECT_TRUE(parsed.ok) << parsed.error << " in: " << response;
  return parsed.request;
}

std::string submit_line(const std::string& circuit, int test_delay_ms = 0,
                        int priority = 0, bool use_cache = true,
                        int patterns = 64) {
  JsonObject o;
  o.set("op", "submit")
      .set("circuit", circuit)
      .set("patterns", patterns)
      .set("frames", 2)
      .set("warmup", 2)
      .set("priority", priority);
  if (test_delay_ms > 0) o.set("test_delay_ms", test_delay_ms);
  if (!use_cache) o.set("cache", false);
  return o.str();
}

/// Submits and expects acceptance; returns the job id.
std::string submit_ok(UnixStream& s, const std::string& line,
                      bool* cached = nullptr) {
  const Request r = rpc(s, line);
  EXPECT_EQ(r.get_bool("ok"), true);
  if (cached) *cached = r.get_bool("cached").value_or(false);
  return r.get_string("job").value_or("");
}

/// Blocks (server-side) until the job is terminal; returns the response.
Request await_result(UnixStream& s, const std::string& id) {
  JsonObject o;
  o.set("op", "result").set("job", id).set("wait", true);
  return rpc(s, o.str());
}

std::string job_state(UnixStream& s, const std::string& id) {
  JsonObject o;
  o.set("op", "status").set("job", id);
  return rpc(s, o.str()).get_string("state").value_or("");
}

// ---------------------------------------------------------------------------
// Protocol parser

TEST(ServeProtocol, ParsesFlatRequests) {
  const ParseOutcome p = parse_request(
      R"({"op":"submit","circuit":"INPUT(a)\n","priority":3,)"
      R"("cache":false,"deadline_s":1.5})");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.op, "submit");
  EXPECT_EQ(p.request.get_string("circuit"), "INPUT(a)\n");
  EXPECT_EQ(p.request.get_int("priority"), 3);
  EXPECT_EQ(p.request.get_bool("cache"), false);
  EXPECT_EQ(p.request.get_number("deadline_s"), 1.5);
  EXPECT_FALSE(p.request.get_string("missing").has_value());
  EXPECT_FALSE(p.request.get_int("deadline_s").has_value());  // not integral
}

TEST(ServeProtocol, RejectsDefects) {
  EXPECT_FALSE(parse_request("").ok);
  EXPECT_FALSE(parse_request("not json").ok);
  EXPECT_FALSE(parse_request(R"({"op":"x")").ok);            // unterminated
  EXPECT_FALSE(parse_request(R"({"op":"x"} junk)").ok);      // trailing
  EXPECT_FALSE(parse_request(R"({"a":1})").ok);              // no op
  EXPECT_FALSE(parse_request(R"({"op":1})").ok);             // op not string
  EXPECT_FALSE(parse_request(R"({"op":"x","a":1,"a":2})").ok);  // dup key
  EXPECT_FALSE(parse_request(R"({"op":"x","v":nope})").ok);
  // parse_object accepts op-less objects (responses).
  EXPECT_TRUE(parse_object(R"({"ok":true,"job":"j-000001"})").ok);
}

TEST(ServeProtocol, UnescapesStringsAndSkipsNested) {
  const ParseOutcome p = parse_request(
      "{\"op\":\"x\",\"s\":\"a\\n\\t\\\"b\\\\\\u0041\\u00e9\","
      "\"nest\":{\"deep\":[1,2,{\"x\":\"}\"}]}}");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.get_string("s"), "a\n\t\"b\\A\xc3\xa9");
  const auto it = p.request.fields.find("nest");
  ASSERT_NE(it, p.request.fields.end());
  EXPECT_EQ(it->second.kind, JsonValue::Kind::kNested);
  EXPECT_FALSE(p.request.get_string("nest").has_value());
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ServeCache, LruEvictionAndCounters) {
  ResultCache cache(2);
  EXPECT_FALSE(cache.lookup(1).has_value());
  cache.insert(1, {"one", "minobswin", 10.0, 1.0, 5, true});
  cache.insert(2, {"two", "minobswin", 10.0, 1.0, 5, true});
  EXPECT_EQ(cache.lookup(1)->circuit_text, "one");  // refreshes 1
  cache.insert(3, {"three", "minobswin", 10.0, 1.0, 5, true});  // evicts 2
  EXPECT_FALSE(cache.lookup(2).has_value());
  EXPECT_EQ(cache.lookup(1)->circuit_text, "one");
  EXPECT_EQ(cache.lookup(3)->circuit_text, "three");
  EXPECT_EQ(cache.hits(), 3);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ServeCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.insert(1, {"one", "identity", 1.0, 0.0, 0, true});
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
}

// ---------------------------------------------------------------------------
// Protocol over a live server

TEST(ServeServer, MalformedRequestKeepsConnectionAlive) {
  TestServer ts;
  UnixStream s = ts.connect();
  Request r = rpc(s, "this is not json");
  EXPECT_EQ(r.get_bool("ok"), false);
  EXPECT_EQ(r.get_string("error"), "bad-json");
  r = rpc(s, R"({"no_op_field":1})");
  EXPECT_EQ(r.get_string("error"), "bad-json");
  r = rpc(s, R"({"op":"frobnicate"})");
  EXPECT_EQ(r.get_string("error"), "bad-request");
  r = rpc(s, R"json({"op":"submit","circuit":"INPUT(a)","bogus_knob":1})json");
  EXPECT_EQ(r.get_string("error"), "bad-request");
  r = rpc(s, R"({"op":"submit"})");  // missing circuit
  EXPECT_EQ(r.get_string("error"), "bad-request");
  r = rpc(s, R"({"op":"status","job":"j-999999"})");
  EXPECT_EQ(r.get_string("error"), "unknown-job");
  // After five rejected requests the same connection still works.
  r = rpc(s, R"({"op":"ping"})");
  EXPECT_EQ(r.get_bool("ok"), true);
  EXPECT_EQ(r.get_string("event"), "pong");
  const ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.rejected_bad_request, 5);
}

TEST(ServeServer, SubmitRejectsOutOfRangeAndMistypedFields) {
  // Integers are range-checked as int64 before they are narrowed, and a
  // field of the wrong JSON kind is rejected, not read as its default:
  // unchecked, 4294967360 patterns wrap to 64, 4294967297 frames to 1,
  // "100" patterns keep the default 128 and "cache":"off" keeps the cache.
  TestServer ts;
  UnixStream s = ts.connect();
  const auto submit = [&](const std::string& key, const auto& value) {
    JsonObject o;
    o.set("op", "submit").set("circuit", tiny_bench()).set(key, value);
    return rpc(s, o.str());
  };
  const std::vector<Request> rejected = {
      submit("patterns", std::int64_t{4294967360}),
      submit("frames", std::int64_t{4294967297}),
      submit("patterns", "100"),
      submit("cache", "off"),
      submit("patterns", 64.5),
      submit("patterns", 96),
      submit("warmup", 100001),
      submit("priority", std::int64_t{1} << 40),
      submit("test_delay_ms", -1),
      submit("period", "1.5"),
      submit("start", false),
  };
  for (std::size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_EQ(rejected[i].get_bool("ok"), false) << "case " << i;
    EXPECT_EQ(rejected[i].get_string("error"), "bad-request") << "case " << i;
  }
  // None of them created a job, so the 64-pattern submit the first would
  // have wrapped to is the first job and misses the cache.
  const Request ok = submit("patterns", 64);
  EXPECT_EQ(ok.get_bool("ok"), true);
  EXPECT_EQ(ok.get_bool("cached"), false);
  const ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.rejected_bad_request,
            static_cast<std::int64_t>(rejected.size()));
  EXPECT_EQ(stats.submitted, 1);
}

TEST(ServeServer, EveryOpRejectsUnknownAndMistypedFields) {
  // Unchecked, "wait":"yes" read as false (not-ready), "timeout_s":"5" as
  // the default, a negative timeout as an expired wait, and a stray field
  // was ignored — cancel and shutdown even acted on such a request.
  TestServer ts(/*workers=*/1);
  UnixStream s = ts.connect();
  const std::string id =
      submit_ok(s, submit_line(tiny_bench(), /*test_delay_ms=*/600000));
  ASSERT_FALSE(id.empty());
  const auto with_job = [&](const char* op) {
    JsonObject o;
    o.set("op", op).set("job", id);
    return o;
  };
  const std::vector<std::string> rejected = {
      with_job("result").set("wait", "yes").str(),
      with_job("result").set("timeout_s", "5").str(),
      with_job("result").set("wait", true).set("timeout_s", -1.0).str(),
      with_job("status").set("bogus", 1).str(),
      with_job("cancel").set("bogus", 1).str(),
      with_job("stream").set("bogus", 1).str(),
      R"({"op":"stats","bogus":1})",
      R"({"op":"ping","bogus":1})",
      R"({"op":"shutdown","bogus":1})",
  };
  for (const std::string& line : rejected) {
    const Request r = rpc(s, line);
    EXPECT_EQ(r.get_bool("ok"), false) << line;
    EXPECT_EQ(r.get_string("error"), "bad-request") << line;
  }
  EXPECT_EQ(ts.server->stats().rejected_bad_request,
            static_cast<std::int64_t>(rejected.size()));
  // None of them acted: the job is still live and the server still serves.
  const std::string state = job_state(s, id);
  EXPECT_TRUE(state == "queued" || state == "running") << state;
  EXPECT_EQ(rpc(s, with_job("result").str()).get_string("error"),
            "not-ready");
  EXPECT_EQ(rpc(s, with_job("cancel").str()).get_bool("ok"), true);
  EXPECT_EQ(await_result(s, id).get_string("state"), "cancelled");
}

TEST(ServeServer, SubmitRunsVerifiedAndReportsStatus) {
  TestServer ts;
  UnixStream s = ts.connect();
  const std::string id = submit_ok(s, submit_line(tiny_bench()));
  ASSERT_FALSE(id.empty());
  const Request res = await_result(s, id);
  EXPECT_EQ(res.get_bool("ok"), true);
  EXPECT_EQ(res.get_string("state"), "done");
  EXPECT_EQ(res.get_bool("verified"), true);
  EXPECT_EQ(res.get_bool("degraded"), false);
  const std::string text = res.get_string("circuit").value_or("");
  ASSERT_FALSE(text.empty());
  // The result is a parseable netlist with the same interface.
  std::istringstream in(text);
  const Netlist out = read_bench(in);
  EXPECT_EQ(out.inputs().size(), 2u);
  EXPECT_EQ(out.outputs().size(), 1u);
  EXPECT_EQ(job_state(s, id), "done");
}

TEST(ServeServer, CacheHitIsBitIdenticalAndConfigChangeMisses) {
  TestServer ts;
  UnixStream s = ts.connect();
  const std::string line = submit_line(tiny_bench());
  bool cached = true;
  const std::string first = submit_ok(s, line, &cached);
  EXPECT_FALSE(cached);
  const Request r1 = await_result(s, first);
  ASSERT_EQ(r1.get_string("state"), "done");

  // Same circuit, same config: a counted cache hit, bit-identical text.
  const std::string dup = submit_ok(s, line, &cached);
  EXPECT_TRUE(cached);
  const Request r2 = await_result(s, dup);
  EXPECT_EQ(r2.get_bool("cached"), true);
  EXPECT_EQ(r1.get_string("circuit"), r2.get_string("circuit"));
  EXPECT_EQ(r1.get_number("period"), r2.get_number("period"));
  EXPECT_EQ(ts.server->cache_hits(), 1);

  // Same circuit, different result-affecting config: a miss.
  const std::string other =
      submit_ok(s, submit_line(tiny_bench(), 0, 0, true, 128), &cached);
  EXPECT_FALSE(cached);
  const Request r3 = await_result(s, other);
  EXPECT_EQ(r3.get_string("state"), "done");
  EXPECT_EQ(r3.get_bool("cached"), false);

  // Opting out of the cache also misses, even with an identical line.
  submit_ok(s, submit_line(tiny_bench(), 0, 0, /*use_cache=*/false),
            &cached);
  EXPECT_FALSE(cached);
}

TEST(ServeServer, BackpressureRejectsWhenSaturated) {
  TestServer ts(/*workers=*/1, /*max_queue=*/1);
  UnixStream s = ts.connect();
  // Pin the only worker, then fill the only queue slot. Holds are
  // interruptible 60 s waits — nothing here depends on them elapsing.
  const std::string pinned =
      submit_ok(s, submit_line(tiny_bench(), /*test_delay_ms=*/60000));
  // Wait until the worker picked it up so the next job must queue.
  const Deadline patience = Deadline::after(30.0);
  while (job_state(s, pinned) != "running") {
    ASSERT_FALSE(patience.expired());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string queued =
      submit_ok(s, submit_line(tiny_bench(), 60000, 0, false));

  const Request rejected = rpc(s, submit_line(tiny_bench(), 60000));
  EXPECT_EQ(rejected.get_bool("ok"), false);
  EXPECT_EQ(rejected.get_string("error"), "backpressure");
  EXPECT_TRUE(rejected.get_number("retry_after_s").has_value());
  EXPECT_EQ(rejected.get_int("queue_depth"), 1);
  EXPECT_EQ(ts.server->stats().rejected_backpressure, 1);

  // Cancelling the queued job frees the slot: the next submit is accepted.
  JsonObject c;
  c.set("op", "cancel").set("job", queued);
  EXPECT_EQ(rpc(s, c.str()).get_string("state"), "cancelled");
  const std::string after = submit_ok(s, submit_line(tiny_bench(), 60000));
  EXPECT_FALSE(after.empty());
}

TEST(ServeServer, CancelMidSolveEndsCancelled) {
  TestServer ts(/*workers=*/1);
  UnixStream s = ts.connect();
  const std::string id =
      submit_ok(s, submit_line(tiny_bench(), /*test_delay_ms=*/60000));
  const Deadline patience = Deadline::after(30.0);
  while (job_state(s, id) != "running") {
    ASSERT_FALSE(patience.expired());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  JsonObject c;
  c.set("op", "cancel").set("job", id);
  EXPECT_EQ(rpc(s, c.str()).get_bool("ok"), true);
  const Request res = await_result(s, id);
  EXPECT_EQ(res.get_string("state"), "cancelled");
  EXPECT_FALSE(res.get_string("circuit").has_value());
  EXPECT_EQ(ts.server->stats().cancelled, 1);
}

TEST(ServeServer, PriorityOrdersTheQueue) {
  TestServer ts(/*workers=*/1);
  UnixStream s = ts.connect();
  const std::string pin =
      submit_ok(s, submit_line(tiny_bench(), 60000, 0, false));
  const Deadline patience = Deadline::after(30.0);
  while (job_state(s, pin) != "running") {
    ASSERT_FALSE(patience.expired());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Low priority submitted first, high priority second; the freed worker
  // must pick the high one. The low job carries its own long hold so it
  // cannot race to done while we look.
  const std::string low =
      submit_ok(s, submit_line(tiny_bench(), 60000, /*priority=*/0, false));
  const std::string high =
      submit_ok(s, submit_line(tiny_bench(), 0, /*priority=*/5, false));
  JsonObject c;
  c.set("op", "cancel").set("job", pin);
  rpc(s, c.str());
  const Request res = await_result(s, high);
  EXPECT_EQ(res.get_string("state"), "done");
  const std::string low_state = job_state(s, low);
  EXPECT_TRUE(low_state == "queued" || low_state == "running")
      << "low-priority job overtook: " << low_state;
  JsonObject c2;
  c2.set("op", "cancel").set("job", low);
  rpc(s, c2.str());
}

TEST(ServeServer, StreamReplaysAndFollowsJournalEvents) {
  TestServer ts;
  UnixStream s = ts.connect();
  const std::string id = submit_ok(s, submit_line(tiny_bench()));
  ASSERT_EQ(await_result(s, id).get_string("state"), "done");
  // Stream after completion: a full replay ending with the end marker.
  JsonObject req;
  req.set("op", "stream").set("job", id);
  ASSERT_TRUE(s.write_line(req.str()));
  int events = 0;
  bool saw_result_event = false;
  for (;;) {
    std::string line;
    ASSERT_EQ(s.read_line(line, 10000), UnixStream::ReadStatus::kLine);
    const ParseOutcome p = parse_object(line);
    ASSERT_TRUE(p.ok) << line;
    if (p.request.get_string("event") == "end") {
      EXPECT_EQ(p.request.get_string("state"), "done");
      break;
    }
    ++events;
    if (p.request.get_string("event") == "result") saw_result_event = true;
    ASSERT_LT(events, 1000);
  }
  EXPECT_GT(events, 0);
  EXPECT_TRUE(saw_result_event);
  // The connection still serves ordinary requests after a stream.
  EXPECT_EQ(rpc(s, R"({"op":"ping"})").get_string("event"), "pong");
}

TEST(ServeServer, DrainFinishesInflightAndCancelsQueued) {
  TestServer ts(/*workers=*/1);
  UnixStream s = ts.connect();
  const std::string running =
      submit_ok(s, submit_line(tiny_bench(), /*test_delay_ms=*/60000));
  const Deadline patience = Deadline::after(30.0);
  while (job_state(s, running) != "running") {
    ASSERT_FALSE(patience.expired());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::string queued =
      submit_ok(s, submit_line(tiny_bench(), 0, 0, false));
  s.close();

  ts.drain();  // SIGTERM path: run() returns only after a full drain

  bool saw_running = false, saw_queued = false;
  for (const Server::JobSnapshot& j : ts.server->jobs()) {
    if (j.id == running) {
      saw_running = true;
      // The in-flight job was not dropped: its pipeline ran under a
      // cancelled deadline and degraded to a legal identity result.
      EXPECT_EQ(j.state, JobState::kDone);
      EXPECT_TRUE(j.degraded);
    }
    if (j.id == queued) {
      saw_queued = true;
      EXPECT_EQ(j.state, JobState::kCancelled);
    }
  }
  EXPECT_TRUE(saw_running);
  EXPECT_TRUE(saw_queued);
  // A fresh connection is refused after drain (socket unlinked).
  EXPECT_THROW(ts.connect(), Error);
}

TEST(ServeServer, ShutdownOpDrainsAndSubmissionsAreRefused) {
  TestServer ts;
  UnixStream s = ts.connect();
  const std::string id = submit_ok(s, submit_line(tiny_bench()));
  ASSERT_EQ(await_result(s, id).get_string("state"), "done");
  EXPECT_EQ(rpc(s, R"({"op":"shutdown"})").get_bool("ok"), true);
  ts.thread.join();  // run() returns on its own — no stop token needed
  const ServerStats stats = ts.server->stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.failed, 0);
}

}  // namespace
}  // namespace serelin
