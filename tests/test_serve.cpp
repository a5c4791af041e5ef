// The serving subsystem end to end: wire codec round-trips, hostile
// frame handling, the admission queue, and a live server exercised
// through the client library — correctness, cache behaviour, typed
// failure modes (unknown matrix, deadline, NaN input, overload) and
// spool-based crash recovery.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/util/atomic_file.hpp"
#include "tests/fault_injection.hpp"
#include "tests/test_helpers.hpp"

namespace bspmv::serve {
namespace {

using bspmv::testing::frame_corruptions;
using bspmv::testing::random_blocky_coo;

Csr<double> make_matrix(index_t n, std::uint64_t seed) {
  return Csr<double>::from_coo(
      random_blocky_coo<double>(n, n, 2, 0.4, 0.9, seed));
}

std::vector<double> ones(index_t n) {
  return std::vector<double>(static_cast<std::size_t>(n), 1.0);
}

// ---------------------------------------------------------------- wire ----

TEST(WireCodec, SubmitRoundTrip) {
  const Csr<double> a = make_matrix(36, 5);
  const SubmitRequest req = SubmitRequest::from_csr(a);
  const SubmitRequest back = SubmitRequest::decode(req.encode());
  EXPECT_EQ(back.rows, a.rows());
  EXPECT_EQ(back.cols, a.cols());
  EXPECT_EQ(back.row_ptr, std::vector<index_t>(a.row_ptr().begin(),
                                               a.row_ptr().end()));
  EXPECT_EQ(back.val, std::vector<double>(a.val().begin(), a.val().end()));

  const Csr<double> rebuilt = back.to_csr();
  EXPECT_EQ(matrix_fingerprint(a), matrix_fingerprint(rebuilt));
}

TEST(WireCodec, SpmvAndReplyRoundTrip) {
  SpmvRequest req;
  req.fingerprint = 0xdeadbeefcafe1234ull;
  req.priority = 3;
  req.deadline_seconds = 1.5;
  req.check_numerics = true;
  req.x = {1.0, -2.5, 3.25};
  const SpmvRequest back = SpmvRequest::decode(req.encode());
  EXPECT_EQ(back.fingerprint, req.fingerprint);
  EXPECT_EQ(back.priority, 3u);
  EXPECT_DOUBLE_EQ(back.deadline_seconds, 1.5);
  EXPECT_TRUE(back.check_numerics);
  EXPECT_EQ(back.x, req.x);

  SpmvReply rep;
  rep.y = {0.5, 0.25};
  rep.server_seconds = 0.125;
  rep.degraded = true;
  const SpmvReply rep_back = SpmvReply::decode(rep.encode());
  EXPECT_EQ(rep_back.y, rep.y);
  EXPECT_TRUE(rep_back.degraded);

  ErrorReply err;
  err.code = ErrorCode::kOverloaded;
  err.message = "queue full";
  const ErrorReply err_back = ErrorReply::decode(err.encode());
  EXPECT_EQ(err_back.code, ErrorCode::kOverloaded);
  EXPECT_EQ(err_back.message, "queue full");
}

TEST(WireCodec, TruncatedAndHostilePayloadsThrowTyped) {
  const std::string good = SubmitRequest::from_csr(make_matrix(20, 6)).encode();
  // Declared counts larger than the payload must throw parse_error
  // before any allocation, as must any truncation.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{17},
                          good.size() / 2, good.size() - 1}) {
    EXPECT_THROW(SubmitRequest::decode(std::string_view(good).substr(0, cut)),
                 parse_error)
        << "cut=" << cut;
  }
  // Trailing garbage is also rejected (expect_end).
  EXPECT_THROW(SubmitRequest::decode(good + "xx"), parse_error);
}

TEST(WireCodec, ErrorTaxonomyMapsBothWays) {
  EXPECT_EQ(error_code_for(overloaded_error("x")), ErrorCode::kOverloaded);
  EXPECT_EQ(error_code_for(timeout_error("x")), ErrorCode::kTimeout);
  EXPECT_EQ(error_code_for(cancelled_error("x")), ErrorCode::kTimeout);
  EXPECT_EQ(error_code_for(numerical_error("x")), ErrorCode::kNumerical);
  EXPECT_EQ(error_code_for(parse_error("x")), ErrorCode::kParse);

  EXPECT_THROW(throw_wire_error(ErrorCode::kOverloaded, "m"),
               overloaded_error);
  EXPECT_THROW(throw_wire_error(ErrorCode::kTimeout, "m"), timeout_error);
  EXPECT_THROW(throw_wire_error(ErrorCode::kNumerical, "m"), numerical_error);
  EXPECT_THROW(throw_wire_error(ErrorCode::kUnknownMatrix, "m"),
               invalid_argument_error);
}

// ----------------------------------------------------------- admission ----

TEST(AdmissionQueue, ShedsLowestPriorityWhenFull) {
  AdmissionQueue q(2);
  std::vector<int> ran;
  std::vector<std::string> shed;
  auto job = [&](int prio) {
    Job j;
    j.priority = prio;
    j.run = [&ran, prio] { ran.push_back(prio); };
    j.shed = [&shed, prio](const std::string&) {
      shed.push_back("p" + std::to_string(prio));
    };
    return j;
  };

  EXPECT_TRUE(q.push(job(0)));
  EXPECT_TRUE(q.push(job(1)));
  // Full. Equal priority: the incoming job is shed, not the queued one.
  EXPECT_FALSE(q.push(job(0)));
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0], "p0");
  // Higher priority displaces the lowest queued job.
  EXPECT_TRUE(q.push(job(5)));
  ASSERT_EQ(shed.size(), 2u);
  EXPECT_EQ(shed[1], "p0");
  EXPECT_EQ(q.shed_count(), 2u);

  // Pop order: highest priority first.
  (*q.pop()).run();
  (*q.pop()).run();
  ASSERT_EQ(ran.size(), 2u);
  EXPECT_EQ(ran[0], 5);
  EXPECT_EQ(ran[1], 1);
}

TEST(AdmissionQueue, FifoWithinPriorityAndNotBefore) {
  AdmissionQueue q(8);
  std::vector<int> ran;
  auto job = [&](int tag, double not_before) {
    Job j;
    j.priority = 0;
    j.not_before = not_before;
    j.run = [&ran, tag] { ran.push_back(tag); };
    return j;
  };
  const double now = steady_seconds();
  q.push(job(1, 0.0));
  q.push(job(2, now + 0.05));  // deferred: backoff requeue semantics
  q.push(job(3, 0.0));

  (*q.pop()).run();
  (*q.pop()).run();
  (*q.pop()).run();  // blocks ~50ms until the deferred job is runnable
  ASSERT_EQ(ran.size(), 3u);
  EXPECT_EQ(ran[0], 1);
  EXPECT_EQ(ran[1], 3);
  EXPECT_EQ(ran[2], 2);
}

TEST(AdmissionQueue, ShutdownShedsEverythingAndUnblocksPop) {
  AdmissionQueue q(4);
  std::atomic<int> shed{0};
  Job j;
  // Deferred far into the future so the popper can't consume it before
  // shutdown sheds it.
  j.not_before = steady_seconds() + 100.0;
  j.shed = [&shed](const std::string&) { shed.fetch_add(1); };
  q.push(std::move(j));

  std::thread popper([&q] {
    while (q.pop()) {
    }
  });
  q.shutdown();
  popper.join();
  EXPECT_EQ(shed.load(), 1);
  // Post-shutdown pushes shed immediately.
  Job late;
  late.shed = [&shed](const std::string&) { shed.fetch_add(1); };
  EXPECT_FALSE(q.push(std::move(late)));
  EXPECT_EQ(shed.load(), 2);
}

// ------------------------------------------------------------- server ----

/// Start a server on a unique socket in the test temp dir; stops on
/// destruction.
struct TestServer {
  explicit TestServer(ServerOptions opt = {}) {
    static std::atomic<int> counter{0};
    dir = ::testing::TempDir() + "bspmv_serve_" + std::to_string(::getpid()) +
          "_" + std::to_string(counter.fetch_add(1));
    ::mkdir(dir.c_str(), 0777);
    opt.socket_path = dir + "/s.sock";
    opt.queue_capacity = 16;  // defaults tuned down for tests
    server = std::make_unique<Server>(opt);
    server->start();
  }
  ~TestServer() {
    server->stop();
    ::unlink((dir + "/s.sock").c_str());
  }
  ServeClient client() { return ServeClient(server->options().socket_path); }

  std::string dir;
  std::unique_ptr<Server> server;
};

TEST(Server, SubmitThenSpmvMatchesReference) {
  TestServer ts;
  ServeClient c = ts.client();
  const Csr<double> a = make_matrix(48, 11);

  const SubmitReply sub = c.submit(a);
  EXPECT_EQ(sub.fingerprint, matrix_fingerprint(a));
  EXPECT_FALSE(sub.cached);

  const std::vector<double> x = ones(a.cols());
  const SpmvReply rep = c.spmv(sub.fingerprint, x);
  ASSERT_EQ(rep.y.size(), static_cast<std::size_t>(a.rows()));

  std::vector<double> ref(static_cast<std::size_t>(a.rows()), 0.0);
  a.to_coo().spmv_reference(x.data(), ref.data());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(rep.y[i], ref[i], 1e-12) << "row " << i;

  // Second submit of the same matrix hits the cache.
  const SubmitReply again = c.submit(a);
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.fingerprint, sub.fingerprint);

  const Json stats = c.stats();
  EXPECT_GE(stats.at("cache").at("hits").as_number(), 1.0);
}

TEST(Server, UnknownFingerprintIsTypedAndRetryHeals) {
  TestServer ts;
  ServeClient c = ts.client();
  const Csr<double> a = make_matrix(32, 12);

  EXPECT_THROW(c.spmv(0x1234, ones(a.cols())), invalid_argument_error);

  // spmv_with_retry resubmits the matrix and succeeds.
  const SpmvReply rep =
      c.spmv_with_retry(a, matrix_fingerprint(a), ones(a.cols()));
  EXPECT_EQ(rep.y.size(), static_cast<std::size_t>(a.rows()));
}

TEST(Server, WrongSizedInputIsInvalidArgument) {
  TestServer ts;
  ServeClient c = ts.client();
  const Csr<double> a = make_matrix(24, 13);
  const SubmitReply sub = c.submit(a);
  EXPECT_THROW(c.spmv(sub.fingerprint, ones(a.cols() + 5)),
               invalid_argument_error);
  // The connection survives a request-level error.
  c.ping();
}

TEST(Server, NanInputTripsNumericGuardWhenRequested) {
  TestServer ts;
  ServeClient c = ts.client();
  const Csr<double> a = make_matrix(24, 14);
  const SubmitReply sub = c.submit(a);
  std::vector<double> x = ones(a.cols());
  x[1] = std::nan("");
  // Guard off: NaN flows through (y contains NaN but the call succeeds).
  EXPECT_NO_THROW(c.spmv(sub.fingerprint, x));
  // Guard on: typed numerical error.
  EXPECT_THROW(c.spmv(sub.fingerprint, x, 0.0, 0, /*check_numerics=*/true),
               numerical_error);
  c.ping();
}

TEST(Server, ConcurrentSameMatrixSpmvsBatchCorrectly) {
  ServerOptions opt;
  opt.workers = 4;  // several workers so requests pile into the batch box
  TestServer ts(opt);
  const Csr<double> a = make_matrix(64, 15);
  SubmitReply sub;
  {
    ServeClient c = ts.client();
    sub = c.submit(a);
  }

  // Distinct x per request so any scatter/gather mix-up in the batched
  // run_multi path shows up as a wrong answer, not a coincidence.
  constexpr int kClients = 12;
  std::vector<std::vector<double>> xs(kClients), ys(kClients);
  for (int j = 0; j < kClients; ++j) {
    xs[static_cast<std::size_t>(j)].resize(
        static_cast<std::size_t>(a.cols()));
    for (index_t i = 0; i < a.cols(); ++i)
      xs[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] =
          0.25 * (j + 1) + 0.01 * static_cast<double>(i);
  }
  std::vector<std::thread> clients;
  for (int j = 0; j < kClients; ++j)
    clients.emplace_back([&, j] {
      ServeClient c = ts.client();
      ys[static_cast<std::size_t>(j)] =
          c.spmv(sub.fingerprint, xs[static_cast<std::size_t>(j)]).y;
    });
  for (auto& th : clients) th.join();

  for (int j = 0; j < kClients; ++j) {
    const auto& x = xs[static_cast<std::size_t>(j)];
    const auto& y = ys[static_cast<std::size_t>(j)];
    ASSERT_EQ(y.size(), static_cast<std::size_t>(a.rows())) << "client " << j;
    std::vector<double> ref(static_cast<std::size_t>(a.rows()), 0.0);
    a.to_coo().spmv_reference(x.data(), ref.data());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(y[i], ref[i], 1e-12) << "client " << j << " row " << i;
  }

  // The batch counters are wired into stats (whether any round actually
  // coalesced ≥2 requests depends on scheduling, so only presence and
  // consistency are asserted).
  ServeClient c = ts.client();
  const Json stats = c.stats();
  EXPECT_GE(stats.at("requests").at("batched_spmvs").as_number(), 0.0);
  EXPECT_GE(stats.at("requests").at("batched_spmvs").as_number(),
            stats.at("requests").at("batch_rounds").as_number());
}

TEST(Server, BatchingDisabledServesSingleVectorPath) {
  ServerOptions opt;
  opt.max_batch = 1;
  TestServer ts(opt);
  ServeClient c = ts.client();
  const Csr<double> a = make_matrix(32, 16);
  const SubmitReply sub = c.submit(a);
  const std::vector<double> x = ones(a.cols());
  const SpmvReply rep = c.spmv(sub.fingerprint, x);
  std::vector<double> ref(static_cast<std::size_t>(a.rows()), 0.0);
  a.to_coo().spmv_reference(x.data(), ref.data());
  ASSERT_EQ(rep.y.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(rep.y[i], ref[i], 1e-12) << "row " << i;
  const Json stats = c.stats();
  EXPECT_EQ(stats.at("requests").at("batch_rounds").as_number(), 0.0);
}

TEST(Server, StealingEnginesServeUnbatchedRequests) {
  // Threaded stealing engines with batching off: every spmv is a
  // one-member round on its request worker, and concurrent requests
  // share one two-wide task pool (a request that finds it busy runs
  // inline).
  ServerOptions opt;
  opt.executor = ExecBackend::kTasks;
  opt.engine_threads = 2;
  opt.max_batch = 1;
  opt.workers = 4;
  TestServer ts(opt);
  const std::vector<Csr<double>> mats = {make_matrix(96, 21),
                                         make_matrix(80, 22)};
  std::vector<std::uint64_t> fps;
  {
    ServeClient c = ts.client();
    for (const auto& a : mats) fps.push_back(c.submit(a).fingerprint);
  }

  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  // Request r of client j runs matrix (j + r) % 2 with its own x.
  const auto x_for = [](int j, int r, index_t n) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i)
      x[static_cast<std::size_t>(i)] =
          0.5 * (j + 1) - 0.125 * r + 0.01 * static_cast<double>(i);
    return x;
  };
  std::vector<std::vector<std::vector<double>>> ys(
      kClients, std::vector<std::vector<double>>(kPerClient));
  std::vector<std::thread> clients;
  for (int j = 0; j < kClients; ++j)
    clients.emplace_back([&, j] {
      ServeClient c = ts.client();
      for (int r = 0; r < kPerClient; ++r) {
        const std::size_t m = static_cast<std::size_t>((j + r) % 2);
        ys[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] =
            c.spmv(fps[m], x_for(j, r, mats[m].cols())).y;
      }
    });
  for (auto& th : clients) th.join();

  for (int j = 0; j < kClients; ++j)
    for (int r = 0; r < kPerClient; ++r) {
      const Csr<double>& a = mats[static_cast<std::size_t>((j + r) % 2)];
      const std::vector<double> x = x_for(j, r, a.cols());
      std::vector<double> ref(static_cast<std::size_t>(a.rows()), 0.0);
      a.to_coo().spmv_reference(x.data(), ref.data());
      const auto& y =
          ys[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)];
      ASSERT_EQ(y.size(), ref.size()) << "client " << j << " request " << r;
      for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(y[i], ref[i], 1e-12)
            << "client " << j << " request " << r << " row " << i;
    }

  ServeClient c = ts.client();
  // The deadline is checked before the run, so an expired budget is a
  // typed timeout.
  EXPECT_THROW(c.spmv(fps[0], ones(mats[0].cols()), /*deadline_seconds=*/1e-9),
               timeout_error);
  std::vector<double> bad = ones(mats[1].cols());
  bad[3] = std::nan("");
  EXPECT_THROW(c.spmv(fps[1], bad, 0.0, 0, /*check_numerics=*/true),
               numerical_error);

  const Json stats = c.stats();
  const Json& req = stats.at("requests");
  const double spmvs = kClients * kPerClient + 2;
  EXPECT_EQ(req.at("submits").as_number(), 2.0);
  EXPECT_EQ(req.at("spmvs").as_number(), spmvs);
  EXPECT_EQ(req.at("ok").as_number(), 2.0 + kClients * kPerClient);
  EXPECT_EQ(req.at("error").as_number(), 2.0);
  EXPECT_EQ(req.at("ok").as_number() + req.at("error").as_number(),
            req.at("submits").as_number() + spmvs);
  EXPECT_EQ(req.at("timeouts").as_number(), 1.0);
  EXPECT_EQ(req.at("numerical").as_number(), 1.0);
  EXPECT_EQ(req.at("batch_rounds").as_number(), 0.0);
  EXPECT_EQ(stats.at("executor").as_string(), "tasks");
}

TEST(Server, MalformedFramesGetTypedErrorsNeverCrash) {
  TestServer ts;
  const std::string socket = ts.server->options().socket_path;

  // A valid ping frame, then every corruption of it, each on a fresh
  // connection (a desynced connection is dropped by design).
  WireWriter w;
  w.u32(kMagic);
  w.u32(kProtocolVersion);
  w.u32(static_cast<std::uint32_t>(MsgType::kPing));
  w.u64(0);
  const std::string ping_frame = w.take();

  for (const std::string& junk : frame_corruptions(ping_frame)) {
    ServeClient probe(socket);
    (void)::send(probe.fd(), junk.data(), junk.size(), MSG_NOSIGNAL);
    ::shutdown(probe.fd(), SHUT_WR);
    // Drain whatever the server answers (error frame or close); the
    // only failure mode here is the *server* dying.
    MsgType t{};
    std::string payload;
    try {
      while (read_frame(probe.fd(), t, payload, WireLimits{}))
        ;
    } catch (const error&) {
      // typed — fine
    }
  }

  // Server is still alive and serving.
  ServeClient c = ts.client();
  c.ping();
  const Csr<double> a = make_matrix(20, 15);
  const SubmitReply sub = c.submit(a);
  EXPECT_EQ(sub.fingerprint, matrix_fingerprint(a));
}

TEST(Server, SpoolRecoveryAfterRestart) {
  std::uint64_t fp = 0;
  const Csr<double> a = make_matrix(40, 16);

  const std::string socket_dir =
      ::testing::TempDir() + "bspmv_spoolr_" + std::to_string(::getpid());
  ::mkdir(socket_dir.c_str(), 0777);
  const std::string spool = socket_dir + "/spool";
  ::mkdir(spool.c_str(), 0777);

  {
    ServerOptions o;
    o.socket_path = socket_dir + "/a.sock";
    o.spool_dir = spool;
    o.workers = 2;
    Server s(o);
    s.start();
    ServeClient c(o.socket_path);
    fp = c.submit(a).fingerprint;
    s.stop();  // hard stop; cache dies with the process in real life
  }

  // Fresh server, same spool: the fingerprint is unknown in RAM but
  // recoverable from disk — the spmv succeeds without a resubmit.
  {
    ServerOptions o;
    o.socket_path = socket_dir + "/b.sock";
    o.spool_dir = spool;
    o.workers = 2;
    Server s(o);
    s.start();
    ServeClient c(o.socket_path);
    const SpmvReply rep = c.spmv(fp, ones(a.cols()));
    EXPECT_EQ(rep.y.size(), static_cast<std::size_t>(a.rows()));

    std::vector<double> ref(static_cast<std::size_t>(a.rows()), 0.0);
    a.to_coo().spmv_reference(ones(a.cols()).data(), ref.data());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(rep.y[i], ref[i], 1e-12);
    s.stop();
  }
}

TEST(Server, CorruptSpoolFileIsDroppedNotServed) {
  std::string dir =
      ::testing::TempDir() + "bspmv_spoolc_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0777);
  const std::string spool = dir + "/spool";
  ::mkdir(spool.c_str(), 0777);

  const Csr<double> a = make_matrix(30, 17);
  const std::uint64_t fp = matrix_fingerprint(a);
  char name[32];
  std::snprintf(name, sizeof name, "%016llx.mat",
                static_cast<unsigned long long>(fp));
  {
    // A torn spool file: valid name, garbage content.
    FILE* f = std::fopen((spool + "/" + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a matrix", f);
    std::fclose(f);
  }

  ServerOptions o;
  o.socket_path = dir + "/s.sock";
  o.spool_dir = spool;
  Server s(o);
  s.start();
  ServeClient c(o.socket_path);
  // Unknown matrix (typed), not a crash or a garbage answer.
  EXPECT_THROW(c.spmv(fp, ones(a.cols())), invalid_argument_error);
  // The bad file was dropped so it cannot poison future restarts.
  EXPECT_FALSE(read_file_if_exists(spool + "/" + name).has_value());
  s.stop();
}

TEST(Server, DeadlineExpiredReturnsTimeout) {
  TestServer ts;
  ServeClient c = ts.client();
  const Csr<double> a = make_matrix(64, 18);
  const SubmitReply sub = c.submit(a);
  // An absurdly small budget: the deadline is checked before/after the
  // run, so this returns timeout_error rather than hanging.
  try {
    c.spmv(sub.fingerprint, ones(a.cols()), /*deadline_seconds=*/1e-9);
    // A machine fast enough to finish inside 1ns would pass; accept both
    // outcomes but require the connection stays healthy.
  } catch (const timeout_error&) {
  }
  c.ping();
}

TEST(Server, ShutdownFrameStopsTheServer) {
  TestServer ts;
  ServeClient c = ts.client();
  c.shutdown_server();
  for (int i = 0; i < 100 && !ts.server->stopping(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(ts.server->stopping());
}

TEST(Server, StopRightAfterClientsHangUpOutlivesEveryReader) {
  // Each connection's reader is a detached thread that signs off by
  // erasing its connection and notifying stop(). The Server is destroyed
  // as soon as stop() sees no connection left, so a reader must not
  // touch it after that notification (ThreadSanitizer checks this).
  for (int round = 0; round < 5; ++round) {
    TestServer ts;
    std::vector<ServeClient> clients;
    for (int i = 0; i < 8; ++i) {
      clients.push_back(ts.client());
      clients.back().ping();
    }
    clients.clear();  // hang up while the server is about to stop
  }
}

TEST(Server, StatsReportServeCounters) {
  TestServer ts;
  ServeClient c = ts.client();
  const Csr<double> a = make_matrix(20, 19);
  const SubmitReply sub = c.submit(a);
  c.spmv(sub.fingerprint, ones(a.cols()));
  const Json stats = c.stats();
  EXPECT_EQ(stats.at("kind").as_string(), "bspmv_serve_stats");
  EXPECT_GE(stats.at("requests").at("ok").as_number(), 2.0);
  EXPECT_GE(stats.at("cache").at("misses").as_number(), 1.0);
  EXPECT_EQ(stats.at("queue_capacity").as_number(), 16.0);
}

}  // namespace
}  // namespace bspmv::serve
