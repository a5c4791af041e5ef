// bspmv_client — client, load driver and chaos harness for bspmv_serve.
//
// Modes (--mode):
//   ping      one liveness round-trip
//   stats     print the server's counter snapshot (JSON)
//   shutdown  ask the daemon to stop
//   bench     submit a generated matrix, then time cold-prepare vs
//             cache-hit submit and per-request spmv latency; prints a
//             JSON report with the cache hit/miss/eviction counters
//   load      sustained spmv traffic from several threads (exercises
//             admission control; overloaded replies are counted, not
//             fatal)
//   chaos     load plus hostile traffic: malformed frames, truncated
//             writes, oversized declared lengths, random disconnects.
//             The server must answer every well-formed request and shed
//             the rest with typed errors; any client-visible crash or
//             protocol desync makes this tool exit non-zero.
//
// Exit codes follow mtx_tool (docs/robustness.md): 0 ok, 1 failure,
// 4 timeout budget exceeded, 6 cannot reach the socket, 7 every request
// was shed (overloaded).

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/formats/csr.hpp"
#include "src/gen/generators.hpp"
#include "src/serve/client.hpp"
#include "src/serve/engine_cache.hpp"
#include "src/util/cli.hpp"
#include "src/util/json.hpp"
#include "src/util/prng.hpp"
#include "src/util/timing.hpp"

namespace {

using namespace bspmv;
using namespace bspmv::serve;

Csr<double> make_matrix(std::int64_t n, int block, std::uint64_t seed) {
  return Csr<double>::from_coo(gen_blocked_band<double>(
      static_cast<index_t>(n) / block, block, 8, 3, 0.8, seed));
}

std::vector<double> make_x(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (auto& e : x) e = rng.uniform() - 0.5;
  return x;
}

int run_bench(const std::string& socket, std::int64_t n, int iters) {
  const Csr<double> a = make_matrix(n, 4, 42);
  const std::vector<double> x = make_x(static_cast<std::size_t>(a.cols()), 7);

  ServeClient client(socket);
  Timer t_cold;
  const SubmitReply cold = client.submit(a);
  const double cold_s = t_cold.elapsed();

  Timer t_hit;
  const SubmitReply hit = client.submit(a);
  const double hit_s = t_hit.elapsed();

  const double spmv_best =
      Measurement{.batches = iters, .warmup = 0}
          .run([&] { client.spmv(cold.fingerprint, x); })
          .min;

  const Json stats = client.stats();
  Json::Object o;
  o["kind"] = "bspmv_client_bench";
  o["rows"] = static_cast<std::int64_t>(a.rows());
  o["nnz"] = static_cast<std::uint64_t>(a.nnz());
  o["format"] = cold.format_id;
  o["cold_submit_seconds"] = cold_s;
  o["hit_submit_seconds"] = hit_s;
  o["hit_speedup"] = hit_s > 0 ? cold_s / hit_s : 0.0;
  o["server_prepare_seconds"] = cold.prepare_seconds;
  o["hit_was_cached"] = hit.cached;
  o["spmv_best_seconds"] = spmv_best;
  o["cache"] = stats.at("cache");
  std::printf("%s\n", Json(std::move(o)).dump(2).c_str());
  if (!hit.cached) {
    std::fprintf(stderr, "bench: second submit missed the cache\n");
    return 1;
  }
  return 0;
}

struct LoadTally {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> overloaded{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> other{0};
};

void load_worker(const std::string& socket, const Csr<double>& a,
                 std::uint64_t fingerprint, double seconds, int priority,
                 LoadTally* tally) {
  try {
    ServeClient client(socket);
    const std::vector<double> x =
        make_x(static_cast<std::size_t>(a.cols()),
               static_cast<std::uint64_t>(priority) + 99);
    Timer t;
    while (t.elapsed() < seconds) {
      try {
        client.spmv(fingerprint, x, /*deadline_seconds=*/5.0,
                    static_cast<std::uint32_t>(priority));
        tally->ok.fetch_add(1);
      } catch (const overloaded_error&) {
        tally->overloaded.fetch_add(1);
      } catch (const timeout_error&) {
        tally->timeouts.fetch_add(1);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "load worker: %s\n", e.what());
    tally->other.fetch_add(1);
  }
}

/// Hostile traffic: raw socket writes that violate the protocol in a
/// different way each round. Each connection is expendable — the point
/// is that the *server* survives and keeps serving the load workers.
void chaos_worker(const std::string& socket, double seconds,
                  std::uint64_t seed, std::atomic<std::uint64_t>* rounds) {
  Xoshiro256 rng(seed);
  Timer t;
  while (t.elapsed() < seconds) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    const std::uint64_t mode = rng() % 5;
    std::string junk;
    if (mode == 0) {
      // Garbage bytes — bad magic.
      junk.assign(64, '\x5a');
    } else if (mode == 1) {
      // Valid header declaring an absurd payload length.
      WireWriter w;
      w.u32(kMagic);
      w.u32(kProtocolVersion);
      w.u32(static_cast<std::uint32_t>(MsgType::kSubmit));
      w.u64(std::uint64_t{1} << 60);
      junk = w.take();
    } else if (mode == 2) {
      // Truncated frame: header promises more than we send, then close.
      WireWriter w;
      w.u32(kMagic);
      w.u32(kProtocolVersion);
      w.u32(static_cast<std::uint32_t>(MsgType::kSpmv));
      w.u64(4096);
      junk = w.take() + std::string(17, '\x01');
    } else if (mode == 3) {
      // Well-formed frame whose payload is garbage.
      WireWriter p;
      for (int i = 0; i < 8; ++i) p.u64(rng());
      WireWriter w;
      w.u32(kMagic);
      w.u32(kProtocolVersion);
      w.u32(static_cast<std::uint32_t>(MsgType::kSubmit));
      w.u64(p.data().size());
      junk = w.take() + p.take();
    }  // mode 4: connect and immediately disconnect.
    if (!junk.empty())
      (void)::send(fd, junk.data(), junk.size(), MSG_NOSIGNAL);
    ::close(fd);
    rounds->fetch_add(1);
  }
}

/// Spool-recovery probe: compute the fingerprint of the deterministic
/// bench matrix locally and issue a bare spmv WITHOUT submitting. Only a
/// server that recovered the engine (cache or spool) can answer; a
/// fresh spool-less server replies unknown_matrix (exit 9).
int run_probe(const std::string& socket, std::int64_t n) {
  const Csr<double> a = make_matrix(n, 4, 42);
  const std::uint64_t fp = matrix_fingerprint(a);
  ServeClient c(socket);
  try {
    const SpmvReply rep =
        c.spmv(fp, make_x(static_cast<std::size_t>(a.cols()), 7));
    std::printf("{\"kind\": \"bspmv_client_probe\", \"recovered\": true, "
                "\"rows\": %lld, \"degraded\": %s}\n",
                static_cast<long long>(rep.y.size()),
                rep.degraded ? "true" : "false");
    return 0;
  } catch (const invalid_argument_error& e) {
    std::fprintf(stderr, "probe: engine not recovered: %s\n", e.what());
    return 9;
  }
}

int run_load(const std::string& socket, std::int64_t n, double seconds,
             int threads, bool chaos) {
  const Csr<double> a = make_matrix(n, 4, 42);
  ServeClient setup(socket);
  const SubmitReply sub = setup.submit_with_retry(a);

  LoadTally tally;
  std::atomic<std::uint64_t> chaos_rounds{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i)
    pool.emplace_back(load_worker, socket, std::cref(a), sub.fingerprint,
                      seconds, i % 3, &tally);
  if (chaos)
    for (int i = 0; i < 2; ++i)
      pool.emplace_back(chaos_worker, socket, seconds,
                        static_cast<std::uint64_t>(1000 + i), &chaos_rounds);
  for (auto& th : pool) th.join();

  // The server must still be healthy after the storm.
  setup.ping();
  const Json stats = setup.stats();

  Json::Object o;
  o["kind"] = chaos ? "bspmv_client_chaos" : "bspmv_client_load";
  o["ok"] = tally.ok.load();
  o["overloaded"] = tally.overloaded.load();
  o["timeouts"] = tally.timeouts.load();
  o["worker_failures"] = tally.other.load();
  o["chaos_rounds"] = chaos_rounds.load();
  o["server"] = stats;
  std::printf("%s\n", Json(std::move(o)).dump(2).c_str());

  if (tally.other.load() > 0) return 1;
  if (tally.ok.load() == 0) {
    std::fprintf(stderr, "load: no request ever succeeded\n");
    return 7;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli;
  cli.add_option("socket", "/tmp/bspmv.sock", "daemon socket path");
  cli.add_option("mode", "ping",
                 "ping | stats | shutdown | bench | load | chaos | probe");
  cli.add_option("n", "4096", "generated matrix dimension (bench/load)");
  cli.add_option("iters", "50", "spmv iterations (bench)");
  cli.add_option("seconds", "10", "traffic duration (load/chaos)");
  cli.add_option("threads", "4", "load worker threads");

  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string socket = cli.get("socket");
    const std::string mode = cli.get("mode");

    if (mode == "ping") {
      ServeClient(socket).ping();
      std::printf("pong\n");
      return 0;
    }
    if (mode == "stats") {
      std::printf("%s\n", ServeClient(socket).stats().dump(2).c_str());
      return 0;
    }
    if (mode == "shutdown") {
      ServeClient(socket).shutdown_server();
      return 0;
    }
    if (mode == "probe") return run_probe(socket, cli.get_int("n"));
    if (mode == "bench")
      return run_bench(socket, cli.get_int("n"),
                       static_cast<int>(cli.get_int("iters")));
    if (mode == "load" || mode == "chaos")
      return run_load(socket, cli.get_int("n"), cli.get_double("seconds"),
                      static_cast<int>(cli.get_int("threads")),
                      mode == "chaos");
    std::fprintf(stderr, "unknown --mode %s\n", mode.c_str());
    return 1;
  } catch (const timeout_error& e) {
    std::fprintf(stderr, "bspmv_client: timeout: %s\n", e.what());
    return 4;
  } catch (const io_error& e) {
    std::fprintf(stderr, "bspmv_client: io error: %s\n", e.what());
    return 6;
  } catch (const overloaded_error& e) {
    std::fprintf(stderr, "bspmv_client: overloaded: %s\n", e.what());
    return 7;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bspmv_client: %s\n", e.what());
    return 1;
  }
}
