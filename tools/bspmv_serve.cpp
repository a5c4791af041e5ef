// bspmv_serve — the SpMV serving daemon.
//
// Binds a Unix socket, prepares an engine per submitted matrix (cached by
// fingerprint under a byte budget) and answers y = A·x requests under
// per-request deadlines. See docs/serving.md for the protocol, the
// error/exit-code table and the degradation ladder.
//
// Exit codes follow mtx_tool (docs/robustness.md): 0 ok, 1 generic
// error, 6 io (cannot bind the socket).

#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <thread>

#include "src/serve/server.hpp"
#include "src/util/cli.hpp"

namespace {

std::sig_atomic_t g_signal = 0;
void on_signal(int sig) { g_signal = sig; }

}  // namespace

int main(int argc, char** argv) {
  using namespace bspmv;
  using namespace bspmv::serve;

  CliParser cli;
  cli.add_option("socket", "/tmp/bspmv.sock", "unix socket path to listen on");
  cli.add_option("cache-mb", "256", "engine cache budget in MiB");
  cli.add_option("queue", "64", "admission queue capacity");
  cli.add_option("workers", "2", "request worker threads");
  cli.add_option("engine-threads", "0",
                 "threads per engine plan (0 = single-threaded kernels)");
  cli.add_option("executor", "bulk",
                 "threaded-engine schedule: bulk (static, default) or tasks "
                 "(work stealing)");
  cli.add_option("spool-dir", "",
                 "persist submitted matrices here for crash recovery"
                 " (empty = off)");
  cli.add_option("default-deadline", "10",
                 "seconds granted to a request that carries no deadline");
  cli.add_option("max-deadline", "120", "cap on requested deadlines");
  cli.add_option("stall-timeout", "5",
                 "watchdog stall detection budget in seconds");
  cli.add_option("prepare-deadline", "60",
                 "budget for one engine preparation in seconds");
  cli.add_option("max-frame-mb", "64", "largest accepted frame in MiB");
  cli.add_option("max-batch", "8",
                 "gather up to this many concurrent same-matrix spmv "
                 "requests into one batched SpMM run (<= 1 disables)");
  cli.add_flag("no-measure",
               "skip measured candidate selection on prepare (take the "
               "first candidate that converts)");
  cli.add_flag("no-simd", "exclude simd candidates from selection");

  try {
    if (!cli.parse(argc, argv)) return 0;

    ServerOptions opt;
    opt.socket_path = cli.get("socket");
    opt.cache_bytes =
        static_cast<std::size_t>(cli.get_int("cache-mb")) << 20;
    opt.queue_capacity = static_cast<std::size_t>(cli.get_int("queue"));
    opt.workers = static_cast<int>(cli.get_int("workers"));
    opt.engine_threads = static_cast<int>(cli.get_int("engine-threads"));
    // Typo -> invalid_argument_error -> exit 1, before any socket work.
    opt.executor = parse_backend(cli.get("executor"));
    opt.spool_dir = cli.get("spool-dir");
    opt.default_deadline_seconds = cli.get_double("default-deadline");
    opt.max_deadline_seconds = cli.get_double("max-deadline");
    opt.stall_timeout_seconds = cli.get_double("stall-timeout");
    opt.prepare_deadline_seconds = cli.get_double("prepare-deadline");
    opt.wire.max_frame_bytes =
        static_cast<std::size_t>(cli.get_int("max-frame-mb")) << 20;
    opt.max_batch = static_cast<int>(cli.get_int("max-batch"));
    opt.prepare_measure = !cli.get_flag("no-measure");
    opt.simd = !cli.get_flag("no-simd");

    Server server(opt);
    server.start();
    std::fprintf(stderr, "bspmv_serve: listening on %s (%d workers)\n",
                 opt.socket_path.c_str(), opt.workers);

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    // wait() returns on a kShutdown frame; poll the signal flag alongside
    // so Ctrl-C / TERM also stop the daemon cleanly.
    while (!server.stopping() && g_signal == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();
    std::fprintf(stderr, "bspmv_serve: stopped\n");
    return 0;
  } catch (const io_error& e) {
    std::fprintf(stderr, "bspmv_serve: io error: %s\n", e.what());
    return 6;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bspmv_serve: %s\n", e.what());
    return 1;
  }
}
