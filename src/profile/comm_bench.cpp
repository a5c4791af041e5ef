#include "src/profile/comm_bench.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "src/serve/protocol.hpp"
#include "src/util/errors.hpp"
#include "src/util/timing.hpp"

namespace bspmv {

namespace {

using serve::MsgType;

/// Echo loop run in the forked child: reflect every frame until EOF.
[[noreturn]] void echo_child(int fd, const serve::WireLimits& limits) {
  try {
    MsgType type{};
    std::string payload;
    while (serve::read_frame(fd, type, payload, limits))
      serve::write_frame(fd, type, payload, limits);
    _exit(0);
  } catch (...) {
    _exit(1);
  }
}

// Best round trip of `payload` over `trials` one-trip batches, after
// `warmup` untimed trips.
double best_rtt(int fd, const serve::WireLimits& limits,
                const std::string& payload, int trials, int warmup) {
  MsgType type{};
  std::string reply;
  const Measurement m{.batches = trials, .warmup = warmup};
  return m.run([&] {
            serve::write_frame(fd, MsgType::kPing, payload, limits);
            if (!serve::read_frame(fd, type, reply, limits))
              throw io_error("comm benchmark echo child exited early");
          }).min;
}

}  // namespace

CommProfile profile_comm(bool quick) {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw io_error(std::string("socketpair failed: ") + std::strerror(errno));

  serve::WireLimits limits;
  limits.read_timeout_seconds = 10.0;

  const pid_t pid = fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw io_error(std::string("fork failed: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    echo_child(fds[1], limits);
  }
  ::close(fds[1]);

  CommProfile p;
  try {
    const int small_trials = quick ? 50 : 400;
    const int big_trials = quick ? 3 : 8;
    const std::size_t big_bytes = quick ? (1u << 20) : (8u << 20);

    // α: half the best empty-frame round trip, after 5 trips that warm
    // both directions (page-in, socket buffer growth) off the clock. The
    // 20-byte header still crosses the wire, but its bytes/β share is
    // sub-nanosecond noise.
    p.alpha_seconds = best_rtt(fds[0], limits, "", small_trials, 5) / 2.0;

    // β: a big frame's round trip moves 2·bytes through the socket and
    // is dominated by the copies; subtract the latency floor.
    const std::string big(big_bytes, '\x5a');
    const double rtt = best_rtt(fds[0], limits, big, big_trials, 0);
    const double stream = std::max(rtt - 2.0 * p.alpha_seconds, 1e-9);
    p.beta_bps = 2.0 * static_cast<double>(big.size()) / stream;
  } catch (...) {
    ::close(fds[0]);
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    throw;
  }

  ::close(fds[0]);  // EOF stops the echo loop
  ::waitpid(pid, nullptr, 0);
  return p;
}

}  // namespace bspmv
