#include "src/dist/driver.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>

#include "src/core/candidates.hpp"
#include "src/core/engine.hpp"
#include "src/dist/checkpoint.hpp"
#include "src/dist/fdpass.hpp"
#include "src/dist/rank.hpp"
#include "src/observe/observe.hpp"
#include "src/observe/registry.hpp"
#include "src/util/errors.hpp"
#include "src/util/macros.hpp"
#include "src/util/numerics.hpp"
#include "src/util/timing.hpp"

namespace bspmv::dist {

using serve::MsgType;

namespace {

/// One full-duplex socketpair; [0] stays with `a`, [1] with `b`.
struct Pair {
  int fds[2] = {-1, -1};
};

void make_pair_or_throw(Pair& p) {
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, p.fds) != 0)
    throw io_error(std::string("socketpair failed: ") +
                   std::strerror(errno));
}

void close_quiet(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// Failure-cause precedence for a round's classification.
int cause_rank(const std::string& c) {
  if (c == "rank_dead") return 3;
  if (c == "rank_stalled") return 2;
  if (c == "rank_error") return 1;
  return 0;
}

}  // namespace

const char* dist_outcome_name(DistOutcome o) {
  switch (o) {
    case DistOutcome::kClean: return "clean";
    case DistOutcome::kRecovered: return "recovered";
    case DistOutcome::kResharded: return "resharded";
    case DistOutcome::kSingleNode: return "single_node";
  }
  return "?";
}

DistSpmv::DistSpmv(const Csr<double>& a, const DistOptions& opt)
    : opt_(opt) {
  BSPMV_CHECK_MSG(opt_.threads_per_rank >= 0 && opt_.threads_per_rank <= 64,
                  "threads_per_rank out of range");
  BSPMV_CHECK_MSG(opt_.timeout_seconds > 0.0, "timeout must be positive");
  limits_.read_timeout_seconds = opt_.timeout_seconds;
  // Supervision needs the matrix after construction: respawn re-ships
  // shards, the ladder re-shards or runs single-node.
  if (opt_.supervise.enabled) matrix_ = a;
  build_mesh(a, opt_.ranks);
}

void DistSpmv::build_mesh(const Csr<double>& a, int ranks) {
  // A fresh deterministic plan over `ranks`; armed test faults do not
  // carry over (rank identities changed).
  plan_ = plan_shards(a, ranks);  // validates the rank count
  opt_.ranks = ranks;
  const std::size_t n = static_cast<std::size_t>(ranks);
  persistent_faults_.assign(n, FaultMsg{});
  stats_.assign(n, RankStats{});
  // A fresh mesh is a respawn of every rank with no survivors: the
  // survivor rewire and the fault re-arm in spawn_ranks do nothing.
  pids_.assign(n, -1);
  ctrl_fds_.assign(n, -1);
  std::vector<int> all(n);
  std::iota(all.begin(), all.end(), 0);
  try {
    spawn_ranks(a, all);
  } catch (...) {
    // Reap whatever was forked: a throwing constructor runs no destructor.
    shutdown();
    throw;
  }
}

void DistSpmv::ship_shard(const Csr<double>& a, int r) {
  const auto& row_ptr = a.row_ptr();
  const auto& col_ind = a.col_ind();
  const auto& val = a.val();
  const RankShard& sh = plan_.shards[static_cast<std::size_t>(r)];
  ShardMsg msg;
  msg.rank = static_cast<std::uint32_t>(r);
  msg.ranks = static_cast<std::uint32_t>(opt_.ranks);
  msg.threads = static_cast<std::uint32_t>(opt_.threads_per_rank);
  msg.row_begin = sh.row_begin;
  msg.row_end = sh.row_end;
  msg.x_begin = sh.x_begin;
  msg.x_end = sh.x_end;
  msg.cols = a.cols();
  msg.halo_seg = sh.halo_seg;
  msg.send_cols = sh.send_cols;
  const index_t nz0 = row_ptr[sh.row_begin];
  const index_t nz1 = row_ptr[sh.row_end];
  msg.row_ptr.reserve(static_cast<std::size_t>(sh.rows()) + 1);
  for (index_t i = sh.row_begin; i <= sh.row_end; ++i)
    msg.row_ptr.push_back(row_ptr[i] - nz0);
  msg.col_ind.assign(col_ind.begin() + nz0, col_ind.begin() + nz1);
  msg.val.assign(val.begin() + nz0, val.begin() + nz1);
  serve::write_frame(ctrl_fds_[static_cast<std::size_t>(r)], MsgType::kShard,
                     msg.encode(), limits_);
}

void DistSpmv::expect_ok(int r, MsgType want, const serve::WireLimits& lim) {
  MsgType type{};
  std::string payload;
  if (!serve::read_frame(ctrl_fds_[static_cast<std::size_t>(r)], type,
                         payload, lim))
    throw io_error("rank " + std::to_string(r) + " exited while the driver "
                   "waited for " + serve::msg_type_name(want));
  if (type == MsgType::kError) {
    const auto rep = serve::ErrorReply::decode(payload);
    serve::throw_wire_error(rep.code,
                            "rank " + std::to_string(r) + ": " + rep.message);
  }
  if (type != want)
    throw parse_error(std::string("expected ") + serve::msg_type_name(want) +
                      " from rank, got " + serve::msg_type_name(type));
}

serve::WireLimits DistSpmv::round_limits() const {
  // Satellite of the supervision work: a run-level deadline (RunControl)
  // bounds wire waits too — the per-frame read timeout never exceeds the
  // remaining run budget.
  serve::WireLimits lim = limits_;
  if (control_ && control_->has_deadline()) {
    const double rem = control_->remaining_seconds();
    lim.read_timeout_seconds =
        std::max(0.05, std::min(lim.read_timeout_seconds, rem));
  }
  return lim;
}

bool DistSpmv::child_exited(int r) {
  pid_t& pid = pids_[static_cast<std::size_t>(r)];
  if (pid <= 0) return true;
  const pid_t got = ::waitpid(pid, nullptr, WNOHANG);
  if (got == pid || (got < 0 && errno == ECHILD)) {
    pid = -1;
    return true;
  }
  return false;
}

void DistSpmv::force_down(int r) noexcept {
  pid_t& pid = pids_[static_cast<std::size_t>(r)];
  if (pid > 0) {
    const pid_t got = ::waitpid(pid, nullptr, WNOHANG);
    if (got != pid) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    pid = -1;
  }
  close_quiet(ctrl_fds_[static_cast<std::size_t>(r)]);
}

int DistSpmv::live_ranks() const {
  int live = 0;
  for (pid_t pid : pids_)
    if (pid > 0) ++live;
  return live;
}

void DistSpmv::run(const double* x, double* y, int iterations) {
  BSPMV_CHECK_MSG(iterations >= 1, "iterations must be >= 1");
  BSPMV_OBS_SPAN("dist/run");
  Timer wall;
  log_.clear();
  outcome_ = DistOutcome::kClean;
  resumed_ = 0;
  if (control_) control_->check();
  if (pids_.empty()) {
    // A previous supervised run degraded to single-node and tore the
    // mesh down; every later run stays on the single-node rung.
    BSPMV_CHECK_MSG(opt_.supervise.enabled && matrix_.rows() > 0,
                    "distributed mesh is gone (was it shut down?)");
    outcome_ = DistOutcome::kSingleNode;
    // Every iteration recomputes the same y from the constant x, so one
    // engine pass covers the whole run.
    run_single_node(x, y);
    observe::CounterRegistry::instance().add_span("dist/run_wall",
                                                  wall.elapsed());
    return;
  }
  run_rounds(x, y, iterations);
  observe::CounterRegistry::instance().add_span("dist/run_wall",
                                                wall.elapsed());
}

DistSpmv::RoundResult DistSpmv::run_round(const double* x, double* y,
                                          int step, int first,
                                          std::uint32_t progress_every) {
  const serve::WireLimits lim = round_limits();
  ++epoch_;
  const int n = opt_.ranks;
  RoundResult rr;

  auto note = [&rr](int r, const char* cause, const std::string& msg,
                    std::exception_ptr ep, bool now_dead) {
    rr.ok = false;
    if (now_dead) rr.failed.push_back(r);
    if (cause_rank(cause) > cause_rank(rr.cause)) rr.cause = cause;
    if (rr.message.empty())
      rr.message = "rank " + std::to_string(r) + ": " + msg;
    if (!rr.error && ep) rr.error = ep;
  };

  std::vector<char> sent(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    if (pids_[static_cast<std::size_t>(r)] <= 0) {
      // Already down: a previous recovery failed to bring it back, or a
      // failed unsupervised round took it down.
      note(r, "rank_dead", "down entering the round",
           std::make_exception_ptr(io_error(
               "rank " + std::to_string(r) + " is down entering the round")),
           true);
      continue;
    }
    const RankShard& sh = plan_.shards[static_cast<std::size_t>(r)];
    RunMsg msg;
    msg.mode = opt_.mode;
    msg.impl = opt_.impl == Impl::kSimd ? 1 : 0;
    msg.iterations = static_cast<std::uint32_t>(step);
    msg.epoch = epoch_;
    msg.first_iteration = static_cast<std::uint32_t>(first);
    msg.progress_every = progress_every;
    msg.x.assign(x + sh.x_begin, x + sh.x_end);
    try {
      serve::write_frame(ctrl_fds_[static_cast<std::size_t>(r)],
                         MsgType::kDistRun, msg.encode(), lim);
      sent[static_cast<std::size_t>(r)] = 1;
    } catch (const error& e) {
      // A write on a socketpair only fails when the child is gone.
      force_down(r);
      note(r, "rank_dead", e.what(), std::current_exception(), true);
    }
  }

  // Collect a reply from EVERY rank the round reached, so no throw-on-
  // first-failure here: recovery must start from a quiesced mesh, and a
  // reply left unread would be taken as the next run's result. The
  // collect deadline carries a grace over the rank-side wire timeout so a
  // rank's own typed timeout surfaces as kError before the driver
  // classifies the rank itself as stalled. It is one deadline for the
  // whole collect, so k stalled ranks cost one grace, not k; a progress
  // heartbeat proves the round alive and pushes it out by a grace.
  double grace = lim.read_timeout_seconds * 1.5 + 0.5;
  if (control_ && control_->has_deadline())
    grace = std::max(0.05, std::min(grace, control_->remaining_seconds()));
  Timer since;
  double deadline = grace;
  serve::WireLimits collect = lim;
  for (int r = 0; r < n; ++r) {
    if (!sent[static_cast<std::size_t>(r)]) continue;
    const RankShard& sh = plan_.shards[static_cast<std::size_t>(r)];
    try {
      for (;;) {
        MsgType type{};
        std::string payload;
        // A reply already queued is read even once the deadline passed.
        collect.read_timeout_seconds =
            std::max(0.05, deadline - since.elapsed());
        if (!serve::read_frame(ctrl_fds_[static_cast<std::size_t>(r)], type,
                               payload, collect)) {
          force_down(r);
          note(r, "rank_dead", "exited mid-round (no dist_done frame)",
               std::make_exception_ptr(io_error(
                   "rank " + std::to_string(r) +
                   " exited mid-run (no dist_done frame)")),
               true);
          break;
        }
        if (type == MsgType::kProgress) {  // heartbeat
          deadline = since.elapsed() + grace;
          continue;
        }
        if (type == MsgType::kError) {
          const auto rep = serve::ErrorReply::decode(payload);
          std::exception_ptr ep;
          try {
            serve::throw_wire_error(
                rep.code, "rank " + std::to_string(r) + ": " + rep.message);
          } catch (...) {
            ep = std::current_exception();
          }
          // The rank reported and survived: alive, not in the dead set.
          note(r, "rank_error", rep.message, ep, false);
          break;
        }
        if (type != MsgType::kDistDone)
          throw parse_error(
              std::string("expected dist_done from rank, got ") +
              serve::msg_type_name(type));
        DoneMsg done = DoneMsg::decode(payload);
        if (done.y.size() != static_cast<std::size_t>(sh.rows()))
          throw parse_error("rank returned " + std::to_string(done.y.size()) +
                            " y values for " + std::to_string(sh.rows()) +
                            " rows");
        std::copy(done.y.begin(), done.y.end(), y + sh.row_begin);
        RankStats& acc = stats_[static_cast<std::size_t>(r)];
        acc.iterations += done.stats.iterations;
        acc.send_seconds += done.stats.send_seconds;
        acc.recv_seconds += done.stats.recv_seconds;
        acc.wait_seconds += done.stats.wait_seconds;
        acc.local_seconds += done.stats.local_seconds;
        acc.halo_seconds += done.stats.halo_seconds;
        acc.total_seconds += done.stats.total_seconds;
        acc.bytes_sent += done.stats.bytes_sent;
        acc.bytes_recv += done.stats.bytes_recv;
        acc.msgs_sent += done.stats.msgs_sent;
        acc.msgs_recv += done.stats.msgs_recv;
        rr.bytes += done.stats.bytes_sent;
        rr.msgs += done.stats.msgs_sent;
        observe::CounterRegistry::instance().add_thread_time(
            std::string("dist/") + dist_mode_name(opt_.mode), r,
            done.stats.total_seconds,
            sh.nnz * static_cast<std::uint64_t>(step));
        break;
      }
    } catch (const timeout_error& e) {
      // No reply within the grace window: a stall. The rank cannot be
      // trusted mid-protocol and its late reply would be read by the next
      // round, so it joins the dead set via SIGKILL (in both modes) and
      // recovery respawns it. (If it in fact died, waitpid says so.)
      const bool was_dead = child_exited(r);
      force_down(r);
      if (!was_dead) BSPMV_OBS_COUNT("dist.recovery.stalls_killed", 1);
      note(r, was_dead ? "rank_dead" : "rank_stalled", e.what(),
           std::current_exception(), true);
    } catch (const error& e) {
      // Undecodable traffic on the control channel: the stream is not
      // trustworthy any more; take the rank down and respawn it.
      force_down(r);
      note(r, "rank_dead", e.what(), std::current_exception(), true);
    }
  }
  return rr;
}

void DistSpmv::run_rounds(const double* x, double* y, int iterations) {
  // Unsupervised, the run is one round of every iteration with no retry
  // and no ladder rung, so its first failure takes the abort exit below.
  // No other SuperviseOptions field is read.
  SuperviseOptions sup = opt_.supervise;
  if (!sup.enabled) {
    sup = SuperviseOptions{};
    sup.max_respawns = 0;
    sup.checkpoint_interval = iterations;
    sup.allow_reshard = false;
    sup.allow_single_node = false;
  }
  int interval = sup.checkpoint_interval;
  if (interval <= 0) interval = std::max(1, (iterations + 3) / 4);
  interval = std::min(interval, iterations);

  const std::size_t n_x = static_cast<std::size_t>(plan_.cols);
  int completed = 0;
  std::uint64_t xfp = 0;
  if (!sup.checkpoint_path.empty()) {
    xfp = bits_fingerprint(x, n_x);
    if (auto ck = load_checkpoint(sup.checkpoint_path)) {
      if (ck->x_fingerprint == xfp &&
          ck->total == static_cast<std::uint32_t>(iterations) &&
          ck->completed > 0) {
        // Resume the count, but always rerun at least one iteration:
        // each iteration recomputes y from the constant x, so the rerun
        // both materialises y in this process and stays bitwise
        // faithful to a fault-free run.
        completed = std::min(static_cast<int>(ck->completed), iterations - 1);
        resumed_ = completed;
        BSPMV_OBS_COUNT("dist.recovery.resumed_iterations",
                        static_cast<std::uint64_t>(completed));
      }
    }
  }

  stats_.assign(static_cast<std::size_t>(opt_.ranks), RankStats{});
  std::uint64_t bytes = 0, msgs = 0;
  int consecutive = 0;
  double backoff_ms = sup.backoff_initial_ms;

  while (completed < iterations) {
    if (control_) control_->check();  // typed deadline/cancel between rounds
    const int step = std::min(interval, iterations - completed);
    RoundResult rr = run_round(x, y, step, completed, sup.progress_every);
    bytes += rr.bytes;
    msgs += rr.msgs;
    if (rr.ok) {
      completed += step;
      consecutive = 0;
      backoff_ms = sup.backoff_initial_ms;
      if (!sup.checkpoint_path.empty() && completed < iterations) {
        DistCheckpoint ck;
        ck.completed = static_cast<std::uint32_t>(completed);
        ck.total = static_cast<std::uint32_t>(iterations);
        ck.x_fingerprint = xfp;
        ck.x.assign(x, x + n_x);
        try {
          save_checkpoint(sup.checkpoint_path, ck);
          BSPMV_OBS_COUNT("dist.recovery.checkpoints", 1);
        } catch (const error&) {
          // A failed checkpoint write costs the resume point, never the
          // run; the next round retries it.
        }
      }
      continue;
    }

    ++consecutive;
    BSPMV_OBS_COUNT("dist.recovery.failed_rounds", 1);
    Timer rt;
    RecoveryEvent ev;
    ev.epoch = epoch_;
    ev.completed_iterations = completed;
    ev.cause = rr.cause;
    ev.failed_ranks = rr.failed;
    ev.detail = rr.message;

    if (consecutive > sup.max_respawns) {
      // The retry rung is exhausted: walk the degradation ladder.
      const int live = live_ranks();
      if (sup.allow_reshard && live >= 2 && live < opt_.ranks) {
        shutdown();
        build_mesh(matrix_, live);
        ev.action = "reshard";
        ev.ranks_after = opt_.ranks;
        ev.seconds = rt.elapsed();
        log_.push_back(ev);
        outcome_ = DistOutcome::kResharded;
        consecutive = 0;
        backoff_ms = sup.backoff_initial_ms;
        BSPMV_OBS_COUNT("dist.recovery.resharded", 1);
        continue;
      }
      if (sup.allow_single_node) {
        ev.action = "single_node";
        ev.ranks_after = 1;
        ev.seconds = rt.elapsed();
        log_.push_back(ev);
        outcome_ = DistOutcome::kSingleNode;
        BSPMV_OBS_COUNT("dist.recovery.single_node", 1);
        shutdown();
        run_single_node(x, y);
        completed = iterations;
        continue;
      }
      ev.action = "abort";
      ev.ranks_after = live;
      // A failed round that killed no rank can leave halo frames in
      // flight, which would fail every later run as stale. Drain them;
      // a drain that fails is logged, and the next run reports it.
      if (rr.failed.empty()) {
        try {
          drain();
        } catch (const error& e) {
          ev.detail += std::string(" | drain: ") + e.what();
        }
      }
      ev.seconds = rt.elapsed();
      log_.push_back(ev);
      if (rr.error) std::rethrow_exception(rr.error);
      throw io_error("distributed run failed with no ladder rung "
                     "enabled: " + rr.message);
    }

    // Bounded retry: back off, heal the mesh, go around again.
    const double ms = std::min(backoff_ms, sup.backoff_max_ms);
    ev.backoff_ms = ms;
    ::usleep(static_cast<useconds_t>(ms * 1000.0));
    backoff_ms *= 2.0;
    try {
      recover(rr.failed);
      ev.action = rr.failed.empty() ? "retry" : "respawn";
      ev.ranks_after = opt_.ranks;
      if (outcome_ == DistOutcome::kClean) outcome_ = DistOutcome::kRecovered;
      if (!rr.failed.empty())
        BSPMV_OBS_COUNT("dist.recovery.respawns", rr.failed.size());
    } catch (const error& e) {
      // A failed recovery just leaves the next round to fail too; the
      // consecutive counter walks the ladder.
      ev.action = "respawn_failed";
      ev.detail += std::string(" | recovery: ") + e.what();
      BSPMV_OBS_COUNT("dist.recovery.respawn_failures", 1);
    }
    ev.seconds = rt.elapsed();
    log_.push_back(ev);
  }

  // The run completed; the resume point is obsolete.
  if (!sup.checkpoint_path.empty()) ::unlink(sup.checkpoint_path.c_str());
  BSPMV_OBS_COUNT("dist.runs", 1);
  BSPMV_OBS_COUNT("dist.iterations",
                  static_cast<std::uint64_t>(iterations - resumed_));
  BSPMV_OBS_COUNT("dist.halo_bytes", bytes);
  BSPMV_OBS_COUNT("dist.halo_msgs", msgs);
}

void DistSpmv::recover(const std::vector<int>& failed) {
  BSPMV_OBS_SPAN("dist/recover");
  if (!failed.empty()) spawn_ranks(matrix_, failed);
  drain();
}

void DistSpmv::drain() {
  // Quiesce + drain: every rank discards whatever stale pre-recovery
  // frames a failed peer left in its kernel buffers, so the next epoch
  // starts on clean streams (the epoch stamp on every halo frame is the
  // belt to this suspenders).
  const serve::WireLimits lim = round_limits();
  for (int r = 0; r < opt_.ranks; ++r) {
    if (pids_[static_cast<std::size_t>(r)] <= 0)
      throw io_error("rank " + std::to_string(r) + " is down at the drain");
    serve::write_frame(ctrl_fds_[static_cast<std::size_t>(r)],
                       MsgType::kDrain, "", lim);
  }
  std::uint64_t stale = 0;
  for (int r = 0; r < opt_.ranks; ++r) {
    MsgType type{};
    std::string payload;
    if (!serve::read_frame(ctrl_fds_[static_cast<std::size_t>(r)], type,
                           payload, lim))
      throw io_error("rank " + std::to_string(r) + " exited during drain");
    if (type == MsgType::kError) {
      const auto rep = serve::ErrorReply::decode(payload);
      serve::throw_wire_error(
          rep.code, "rank " + std::to_string(r) + ": " + rep.message);
    }
    if (type != MsgType::kDrainOk)
      throw parse_error(std::string("expected drain_ok from rank, got ") +
                        serve::msg_type_name(type));
    stale += DrainReply::decode(payload).bytes;
  }
  if (stale > 0) BSPMV_OBS_COUNT("dist.recovery.stale_bytes", stale);
}

// The one mesh builder: forks the ranks in `dead_in` (all of them for a
// fresh mesh) on fresh channels, ships their shards and rewires every
// surviving rank to them.
void DistSpmv::spawn_ranks(const Csr<double>& a,
                           const std::vector<int>& dead_in) {
  std::vector<int> dead = dead_in;
  std::sort(dead.begin(), dead.end());
  dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
  const int n = opt_.ranks;
  std::vector<char> is_dead(static_cast<std::size_t>(n), 0);
  for (int d : dead) {
    BSPMV_CHECK(d >= 0 && d < n);
    BSPMV_CHECK_MSG(pids_[static_cast<std::size_t>(d)] <= 0,
                    "spawn asked for a rank that is still alive");
    is_dead[static_cast<std::size_t>(d)] = 1;
  }

  // Fresh channels: one ctrl pair per dead rank, one data pair for every
  // rank pair with at least one dead endpoint. All pairs must exist
  // before the first fork so each new child inherits its ends to every
  // peer, including other respawned ranks.
  std::vector<Pair> ctrl(static_cast<std::size_t>(n));
  // data[i][j] for i < j: fds[0] is rank i's end, fds[1] rank j's.
  std::vector<std::vector<Pair>> data(static_cast<std::size_t>(n));
  for (auto& row : data) row.resize(static_cast<std::size_t>(n));

  auto close_all_local = [&] {
    for (auto& c : ctrl) {
      close_quiet(c.fds[0]);
      close_quiet(c.fds[1]);
    }
    for (auto& row : data)
      for (auto& d : row) {
        close_quiet(d.fds[0]);
        close_quiet(d.fds[1]);
      }
  };

  try {
    for (int d : dead) make_pair_or_throw(ctrl[static_cast<std::size_t>(d)]);
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j)
        if (is_dead[static_cast<std::size_t>(i)] ||
            is_dead[static_cast<std::size_t>(j)])
          make_pair_or_throw(data[static_cast<std::size_t>(i)]
                                 [static_cast<std::size_t>(j)]);

    for (int d : dead) {
      const pid_t pid = fork();
      if (pid < 0)
        throw io_error(std::string("fork failed: ") + std::strerror(errno));
      if (pid == 0) {
        // Child: keep only this rank's fds, serve, and _exit — never
        // return into the parent's stack/atexit/gtest machinery.
        RankContext ctx;
        ctx.rank = d;
        ctx.limits = limits_;
        ctx.ctrl_fd = ctrl[static_cast<std::size_t>(d)].fds[1];
        ctx.peer_fds.assign(static_cast<std::size_t>(n), -1);
        for (int q = 0; q < n; ++q) {
          if (q == d) continue;
          const int i = std::min(d, q), j = std::max(d, q);
          Pair& p = data[static_cast<std::size_t>(i)]
                        [static_cast<std::size_t>(j)];
          ctx.peer_fds[static_cast<std::size_t>(q)] =
              d == i ? p.fds[0] : p.fds[1];
        }
        // Close everything else inherited from the parent: the live
        // ranks' ctrl channels, other new ctrl pairs, the parent side of
        // this rank's own pairs, and every pair end that is not ours.
        for (int q = 0; q < n; ++q) {
          Pair& c = ctrl[static_cast<std::size_t>(q)];
          if (q == d) {
            close_quiet(c.fds[0]);
          } else {
            close_quiet(c.fds[0]);
            close_quiet(c.fds[1]);
          }
        }
        for (int& fd : ctrl_fds_) close_quiet(fd);
        for (int i = 0; i < n; ++i)
          for (int j = i + 1; j < n; ++j) {
            Pair& p = data[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(j)];
            if (i == d) {
              close_quiet(p.fds[1]);
            } else if (j == d) {
              close_quiet(p.fds[0]);
            } else {
              close_quiet(p.fds[0]);
              close_quiet(p.fds[1]);
            }
          }
        _exit(rank_main(ctx));
      }
      pids_[static_cast<std::size_t>(d)] = pid;
    }

    // Parent bookkeeping: adopt the new ctrl ends; release the fds the
    // children now own. Ends destined for live survivors stay open until
    // SCM_RIGHTS delivers them.
    for (int d : dead) {
      Pair& c = ctrl[static_cast<std::size_t>(d)];
      close_quiet(ctrl_fds_[static_cast<std::size_t>(d)]);
      ctrl_fds_[static_cast<std::size_t>(d)] = c.fds[0];
      c.fds[0] = -1;
      close_quiet(c.fds[1]);
    }
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) {
        Pair& p = data[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(j)];
        if (is_dead[static_cast<std::size_t>(i)]) close_quiet(p.fds[0]);
        if (is_dead[static_cast<std::size_t>(j)]) close_quiet(p.fds[1]);
      }

    // Ship the shards — the ShardPlan is deterministic, so a respawned
    // rank gets the slice it held before — and re-arm any persistent
    // test faults. Children are already blocked in read_frame, so the
    // sequential sends drain.
    const serve::WireLimits lim = round_limits();
    {
      BSPMV_OBS_SPAN("dist/shard");
      for (int d : dead) ship_shard(a, d);
      for (int d : dead) expect_ok(d, MsgType::kShardOk, lim);
    }
    for (int d : dead) {
      const FaultMsg& f = persistent_faults_[static_cast<std::size_t>(d)];
      if (f.kind == FaultKind::kNone) continue;
      serve::write_frame(ctrl_fds_[static_cast<std::size_t>(d)],
                         MsgType::kFault, f.encode(), lim);
      expect_ok(d, MsgType::kFaultOk, lim);
    }

    // Rewire every survivor: announce the replaced peers, then pass each
    // replacement fd over the control stream (ordered, so the fds land
    // right behind the frame).
    PeerUpdateMsg upd;
    for (int d : dead) upd.peers.push_back(static_cast<std::uint32_t>(d));
    const std::string upd_payload = upd.encode();
    for (int q = 0; q < n; ++q) {
      if (is_dead[static_cast<std::size_t>(q)] ||
          pids_[static_cast<std::size_t>(q)] <= 0)
        continue;
      const int cfd = ctrl_fds_[static_cast<std::size_t>(q)];
      serve::write_frame(cfd, MsgType::kPeerUpdate, upd_payload, lim);
      for (int d : dead) {
        const int i = std::min(d, q), j = std::max(d, q);
        Pair& p = data[static_cast<std::size_t>(i)]
                      [static_cast<std::size_t>(j)];
        int& fd = q == i ? p.fds[0] : p.fds[1];
        send_fd(cfd, fd);
        close_quiet(fd);
      }
      expect_ok(q, MsgType::kPeerOk, lim);
    }
  } catch (...) {
    close_all_local();
    throw;
  }
  close_all_local();
}

void DistSpmv::run_single_node(const double* x, double* y) {
  // Final ladder rung, mirroring the serve layer's: a plain serial
  // scalar-CSR engine over the retained matrix. Different summation
  // order than the sharded run (tolerance-correct, not bitwise), which
  // is why the outcome is always reported, never silent.
  Candidate c;
  c.impl = opt_.impl;
  auto engine = SpmvEngine<double>::prepare(matrix_, c, /*threads=*/0);
  engine.run(x, y);
}

void DistSpmv::kill_rank(int r) {
  BSPMV_CHECK(r >= 0 && r < static_cast<int>(pids_.size()));
  if (pids_[static_cast<std::size_t>(r)] > 0)
    ::kill(pids_[static_cast<std::size_t>(r)], SIGKILL);
}

void DistSpmv::inject_fault(int r, const FaultMsg& f, bool persistent) {
  BSPMV_CHECK(r >= 0 && r < static_cast<int>(pids_.size()));
  if (persistent) persistent_faults_[static_cast<std::size_t>(r)] = f;
  serve::write_frame(ctrl_fds_[static_cast<std::size_t>(r)], MsgType::kFault,
                     f.encode(), limits_);
  expect_ok(r, MsgType::kFaultOk, limits_);
}

void DistSpmv::shutdown() noexcept {
  serve::WireLimits quick = limits_;
  quick.read_timeout_seconds = std::min(limits_.read_timeout_seconds, 5.0);
  for (int& fd : ctrl_fds_) {
    if (fd < 0) continue;
    try {
      serve::write_frame(fd, MsgType::kShutdown, "", quick);
      MsgType type{};
      std::string payload;
      serve::read_frame(fd, type, payload, quick);
    } catch (...) {
      // A dead or wedged rank is handled by the reaper below.
    }
    close_quiet(fd);
  }
  ctrl_fds_.clear();

  Timer t;
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    for (;;) {
      const pid_t got = ::waitpid(pid, nullptr, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD)) break;
      if (t.elapsed() > 5.0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        break;
      }
      ::usleep(2000);
    }
    pid = -1;
  }
  pids_.clear();
}

DistSpmv::~DistSpmv() { shutdown(); }

std::array<ModeTiming, 2> time_modes(
    DistSpmv& d, const double* x, double* y, int iterations, int batches,
    bool warm, const std::function<void(const DistSpmv&)>& after_run) {
  BSPMV_CHECK_MSG(iterations >= 1, "iterations must be >= 1");
  const DistMode original = d.mode();
  std::array<ModeTiming, 2> out;
  out[0].mode = DistMode::kNaive;
  out[1].mode = DistMode::kOverlap;
  std::vector<std::function<void()>> arms;
  for (const ModeTiming& t : out) {
    if (warm) {
      d.set_mode(t.mode);
      d.run(x, y, 1);  // page-in, socket buffers
    }
    arms.push_back([&d, &t, x, y, iterations] {
      d.set_mode(t.mode);
      d.run(x, y, iterations);
    });
  }
  std::array<std::vector<std::vector<RankStats>>, 2> stats;
  Measurement m{.batches = batches, .warmup = 0};
  m.after_batch = [&](std::size_t arm) {
    stats[arm].push_back(d.last_stats());
    if (after_run) after_run(d);
  };
  const std::vector<Samples> runs = m.run(arms);
  d.set_mode(original);

  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> per_iter;
    for (double s : runs[i].seconds) per_iter.push_back(s / iterations);
    out[i].samples = summarize(std::move(per_iter),
                               static_cast<std::uint64_t>(iterations));
    // Report the timeline of the run whose time is reported.
    const std::vector<double>& secs = out[i].samples.seconds;
    const double med = out[i].samples.median;
    std::size_t pick = 0;
    for (std::size_t k = 1; k < secs.size(); ++k)
      if (std::abs(secs[k] - med) < std::abs(secs[pick] - med)) pick = k;
    out[i].rank_stats = stats[i][pick];
  }
  return out;
}

const char* measured_mode(const std::array<ModeTiming, 2>& t) {
  switch (compare(t[1].samples, t[0].samples)) {
    case Verdict::kFaster: return dist_mode_name(t[1].mode);
    case Verdict::kSlower: return dist_mode_name(t[0].mode);
    case Verdict::kIndistinguishable: break;
  }
  return verdict_name(Verdict::kIndistinguishable);
}

}  // namespace bspmv::dist
