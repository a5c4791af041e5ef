#include "src/dist/rank.hpp"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/dist/comm.hpp"
#include "src/dist/fdpass.hpp"
#include "src/dist/halo_format.hpp"
#include "src/dist/messages.hpp"
#include "src/dist/shard_plan.hpp"
#include "src/formats/format_ops.hpp"
#include "src/parallel/parallel_spmv.hpp"
#include "src/util/aligned.hpp"
#include "src/util/errors.hpp"
#include "src/util/timing.hpp"

namespace bspmv::dist {

using serve::MsgType;

namespace {

/// One rank's prepared state: the column-split shard plus its local-pass
/// executor. A multi-thread rank builds its TaskPool fresh in this
/// (forked) process and passes it explicitly — TaskPool::shared would
/// hand back a threadless width-1 pool here (the parent's pools' worker
/// threads died at fork), too narrow for a multi-thread executor.
struct RankState {
  RankShard shard;
  HaloDec<double> mat;
  std::shared_ptr<TaskPool> pool;
  std::unique_ptr<ThreadedSpmv<Csr<double>>> local_graph;
  FaultMsg fault;  ///< armed test fault (kFault); one-shot
};

/// Fills `st` in place: the ThreadedSpmv keeps a pointer to the local
/// submatrix, so the HaloDec must already sit at its final address when
/// the graph is built (no return-by-value moves after this).
void prepare(const ShardMsg& msg, RankState& st) {
  st.shard.row_begin = msg.row_begin;
  st.shard.row_end = msg.row_end;
  st.shard.x_begin = msg.x_begin;
  st.shard.x_end = msg.x_end;
  st.shard.halo_seg = msg.halo_seg;
  st.shard.send_cols = msg.send_cols;
  st.shard.nnz = msg.val.size();

  // Rebuild the CSR slice (global column ids, rows rebased to 0) and
  // column-split it; Csr's constructor revalidates the wire arrays.
  aligned_vector<index_t> rp(msg.row_ptr.begin(), msg.row_ptr.end());
  aligned_vector<index_t> ci(msg.col_ind.begin(), msg.col_ind.end());
  aligned_vector<double> v(msg.val.begin(), msg.val.end());
  const Csr<double> slice(msg.rows(), msg.cols, std::move(rp), std::move(ci),
                          std::move(v));
  st.mat = HaloDec<double>::split(slice, 0, slice.rows(), msg.x_begin,
                                  msg.x_end);
  st.shard.halo_cols = st.mat.halo_cols();
  st.shard.local_nnz = st.mat.local().nnz();
  st.shard.halo_nnz = st.mat.halo().nnz();
  if (st.shard.halo_seg.back() !=
      static_cast<index_t>(st.shard.halo_cols.size()))
    throw parse_error("dist shard halo segments disagree with the column "
                      "split (plan/matrix mismatch)");

  const int threads = static_cast<int>(msg.threads);
  if (threads >= 1) {
    if (threads > 1) st.pool = std::make_shared<TaskPool>(threads);
    st.local_graph = std::make_unique<ThreadedSpmv<Csr<double>>>(
        st.mat.local(), threads, ExecBackend::kTasks, st.pool);
  }
}

DoneMsg handle_run(const RankContext& ctx, RankState& st,
                   const RunMsg& run) {
  const index_t local_cols = st.mat.local_cols();
  const index_t halo_count = st.mat.halo_count();
  const std::size_t rows = static_cast<std::size_t>(st.mat.rows());
  if (run.x.size() != static_cast<std::size_t>(local_cols))
    throw parse_error("dist run x slice holds " +
                      std::to_string(run.x.size()) + " values, shard owns " +
                      std::to_string(local_cols));
  const Impl impl = run.impl == 1 ? Impl::kSimd : Impl::kScalar;

  // x is laid out [owned slice | halo values] — the HaloDec convention —
  // so the exchange fills the tail while the local pass reads the head.
  aligned_vector<double> x(static_cast<std::size_t>(local_cols) +
                           static_cast<std::size_t>(halo_count));
  std::copy(run.x.begin(), run.x.end(), x.begin());
  double* halo_x = x.data() + local_cols;
  aligned_vector<double> y(rows, 0.0);

  HaloExchange ex(st.shard, ctx.rank, ctx.peer_fds, ctx.limits);
  DoneMsg done;
  RankStats& s = done.stats;
  s.iterations = run.iterations;

  auto local_pass = [&] {
    if (st.local_graph) {
      st.local_graph->run(x.data(), y.data(), impl);
    } else {
      std::fill(y.begin(), y.end(), 0.0);
      FormatOps<Csr<double>>::spmv_add(st.mat.local(), x.data(), y.data(),
                                       impl);
    }
  };

  Timer total;
  for (std::uint32_t iter = 0; iter < run.iterations; ++iter) {
    // Armed test faults fire at their *global* iteration (chaos soak +
    // recovery tests): kills simulate a crashed rank — mid-iteration or
    // with an exchange posted so peers are left mid-protocol — stalls a
    // wedged one, and the corrupt kind mangles one outgoing halo frame.
    if (st.fault.kind != FaultKind::kNone &&
        st.fault.at_iteration == run.first_iteration + iter) {
      switch (st.fault.kind) {
        case FaultKind::kNone:
          break;
        case FaultKind::kExitAtIteration:
          _exit(9);
        case FaultKind::kStallAtIteration:
          ::usleep(static_cast<useconds_t>(st.fault.seconds * 1e6));
          st.fault = FaultMsg{};
          break;
        case FaultKind::kCorruptHaloSend:
          ex.corrupt_next_send();
          st.fault = FaultMsg{};
          break;
        case FaultKind::kExitInExchange:
          ex.start(x.data(), halo_x, iter, run.epoch);
          _exit(9);
      }
    }
    if (run.mode == DistMode::kOverlap) {
      // Post the exchange, compute the local columns while bytes fly,
      // then block only for whatever the compute did not hide.
      ex.start(x.data(), halo_x, iter, run.epoch);
      Timer tl;
      local_pass();
      s.local_seconds += tl.elapsed();
      Timer tw;
      ex.finish();
      s.wait_seconds += tw.elapsed();
    } else {
      // Naive: the full exchange is on the critical path.
      ex.start(x.data(), halo_x, iter, run.epoch);
      Timer tw;
      ex.finish();
      s.wait_seconds += tw.elapsed();
      Timer tl;
      local_pass();
      s.local_seconds += tl.elapsed();
    }
    Timer th;
    FormatOps<Csr<double>>::spmv_add(st.mat.halo(), halo_x, y.data(), impl);
    s.halo_seconds += th.elapsed();

    // Heartbeat: piggyback liveness on the control channel so the driver
    // can keep short wire timeouts across long rounds.
    if (run.progress_every > 0 && iter + 1 < run.iterations &&
        (iter + 1) % run.progress_every == 0) {
      ProgressMsg p;
      p.epoch = run.epoch;
      p.done = iter + 1;
      serve::write_frame(ctx.ctrl_fd, MsgType::kProgress, p.encode(),
                         ctx.limits);
    }
  }
  s.total_seconds = total.elapsed();
  s.send_seconds = ex.totals().send_seconds;
  s.recv_seconds = ex.totals().recv_seconds;
  s.bytes_sent = ex.totals().bytes_sent;
  s.bytes_recv = ex.totals().bytes_recv;
  s.msgs_sent = ex.totals().msgs_sent;
  s.msgs_recv = ex.totals().msgs_recv;

  done.y.assign(y.begin(), y.end());
  return done;
}

/// Report a failure to the driver without leaving the command loop.
void report_error(const RankContext& ctx, serve::ErrorCode code,
                  const char* what) {
  serve::ErrorReply rep;
  rep.code = code;
  rep.message = what;
  serve::write_frame(ctx.ctrl_fd, MsgType::kError, rep.encode(), ctx.limits);
}

}  // namespace

int rank_main(RankContext ctx) noexcept {
  try {
    MsgType type{};
    std::string payload;

    // Waiting for the next command is not bounded by the wire timeout:
    // the driver owns this process's lifetime, its death surfaces as EOF
    // here, and while the supervisor spends the collect grace on a
    // stalled peer (or backs off before a retry) the healthy ranks sit
    // exactly in this read. The short timeout still bounds every
    // mid-protocol read: halo frames, fd passing, replies.
    serve::WireLimits idle = ctx.limits;
    idle.read_timeout_seconds = 86400.0;

    // The shard always comes first (shipping is sequential across ranks,
    // so later ranks may wait on earlier, larger shards — be patient).
    if (!serve::read_frame(ctx.ctrl_fd, type, payload, idle))
      return 0;  // driver went away before shipping a shard
    if (type != MsgType::kShard)
      throw invalid_argument_error(
          std::string("rank expected shard frame, got ") +
          serve::msg_type_name(type));
    RankState st;
    prepare(ShardMsg::decode(payload), st);
    serve::write_frame(ctx.ctrl_fd, MsgType::kShardOk, "", ctx.limits);

    while (serve::read_frame(ctx.ctrl_fd, type, payload, idle)) {
      switch (type) {
        case MsgType::kDistRun: {
          // A run failure (dead/stalled peer, corrupt halo frame) is
          // reported but NOT fatal: the shard state is still valid, and
          // the supervisor retries the round once the mesh is healed.
          try {
            const DoneMsg done = handle_run(ctx, st, RunMsg::decode(payload));
            serve::write_frame(ctx.ctrl_fd, MsgType::kDistDone, done.encode(),
                               ctx.limits);
          } catch (const error& e) {
            report_error(ctx, serve::error_code_for(e), e.what());
          } catch (const std::exception& e) {
            report_error(ctx, serve::ErrorCode::kError, e.what());
          }
          break;
        }
        case MsgType::kDrain: {
          // Flush stale pre-recovery frames a dead peer left buffered.
          DrainReply rep;
          for (int fd : ctx.peer_fds)
            if (fd >= 0) rep.bytes += drain_socket(fd);
          serve::write_frame(ctx.ctrl_fd, MsgType::kDrainOk, rep.encode(),
                             ctx.limits);
          break;
        }
        case MsgType::kPeerUpdate: {
          // Replacement channels to respawned peers; the fds follow the
          // frame on this same (ordered) control stream.
          const PeerUpdateMsg upd = PeerUpdateMsg::decode(payload);
          for (std::uint32_t p : upd.peers) {
            const int fd = recv_fd(ctx.ctrl_fd, ctx.limits.read_timeout_seconds);
            if (p >= ctx.peer_fds.size() ||
                p == static_cast<std::uint32_t>(ctx.rank)) {
              ::close(fd);
              throw invalid_argument_error(
                  "peer update names rank " + std::to_string(p) +
                  " which this rank has no slot for");
            }
            if (ctx.peer_fds[p] >= 0) ::close(ctx.peer_fds[p]);
            ctx.peer_fds[p] = fd;
          }
          serve::write_frame(ctx.ctrl_fd, MsgType::kPeerOk, "", ctx.limits);
          break;
        }
        case MsgType::kFault:
          st.fault = FaultMsg::decode(payload);
          serve::write_frame(ctx.ctrl_fd, MsgType::kFaultOk, "", ctx.limits);
          break;
        case MsgType::kShutdown:
          serve::write_frame(ctx.ctrl_fd, MsgType::kShutdownOk, "",
                             ctx.limits);
          return 0;
        default:
          throw invalid_argument_error(
              std::string("rank got unexpected frame type ") +
              serve::msg_type_name(type));
      }
    }
    return 0;  // clean EOF: driver closed the control channel
  } catch (const error& e) {
    try {
      serve::ErrorReply rep;
      rep.code = serve::error_code_for(e);
      rep.message = e.what();
      serve::write_frame(ctx.ctrl_fd, MsgType::kError, rep.encode(),
                         ctx.limits);
    } catch (...) {
    }
    return 1;
  } catch (const std::exception& e) {
    try {
      serve::ErrorReply rep;
      rep.code = serve::ErrorCode::kError;
      rep.message = e.what();
      serve::write_frame(ctx.ctrl_fd, MsgType::kError, rep.encode(),
                         ctx.limits);
    } catch (...) {
    }
    return 1;
  }
}

}  // namespace bspmv::dist
