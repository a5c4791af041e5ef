// Typed payloads of the distributed rank protocol (MsgType kShard …
// kHalo), encoded with the same bounds-checked WireWriter/WireReader
// codec the serving daemon uses. Every decode() validates counts against
// the payload size before allocating, so a torn or hostile frame
// surfaces as bspmv::parse_error, never as an out-of-bounds read
// (fuzzed in tests/test_dist.cpp with frame_corruptions).
//
// Message flow (docs/distribution.md):
//
//   driver -> rank : kShard    ShardMsg     once, after fork
//   rank -> driver : kShardOk  (empty)      shard decoded, rank ready
//   driver -> rank : kDistRun  RunMsg       per run() call
//   rank <-> rank  : kHalo     HaloMsg      per iteration per peer
//   rank -> driver : kDistDone DoneMsg      y slice + phase timings
//   driver -> rank : kShutdown/kShutdownOk  graceful stop (reused)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/models.hpp"
#include "src/formats/csr.hpp"

namespace bspmv::dist {

/// kShard: one rank's slice of the plan. The matrix rows travel as a
/// plain CSR slice with *global* column ids; the rank rebuilds the
/// local/halo column split itself (HaloDec::split), which keeps the
/// message format independent of the split representation.
struct ShardMsg {
  std::uint32_t rank = 0;
  std::uint32_t ranks = 0;
  std::uint32_t threads = 1;  ///< ThreadedSpmv workers for the local pass
  index_t row_begin = 0, row_end = 0;
  index_t x_begin = 0, x_end = 0;
  index_t cols = 0;                       ///< global matrix width
  std::vector<index_t> halo_seg;          ///< ranks+1 halo segment offsets
  std::vector<std::vector<index_t>> send_cols;  ///< per peer, owned-x offsets
  std::vector<index_t> row_ptr;           ///< rows()+1, rebased to 0
  std::vector<index_t> col_ind;           ///< global column ids
  std::vector<double> val;

  index_t rows() const { return row_end - row_begin; }

  std::string encode() const;
  static ShardMsg decode(std::string_view payload);
};

/// kDistRun: one multi-iteration y = A·x request. `epoch` is the
/// supervisor's recovery generation: it is bumped on every round and on
/// every recovery, stamped onto every halo frame of the round, and any
/// frame carrying a different epoch is rejected as a parse_error — a
/// delayed frame from before a recovery can never corrupt an iteration.
struct RunMsg {
  DistMode mode = DistMode::kOverlap;
  std::uint8_t impl = 0;  ///< 0 scalar, 1 simd
  std::uint32_t iterations = 1;
  std::uint32_t epoch = 0;
  /// Global index of this request's first iteration: the supervisor runs
  /// in rounds, and armed faults (FaultMsg::at_iteration) address global
  /// progress, not the round-local count.
  std::uint32_t first_iteration = 0;
  /// Emit a kProgress heartbeat to the driver every this-many iterations
  /// (0 = none) so short wire timeouts coexist with long rounds.
  std::uint32_t progress_every = 0;
  std::vector<double> x;  ///< the rank's owned x slice

  std::string encode() const;
  static RunMsg decode(std::string_view payload);
};

/// Per-rank phase timings of one kDistRun, totalled over its iterations.
/// send/recv seconds are summed across the per-peer exchange threads;
/// wait_seconds is how long the main thread blocked on the exchange
/// after its compute finished — the overlap claim is precisely that
/// overlap mode shrinks wait (comm hidden under local compute) while
/// naive mode pays it all up front.
struct RankStats {
  std::uint32_t iterations = 0;
  double send_seconds = 0.0;
  double recv_seconds = 0.0;
  double wait_seconds = 0.0;
  double local_seconds = 0.0;
  double halo_seconds = 0.0;
  double total_seconds = 0.0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_recv = 0;
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_recv = 0;
};

/// kDistDone: the rank's y slice plus its RankStats.
struct DoneMsg {
  std::vector<double> y;
  RankStats stats;

  std::string encode() const;
  static DoneMsg decode(std::string_view payload);
};

/// kHalo: one iteration's halo x values from one peer. The (from, epoch,
/// iter) header catches crossed wires: a frame from the wrong peer, a
/// stale iteration, or a pre-recovery epoch is a typed parse_error, not
/// silent corruption.
struct HaloMsg {
  std::uint32_t from = 0;
  std::uint32_t epoch = 0;
  std::uint32_t iter = 0;
  std::vector<double> x;

  std::string encode() const;
  static HaloMsg decode(std::string_view payload);
};

/// kFault: arm one test fault inside a rank (the driver-side injection
/// hook DistSpmv::inject_fault ships; tests and the chaos soak only).
/// `at_iteration` is the 0-based iteration index *within the next
/// kDistRun round* at which the fault fires.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kExitAtIteration = 1,   ///< _exit before the exchange (kill mid-iteration)
  kExitInExchange = 2,    ///< _exit after posting the halo exchange
  kStallAtIteration = 3,  ///< sleep `seconds` before the exchange
  kCorruptHaloSend = 4,   ///< corrupt the next outgoing halo frame
};

struct FaultMsg {
  FaultKind kind = FaultKind::kNone;
  std::uint32_t at_iteration = 0;
  double seconds = 0.0;  ///< stall duration for kStallAtIteration

  std::string encode() const;
  static FaultMsg decode(std::string_view payload);
};

/// kProgress: mid-run heartbeat, rank -> driver.
struct ProgressMsg {
  std::uint32_t epoch = 0;
  std::uint32_t done = 0;  ///< iterations completed this round

  std::string encode() const;
  static ProgressMsg decode(std::string_view payload);
};

/// kPeerUpdate: the listed peers' data channels are being replaced; one
/// replacement fd per listed peer follows on the control socket via
/// SCM_RIGHTS (src/dist/fdpass.*), in list order.
struct PeerUpdateMsg {
  std::vector<std::uint32_t> peers;

  std::string encode() const;
  static PeerUpdateMsg decode(std::string_view payload);
};

/// kDrainOk: how much stale pre-recovery data a rank discarded.
struct DrainReply {
  std::uint64_t bytes = 0;

  std::string encode() const;
  static DrainReply decode(std::string_view payload);
};

}  // namespace bspmv::dist
