#include "src/serve/server.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

#include "src/observe/observe.hpp"
#include "src/util/atomic_file.hpp"
#include "src/util/macros.hpp"
#include "src/util/timing.hpp"

namespace bspmv::serve {

namespace {

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

// ------------------------------------------------------------ plumbing ----

/// One client connection. The write mutex serialises replies from the
/// reader thread (inline answers) and workers (queued answers); `open`
/// flips once and every later send becomes a silent no-op, so a worker
/// finishing after the client vanished never touches a dead fd.
struct Server::Connection {
  int fd = -1;
  std::mutex write_mu;
  std::atomic<bool> open{true};

  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void hang_up() {
    if (open.exchange(false)) ::shutdown(fd, SHUT_RDWR);
  }
};

/// One decoded spmv request waiting for its round.
struct Server::PendingSpmv {
  std::shared_ptr<Connection> conn;
  SpmvRequest req;
  Timer timer;  ///< started at request decode; reply carries its elapsed
};

/// Per-fingerprint batch box for the same-matrix SpMM batcher. Workers
/// push their request and the first one in becomes the leader, draining
/// the box in max_batch-sized rounds; the others return to the pool
/// immediately (their replies are sent by the leader).
struct Server::SpmmBatch {
  std::mutex mu;
  std::vector<PendingSpmv> waiting;
  bool leader_active = false;
};

struct Server::ServerStats {
  std::atomic<std::uint64_t> requests_total{0};
  // Both bumped before the reply is sent, so a stats request the client
  // issues after reading the reply always counts it.
  std::atomic<std::uint64_t> requests_ok{0};
  std::atomic<std::uint64_t> requests_error{0};
  std::atomic<std::uint64_t> submits{0};
  std::atomic<std::uint64_t> spmvs{0};
  std::atomic<std::uint64_t> malformed{0};
  std::atomic<std::uint64_t> read_timeouts{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> stalls{0};
  std::atomic<std::uint64_t> numerical{0};
  std::atomic<std::uint64_t> degraded_served{0};
  std::atomic<std::uint64_t> batch_rounds{0};   ///< run_multi calls, m >= 2
  std::atomic<std::uint64_t> batched_spmvs{0};  ///< requests served in them
  std::atomic<std::uint64_t> spool_loads{0};
  std::atomic<std::uint64_t> spool_errors{0};
  std::atomic<std::uint64_t> connections{0};
};

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)),
      cache_(std::make_unique<EngineCache>(opt_.cache_bytes)),
      queue_(std::make_unique<AdmissionQueue>(opt_.queue_capacity)),
      stats_(std::make_unique<ServerStats>()) {
  BSPMV_CHECK_MSG(!opt_.socket_path.empty(), "server needs a socket path");
  BSPMV_CHECK_MSG(opt_.workers >= 1, "server needs at least one worker");
}

Server::~Server() { stop(); }

void Server::start() {
  BSPMV_CHECK_MSG(!running_.load(), "server already started");

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    throw io_error(std::string("socket() failed: ") + std::strerror(errno));

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.size() >= sizeof addr.sun_path) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw io_error("socket path too long: " + opt_.socket_path);
  }
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(opt_.socket_path.c_str());  // stale socket from a crashed run
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, 64) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw io_error("cannot listen on " + opt_.socket_path + ": " + why);
  }

  if (!opt_.spool_dir.empty()) {
    // Best-effort create; a failure surfaces on the first spool write.
    ::mkdir(opt_.spool_dir.c_str(), 0777);
  }

  running_.store(true);
  stopping_.store(false);
  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(static_cast<std::size_t>(opt_.workers));
  for (int i = 0; i < opt_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void Server::request_stop() {
  stopping_.store(true, std::memory_order_release);
  stop_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] { return stopping_.load(); });
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  request_stop();

  // Unblock the acceptor, then every connection reader.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& c : conns_) c->hang_up();
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Shed queued work, join workers (in-flight requests finish; their
  // replies hit closed connections and no-op).
  queue_->shutdown();
  for (auto& w : workers_)
    if (w.joinable()) w.join();

  // Reader threads are detached; wait for the last one to sign off so
  // the Server members they touch outlive them.
  {
    std::unique_lock<std::mutex> lock(conns_mu_);
    conns_cv_.wait(lock, [this] { return conns_.empty(); });
  }

  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(opt_.socket_path.c_str());
}

void Server::accept_loop() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal) — stop accepting
    }
    if (stopping_.load()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    stats_->connections.fetch_add(1, std::memory_order_relaxed);
    BSPMV_OBS_COUNT("serve.connections", 1);
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.insert(conn);
    }
    // Detached: connection lifetime is tracked via conns_, and stop()
    // blocks until the set drains.
    std::thread([this, conn] { connection_loop(conn); }).detach();
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  for (;;) {
    MsgType type{};
    std::string payload;
    try {
      if (!read_frame(conn->fd, type, payload, opt_.wire)) break;  // EOF
    } catch (const parse_error& e) {
      // Malformed/torn/oversized frame: answer typed (best effort) and
      // drop the connection — framing is gone, resync is impossible.
      stats_->malformed.fetch_add(1, std::memory_order_relaxed);
      BSPMV_OBS_COUNT("serve.malformed", 1);
      send_error(conn, ErrorCode::kParse, e.what());
      break;
    } catch (const timeout_error&) {
      stats_->read_timeouts.fetch_add(1, std::memory_order_relaxed);
      BSPMV_OBS_COUNT("serve.read_timeouts", 1);
      break;
    } catch (const error&) {
      break;  // socket error — peer is gone
    }
    if (stopping_.load()) {
      send_error(conn, ErrorCode::kOverloaded, "server shutting down");
      break;
    }
    try {
      dispatch(conn, type, std::move(payload));
    } catch (const error& e) {
      // A typed failure escaping dispatch is a request-level problem;
      // the connection itself is still in sync.
      send_error(conn, error_code_for(e), e.what());
    }
  }
  conn->hang_up();
  // Notify under the lock: once stop() sees the set empty it returns and
  // the Server (conns_cv_ included) may be destroyed, so this detached
  // thread must not touch it after releasing conns_mu_.
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn);
  conns_cv_.notify_all();
}

void Server::dispatch(const std::shared_ptr<Connection>& conn, MsgType type,
                      std::string&& payload) {
  stats_->requests_total.fetch_add(1, std::memory_order_relaxed);
  BSPMV_OBS_COUNT("serve.requests", 1);
  switch (type) {
    case MsgType::kPing:
      send_reply(conn, MsgType::kPong, "");
      return;
    case MsgType::kStats:
      send_reply(conn, MsgType::kStatsOk, stats_json().dump(-1));
      return;
    case MsgType::kShutdown:
      send_reply(conn, MsgType::kShutdownOk, "");
      request_stop();
      return;
    case MsgType::kSubmit:
      stats_->submits.fetch_add(1, std::memory_order_relaxed);
      // Submissions outrank default-priority spmv traffic: a shed
      // submit wastes a (large) matrix upload, and preparing is what
      // the whole cache amortises.
      enqueue(conn, type, std::move(payload), /*priority=*/1,
              /*attempts=*/0, /*not_before=*/0.0);
      return;
    case MsgType::kSpmv: {
      stats_->spmvs.fetch_add(1, std::memory_order_relaxed);
      // Peek the priority without decoding the x vector (fixed-offset
      // header field); a torn payload surfaces later on the worker.
      int priority = 0;
      if (payload.size() >= 12) {
        WireReader r(payload);
        r.u64();
        priority = static_cast<int>(r.u32());
      }
      enqueue(conn, type, std::move(payload), priority, 0, 0.0);
      return;
    }
    default:
      throw invalid_argument_error(
          std::string("unexpected frame type: ") + msg_type_name(type));
  }
}

void Server::enqueue(const std::shared_ptr<Connection>& conn, MsgType type,
                     std::string&& payload, int priority, int attempts,
                     double not_before) {
  Job j;
  j.priority = priority;
  j.attempts = attempts;
  j.not_before = not_before;
  auto self = this;
  auto body = std::make_shared<std::string>(std::move(payload));
  j.run = [self, conn, type, body, attempts] {
    try {
      if (type == MsgType::kSubmit)
        self->handle_submit(conn, *body, attempts);
      else
        self->handle_spmv(conn, *body, attempts);
    } catch (const error& e) {
      self->stats_->requests_error.fetch_add(1, std::memory_order_relaxed);
      self->send_error(conn, error_code_for(e), e.what());
    } catch (const std::exception& e) {
      // Nothing may escape a worker untyped; map to the generic class.
      self->stats_->requests_error.fetch_add(1, std::memory_order_relaxed);
      self->send_error(conn, ErrorCode::kError,
                       std::string("internal: ") + e.what());
    }
  };
  j.shed = [self, conn](const std::string& why) {
    self->stats_->requests_error.fetch_add(1, std::memory_order_relaxed);
    self->send_error(conn, ErrorCode::kOverloaded, why);
  };
  queue_->push(std::move(j));
}

void Server::worker_loop() {
  while (auto job = queue_->pop()) job->run();
}

// ------------------------------------------------------------ requests ----

bool Server::requeue_backoff(const std::shared_ptr<Connection>& conn,
                             MsgType type, const std::string& payload,
                             int priority, int attempts) {
  if (attempts >= opt_.max_retries) {
    stats_->requests_error.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, ErrorCode::kOverloaded,
               "engine busy after " + std::to_string(attempts) +
                   " retries — back off and retry");
    return false;
  }
  const double delay =
      opt_.backoff_base_seconds * static_cast<double>(1 << attempts);
  stats_->retries.fetch_add(1, std::memory_order_relaxed);
  BSPMV_OBS_COUNT("serve.retries", 1);
  std::string copy = payload;
  enqueue(conn, type, std::move(copy), priority, attempts + 1,
          steady_seconds() + delay);
  return true;
}

void Server::handle_submit(const std::shared_ptr<Connection>& conn,
                           const std::string& payload, int attempts) {
  Timer t;
  const SubmitRequest req = SubmitRequest::decode(payload);
  const Csr<double> a = req.to_csr();
  const MatrixKey key = matrix_key(a);

  if (auto hit = cache_->find(key)) {
    SubmitReply rep;
    rep.fingerprint = key.hash;
    rep.format_id = hit->format_id;
    rep.fallback = hit->fallback;
    rep.cached = true;
    rep.prepare_seconds = t.elapsed();
    stats_->requests_ok.fetch_add(1, std::memory_order_relaxed);
    send_reply(conn, MsgType::kSubmitOk, rep.encode());
    return;
  }

  // Engine-busy path: someone else is already preparing this matrix —
  // requeue with backoff; the retry will hit the cache.
  {
    std::lock_guard<std::mutex> lock(preparing_mu_);
    if (!preparing_.insert(key.hash).second) {
      requeue_backoff(conn, MsgType::kSubmit, payload, 1, attempts);
      return;
    }
  }
  std::shared_ptr<const CachedEngine> entry;
  try {
    entry = prepare_and_cache(a, key, payload);
  } catch (...) {
    std::lock_guard<std::mutex> lock(preparing_mu_);
    preparing_.erase(key.hash);
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(preparing_mu_);
    preparing_.erase(key.hash);
  }

  SubmitReply rep;
  rep.fingerprint = key.hash;
  rep.format_id = entry->format_id;
  rep.fallback = entry->fallback;
  rep.cached = false;
  rep.prepare_seconds = t.elapsed();
  stats_->requests_ok.fetch_add(1, std::memory_order_relaxed);
  send_reply(conn, MsgType::kSubmitOk, rep.encode());
  record_success();
}

std::shared_ptr<const CachedEngine> Server::prepare_and_cache(
    const Csr<double>& a, const MatrixKey& key,
    const std::string& submit_payload) {
  BSPMV_OBS_SPAN("serve/prepare");
  Timer t;
  const int level = degrade_level();
  if (level > 0) BSPMV_OBS_COUNT("serve.degraded_prepares", 1);
  const int threads = level >= 2 ? 0 : opt_.engine_threads;

  // Every model candidate has a threaded driver (FormatOps::kParallel),
  // so the same list serves threaded and serial engines.
  const std::vector<Candidate> cands =
      level >= 2 ? std::vector<Candidate>{Candidate{}}  // scalar CSR only
                 : model_candidates(opt_.simd && level == 0);

  // Measured selection (the paper's empirical ground truth, eq. vs §V):
  // convert + briefly time each candidate, keep the fastest. Bounded by
  // the prepare deadline; conversion failures (ConversionGuard budget,
  // unsupported combos) skip the candidate. On any exhaustion the
  // ranked list below still guarantees a runnable engine.
  std::vector<Candidate> ranked = cands;
  if (opt_.prepare_measure && level == 0 && cands.size() > 1) {
    RunControl control;
    control.set_deadline(opt_.prepare_deadline_seconds);
    control.set_watchdog_poll(opt_.watchdog_poll_seconds);
    double best = std::numeric_limits<double>::infinity();
    Candidate chosen = cands.front();
    for (const Candidate& c : cands) {
      try {
        control.check();
      } catch (const execution_error&) {
        BSPMV_OBS_COUNT("serve.prepare_deadline_cutoffs", 1);
        break;  // keep the best seen so far
      }
      std::string reason;
      auto f = try_convert(a, c, &reason);
      if (!f) continue;
      try {
        MeasureOptions mopt;
        mopt.iterations = opt_.prepare_iterations;
        mopt.reps = 1;
        mopt.warmup = 1;
        mopt.control = &control;
        const double s = SpmvEngine<double>::borrow(*f, 0).measure(mopt).min;
        if (s < best) {
          best = s;
          chosen = c;
        }
      } catch (const execution_error&) {
        BSPMV_OBS_COUNT("serve.prepare_deadline_cutoffs", 1);
        break;
      } catch (const error&) {
        continue;  // candidate misbehaved; selection moves on
      }
    }
    ranked.assign(1, chosen);
  }

  // try_prepare walks `ranked` and falls back to scalar CSR if every
  // candidate fails — rung 2 of the degradation ladder (a conversion
  // that trips the ConversionGuard budget lands here).
  SpmvEngine<double> engine =
      SpmvEngine<double>::prepare(a, ranked, threads, opt_.executor);
  CachedEngine built{key,
                     std::move(engine),
                     /*format_id=*/"",
                     /*fallback=*/false,
                     /*degraded=*/level > 0,
                     /*bytes=*/0,
                     /*prepare_seconds=*/0.0};
  built.format_id = built.engine.format().candidate().id();
  built.fallback = built.engine.prepared() && built.engine.prepared()->fallback;
  built.bytes = built.engine.format().working_set_bytes();
  built.prepare_seconds = t.elapsed();
  auto entry = std::make_shared<const CachedEngine>(std::move(built));
  cache_->insert(entry);

  if (!opt_.spool_dir.empty()) {
    try {
      atomic_write_file(spool_path(key.hash), submit_payload,
                        /*with_checksum=*/true);
    } catch (const error& e) {
      // Persistence must never take down serving; the matrix simply
      // won't survive a restart.
      stats_->spool_errors.fetch_add(1, std::memory_order_relaxed);
      BSPMV_OBS_COUNT("serve.spool_errors", 1);
      std::fprintf(stderr, "bspmv_serve: spool write failed: %s\n",
                   e.what());
    }
  }
  return entry;
}

std::string Server::spool_path(std::uint64_t hash) const {
  return opt_.spool_dir + "/" + hash_hex(hash) + ".mat";
}

std::shared_ptr<const CachedEngine> Server::load_from_spool(
    std::uint64_t hash) {
  if (opt_.spool_dir.empty()) return nullptr;
  const std::string path = spool_path(hash);
  std::optional<std::string> payload;
  try {
    payload = read_file_if_exists(path);  // verifies the CRC trailer
  } catch (const error& e) {
    // Torn or corrupt spool file: warn-and-regenerate policy — drop it
    // and treat as a miss (the client resubmits).
    stats_->spool_errors.fetch_add(1, std::memory_order_relaxed);
    BSPMV_OBS_COUNT("serve.spool_errors", 1);
    std::fprintf(stderr, "bspmv_serve: dropping corrupt spool file %s: %s\n",
                 path.c_str(), e.what());
    ::unlink(path.c_str());
    return nullptr;
  }
  if (!payload) return nullptr;
  try {
    const SubmitRequest req = SubmitRequest::decode(*payload);
    const Csr<double> a = req.to_csr();
    const MatrixKey key = matrix_key(a);
    if (key.hash != hash) {
      throw validation_error("spool content does not match its filename");
    }
    stats_->spool_loads.fetch_add(1, std::memory_order_relaxed);
    BSPMV_OBS_COUNT("serve.spool_loads", 1);
    return prepare_and_cache(a, key, *payload);
  } catch (const error& e) {
    stats_->spool_errors.fetch_add(1, std::memory_order_relaxed);
    BSPMV_OBS_COUNT("serve.spool_errors", 1);
    std::fprintf(stderr, "bspmv_serve: dropping bad spool file %s: %s\n",
                 path.c_str(), e.what());
    ::unlink(path.c_str());
    return nullptr;
  }
}

void Server::handle_spmv(const std::shared_ptr<Connection>& conn,
                         const std::string& payload, int attempts) {
  BSPMV_OBS_SPAN("serve/spmv");
  Timer t;
  SpmvRequest req = SpmvRequest::decode(payload);

  std::shared_ptr<const CachedEngine> entry = cache_->find(req.fingerprint);
  if (!entry) {
    // Crash recovery: the engine may be rebuildable from the spool.
    // Respect the preparing set — if another worker is already on it,
    // requeue instead of preparing twice.
    {
      std::lock_guard<std::mutex> lock(preparing_mu_);
      if (preparing_.count(req.fingerprint)) {
        requeue_backoff(conn, MsgType::kSpmv, payload,
                        static_cast<int>(req.priority), attempts);
        return;
      }
      preparing_.insert(req.fingerprint);
    }
    try {
      entry = load_from_spool(req.fingerprint);
    } catch (...) {
      std::lock_guard<std::mutex> lock(preparing_mu_);
      preparing_.erase(req.fingerprint);
      throw;
    }
    {
      std::lock_guard<std::mutex> lock(preparing_mu_);
      preparing_.erase(req.fingerprint);
    }
    if (!entry) {
      stats_->requests_error.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, ErrorCode::kUnknownMatrix,
                 "no engine cached under fingerprint " +
                     hash_hex(req.fingerprint));
      return;
    }
  }

  if (static_cast<std::int64_t>(req.x.size()) != entry->key.cols) {
    throw invalid_argument_error(
        "spmv: x has " + std::to_string(req.x.size()) +
        " entries, matrix wants " + std::to_string(entry->key.cols));
  }

  PendingSpmv p{conn, std::move(req), t};
  if (opt_.max_batch > 1)
    spmv_batched(std::move(p), *entry);
  else
    serve_round(*entry, {&p, 1});  // batching off: a one-member round
}

void Server::spmv_batched(PendingSpmv&& p, const CachedEngine& entry) {
  const std::uint64_t fp = p.req.fingerprint;
  std::shared_ptr<SpmmBatch> batch;
  {
    std::lock_guard<std::mutex> lock(batches_mu_);
    auto& slot = batches_[fp];
    if (!slot) slot = std::make_shared<SpmmBatch>();
    batch = slot;
  }
  {
    std::lock_guard<std::mutex> lock(batch->mu);
    batch->waiting.push_back(std::move(p));
    if (batch->leader_active) {
      // A leader is already draining this fingerprint; it will pick this
      // request up before retiring, so this worker is free again.
      return;
    }
    batch->leader_active = true;
  }

  // Leader: drain in rounds until the box stays empty. The emptiness
  // re-check under the lock before clearing leader_active closes the
  // window where a straggler enqueued after the previous round.
  for (;;) {
    std::vector<PendingSpmv> take;
    {
      std::lock_guard<std::mutex> lock(batch->mu);
      if (batch->waiting.empty()) {
        batch->leader_active = false;
        break;
      }
      const std::size_t n =
          std::min(batch->waiting.size(),
                   static_cast<std::size_t>(opt_.max_batch));
      take.assign(std::make_move_iterator(batch->waiting.begin()),
                  std::make_move_iterator(batch->waiting.begin() +
                                          static_cast<std::ptrdiff_t>(n)));
      batch->waiting.erase(batch->waiting.begin(),
                           batch->waiting.begin() +
                               static_cast<std::ptrdiff_t>(n));
    }

    serve_round(entry, take);
  }

  // Retire the box when idle so the map only tracks live fingerprints. A
  // racing enqueue that became leader in the meantime keeps it alive.
  {
    std::lock_guard<std::mutex> lock(batches_mu_);
    auto it = batches_.find(fp);
    if (it != batches_.end() && it->second == batch) {
      std::lock_guard<std::mutex> inner(batch->mu);
      if (batch->waiting.empty() && !batch->leader_active)
        batches_.erase(it);
    }
  }
}

void Server::serve_round(const CachedEngine& entry,
                         std::span<const PendingSpmv> round) {
  const int m = static_cast<int>(round.size());
  const auto rows = static_cast<std::size_t>(entry.key.rows);
  const auto cols = static_cast<std::size_t>(entry.key.cols);

  // One RunControl for the round: the tightest member budget bounds the
  // whole batch (a batch must never outlive any member's deadline).
  RunControl control;
  double budget = 0.0;
  bool check_numerics = false;
  for (const auto& p : round) {
    const double b = p.req.deadline_seconds > 0
                         ? p.req.deadline_seconds
                         : opt_.default_deadline_seconds;
    if (b > 0) budget = budget > 0 ? std::min(budget, b) : b;
    check_numerics = check_numerics || p.req.check_numerics;
  }
  if (budget > 0) {
    budget = std::min(budget, opt_.max_deadline_seconds);
    control.set_deadline(budget);
  }
  control.set_stall_timeout(opt_.stall_timeout_seconds);
  control.set_watchdog_poll(opt_.watchdog_poll_seconds);
  std::optional<Watchdog> watchdog;
  watchdog.emplace(control);

  const auto fail_all = [&](ErrorCode code, const std::string& message) {
    for (const auto& p : round) {
      stats_->requests_error.fetch_add(1, std::memory_order_relaxed);
      send_error(p.conn, code, message);
    }
  };

  try {
    std::vector<SpmvReply> reps(round.size());
    if (m == 1) {
      // Lone request in the round: the plain single-vector path.
      reps[0].y.resize(rows);
      entry.engine.run(round[0].req.x.data(), reps[0].y.data(), &control,
                       check_numerics);
    } else {
      stats_->batch_rounds.fetch_add(1, std::memory_order_relaxed);
      stats_->batched_spmvs.fetch_add(static_cast<std::uint64_t>(m),
                                      std::memory_order_relaxed);
      BSPMV_OBS_COUNT("serve.batch_rounds", 1);
      BSPMV_OBS_COUNT("serve.batched_spmvs", m);
      // Gather the members' vectors into one row-major (interleaved)
      // block, stream the matrix once for all of them, and scatter the
      // outputs back per request.
      aligned_vector<double> X(cols * round.size());
      aligned_vector<double> Y(rows * round.size());
      for (std::size_t j = 0; j < round.size(); ++j) {
        const auto& x = round[j].req.x;
        for (std::size_t i = 0; i < cols; ++i)
          X[i * round.size() + j] = x[i];
      }
      entry.engine.run_multi(X.data(), Y.data(), m, &control,
                             check_numerics);
      for (std::size_t j = 0; j < round.size(); ++j) {
        reps[j].y.resize(rows);
        for (std::size_t i = 0; i < rows; ++i)
          reps[j].y[i] = Y[i * round.size() + j];
      }
    }
    watchdog.reset();  // retire the deadline thread before replying
    const bool degraded = entry.degraded || degrade_level() > 0;
    for (std::size_t j = 0; j < round.size(); ++j) {
      reps[j].server_seconds = round[j].timer.elapsed();
      reps[j].degraded = degraded;
      if (degraded)
        stats_->degraded_served.fetch_add(1, std::memory_order_relaxed);
      stats_->requests_ok.fetch_add(1, std::memory_order_relaxed);
      send_reply(round[j].conn, MsgType::kSpmvOk, reps[j].encode());
      record_success();
    }
  } catch (const timeout_error& e) {
    if (control.reason() == AbortReason::kStalled) {
      stats_->stalls.fetch_add(1, std::memory_order_relaxed);
      record_stall();
    }
    stats_->timeouts.fetch_add(1, std::memory_order_relaxed);
    BSPMV_OBS_COUNT("serve.timeouts", 1);
    fail_all(error_code_for(e), e.what());
  } catch (const numerical_error& e) {
    stats_->numerical.fetch_add(1, std::memory_order_relaxed);
    BSPMV_OBS_COUNT("serve.numerical", 1);
    fail_all(error_code_for(e), e.what());
  } catch (const error& e) {
    fail_all(error_code_for(e), e.what());
  } catch (const std::exception& e) {
    fail_all(ErrorCode::kError, std::string("internal: ") + e.what());
  }
}

// ------------------------------------------------------- degradation ----

int Server::degrade_level() const {
  const int strikes = stall_strikes_.load(std::memory_order_relaxed);
  if (opt_.stall_strikes_to_degrade <= 0) return 0;
  return std::min(2, strikes / opt_.stall_strikes_to_degrade);
}

void Server::record_stall() {
  stall_strikes_.fetch_add(1, std::memory_order_relaxed);
  BSPMV_OBS_COUNT("serve.stall_strikes", 1);
}

void Server::record_success() {
  // Climb back down one strike per healthy request; the ladder heals as
  // fast as it degraded.
  int s = stall_strikes_.load(std::memory_order_relaxed);
  while (s > 0 && !stall_strikes_.compare_exchange_weak(
                      s, s - 1, std::memory_order_relaxed)) {
  }
}

// ------------------------------------------------------------- replies ----

void Server::send_reply(const std::shared_ptr<Connection>& conn,
                        MsgType type, const std::string& payload) {
  if (!conn->open.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  try {
    write_frame(conn->fd, type, payload, opt_.wire);
  } catch (const error&) {
    conn->open.store(false, std::memory_order_release);
  }
}

void Server::send_error(const std::shared_ptr<Connection>& conn,
                        ErrorCode code, const std::string& message) {
  ErrorReply rep;
  rep.code = code;
  rep.message = message;
  BSPMV_OBS_COUNT("serve.errors", 1);
  send_reply(conn, MsgType::kError, rep.encode());
}

// --------------------------------------------------------------- stats ----

Json Server::stats_json() const {
  const EngineCache::Stats cs = cache_->stats();
  Json::Object cache;
  cache["hits"] = cs.hits;
  cache["misses"] = cs.misses;
  cache["evictions"] = cs.evictions;
  cache["collisions"] = cs.collisions;
  cache["entries"] = static_cast<std::uint64_t>(cs.entries);
  cache["bytes"] = static_cast<std::uint64_t>(cs.bytes);
  cache["budget_bytes"] = static_cast<std::uint64_t>(cs.budget_bytes);

  Json::Object req;
  req["total"] = stats_->requests_total.load();
  req["ok"] = stats_->requests_ok.load();
  req["error"] = stats_->requests_error.load();
  req["submits"] = stats_->submits.load();
  req["spmvs"] = stats_->spmvs.load();
  req["malformed"] = stats_->malformed.load();
  req["read_timeouts"] = stats_->read_timeouts.load();
  req["retries"] = stats_->retries.load();
  req["timeouts"] = stats_->timeouts.load();
  req["stalls"] = stats_->stalls.load();
  req["numerical"] = stats_->numerical.load();
  req["degraded_served"] = stats_->degraded_served.load();
  req["batch_rounds"] = stats_->batch_rounds.load();
  req["batched_spmvs"] = stats_->batched_spmvs.load();

  Json::Object spool;
  spool["loads"] = stats_->spool_loads.load();
  spool["errors"] = stats_->spool_errors.load();
  spool["dir"] = opt_.spool_dir;

  Json::Object o;
  o["kind"] = "bspmv_serve_stats";
  o["schema_version"] = 1;
  o["cache"] = std::move(cache);
  o["requests"] = std::move(req);
  o["spool"] = std::move(spool);
  o["queue_depth"] = static_cast<std::uint64_t>(queue_->size());
  o["queue_capacity"] = static_cast<std::uint64_t>(queue_->capacity());
  o["shed"] = queue_->shed_count();
  o["executor"] = backend_name(opt_.executor);
  o["degrade_level"] = degrade_level();
  o["connections"] = stats_->connections.load();
  o["workers"] = opt_.workers;
  o["engine_threads"] = opt_.engine_threads;
  o["max_batch"] = opt_.max_batch;
  return Json(std::move(o));
}

}  // namespace bspmv::serve
