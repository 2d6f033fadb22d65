#include "replication/replica_store.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <thread>
#include <utility>

#include "common/binary.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/checkpoint.h"
#include "persist/wal_format.h"

namespace nepal::replication {

namespace fs = std::filesystem;

namespace {
/// Upper bound on frames drained into one follower-side ApplyBatch; keeps a
/// long catch-up from starving stop/promotion checks between batches.
constexpr size_t kMaxApplyBatch = 256;

Status CheckFreshDirectory(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create replica directory " + dir + ": " +
                           ec.message());
  }
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 || name.rfind("checkpoint-", 0) == 0) {
      return Status::AlreadyExists(
          "replica directory " + dir + " already holds Nepal data files (" +
          name + "); bootstrap requires a fresh directory");
    }
  }
  if (ec) {
    return Status::IoError("cannot list replica directory " + dir + ": " +
                           ec.message());
  }
  return Status::OK();
}

/// Sleeps `total_ms` in small slices so a stop flag is honored promptly.
void InterruptibleSleep(const std::atomic<bool>& stop, int total_ms) {
  constexpr int kSliceMs = 20;
  while (total_ms > 0 && !stop.load(std::memory_order_acquire)) {
    const int slice = std::min(total_ms, kSliceMs);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    total_ms -= slice;
  }
}
}  // namespace

ReplicaStore::ReplicaStore(std::unique_ptr<persist::DurableStore> store,
                           ConnectOptions options)
    : store_(std::move(store)), options_(std::move(options)) {
  store_ptr_.store(store_.get(), std::memory_order_release);
  db_ptr_.store(&store_->db(), std::memory_order_release);
  auto& reg = obs::MetricsRegistry::Global();
  m_applied_ = reg.GetCounter("nepal.replication.applied_records");
  m_skew_ = reg.GetCounter("nepal.replication.clock_skew_clamped");
  g_lag_ = reg.GetGauge("nepal.replication.lag_ms");
  h_lag_ = reg.GetHistogram("nepal.replication.apply_lag_ms",
                            obs::DefaultMillisBuckets());
  TouchProgress();
}

ReplicaStore::~ReplicaStore() {
  // Wake a session blocked mid-read so the drain join is prompt.
  ShutdownSocket(live_fd_.load(std::memory_order_acquire));
  drain_.Stop();
}

Result<std::unique_ptr<persist::DurableStore>> ReplicaStore::BootstrapGeneration(
    const std::string& dir, const schema::SchemaPtr& schema,
    const persist::BackendFactory& factory,
    const persist::DurableOptions& durable, const wire::HelloV1& hello) {
  NEPAL_RETURN_NOT_OK(CheckFreshDirectory(dir));
  // Seed the directory with the primary's image under the canonical name;
  // DurableStore::Open then restores it exactly like a local recovery
  // (fingerprint check included).
  NEPAL_RETURN_NOT_OK(persist::WriteFileAtomic(
      dir, persist::CheckpointFileName(hello.start_seq),
      hello.checkpoint_image));
  NEPAL_ASSIGN_OR_RETURN(
      std::unique_ptr<persist::DurableStore> store,
      persist::DurableStore::Open(dir, schema, factory, durable));
  if (!store->recovery_info().restored_checkpoint ||
      store->recovery_info().checkpoint_seq != hello.start_seq) {
    return Status::Corruption(
        "replica bootstrap did not restore the shipped checkpoint (seq " +
        std::to_string(hello.start_seq) + ")");
  }
  store->db().set_read_only(true);
  return store;
}

Result<std::unique_ptr<ReplicaStore>> ReplicaStore::Connect(
    std::string dir, schema::SchemaPtr schema,
    const persist::BackendFactory& factory, const SocketAddress& address,
    ConnectOptions options) {
  IgnoreSigPipe();
  // The initial deadline covers a primary that is still coming up: a
  // refused or not-yet-bound address (ECONNREFUSED / ENOENT on a unix
  // path) fails one attempt instantly, so keep attempting until the
  // deadline, not just until the first failure.
  const auto initial_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options.initial_connect_timeout_ms);
  OwnedFd fd;
  for (;;) {
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            initial_deadline - std::chrono::steady_clock::now());
    Result<OwnedFd> conn = ConnectWithDeadline(
        address, remaining < std::chrono::milliseconds(1)
                     ? std::chrono::milliseconds(1)
                     : remaining);
    if (conn.ok()) {
      fd = std::move(*conn);
      break;
    }
    if (conn.status().code() != StatusCode::kUnavailable ||
        std::chrono::steady_clock::now() >= initial_deadline) {
      return conn.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  // A fresh follower has no position; the primary always bootstraps it.
  std::string hello_buf;
  wire::AppendFollowerHello(wire::FollowerHello{options.name, 0, 0},
                            &hello_buf);
  NEPAL_RETURN_NOT_OK(
      WriteFully(fd.get(), hello_buf.data(), hello_buf.size()));
  char mode;
  NEPAL_RETURN_NOT_OK(ReadFully(fd.get(), &mode, 1, /*eof_is_close=*/true));
  if (static_cast<uint8_t>(mode) != wire::kModeBootstrap) {
    return Status::Corruption(
        "primary answered a fresh follower with a resume");
  }
  wire::HelloV1 hello;
  NEPAL_RETURN_NOT_OK(wire::ReadHelloV1(fd.get(), &hello));
  NEPAL_ASSIGN_OR_RETURN(
      std::unique_ptr<persist::DurableStore> store,
      BootstrapGeneration(dir, schema, factory, options.replica.durable,
                          hello));

  auto replica = std::unique_ptr<ReplicaStore>(
      new ReplicaStore(std::move(store), std::move(options)));
  replica->dir_ = std::move(dir);
  replica->schema_ = std::move(schema);
  replica->factory_ = factory;
  replica->address_ = address;
  replica->pending_fd_ = std::move(fd);
  replica->pos_seq_ = hello.start_seq;
  replica->pos_records_ = 0;
  replica->drain_.Start(
      [r = replica.get()](const std::atomic<bool>& stop) {
        r->ConnectLoop(stop);
      });
  return replica;
}

void ReplicaStore::TouchProgress() {
  last_progress_us_.store(WallClockMicros(), std::memory_order_release);
}

uint32_t ReplicaStore::staleness_ms() const {
  const int64_t last = last_progress_us_.load(std::memory_order_acquire);
  const int64_t age_ms = (WallClockMicros() - last) / 1000;
  if (age_ms <= 0) return 0;
  if (age_ms > std::numeric_limits<uint32_t>::max()) {
    return std::numeric_limits<uint32_t>::max();
  }
  return static_cast<uint32_t>(age_ms);
}

Status ReplicaStore::ApplyFrameBatch(
    storage::GraphDb& db, const std::vector<persist::WalShipFrame>& frames) {
  const int64_t received_us = WallClockMicros();
  const uint64_t t_decode = obs::TraceNowNs();
  std::vector<persist::WalRecord> recs;
  recs.reserve(frames.size());
  for (const persist::WalShipFrame& f : frames) {
    NEPAL_ASSIGN_OR_RETURN(persist::WalRecord rec,
                           persist::DecodeWalRecord(f.payload));
    recs.push_back(std::move(rec));
  }
  const uint64_t decode_ns = obs::TraceNowNs() - t_decode;
  const uint64_t t_apply = obs::TraceNowNs();
  NEPAL_RETURN_NOT_OK(persist::ApplyWalRecordBatch(db, recs));
  const uint64_t apply_ns = obs::TraceNowNs() - t_apply;
  records_applied_.fetch_add(frames.size(), std::memory_order_release);
  TouchProgress();
  RecordTracedApply(frames, received_us, decode_ns, apply_ns);
  m_applied_->Add(frames.size());
  const persist::WalShipFrame& newest = frames.back();
  if (newest.shipped_at_us > 0) {
    // Catch-up frames carry no ship time; only live frames move the lag.
    const int64_t lag_ms = (WallClockMicros() - newest.shipped_at_us) / 1000;
    if (lag_ms < 0) {
      // A frame from the "future" means the primary's wall clock runs
      // ahead of ours. Clamping to zero keeps the gauge sane, but the
      // skew itself must not be silent: it biases every lag reading low.
      m_skew_->Add(1);
    }
    g_lag_->Set(lag_ms > 0 ? lag_ms : 0);
    h_lag_->Observe(lag_ms > 0 ? static_cast<uint64_t>(lag_ms) : 0);
  }
  return Status::OK();
}

void ReplicaStore::ConnectLoop(const std::atomic<bool>& stop) {
  int backoff_ms = options_.reconnect_initial_backoff_ms;
  bool initial_session = true;
  while (!stop.load(std::memory_order_acquire)) {
    OwnedFd fd;
    if (initial_session && pending_fd_.valid()) {
      // Connect() already connected, handshook and bootstrapped.
      fd = std::move(pending_fd_);
    } else {
      SocketAddress address;
      {
        std::lock_guard<std::mutex> lock(mu_);
        address = address_;
      }
      Result<OwnedFd> conn = ConnectWithDeadline(
          address,
          std::chrono::milliseconds(options_.connect_timeout_ms));
      Status session = conn.ok() ? HandshakeFollower(conn->get())
                                 : conn.status();
      if (!session.ok()) {
        if (session.code() != StatusCode::kUnavailable) {
          // A handshake that fails for a non-transport reason (corrupt
          // stream, bootstrap I/O failure) will fail the same way again;
          // freeze instead of hot-looping.
          fatal_.store(true, std::memory_order_release);
          std::lock_guard<std::mutex> lock(mu_);
          status_ = session;
          return;
        }
        InterruptibleSleep(stop, backoff_ms);
        backoff_ms = std::min(backoff_ms * 2,
                              options_.reconnect_max_backoff_ms);
        continue;
      }
      fd = std::move(*conn);
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      obs::MetricsRegistry::Global()
          .GetCounter("nepal.replication.replica.reconnects")
          ->Add(1);
    }
    initial_session = false;
    backoff_ms = options_.reconnect_initial_backoff_ms;

    live_fd_.store(fd.get(), std::memory_order_release);
    Status session = ApplyStream(stop, fd.get());
    live_fd_.store(-1, std::memory_order_release);
    fd.reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      status_ = session;
    }
    if (!session.ok() && session.code() != StatusCode::kUnavailable) {
      // Replay/decode failure: the follower's copy can no longer be
      // trusted to match the primary. Freeze at the last good position.
      fatal_.store(true, std::memory_order_release);
      return;
    }
    // Stream broke (primary restart, network, Repoint): reconnect.
  }
}

Status ReplicaStore::HandshakeFollower(int fd) {
  bool force;
  {
    std::lock_guard<std::mutex> lock(mu_);
    force = force_bootstrap_;
  }
  const uint64_t resume_seq = force ? 0 : pos_seq_;
  const uint64_t resume_skip = force ? 0 : pos_records_;
  std::string hello_buf;
  wire::AppendFollowerHello(
      wire::FollowerHello{options_.name, resume_seq, resume_skip},
      &hello_buf);
  NEPAL_RETURN_NOT_OK(WriteFully(fd, hello_buf.data(), hello_buf.size()));
  char mode;
  NEPAL_RETURN_NOT_OK(ReadFully(fd, &mode, 1, /*eof_is_close=*/true));
  auto& reg = obs::MetricsRegistry::Global();
  if (static_cast<uint8_t>(mode) == wire::kModeResume) {
    char echo[8];
    NEPAL_RETURN_NOT_OK(ReadFully(fd, echo, sizeof(echo),
                                  /*eof_is_close=*/false));
    if (wire::ReadU64(echo) != resume_seq) {
      return Status::Corruption("primary echoed a different resume segment");
    }
    resumes_.fetch_add(1, std::memory_order_relaxed);
    reg.GetCounter("nepal.replication.replica.resumes")->Add(1);
  } else if (static_cast<uint8_t>(mode) == wire::kModeBootstrap) {
    // Resume was impossible (position pruned beyond WAL retention, or we
    // were re-pointed at a different primary): start a fresh generation
    // and atomically swap the serving database. The old generation stays
    // alive for reads that raced the swap.
    wire::HelloV1 hello;
    NEPAL_RETURN_NOT_OK(wire::ReadHelloV1(fd, &hello));
    ++generation_;
    const std::string gen_dir =
        dir_ + "/reboot-" + std::to_string(generation_);
    NEPAL_ASSIGN_OR_RETURN(
        std::unique_ptr<persist::DurableStore> fresh,
        BootstrapGeneration(gen_dir, schema_, factory_,
                            options_.replica.durable, hello));
    retired_.push_back(std::move(store_));
    store_ = std::move(fresh);
    store_ptr_.store(store_.get(), std::memory_order_release);
    db_ptr_.store(&store_->db(), std::memory_order_release);
    pos_seq_ = hello.start_seq;
    pos_records_ = 0;
    rebootstraps_.fetch_add(1, std::memory_order_relaxed);
    reg.GetCounter("nepal.replication.replica.rebootstraps")->Add(1);
    std::lock_guard<std::mutex> lock(mu_);
    force_bootstrap_ = false;
  } else {
    return Status::Corruption("unknown replication handshake mode " +
                              std::to_string(mode));
  }
  TouchProgress();
  return Status::OK();
}

Status ReplicaStore::ApplyStream(const std::atomic<bool>& stop, int fd) {
  // The generation is fixed for the whole session: a swap only ever
  // happens in HandshakeFollower, before this is called.
  storage::GraphDb& db = *db_ptr_.load(std::memory_order_acquire);
  storage::GraphDb::ReplayScope replay(db);
  uint64_t session_applied = 0;
  while (!stop.load(std::memory_order_acquire)) {
    {
      // A Repoint() that raced this session's startup (before live_fd_ was
      // published) could not break the stream with a socket shutdown; the
      // poll cadence picks the flag up instead.
      std::lock_guard<std::mutex> lock(mu_);
      if (force_bootstrap_) {
        return Status::Unavailable(
            "follower re-pointed at a new primary; dropping the session");
      }
    }
    persist::WalShipFrame frame;
    NEPAL_ASSIGN_OR_RETURN(
        bool got,
        wire::ReadFrame(
            fd, &frame,
            std::chrono::milliseconds(options_.replica.poll_interval_ms)));
    if (!got) {
      // Connected and idle: the replica is caught up with the stream.
      TouchProgress();
      continue;
    }
    std::vector<persist::WalShipFrame> frames;
    frames.push_back(std::move(frame));
    while (frames.size() < kMaxApplyBatch) {
      persist::WalShipFrame extra;
      Result<bool> more =
          wire::ReadFrame(fd, &extra, std::chrono::milliseconds(0));
      if (!more.ok() || !*more) break;  // stream errors resurface next loop
      frames.push_back(std::move(extra));
    }
    NEPAL_RETURN_NOT_OK(ApplyFrameBatch(db, frames));
    for (const persist::WalShipFrame& f : frames) {
      if (f.segment_seq != pos_seq_) {
        pos_seq_ = f.segment_seq;
        pos_records_ = 0;
      }
      ++pos_records_;
    }
    session_applied += frames.size();
    // Close the loop: one ack per applied batch. Its applied_records is
    // session-relative — the primary translates into commit-token units
    // via the per-frame stamps it recorded at ship time.
    wire::Ack ack;
    ack.applied_records = session_applied;
    ack.position_seq = pos_seq_;
    ack.position_records = pos_records_;
    ack.applied_at_us = WallClockMicros();
    ack.staleness_ms = staleness_ms();
    std::string out;
    wire::AppendAck(ack, &out);
    NEPAL_RETURN_NOT_OK(WriteFully(fd, out.data(), out.size()));
  }
  return Status::OK();
}

void ReplicaStore::Repoint(const SocketAddress& address) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    address_ = address;
    // Our applied position is meaningless against a different primary's
    // WAL; the next handshake must not claim it.
    force_bootstrap_ = true;
  }
  ShutdownSocket(live_fd_.load(std::memory_order_acquire));
}

void ReplicaStore::RecordTracedApply(
    const std::vector<persist::WalShipFrame>& frames, int64_t received_us,
    uint64_t decode_ns, uint64_t apply_ns) {
  const persist::WalShipFrame* traced = nullptr;
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    if (it->trace_id != 0) {
      traced = &*it;
      break;
    }
  }
  if (traced == nullptr) return;
  int64_t wire_us = 0;
  if (traced->shipped_at_us > 0) {
    wire_us = received_us - traced->shipped_at_us;
    if (wire_us < 0) wire_us = 0;  // primary wall clock runs ahead of ours
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_traced_ = LastTracedApply{traced->trace_id, wire_us,
                                   decode_ns / 1000, apply_ns / 1000,
                                   frames.size()};
  }
  auto& tracer = obs::Tracer::Global();
  obs::Tracer::Joined joined = tracer.JoinTrace(traced->trace_id, "replica");
  if (!joined) return;
  // In-process the primary's own root span is addressable, so the segments
  // land in the very tree ApplyBatch built; cross-process they hang off
  // the local root created under the remote trace id.
  const uint32_t parent = !joined.local && traced->root_span != 0
                              ? traced->root_span
                              : joined.parent;
  if (traced->shipped_at_us > 0) {
    joined.trace->AddSpan(parent, "wire",
                          static_cast<uint64_t>(wire_us) * 1000);
  }
  joined.trace->AddSpan(parent, "replica.decode", decode_ns, frames.size());
  joined.trace->AddSpan(parent, "replica.apply", apply_ns, frames.size());
  tracer.FinishJoined(joined);
}

Status ReplicaStore::Promote() {
  if (promoted_.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  drain_.Stop();
  {
    // A stream error other than "primary gone" means the follower may be
    // behind commits it acknowledged nothing about — still safe to
    // promote, but surface it rather than silently serving a truncated
    // history.
    std::lock_guard<std::mutex> lock(mu_);
    if (!status_.ok() && status_.code() != StatusCode::kUnavailable) {
      return Status(status_.code(),
                    "refusing to promote: apply loop failed: " +
                        status_.message());
    }
  }
  store_->db().set_read_only(false);
  // A checkpoint gives the promotion point a clean segment boundary: the
  // pre-promotion history is sealed in segments <= the checkpoint's, and
  // everything the new primary writes lands after it.
  NEPAL_RETURN_NOT_OK(store_->Checkpoint());
  promoted_.store(true, std::memory_order_release);
  return Status::OK();
}

}  // namespace nepal::replication
