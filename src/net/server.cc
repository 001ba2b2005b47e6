#include "src/net/server.h"

#include <algorithm>
#include <utility>

#include "src/util/macros.h"
#include "src/xml/serializer.h"

namespace txml {
namespace {

/// The reserved auth field: empty is the only accepted value until auth
/// ships, so a future token-bearing client fails loudly here instead of
/// silently running unauthenticated.
Status CheckAuthToken(const std::string& token) {
  return token.empty() ? Status::OK()
                       : Status::InvalidArgument(
                             "auth tokens are not supported yet; send empty");
}

}  // namespace

TxmlServer::TxmlServer(TemporalQueryService* service, ServerOptions options)
    : service_(service), options_(options) {}

TxmlServer::~TxmlServer() { Stop(); }

Status TxmlServer::Start() {
  if (options_.response_chunk_bytes == 0) {
    return Status::InvalidArgument("ServerOptions.response_chunk_bytes must be > 0");
  }
  if (options_.max_frame_bytes == 0) {
    return Status::InvalidArgument("ServerOptions.max_frame_bytes must be > 0");
  }
  if (options_.rate_limit_per_sec < 0) {
    return Status::InvalidArgument(
        "ServerOptions.rate_limit_per_sec must be >= 0");
  }
  effective_connection_threads_ = options_.connection_threads != 0
                                      ? options_.connection_threads
                                      : kDefaultConnectionThreads;
  if (options_.rate_limit_per_sec > 0) {
    TokenBucketRateLimiter::Options limits;
    limits.tokens_per_sec = options_.rate_limit_per_sec;
    limits.burst = options_.rate_limit_burst;
    rate_limiter_ = std::make_unique<TokenBucketRateLimiter>(limits);
  }
  TXML_ASSIGN_OR_RETURN(listener_, ListenSocket::Listen(options_.port));
  pool_ = std::make_unique<ThreadPool>(effective_connection_threads_);
  accept_thread_ = Thread(&TxmlServer::AcceptLoop, this);
  started_.store(true);
  return Status::OK();
}

void TxmlServer::Stop() {
  // The exchange elects exactly one tear-down thread when Stop races with
  // itself (destructor vs. signal-driven stop); everyone else returns.
  if (!started_.exchange(false)) return;
  stopping_.store(true);
  // No new connections; a blocked Accept wakes with kUnavailable.
  listener_.Shutdown();
  // Wake handlers blocked reading a request. Their write side stays open:
  // a handler mid-query finishes and sends its response before exiting.
  {
    MutexLock lock(mu_);
    for (auto& [id, socket] : connections_) socket->ShutdownRead();
  }
  if (accept_thread_.Joinable()) accept_thread_.Join();
  // Drains queued connections (they see stopping_ and exit) and joins the
  // handlers still sending in-flight responses.
  pool_.reset();
  listener_.Close();
}

ServerStats TxmlServer::Stats() const {
  ServerStats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  stats.requests_served = requests_served_.load(std::memory_order_relaxed);
  stats.requests_failed = requests_failed_.load(std::memory_order_relaxed);
  stats.frames_rejected = frames_rejected_.load(std::memory_order_relaxed);
  stats.requests_rate_limited =
      rate_limiter_ ? rate_limiter_->rejected() : 0;
  stats.timeouts = timeouts_.load(std::memory_order_relaxed);
  return stats;
}

void TxmlServer::AcceptLoop() {
  while (!stopping_.load()) {
    auto accepted = listener_.Accept();
    if (!accepted.ok()) break;  // shut down (kUnavailable) or fatal
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    auto socket = std::make_shared<Socket>(std::move(*accepted));
    bool queued = pool_->TrySubmit([this, socket] { HandleConnection(socket); },
                                   options_.max_pending_connections);
    if (!queued) {
      // Load shedding: every handler is busy and the waiting line is full.
      // Tell the peer why before hanging up — its first RoundTrip then
      // reads a clean kUnavailable (retryable) instead of seeing a reset.
      // Short write deadline: this runs on the accept thread, and an
      // unresponsive peer must not stall accepting.
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      socket
          ->SetTimeouts(/*read_timeout_ms=*/1000,
                        /*write_timeout_ms=*/1000)
          .IgnoreError("shedding this connection anyway; without the "
                       "deadline the courtesy response just blocks less "
                       "politely");
      SendResponse(socket.get(),
                   Status::Unavailable("server is overloaded: connection "
                                       "queue is full, retry later"));
    }
  }
}

void TxmlServer::HandleConnection(std::shared_ptr<Socket> socket) {
  Status timeouts_set =
      socket->SetTimeouts(options_.read_timeout_ms, options_.write_timeout_ms);
  if (!timeouts_set.ok()) return;

  uint64_t id;
  {
    MutexLock lock(mu_);
    if (stopping_.load()) return;  // drained during shutdown
    id = next_connection_id_++;
    connections_[id] = socket.get();
  }

  // Resolved once per connection: the peer's IP cannot change mid-stream,
  // and it keys this connection's rate-limit bucket.
  const std::string peer = socket->PeerAddress();

  while (!stopping_.load()) {
    auto frame = ReadFrame(socket.get(), options_.max_frame_bytes);
    if (!frame.ok()) {
      const Status& status = frame.status();
      if (status.IsTimeout()) {
        // Idle past the read deadline: tell the peer why, then hang up.
        timeouts_.fetch_add(1, std::memory_order_relaxed);
        SendResponse(socket.get(),
                     Status::Timeout("idle connection timed out"));
      } else if (status.IsInvalidFrame()) {
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendResponse(socket.get(), status);
      }
      // kUnavailable is the clean goodbye (EOF between frames); IO errors
      // and everything above close without further ceremony.
      break;
    }
    if (!HandleFrame(socket.get(), *frame, peer)) break;
  }

  {
    MutexLock lock(mu_);
    connections_.erase(id);
  }
}

bool TxmlServer::HandleFrame(Socket* socket, const Frame& frame,
                             const std::string& peer) {
  auto send = [&](const Status& status, const QueryResponse& response = {}) {
    return SendResponse(socket, status, response,
                        options_.response_chunk_bytes);
  };

  // A subscription (DESIGN.md §11) or a checkpoint transfer (§14) hands
  // the connection to its hook, which streams until it is done; either way
  // the connection closes after. Hand-offs skip rate limiting — throttling
  // a lagging or below-floor follower only extends its outage.
  auto hand_off = [&](auto request, const auto& hook,
                      const char* disabled_message) {
    if (!request.ok()) {
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      send(request.status());
      return false;
    }
    Status admitted = CheckAuthToken(request->auth_token);
    if (admitted.ok() && !hook) {
      admitted = Status::InvalidArgument(disabled_message);
    }
    if (admitted.ok()) {
      hook(socket, *request);
    } else {
      send(admitted);
    }
    return false;
  };
  if (frame.type == FrameType::kReplSubscribe) {
    return hand_off(DecodeReplSubscribe(frame.payload), options_.repl_handler,
                    "replication is not enabled on this server");
  }
  if (frame.type == FrameType::kCheckpointRequest) {
    return hand_off(DecodeCheckpointRequest(frame.payload),
                    options_.checkpoint_handler,
                    "checkpoint re-seed is not enabled on this server");
  }

  // Admission control ahead of decode/execute: a throttled request costs
  // the server nothing but the rejection header. The connection survives —
  // rate limiting is back-pressure, not a protocol violation.
  if (rate_limiter_ && !rate_limiter_->Admit(peer)) {
    return send(Status::Unavailable("rate limited: per-client request budget "
                                    "exhausted, retry later"));
  }

  StatusOr<QueryResponse> response = [&]() -> StatusOr<QueryResponse> {
    auto reject_write = [&]() -> Status {
      if (!options_.read_only) return Status::OK();
      std::string message =
          "server is read-only (replication follower); send writes to the "
          "leader";
      if (!options_.leader_hint.empty()) {
        message += " at " + options_.leader_hint;
      }
      return Status::ReadOnly(std::move(message));
    };
    switch (frame.type) {
      case FrameType::kQueryRequest: {
        TXML_ASSIGN_OR_RETURN(QueryRequest request,
                              DecodeQueryRequest(frame.payload));
        TXML_RETURN_IF_ERROR(CheckAuthToken(request.auth_token));
        return service_->Execute(request);
      }
      case FrameType::kPutRequest: {
        TXML_ASSIGN_OR_RETURN(PutRequest request,
                              DecodePutRequest(frame.payload));
        TXML_RETURN_IF_ERROR(CheckAuthToken(request.auth_token));
        TXML_RETURN_IF_ERROR(reject_write());
        return service_->Execute(request);
      }
      case FrameType::kWriteBatchRequest: {
        TXML_ASSIGN_OR_RETURN(WriteBatchRequest request,
                              DecodeWriteBatchRequest(frame.payload));
        TXML_RETURN_IF_ERROR(CheckAuthToken(request.auth_token));
        TXML_RETURN_IF_ERROR(reject_write());
        return service_->Execute(request);
      }
      case FrameType::kVacuumRequest: {
        TXML_ASSIGN_OR_RETURN(VacuumRequest request,
                              DecodeVacuumRequest(frame.payload));
        TXML_RETURN_IF_ERROR(CheckAuthToken(request.auth_token));
        TXML_RETURN_IF_ERROR(reject_write());
        return service_->Execute(request);
      }
      case FrameType::kStatsRequest: {
        TXML_ASSIGN_OR_RETURN(StatsRequest request,
                              DecodeStatsRequest(frame.payload));
        TXML_RETURN_IF_ERROR(CheckAuthToken(request.auth_token));
        return StatsResponse();
      }
      default:
        return Status::InvalidFrame("unexpected frame type from client");
    }
  }();

  if (response.ok()) {
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    return send(Status::OK(), *response);
  }
  if (response.status().IsInvalidFrame()) {
    // Protocol violation: report, then drop the connection — there is no
    // trustworthy frame boundary to resynchronize on.
    frames_rejected_.fetch_add(1, std::memory_order_relaxed);
    send(response.status());
    return false;
  }
  // Query-level failure (parse error, not found, …): the connection is
  // healthy, report the status and keep serving.
  requests_failed_.fetch_add(1, std::memory_order_relaxed);
  return send(response.status());
}

QueryResponse TxmlServer::StatsResponse() {
  ServiceStats service_stats = service_->Stats();
  ServerStats server_stats = Stats();
  auto count = [](uint64_t n) { return std::to_string(n); };
  std::unique_ptr<XmlNode> stats = XmlNode::Element("stats");
  stats->AddChild(XmlNode::Element(
      "service",
      {{"queries", count(service_stats.queries_executed)},
       {"writes", count(service_stats.writes_committed)},
       {"vacuums", count(service_stats.vacuums_run)},
       {"queries-failed", count(service_stats.queries_failed)},
       {"writes-failed", count(service_stats.writes_failed)},
       {"write-batches", count(service_stats.write_batches_committed)}}));
  const DurabilityStats& durability = service_stats.durability;
  stats->AddChild(XmlNode::Element(
      "durability",
      {{"wal-last-sequence", count(durability.wal_last_sequence)},
       {"wal-bytes", count(durability.wal_bytes)},
       {"checkpoints", count(durability.checkpoints_completed)},
       {"checkpoints-failed", count(durability.checkpoints_failed)},
       {"recovered-records", count(durability.recovered_records)}}));
  const ReplicationStats& replication = service_stats.replication;
  stats->AddChild(XmlNode::Element(
      "replication",
      {{"last-committed-sequence", count(replication.last_committed_sequence)},
       {"last-checkpoint-sequence",
        count(replication.last_checkpoint_sequence)},
       {"replicated-applied", count(replication.replicated_records_applied)},
       {"replicated-skipped", count(replication.replicated_records_skipped)},
       {"reseeds", count(replication.reseeds)},
       {"reseed-bytes", count(replication.reseed_bytes)},
       {"read-only", options_.read_only ? "true" : "false"}}));
  // Commit-path concurrency: aggregate shard contention plus the
  // group-commit batch shape (DESIGN.md §12).
  const CommitPathStats& commit_path = service_stats.commit_path;
  uint64_t acquires = 0, waits = 0;
  for (const CommitShardStats& shard : commit_path.shards) {
    acquires += shard.acquires;
    waits += shard.waits;
  }
  stats->AddChild(XmlNode::Element(
      "commit-path", {{"shards", count(commit_path.shards.size())},
                      {"acquires", count(acquires)},
                      {"waits", count(waits)},
                      {"batches", count(commit_path.batches_written)},
                      {"records", count(commit_path.records_written)},
                      {"syncs", count(commit_path.syncs)},
                      {"max-batch", count(commit_path.max_batch_records)}}));
  // Split-index health + planner decisions (DESIGN.md §13): differential
  // growth vs. fold cadence, and which arm queries actually ran on.
  const FtiIndexStats& fti = service_stats.fti;
  stats->AddChild(XmlNode::Element(
      "fti",
      {{"main-postings", count(fti.main_postings)},
       {"differential-postings", count(fti.differential_postings)},
       {"compactions", count(fti.compactions)}}));
  const PlannerStats& planner = service_stats.planner;
  stats->AddChild(XmlNode::Element(
      "planner", {{"scans-index", count(planner.scans_index)},
                  {"scans-traversal", count(planner.scans_traversal)},
                  {"lifetime-index", count(planner.lifetime_index_lookups)},
                  {"lifetime-traversal", count(planner.lifetime_traversals)},
                  {"fallbacks", count(planner.strategy_fallbacks)}}));
  stats->AddChild(XmlNode::Element(
      "server",
      {{"connections-accepted", count(server_stats.connections_accepted)},
       {"requests-served", count(server_stats.requests_served)},
       {"requests-failed", count(server_stats.requests_failed)},
       {"requests-rate-limited", count(server_stats.requests_rate_limited)},
       {"connections-rejected", count(server_stats.connections_rejected)},
       {"frames-rejected", count(server_stats.frames_rejected)},
       {"timeouts", count(server_stats.timeouts)}}));
  const SnapshotCacheStats& cache = service_stats.snapshot_cache;
  stats->AddChild(XmlNode::Element(
      "snapshot-cache", {{"hits", count(cache.hits)},
                         {"misses", count(cache.misses)},
                         {"evictions", count(cache.evictions)}}));
  if (options_.stats_extra) options_.stats_extra(stats.get());
  QueryResponse response;
  response.payload = SerializeXml(*stats);
  response.sequence = service_->applied_sequence();
  return response;
}

}  // namespace txml
