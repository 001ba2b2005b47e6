#include "src/repl/replica_applier.h"

#include <algorithm>
#include <utility>

#include "src/util/crc32c.h"
#include "src/util/logging.h"
#include "src/util/macros.h"

namespace txml {
namespace {

/// Decodes the response header the leader sent in place of a stream
/// frame, drains the rest of the response (chunks + end), and returns the
/// status it carried. `stream` names the conversation for the error a
/// success header earns.
Status DrainErrorResponse(Socket* socket, size_t max_frame_bytes,
                          const std::string& header_payload,
                          const char* stream) {
  TXML_ASSIGN_OR_RETURN(ResponseHeader header,
                        DecodeResponseHeader(header_payload));
  while (true) {
    auto frame = ReadFrame(socket, max_frame_bytes);
    if (!frame.ok()) break;  // the reported status matters more
    if (frame->type != FrameType::kResponseChunk) break;
  }
  if (header.status_code == StatusCode::kOk) {
    return Status::InvalidFrame(
        std::string("leader sent a success response inside ") + stream);
  }
  return Status(header.status_code, header.error_message);
}

}  // namespace

Status ReceiveCheckpointStream(Socket* socket, size_t max_frame_bytes,
                               ReseedProgress* progress,
                               TemporalQueryService::CheckpointImage* image) {
  auto frame = ReadFrame(socket, max_frame_bytes);
  if (!frame.ok()) return frame.status();
  if (frame->type == FrameType::kResponseHeader) {
    return DrainErrorResponse(socket, max_frame_bytes, frame->payload,
                              "a checkpoint transfer");
  }
  if (frame->type != FrameType::kCheckpointMeta) {
    return Status::InvalidFrame(
        "expected kCheckpointMeta, got frame type " +
        std::to_string(static_cast<int>(frame->type)));
  }
  TXML_ASSIGN_OR_RETURN(CheckpointMeta meta,
                        DecodeCheckpointMeta(frame->payload));

  if (progress->valid && meta.archive_crc32c == progress->archive_crc32c &&
      meta.total_bytes == progress->total_bytes && meta.start_offset > 0 &&
      meta.start_offset == progress->buffer.size()) {
    // The leader resumed our partial transfer of this same archive; the
    // verified prefix in `buffer` stands. Re-take the table and covered
    // sequence — same archive, same contents.
    progress->covered_sequence = meta.covered_sequence;
    progress->files = std::move(meta.files);
  } else {
    // Fresh transfer (first attempt, or the leader checkpointed again and
    // the old prefix names a dead archive). The stream must start at 0.
    if (meta.start_offset != 0) {
      return Status::InvalidFrame(
          "leader started checkpoint stream at offset " +
          std::to_string(meta.start_offset) + " we did not ask to resume");
    }
    progress->valid = true;
    progress->archive_crc32c = meta.archive_crc32c;
    progress->covered_sequence = meta.covered_sequence;
    progress->total_bytes = meta.total_bytes;
    progress->files = std::move(meta.files);
    progress->buffer.clear();
  }

  while (progress->buffer.size() < progress->total_bytes) {
    auto chunk_frame = ReadFrame(socket, max_frame_bytes);
    if (!chunk_frame.ok()) return chunk_frame.status();
    if (chunk_frame->type == FrameType::kResponseHeader) {
      return DrainErrorResponse(socket, max_frame_bytes, chunk_frame->payload,
                                "a checkpoint transfer");
    }
    if (chunk_frame->type != FrameType::kCheckpointChunk) {
      return Status::InvalidFrame(
          "expected kCheckpointChunk, got frame type " +
          std::to_string(static_cast<int>(chunk_frame->type)));
    }
    TXML_ASSIGN_OR_RETURN(CheckpointChunk chunk,
                          DecodeCheckpointChunk(chunk_frame->payload));
    if (chunk.offset != progress->buffer.size()) {
      return Status::InvalidFrame(
          "checkpoint chunk at offset " + std::to_string(chunk.offset) +
          ", expected " + std::to_string(progress->buffer.size()));
    }
    if (chunk.data.empty()) {
      return Status::InvalidFrame("empty checkpoint chunk");
    }
    if (chunk.offset + chunk.data.size() > progress->total_bytes) {
      return Status::InvalidFrame("checkpoint chunk overruns the archive");
    }
    if (crc32c::Value(chunk.data) != chunk.crc32c) {
      // Do not extend the verified prefix with bytes we cannot trust;
      // the next attempt resumes from before this chunk.
      return Status::Corruption("checkpoint chunk CRC mismatch at offset " +
                                std::to_string(chunk.offset));
    }
    progress->buffer += chunk.data;
    ReplAck ack;
    ack.applied_sequence = progress->buffer.size();
    TXML_RETURN_IF_ERROR(
        WriteFrame(socket, FrameType::kReplAck, EncodeReplAck(ack)));
  }

  if (crc32c::Value(progress->buffer) != progress->archive_crc32c) {
    // Every chunk verified but the whole does not: the prefix cannot be
    // trusted either (resumed across a leader bug, or CRC collision per
    // chunk). Start the next attempt from nothing.
    *progress = ReseedProgress();
    return Status::Corruption("checkpoint archive CRC mismatch");
  }
  image->covered_sequence = progress->covered_sequence;
  image->files.clear();
  image->files.reserve(progress->files.size());
  size_t cursor = 0;
  for (const auto& file : progress->files) {
    image->files.emplace_back(file.name,
                              progress->buffer.substr(cursor, file.size));
    cursor += file.size;
  }
  return Status::OK();
}

ReplicaApplier::ReplicaApplier(TemporalQueryService* service, Options options)
    : service_(service), options_(options), jitter_(options.jitter_seed) {
  {
    MutexLock lock(mu_);
    state_.applied_sequence = service_->applied_sequence();
  }
}

ReplicaApplier::~ReplicaApplier() { Stop(); }

Status ReplicaApplier::Start() {
  if (options_.leader_port == 0) {
    return Status::InvalidArgument("ReplicaApplier requires a leader port");
  }
  if (service_->wal_tail() == nullptr) {
    return Status::InvalidArgument(
        "ReplicaApplier requires a durable service (set data_dir)");
  }
  thread_ = Thread(&ReplicaApplier::Run, this);
  return Status::OK();
}

void ReplicaApplier::Stop() {
  if (stopping_.exchange(true)) {
    if (thread_.Joinable()) thread_.Join();
    return;
  }
  {
    MutexLock lock(mu_);
    // Interrupts a read blocked on the leader; the session ends with an
    // I/O error the Run loop translates into exit (stopping_ is set).
    if (session_socket_ != nullptr) session_socket_->ShutdownBoth();
    stop_cv_.SignalAll();
  }
  if (thread_.Joinable()) thread_.Join();
}

void ReplicaApplier::Run() {
  int failures = 0;
  while (!stopping_.load()) {
    bool progressed = false;
    Status session = RunSession(&progressed);
    {
      MutexLock lock(mu_);
      state_.connected = false;
      // Any session that processed a stream frame — batch or heartbeat —
      // found a healthy leader, so the next disconnect starts backoff
      // fresh. Heartbeats count: an idle leader sends nothing else, and
      // pinning its followers at backoff_max would slow every later
      // reconnect for no reason.
      if (progressed) {
        failures = 0;
        state_.fatal = false;
      }
    }
    if (stopping_.load()) break;
    if (session.IsOutOfRange()) {
      // The leader's log no longer reaches our cursor — resubscribing
      // cannot help. Stream its newest checkpoint instead (DESIGN.md
      // §14), unless the leader refuses, in which case park recoverably
      // on the slow retry timer.
      Status reseed = RunReseed();
      if (stopping_.load()) break;
      if (reseed.ok()) {
        failures = 0;
        continue;  // resubscribe from the freshly installed floor
      }
      if (!reseed.IsInvalidArgument()) {
        // Transient transfer failure (connection died, torn chunk):
        // normal backoff; the kept partial archive makes the next
        // attempt resume where this one stopped.
        SetError(reseed);
        BackoffSleep(failures++);
        continue;
      }
      // The leader refused to serve.
      {
        MutexLock lock(mu_);
        state_.fatal = true;
        state_.last_error = reseed.ToString();
        // Wake anyone sampling the state through a wait on stop_cv_ so
        // the park is observed without a Stop().
        stop_cv_.SignalAll();
      }
      TXML_LOG_WARN("replication parked: %s", reseed.ToString().c_str());
      FatalRetrySleep();
      failures = 0;
      continue;
    }
    SetError(session);
    BackoffSleep(failures++);
  }
}

Status ReplicaApplier::RunSession(bool* progressed) {
  auto connected = Socket::Connect(options_.leader_host, options_.leader_port,
                                   options_.connect_timeout_ms);
  if (!connected.ok()) return connected.status();
  Socket socket = std::move(*connected);
  TXML_RETURN_IF_ERROR(
      socket.SetTimeouts(options_.read_timeout_ms, options_.write_timeout_ms));

  {
    MutexLock lock(mu_);
    if (stopping_.load()) return Status::OK();  // raced with Stop
    session_socket_ = &socket;
    state_.reconnects++;
  }
  // Whatever ends the session, stop exposing the dying socket to Stop().
  auto session_end = [this] {
    MutexLock lock(mu_);
    session_socket_ = nullptr;
  };

  Status result = [&]() -> Status {
    ReplSubscribeRequest subscribe;
    subscribe.from_sequence = service_->applied_sequence();
    subscribe.follower_name = options_.follower_name;
    TXML_RETURN_IF_ERROR(WriteFrame(&socket, FrameType::kReplSubscribe,
                                    EncodeReplSubscribe(subscribe)));
    {
      MutexLock lock(mu_);
      state_.connected = true;
      state_.last_error.clear();
    }

    while (!stopping_.load()) {
      auto frame = ReadFrame(&socket, options_.max_frame_bytes);
      if (!frame.ok()) return frame.status();
      switch (frame->type) {
        case FrameType::kReplBatch: {
          TXML_ASSIGN_OR_RETURN(ReplBatch batch,
                                DecodeReplBatch(frame->payload));
          // A failure here is session-fatal: the batch did not reach our
          // WAL, so acking past it would lose it forever. Reconnect and
          // let the leader resend from our (unadvanced) floor.
          TXML_RETURN_IF_ERROR(service_->ApplyReplicated(batch.records));
          uint64_t applied = service_->applied_sequence();
          {
            MutexLock lock(mu_);
            state_.applied_sequence = applied;
            state_.leader_last_sequence = batch.leader_last_sequence;
            state_.batches_applied++;
          }
          *progressed = true;
          ReplAck ack;
          ack.applied_sequence = applied;
          TXML_RETURN_IF_ERROR(
              WriteFrame(&socket, FrameType::kReplAck, EncodeReplAck(ack)));
          break;
        }
        case FrameType::kReplHeartbeat: {
          TXML_ASSIGN_OR_RETURN(ReplHeartbeat heartbeat,
                                DecodeReplHeartbeat(frame->payload));
          {
            MutexLock lock(mu_);
            state_.leader_last_sequence = heartbeat.leader_last_sequence;
          }
          *progressed = true;
          ReplAck ack;
          ack.applied_sequence = service_->applied_sequence();
          TXML_RETURN_IF_ERROR(
              WriteFrame(&socket, FrameType::kReplAck, EncodeReplAck(ack)));
          break;
        }
        case FrameType::kResponseHeader: {
          // The leader rejected the subscription (or aborted the stream);
          // the payload carries the status to act on.
          return DrainErrorResponse(&socket, options_.max_frame_bytes,
                                    frame->payload,
                                    "the replication stream");
        }
        default:
          return Status::InvalidFrame(
              "unexpected frame type " +
              std::to_string(static_cast<int>(frame->type)) +
              " in replication stream");
      }
    }
    return Status::OK();
  }();
  session_end();
  return result;
}

Status ReplicaApplier::RunReseed() {
  {
    MutexLock lock(mu_);
    state_.reseeding = true;
  }
  auto connected = Socket::Connect(options_.leader_host, options_.leader_port,
                                   options_.connect_timeout_ms);
  Status result = [&]() -> Status {
    if (!connected.ok()) return connected.status();
    Socket socket = std::move(*connected);
    TXML_RETURN_IF_ERROR(socket.SetTimeouts(options_.read_timeout_ms,
                                            options_.write_timeout_ms));
    {
      MutexLock lock(mu_);
      if (stopping_.load()) return Status::Unavailable("applier stopping");
      session_socket_ = &socket;
    }
    auto session_end = [this] {
      MutexLock lock(mu_);
      session_socket_ = nullptr;
    };
    Status transfer = [&]() -> Status {
      CheckpointRequest request;
      request.follower_name = options_.follower_name;
      if (reseed_progress_.valid) {
        request.resume_offset = reseed_progress_.buffer.size();
        request.resume_crc32c = reseed_progress_.archive_crc32c;
      }
      TXML_RETURN_IF_ERROR(WriteFrame(&socket, FrameType::kCheckpointRequest,
                                      EncodeCheckpointRequest(request)));
      TemporalQueryService::CheckpointImage image;
      TXML_RETURN_IF_ERROR(ReceiveCheckpointStream(
          &socket, options_.max_frame_bytes, &reseed_progress_, &image));
      Status install = service_->InstallCheckpoint(image);
      if (install.IsOutOfRange()) {
        // The image is at or below what we already hold — a racing
        // catch-up overtook the transfer. The subscribe loop can resume.
        reseed_progress_ = ReseedProgress();
        return Status::OK();
      }
      TXML_RETURN_IF_ERROR(install);
      reseed_progress_ = ReseedProgress();
      uint64_t applied = service_->applied_sequence();
      {
        MutexLock lock(mu_);
        state_.applied_sequence = applied;
        state_.reseeds++;
        state_.fatal = false;
        state_.last_error.clear();
      }
      return Status::OK();
    }();
    session_end();
    return transfer;
  }();
  {
    MutexLock lock(mu_);
    state_.reseeding = false;
  }
  return result;
}

void ReplicaApplier::SetError(const Status& status) {
  MutexLock lock(mu_);
  state_.last_error = status.ToString();
}

void ReplicaApplier::BackoffSleep(int failures) {
  int64_t base = std::max(options_.backoff_initial_ms, 1);
  int64_t delay = base << std::min(failures, 20);
  delay = std::min<int64_t>(delay, std::max(options_.backoff_max_ms, 1));
  int64_t jittered =
      jitter_.UniformRange(std::max<int64_t>(delay / 2, 1), delay);
  MutexLock lock(mu_);
  if (stopping_.load()) return;
  stop_cv_.WaitFor(mu_, jittered);
}

void ReplicaApplier::FatalRetrySleep() {
  MutexLock lock(mu_);
  if (stopping_.load()) return;
  stop_cv_.WaitFor(mu_, std::max(options_.fatal_retry_ms, 1));
}

ReplicaApplier::State ReplicaApplier::GetState() const {
  MutexLock lock(mu_);
  return state_;
}

std::unique_ptr<XmlNode> ReplicaApplier::StatsElement() const {
  State state = GetState();
  auto flag = [](bool on) { return on ? "true" : "false"; };
  return XmlNode::Element(
      "applier",
      {{"leader",
        options_.leader_host + ":" + std::to_string(options_.leader_port)},
       {"connected", flag(state.connected)},
       {"fatal", flag(state.fatal)},
       {"reseeding", flag(state.reseeding)},
       {"applied-sequence", std::to_string(state.applied_sequence)},
       {"leader-last-sequence", std::to_string(state.leader_last_sequence)},
       {"batches-applied", std::to_string(state.batches_applied)},
       {"reconnects", std::to_string(state.reconnects)},
       {"reseeds", std::to_string(state.reseeds)},
       {"last-error", state.last_error}});
}

}  // namespace txml
