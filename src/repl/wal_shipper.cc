#include "src/repl/wal_shipper.h"

#include <algorithm>
#include <utility>

#include "src/util/crc32c.h"
#include "src/util/failpoint.h"

namespace txml {

WalShipper::WalShipper(TemporalQueryService* service, Options options)
    : service_(service), options_(options) {}

void WalShipper::Serve(Socket* socket, const ReplSubscribeRequest& subscribe) {
  WalTailBuffer* tail = service_->wal_tail();
  if (tail == nullptr) {
    SendResponse(socket, Status::InvalidArgument(
                             "replication requires a durable leader (no WAL)"));
    return;
  }

  // A named follower keeps one row across reconnects; each anonymous
  // subscription gets a row of its own.
  std::string name = subscribe.follower_name;
  {
    MutexLock lock(mu_);
    if (name.empty()) {
      name = "follower-";
      name += std::to_string(anonymous_count_++);
    }
    Row& row = RowFor(name);
    ++row.conversations;
    row.state.connected = true;
    row.state.acked_sequence = subscribe.from_sequence;
  }

  uint64_t cursor = subscribe.from_sequence;
  bool alive = true;
  while (alive && !stopping_.load()) {
    WalTailBuffer::ReadResult read =
        tail->ReadAfter(cursor, options_.batch_max_records,
                        options_.batch_max_bytes, options_.heartbeat_interval_ms);
    if (read.below_floor) {
      // The tail evicted records past the cursor: catch up from the
      // on-disk log, then loop back to the tail. Replay reads a
      // point-in-time prefix of the file; a torn tail from an append in
      // flight is dropped by its CRC scan and re-read next round. A
      // checkpoint truncation swaps the file atomically, so we see either
      // the old log or the new stub — whose base_sequence tells us
      // whether the cursor is still reachable.
      auto replay = WriteAheadLog::Replay(service_->wal()->path());
      if (!replay.ok()) {
        SendResponse(socket, replay.status());
        break;
      }
      if (cursor < replay->base_sequence) {
        SendResponse(socket,
                     Status::OutOfRange(
                         "follower cursor " + std::to_string(cursor) +
                         " predates the leader log (base " +
                         std::to_string(replay->base_sequence) +
                         "); re-seed the follower from a leader checkpoint"));
        break;
      }
      size_t i = 0;
      while (alive && i < replay->records.size() && !stopping_.load()) {
        ReplBatch batch;
        uint64_t bytes = 0;
        while (i < replay->records.size() &&
               batch.records.size() < options_.batch_max_records &&
               bytes < options_.batch_max_bytes) {
          const WalRecord& record = replay->records[i++];
          if (record.sequence <= cursor) continue;
          bytes += 32 + record.url.size() + record.payload.size();
          batch.records.push_back(record);
        }
        if (batch.records.empty()) break;
        alive = ShipBatch(socket, name, std::move(batch), &cursor);
      }
      continue;
    }
    if (read.records.empty()) {
      // Tail-read timeout (leader idle) or buffer closed: probe the
      // follower so a dead connection is noticed and its lag refreshed.
      ReplHeartbeat heartbeat;
      heartbeat.leader_last_sequence = service_->applied_sequence();
      alive = WriteFrame(socket, FrameType::kReplHeartbeat,
                         EncodeReplHeartbeat(heartbeat))
                  .ok() &&
              ReadAck(socket, name);
      continue;
    }
    ReplBatch batch;
    batch.records = std::move(read.records);
    alive = ShipBatch(socket, name, std::move(batch), &cursor);
  }

  MutexLock lock(mu_);
  Row& row = RowFor(name);
  // A reconnect may overlap the old conversation's end: the row stays
  // connected while any conversation of the name is open.
  row.state.connected = --row.conversations > 0;
}

bool WalShipper::ShipBatch(Socket* socket, const std::string& name,
                           ReplBatch batch, uint64_t* cursor) {
  batch.leader_last_sequence = service_->applied_sequence();
  uint64_t last = batch.records.back().sequence;
  if (!WriteFrame(socket, FrameType::kReplBatch, EncodeReplBatch(batch)).ok()) {
    return false;
  }
  if (!ReadAck(socket, name)) return false;
  *cursor = last;
  MutexLock lock(mu_);
  RowFor(name).state.batches_sent++;
  return true;
}

WalShipper::Row& WalShipper::RowFor(const std::string& name) {
  auto [it, inserted] = followers_.try_emplace(name);
  if (inserted) it->second.state.name = name;
  return it->second;
}

void WalShipper::ServeCheckpoint(Socket* socket,
                                 const CheckpointRequest& request) {
  if (service_->wal_tail() == nullptr) {
    SendResponse(socket, Status::InvalidArgument(
                             "replication requires a durable leader (no WAL)"));
    return;
  }
  auto image = service_->ExportCheckpoint();
  if (!image.ok()) {
    SendResponse(socket, image.status());
    return;
  }
  std::string archive = BuildCheckpointArchive(*image);
  CheckpointMeta meta;
  meta.covered_sequence = image->covered_sequence;
  meta.total_bytes = archive.size();
  meta.archive_crc32c = crc32c::Value(archive);
  meta.files.reserve(image->files.size());
  for (const auto& [name, contents] : image->files) {
    CheckpointMeta::File file;
    file.name = name;
    file.size = contents.size();
    meta.files.push_back(std::move(file));
  }
  // Honor a resume only when the follower is mid-transfer of *this*
  // archive — a new checkpoint since its last attempt changes the CRC
  // and the stream restarts from 0 (the meta's start_offset says which).
  if (request.resume_offset > 0 &&
      request.resume_offset <= meta.total_bytes &&
      request.resume_crc32c == meta.archive_crc32c) {
    meta.start_offset = request.resume_offset;
  }
  const std::string name =
      request.follower_name.empty() ? "follower-reseed" : request.follower_name;
  {
    MutexLock lock(mu_);
    RowFor(name);  // the re-seed joins the follower's row
  }
  if (!WriteFrame(socket, FrameType::kCheckpointMeta, EncodeCheckpointMeta(meta))
           .ok()) {
    return;
  }
  uint64_t offset = meta.start_offset;
  uint64_t sent = 0;
  while (offset < meta.total_bytes && !stopping_.load()) {
    if (FailPointError("reseed.serve.chunk", request.follower_name)) {
      // Injected leader death mid-stream: drop the connection exactly as
      // a killed process would, leaving the follower to resume.
      socket->ShutdownBoth();
      return;
    }
    CheckpointChunk chunk;
    chunk.offset = offset;
    chunk.data = archive.substr(
        offset, std::min<uint64_t>(options_.checkpoint_chunk_bytes,
                                   meta.total_bytes - offset));
    chunk.crc32c = crc32c::Value(chunk.data);
    if (!WriteFrame(socket, FrameType::kCheckpointChunk,
                    EncodeCheckpointChunk(chunk))
             .ok()) {
      break;
    }
    offset += chunk.data.size();
    sent += chunk.data.size();
    // The per-chunk ack keeps the conversation half-duplex (one frame in
    // flight) and carries the follower's cumulative received offset.
    auto frame = ReadFrame(socket, kDefaultMaxFrameBytes);
    if (!frame.ok() || frame->type != FrameType::kReplAck) break;
    auto ack = DecodeReplAck(frame->payload);
    if (!ack.ok() || ack->applied_sequence != offset) break;
  }
  MutexLock lock(mu_);
  FollowerState& state = RowFor(name).state;
  state.checkpoint_bytes_sent += sent;
  if (offset >= meta.total_bytes) state.checkpoints_served++;
}

bool WalShipper::ReadAck(Socket* socket, const std::string& name) {
  auto frame = ReadFrame(socket, kDefaultMaxFrameBytes);
  if (!frame.ok() || frame->type != FrameType::kReplAck) return false;
  auto ack = DecodeReplAck(frame->payload);
  if (!ack.ok()) return false;
  uint64_t leader_last = service_->applied_sequence();
  MutexLock lock(mu_);
  FollowerState& state = RowFor(name).state;
  state.acked_sequence = std::max(state.acked_sequence, ack->applied_sequence);
  state.lag = leader_last > state.acked_sequence
                  ? leader_last - state.acked_sequence
                  : 0;
  return true;
}

std::vector<WalShipper::FollowerState> WalShipper::Followers() const {
  MutexLock lock(mu_);
  std::vector<FollowerState> result;
  result.reserve(followers_.size());
  for (const auto& [name, row] : followers_) result.push_back(row.state);
  return result;
}

std::unique_ptr<XmlNode> WalShipper::StatsElement() const {
  std::unique_ptr<XmlNode> followers = XmlNode::Element("followers");
  for (const FollowerState& state : Followers()) {
    followers->AddChild(XmlNode::Element(
        "follower",
        {{"name", state.name},
         {"connected", state.connected ? "true" : "false"},
         {"acked-sequence", std::to_string(state.acked_sequence)},
         {"lag", std::to_string(state.lag)},
         {"batches-sent", std::to_string(state.batches_sent)},
         {"checkpoints-served", std::to_string(state.checkpoints_served)},
         {"checkpoint-bytes-sent",
          std::to_string(state.checkpoint_bytes_sent)}}));
  }
  // An empty text child keeps a follower-less leader's element in its
  // open/close form, "<followers></followers>", not "<followers/>".
  if (followers->children().empty()) followers->AddChild(XmlNode::Text(""));
  return followers;
}

std::string BuildCheckpointArchive(
    const TemporalQueryService::CheckpointImage& image) {
  std::string archive;
  size_t total = 0;
  for (const auto& [name, contents] : image.files) total += contents.size();
  archive.reserve(total);
  for (const auto& [name, contents] : image.files) archive += contents;
  return archive;
}

}  // namespace txml
