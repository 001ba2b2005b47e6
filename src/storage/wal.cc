#include "src/storage/wal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "src/storage/wal_tail.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/env.h"
#include "src/util/failpoint.h"

namespace txml {
namespace {

// 'T' 'W' 'L' '1' in file order under the little-endian fixed32 encoding.
constexpr uint32_t kWalMagic = 0x314C5754u;

// Vacuum-record flag bits (which optional horizons are present).
constexpr uint8_t kVacuumHasDropBefore = 0x1;
constexpr uint8_t kVacuumHasCoarsen = 0x2;

std::string ErrnoDetail(const char* op, const std::string& path, int err) {
  return std::string(op) + " '" + path + "' failed: " + std::strerror(err) +
         " (errno " + std::to_string(err) + ")";
}

std::string EncodeHeader(uint64_t base_sequence) {
  std::string header;
  PutFixed32(&header, kWalMagic);
  PutVarint64(&header, base_sequence);
  return header;
}

}  // namespace

// Body layout per record type (after the common `varint32 type, varint64
// sequence` prefix):
//   kPut:    varint_signed64 ts_micros, lp url, lp payload
//   kDelete: varint_signed64 ts_micros, lp url
//   kVacuum: varint32 flags, [varint_signed64 drop_before],
//            [varint_signed64 coarsen_older_than], varint32 keep_every
std::string EncodeWalRecordBody(const WalRecord& record, uint64_t sequence) {
  std::string body;
  PutVarint32(&body, static_cast<uint32_t>(record.type));
  PutVarint64(&body, sequence);
  switch (record.type) {
    case WalRecordType::kPut:
      PutVarintSigned64(&body, record.ts.micros());
      PutLengthPrefixed(&body, record.url);
      PutLengthPrefixed(&body, record.payload);
      break;
    case WalRecordType::kDelete:
      PutVarintSigned64(&body, record.ts.micros());
      PutLengthPrefixed(&body, record.url);
      break;
    case WalRecordType::kVacuum: {
      uint8_t flags = 0;
      if (record.policy.drop_before.has_value()) flags |= kVacuumHasDropBefore;
      if (record.policy.coarsen_older_than.has_value()) {
        flags |= kVacuumHasCoarsen;
      }
      PutVarint32(&body, flags);
      if (record.policy.drop_before.has_value()) {
        PutVarintSigned64(&body, record.policy.drop_before->micros());
      }
      if (record.policy.coarsen_older_than.has_value()) {
        PutVarintSigned64(&body, record.policy.coarsen_older_than->micros());
      }
      PutVarint32(&body, record.policy.keep_every);
      break;
    }
  }
  return body;
}

StatusOr<WalRecord> DecodeWalRecordBody(std::string_view body) {
  Decoder dec(body);
  WalRecord record;
  auto type = dec.ReadVarint32();
  if (!type.ok()) return type.status();
  switch (*type) {
    case static_cast<uint32_t>(WalRecordType::kPut):
      record.type = WalRecordType::kPut;
      break;
    case static_cast<uint32_t>(WalRecordType::kDelete):
      record.type = WalRecordType::kDelete;
      break;
    case static_cast<uint32_t>(WalRecordType::kVacuum):
      record.type = WalRecordType::kVacuum;
      break;
    default:
      return Status::Corruption("wal record has unknown type " +
                                std::to_string(*type));
  }
  auto sequence = dec.ReadVarint64();
  if (!sequence.ok()) return sequence.status();
  record.sequence = *sequence;
  switch (record.type) {
    case WalRecordType::kPut: {
      auto ts = dec.ReadVarintSigned64();
      if (!ts.ok()) return ts.status();
      record.ts = Timestamp::FromMicros(*ts);
      auto url = dec.ReadLengthPrefixed();
      if (!url.ok()) return url.status();
      record.url = std::string(*url);
      auto payload = dec.ReadLengthPrefixed();
      if (!payload.ok()) return payload.status();
      record.payload = std::string(*payload);
      break;
    }
    case WalRecordType::kDelete: {
      auto ts = dec.ReadVarintSigned64();
      if (!ts.ok()) return ts.status();
      record.ts = Timestamp::FromMicros(*ts);
      auto url = dec.ReadLengthPrefixed();
      if (!url.ok()) return url.status();
      record.url = std::string(*url);
      break;
    }
    case WalRecordType::kVacuum: {
      auto flags = dec.ReadVarint32();
      if (!flags.ok()) return flags.status();
      if (*flags & kVacuumHasDropBefore) {
        auto t = dec.ReadVarintSigned64();
        if (!t.ok()) return t.status();
        record.policy.drop_before = Timestamp::FromMicros(*t);
      }
      if (*flags & kVacuumHasCoarsen) {
        auto t = dec.ReadVarintSigned64();
        if (!t.ok()) return t.status();
        record.policy.coarsen_older_than = Timestamp::FromMicros(*t);
      }
      auto keep = dec.ReadVarint32();
      if (!keep.ok()) return keep.status();
      record.policy.keep_every = *keep;
      break;
    }
  }
  if (!dec.AtEnd()) {
    return Status::Corruption("wal record body has trailing bytes");
  }
  return record;
}

namespace {

// Scans `data` (the whole file) and fills `result` with every complete,
// CRC-valid record. Returns Corruption only when even the header is
// unreadable; a bad *suffix* is reported via tail_dropped instead.
Status ScanLog(std::string_view data, const std::string& path,
               WriteAheadLog::ReplayResult* result) {
  Decoder dec(data);
  auto magic = dec.ReadFixed32();
  if (!magic.ok() || *magic != kWalMagic) {
    return Status::Corruption("'" + path + "' is not a WAL file (bad magic)");
  }
  auto base = dec.ReadVarint64();
  if (!base.ok()) {
    return Status::Corruption("'" + path + "' has a truncated WAL header");
  }
  result->base_sequence = *base;
  result->last_sequence = *base;
  size_t pos = dec.position();
  result->valid_bytes = pos;
  while (pos < data.size()) {
    Decoder frame(data.substr(pos));
    auto len = frame.ReadVarint64();
    if (!len.ok()) break;  // torn length varint
    size_t body_off = pos + frame.position();
    if (*len > data.size() - body_off) break;  // torn body
    size_t body_len = static_cast<size_t>(*len);
    if (data.size() - body_off - body_len < 4) break;  // torn crc
    std::string_view body = data.substr(body_off, body_len);
    Decoder crc_dec(data.substr(body_off + body_len, 4));
    auto stored_crc = crc_dec.ReadFixed32();
    if (!stored_crc.ok()) break;
    if (crc32c::Unmask(*stored_crc) != crc32c::Value(body)) break;
    // A CRC-valid body that fails to decode is real corruption, not a torn
    // tail — the bytes were durably written this way. Still treat it as the
    // end of the trustworthy prefix rather than failing recovery outright.
    auto record = DecodeWalRecordBody(body);
    if (!record.ok()) break;
    result->records.push_back(std::move(*record));
    result->last_sequence = result->records.back().sequence;
    pos = body_off + body_len + 4;
    result->valid_bytes = pos;
  }
  if (result->valid_bytes < data.size()) {
    result->tail_dropped = true;
    result->bytes_dropped = data.size() - result->valid_bytes;
  }
  return Status::OK();
}

}  // namespace

std::string_view WalSyncModeToString(WalSyncMode mode) {
  switch (mode) {
    case WalSyncMode::kNone:
      return "none";
    case WalSyncMode::kEveryN:
      return "every_n";
    case WalSyncMode::kAlways:
      return "always";
  }
  return "unknown";
}

StatusOr<WalSyncMode> ParseWalSyncMode(std::string_view text) {
  if (text == "none") return WalSyncMode::kNone;
  if (text == "every_n") return WalSyncMode::kEveryN;
  if (text == "always") return WalSyncMode::kAlways;
  return Status::InvalidArgument(
      "unknown sync mode '" + std::string(text) +
      "' (expected none, every_n, or always)");
}

WriteAheadLog::WriteAheadLog(std::string path, WalOptions options)
    : path_(std::move(path)), options_(options) {}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    std::string path, WalOptions options, uint64_t min_base_sequence) {
  if (options.sync_mode == WalSyncMode::kEveryN && options.sync_every_n == 0) {
    return Status::InvalidArgument("sync_every_n must be > 0");
  }
  auto log = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(path), options));
  bool fresh = !FileExists(log->path_);
  if (fresh) {
    // Durably create the header-only file before the first append can be
    // acknowledged.
    Status created =
        WriteStringToFile(log->path_, EncodeHeader(min_base_sequence));
    if (!created.ok()) return created;
    log->last_sequence_ = min_base_sequence;
    log->file_bytes_ = EncodeHeader(min_base_sequence).size();
  } else {
    auto replay = Replay(log->path_);
    if (!replay.ok()) return replay.status();
    log->last_sequence_ = std::max(replay->last_sequence, min_base_sequence);
    log->record_count_ = replay->records.size();
    log->file_bytes_ = replay->valid_bytes;
    if (replay->tail_dropped) {
      // Physically drop the torn suffix so new appends extend the valid
      // prefix; otherwise replay would stop before them.
      if (::truncate(log->path_.c_str(),
                     static_cast<off_t>(replay->valid_bytes)) != 0) {
        return Status::IoError(
            ErrnoDetail("truncate (torn tail)", log->path_, errno));
      }
    }
  }
  if (FailPointError("wal.open", log->path_)) {
    return Status::IoError("injected failure at wal.open for '" + log->path_ +
                           "'");
  }
  int fd = ::open(log->path_.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    return Status::IoError(ErrnoDetail("open", log->path_, errno));
  }
  log->fd_ = fd;
  return log;
}

StatusOr<uint64_t> WriteAheadLog::Append(const WalRecord& record) {
  std::vector<WalRecord> batch{record};
  batch.front().sequence = last_sequence_ + 1;
  Status appended = AppendBatch(batch);
  if (!appended.ok()) return appended;
  return batch.front().sequence;
}

Status WriteAheadLog::AppendBatch(const std::vector<WalRecord>& records) {
  if (records.empty()) return Status::OK();
  if (poisoned_) {
    return Status::Unavailable(
        "wal '" + path_ +
        "' is poisoned after a failed sync/rollback; restart to recover");
  }
  uint64_t prev = last_sequence_;
  std::string framed;
  for (const WalRecord& record : records) {
    if (record.sequence <= prev) {
      return Status::InvalidArgument(
          "batch record sequence " + std::to_string(record.sequence) +
          " does not advance past " + std::to_string(prev));
    }
    prev = record.sequence;
    std::string body = EncodeWalRecordBody(record, record.sequence);
    PutVarint64(&framed, body.size());
    framed.append(body);
    PutFixed32(&framed, crc32c::Mask(crc32c::Value(body)));
  }

  Status written = WriteFramed(framed);
  if (!written.ok()) return written;
  file_bytes_ += framed.size();
  record_count_ += records.size();
  last_sequence_ = prev;
  unsynced_records_ += records.size();

  bool want_sync =
      options_.sync_mode == WalSyncMode::kAlways ||
      (options_.sync_mode == WalSyncMode::kEveryN &&
       unsynced_records_ >= options_.sync_every_n);
  if (want_sync) return SyncLocked();
  return Status::OK();
}

Status WriteAheadLog::WriteFramed(std::string_view framed) {
  std::string_view to_write = framed;
  size_t injected_allowed = 0;
  bool injected =
      FailPointShortWrite("wal.append.write", path_, &injected_allowed);
  if (injected) to_write = to_write.substr(0, injected_allowed);

  size_t off = 0;
  int write_errno = 0;
  while (off < to_write.size()) {
    ssize_t n = ::write(fd_, to_write.data() + off, to_write.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      write_errno = errno;
      break;
    }
    off += static_cast<size_t>(n);
  }
  if (injected || write_errno != 0) {
    // Roll the partial append back so the on-disk file ends on a record
    // boundary; a failed rollback leaves an untrusted tail → poison.
    if (::ftruncate(fd_, static_cast<off_t>(file_bytes_)) != 0) {
      poisoned_ = true;
      return Status::IoError(
          ErrnoDetail("ftruncate (append rollback)", path_, errno) +
          "; wal poisoned");
    }
    if (injected) {
      return Status::IoError("injected failure at wal.append.write for '" +
                             path_ + "'");
    }
    return Status::IoError(ErrnoDetail("write", path_, write_errno));
  }
  return Status::OK();
}

Status WriteAheadLog::SyncLocked() {
  if (FailPointError("wal.append.sync", path_)) {
    // The record may or may not be durable — same ambiguity as a real
    // fsync failure, so poison rather than guess.
    poisoned_ = true;
    return Status::IoError("injected failure at wal.append.sync for '" +
                           path_ + "'; wal poisoned");
  }
  if (::fsync(fd_) != 0) {
    // Post-fsync-failure page state is undefined on Linux (dirty pages may
    // be dropped); no later fsync can re-establish durability of this fd's
    // writes. Poison and force recovery from the on-disk truth.
    poisoned_ = true;
    return Status::IoError(ErrnoDetail("fsync", path_, errno) +
                           "; wal poisoned");
  }
  unsynced_records_ = 0;
  ++sync_count_;
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  if (poisoned_) {
    return Status::Unavailable("wal '" + path_ + "' is poisoned");
  }
  if (unsynced_records_ == 0) return Status::OK();
  return SyncLocked();
}

Status WriteAheadLog::Reset(uint64_t base_sequence) {
  // Build the replacement first; only swap our fd after the rename landed.
  Status replaced = WriteStringToFile(path_, EncodeHeader(base_sequence));
  if (!replaced.ok()) return replaced;
  int fd = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) {
    // The file on disk is the fresh header, but we cannot append to it;
    // poison so callers stop acknowledging writes.
    poisoned_ = true;
    return Status::IoError(ErrnoDetail("open (reset)", path_, errno) +
                           "; wal poisoned");
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  last_sequence_ = std::max(last_sequence_, base_sequence);
  file_bytes_ = EncodeHeader(base_sequence).size();
  record_count_ = 0;
  unsynced_records_ = 0;
  poisoned_ = false;
  return Status::OK();
}

StatusOr<WriteAheadLog::ReplayResult> WriteAheadLog::Replay(
    const std::string& path) {
  ReplayResult result;
  if (!FileExists(path)) return result;
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  Status scanned = ScanLog(*data, path, &result);
  if (!scanned.ok()) return scanned;
  return result;
}

StatusOr<WriteAheadLog::ReplayResult> WriteAheadLog::ReplayData(
    std::string_view data) {
  ReplayResult result;
  Status scanned = ScanLog(data, "<memory>", &result);
  if (!scanned.ok()) return scanned;
  return result;
}

namespace {

// GroupCommitStats histogram bucket for a batch of `n` records: 0 → size
// 1, 1 → 2, 2 → 3-4, 3 → 5-8, …, last bucket → everything larger.
size_t BatchHistogramBucket(size_t n) {
  size_t bucket = 0;
  size_t bound = 1;
  while (bucket + 1 < GroupCommitStats::kHistogramBuckets && n > bound) {
    ++bucket;
    bound <<= 1;
  }
  return bucket;
}

}  // namespace

GroupCommitWal::GroupCommitWal(std::unique_ptr<WriteAheadLog> wal, Hooks hooks)
    : wal_(std::move(wal)), hooks_(std::move(hooks)) {
  {
    MutexLock lock(mu_);
    submitted_watermark_ = wal_->last_sequence();
    MirrorGauges();
  }
  writer_ = Thread([this] { WriterLoop(); });
}

GroupCommitWal::~GroupCommitWal() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
    queue_cv_.Signal();
  }
  writer_.Join();
}

void GroupCommitWal::EnqueueRun(std::vector<WalRecord> records,
                                const std::vector<Ticket*>& tickets) {
  MutexLock lock(mu_);
  // All or nothing: a run with any record refused up front queues none,
  // so a submission never reaches the log as a suffix of itself.
  Status refused = Status::OK();
  if (stopping_) {
    refused = Status::Unavailable("group-commit wal is shutting down");
  } else if (poisoned_.load(std::memory_order_relaxed)) {
    refused = Status::Unavailable("wal '" + wal_->path() +
                                  "' is poisoned; restart to recover");
  }
  uint64_t watermark = submitted_watermark_;
  for (const WalRecord& record : records) {
    if (!refused.ok()) break;
    if (record.sequence <= watermark) {
      refused = Status::InvalidArgument(
          "group-commit record sequence " + std::to_string(record.sequence) +
          " does not advance past " + std::to_string(watermark));
    }
    watermark = record.sequence;
  }
  for (size_t i = 0; i < records.size(); ++i) {
    if (refused.ok()) {
      queue_.push_back(Pending{std::move(records[i]), tickets[i]});
    } else {
      tickets[i]->result_ = refused;
      tickets[i]->done_ = true;
    }
  }
  if (refused.ok()) submitted_watermark_ = watermark;
  SignalWriterLocked();
}

void GroupCommitWal::SignalWriterLocked() {
  // While the writer is holding a batch open (the formation window), a
  // wake-per-enqueue is a context switch per record for nothing — it
  // would just re-check and sleep again. Wake it early only when the
  // queue now covers every commit in flight (nobody left to wait for);
  // otherwise its deadline timeout closes the batch.
  if (forming_ &&
      queue_.size() < hooks_.commits_in_flight()) {
    return;
  }
  queue_cv_.Signal();
}

Status GroupCommitWal::Wait(Ticket* ticket) {
  MutexLock lock(mu_);
  while (!ticket->done_) ack_cv_.Wait(mu_);
  return ticket->result_;
}

Status GroupCommitWal::Flush() {
  MutexLock lock(mu_);
  while (!queue_.empty() || writing_) ack_cv_.Wait(mu_);
  // The writer is parked (it needs mu_ to start another batch), so the
  // log is safe to touch directly.
  Status synced = wal_->Sync();
  MirrorGauges();
  return synced;
}

Status GroupCommitWal::Reset(uint64_t base_sequence) {
  MutexLock lock(mu_);
  while (!queue_.empty() || writing_) ack_cv_.Wait(mu_);
  Status reset = wal_->Reset(base_sequence);
  if (reset.ok()) {
    submitted_watermark_ = std::max(submitted_watermark_, base_sequence);
  }
  MirrorGauges();
  return reset;
}

GroupCommitStats GroupCommitWal::Stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void GroupCommitWal::MirrorGauges() {
  // Release on last_sequence_ pairs with the acquire load in the
  // accessor: a reader that observes the new sequence also observes the
  // batch's effects.
  file_bytes_.store(wal_->file_bytes(), std::memory_order_relaxed);
  record_count_.store(wal_->record_count(), std::memory_order_relaxed);
  sync_count_.store(wal_->sync_count(), std::memory_order_relaxed);
  poisoned_.store(wal_->poisoned(), std::memory_order_relaxed);
  last_sequence_.store(wal_->last_sequence(), std::memory_order_release);
}

void GroupCommitWal::WriterLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      MutexLock lock(mu_);
      while (queue_.empty() && !stopping_) queue_cv_.Wait(mu_);
      if (queue_.empty() && stopping_) return;
      // Batch formation (WalOptions::group_commit_window_us): while more
      // commits are inside the commit path than are queued — committers
      // mid-apply whose next records are moments away — hold the batch
      // open so they share this write and its sync, instead of paying one
      // sync each across several small batches. Bounded by the window; a
      // lone committer never waits (queue covers the in-flight count).
      const int64_t window_us =
          hooks_.commits_in_flight ? wal_->options().group_commit_window_us
                                   : 0;
      if (window_us > 0) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::microseconds(window_us);
        forming_ = true;
        while (!stopping_ &&
               queue_.size() < hooks_.commits_in_flight()) {
          const auto now = std::chrono::steady_clock::now();
          if (now >= deadline) break;
          const int64_t remaining_us =
              std::chrono::duration_cast<std::chrono::microseconds>(deadline -
                                                                    now)
                  .count();
          queue_cv_.WaitForMicros(mu_, std::max<int64_t>(remaining_us, 1));
        }
        forming_ = false;
      }
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
      if (stopping_) {
        // Drain-on-shutdown: nothing may be written anymore; fail the
        // stragglers (by contract nobody is waiting — see ~GroupCommitWal).
        for (Pending& pending : batch) {
          pending.ticket->result_ =
              Status::Unavailable("group-commit wal is shutting down");
          pending.ticket->done_ = true;
        }
        ack_cv_.SignalAll();
        return;
      }
      writing_ = true;
    }

    std::vector<WalRecord> records;
    records.reserve(batch.size());
    for (Pending& pending : batch) {
      records.push_back(std::move(pending.record));
    }
    Status appended = wal_->AppendBatch(records);

    if (appended.ok() && hooks_.tail != nullptr) {
      // Post-sync-decision push: a follower can only ever see records the
      // leader acknowledged (durable in kAlways mode).
      for (const WalRecord& record : records) hooks_.tail->Push(record);
    }

    {
      MutexLock lock(mu_);
      writing_ = false;
      MirrorGauges();
      if (!appended.ok() && queue_.empty()) {
        // The failed batch was rolled back (or poisoned the log): a
        // follower may submit its sequences again when the leader resends.
        submitted_watermark_ = wal_->last_sequence();
      }
      if (appended.ok()) {
        ++stats_.batches_written;
        stats_.records_written += records.size();
        stats_.syncs = wal_->sync_count();
        stats_.max_batch_records =
            std::max<uint64_t>(stats_.max_batch_records, records.size());
        ++stats_.batch_size_histogram[BatchHistogramBucket(records.size())];
      }
      for (Pending& pending : batch) {
        pending.ticket->result_ = appended;
        pending.ticket->done_ = true;
      }
      ack_cv_.SignalAll();
    }
  }
}

Status WriteCheckpointStamp(const std::string& dir, uint64_t sequence) {
  std::string body;
  PutFixed32(&body, kWalMagic);
  PutVarint64(&body, sequence);
  std::string framed = body;
  PutFixed32(&framed, crc32c::Mask(crc32c::Value(body)));
  return WriteStringToFile(dir + "/" + kCheckpointStampFileName, framed);
}

StatusOr<uint64_t> ReadCheckpointStamp(const std::string& dir) {
  std::string path = dir + "/" + kCheckpointStampFileName;
  if (!FileExists(path)) {
    return Status::NotFound("no checkpoint stamp in '" + dir + "'");
  }
  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  if (data->size() < 4) {
    return Status::Corruption("checkpoint stamp '" + path + "' too short");
  }
  std::string_view body(*data);
  body.remove_suffix(4);
  Decoder crc_dec(std::string_view(*data).substr(body.size()));
  auto stored_crc = crc_dec.ReadFixed32();
  if (!stored_crc.ok() ||
      crc32c::Unmask(*stored_crc) != crc32c::Value(body)) {
    return Status::Corruption("checkpoint stamp '" + path +
                              "' fails its checksum");
  }
  Decoder dec(body);
  auto magic = dec.ReadFixed32();
  if (!magic.ok() || *magic != kWalMagic) {
    return Status::Corruption("checkpoint stamp '" + path + "' has bad magic");
  }
  auto sequence = dec.ReadVarint64();
  if (!sequence.ok()) return sequence.status();
  return *sequence;
}

}  // namespace txml
