#ifndef TXML_SRC_REPL_WAL_SHIPPER_H_
#define TXML_SRC_REPL_WAL_SHIPPER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/service/service.h"
#include "src/util/synchronization.h"
#include "src/util/thread_annotations.h"
#include "src/xml/node.h"

namespace txml {

/// The leader side of WAL-shipping replication (DESIGN.md §11): serves
/// each subscribed follower the commit stream, first catching it up from
/// the on-disk WAL (records the live tail already evicted), then
/// following the in-memory commit tail, interleaving heartbeats when the
/// leader is idle. Both sources hold only durable records: the group
/// commit writer (DESIGN.md §12) publishes a record to the tail ring
/// strictly after its batch hit the disk, so a follower never applies a
/// sequence the leader could still lose. One Serve() call runs one follower's whole shipping
/// conversation on the server's connection-handler thread — the shipper
/// itself owns no threads.
///
/// Wiring: the server main installs `ServerOptions.repl_handler =
/// [&](socket, sub) { shipper.Serve(socket, sub); }` so src/net never
/// depends on this layer.
class WalShipper {
 public:
  struct Options {
    /// Batch budget per kReplBatch frame (also the tail-read budget).
    uint64_t batch_max_records = 512;
    uint64_t batch_max_bytes = 2u << 20;
    /// Idle interval after which a heartbeat probes the follower (and
    /// refreshes its lag figure).
    int64_t heartbeat_interval_ms = 500;
    /// Archive bytes per kCheckpointChunk frame. Must leave headroom
    /// under the peer's max-frame budget for the envelope itself.
    uint64_t checkpoint_chunk_bytes = 1u << 20;
  };

  /// Point-in-time view of one follower's shipping state.
  struct FollowerState {
    std::string name;
    bool connected = false;
    /// Highest sequence the follower acknowledged as persisted + applied.
    uint64_t acked_sequence = 0;
    /// leader last_committed_sequence - acked_sequence at the last ack.
    uint64_t lag = 0;
    uint64_t batches_sent = 0;
    /// Checkpoint transfers completed to this follower name (re-seeds
    /// it requested after falling below the WAL floor) and the archive
    /// bytes shipped across them (resumed transfers count only the
    /// bytes actually re-sent).
    uint64_t checkpoints_served = 0;
    uint64_t checkpoint_bytes_sent = 0;
  };

  /// The service must outlive the shipper and be durable (have a WAL);
  /// Serve() rejects subscribers otherwise.
  WalShipper(TemporalQueryService* service, Options options);
  explicit WalShipper(TemporalQueryService* service)
      : WalShipper(service, Options()) {}

  WalShipper(const WalShipper&) = delete;
  WalShipper& operator=(const WalShipper&) = delete;

  /// Runs the shipping conversation for one subscriber until the follower
  /// disconnects, a socket error occurs, or Stop() is called. Errors the
  /// follower can act on (kOutOfRange: its cursor predates the log — it
  /// needs a checkpoint re-seed) are reported as a normal response header
  /// before closing.
  void Serve(Socket* socket, const ReplSubscribeRequest& subscribe)
      EXCLUDES(mu_);

  /// Runs one checkpoint transfer (DESIGN.md §14): exports the leader's
  /// newest checkpoint, announces it with kCheckpointMeta (honoring the
  /// request's resume offset when its CRC still names this archive), and
  /// streams kCheckpointChunk frames — each acked by the follower with
  /// its cumulative received offset — until the archive is complete or
  /// the connection dies. A refusal (in-memory leader) is reported as a
  /// normal response header before closing. A server that should not
  /// serve re-seeds leaves its checkpoint handler unwired instead.
  void ServeCheckpoint(Socket* socket, const CheckpointRequest& request)
      EXCLUDES(mu_);

  /// Makes every Serve() loop exit within one heartbeat interval (checked
  /// each tail read). Idempotent.
  void Stop() { stopping_.store(true); }

  /// One row per follower name, in name order.
  std::vector<FollowerState> Followers() const EXCLUDES(mu_);

  /// The `<followers>` element of the server's stats document.
  std::unique_ptr<XmlNode> StatsElement() const EXCLUDES(mu_);

 private:
  /// One follower's stats row and how many of its conversations are open.
  struct Row {
    FollowerState state;
    int conversations = 0;
  };

  /// Sends one batch and waits for the follower's ack; false ends Serve.
  bool ShipBatch(Socket* socket, const std::string& name, ReplBatch batch,
                 uint64_t* cursor) EXCLUDES(mu_);
  bool ReadAck(Socket* socket, const std::string& name) EXCLUDES(mu_);
  /// The row of follower `name`, created on first use: every subscription
  /// and re-seed of one follower name shares it.
  Row& RowFor(const std::string& name) REQUIRES(mu_);

  TemporalQueryService* service_;
  Options options_;
  std::atomic<bool> stopping_{false};

  mutable Mutex mu_{LockRank::kReplShipper};
  /// Live and past followers by name, kept after disconnect so stats show
  /// the last known lag. Ordered, so stats list them by name.
  std::map<std::string, Row> followers_ GUARDED_BY(mu_);
  /// Numbers the rows of subscriptions that give no follower name.
  uint64_t anonymous_count_ GUARDED_BY(mu_) = 0;
};

/// The archive a checkpoint transfer streams: the image's file contents
/// concatenated in table order (the meta's file table is the directory).
/// Shared by the leader's serve side and the torn-transfer tests, which
/// cut and corrupt it at every boundary.
std::string BuildCheckpointArchive(
    const TemporalQueryService::CheckpointImage& image);

}  // namespace txml

#endif  // TXML_SRC_REPL_WAL_SHIPPER_H_
