#ifndef TXML_SRC_REPL_REPLICA_APPLIER_H_
#define TXML_SRC_REPL_REPLICA_APPLIER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/service/service.h"
#include "src/util/random.h"
#include "src/util/synchronization.h"
#include "src/util/thread.h"
#include "src/util/thread_annotations.h"
#include "src/xml/node.h"

namespace txml {

/// Resumable state of one checkpoint transfer (DESIGN.md §14), kept
/// across dropped connections: the archive identity (CRC + size + file
/// table) from the leader's kCheckpointMeta and the verified byte prefix
/// received so far. The next attempt offers `buffer.size()` as its
/// resume offset; the leader honors it only while the same archive is
/// still its newest checkpoint.
struct ReseedProgress {
  /// A meta frame has been seen; the identity fields below are set.
  bool valid = false;
  uint32_t archive_crc32c = 0;
  uint64_t covered_sequence = 0;
  uint64_t total_bytes = 0;
  std::vector<CheckpointMeta::File> files;
  /// The contiguous, per-chunk-CRC-verified archive prefix.
  std::string buffer;
};

/// Receives one checkpoint transfer — meta, then chunks, each acked with
/// the cumulative received offset — accumulating into *progress so a
/// torn stream can resume on the next attempt. On a complete archive
/// whose whole-file CRC verifies, splits it per the file table into
/// *image and returns OK. Every protocol violation (out-of-order offset,
/// chunk CRC mismatch, overrun) is an error with the verified prefix
/// preserved; a whole-archive CRC mismatch clears the progress (nothing
/// in it can be trusted). Exposed as a free function so the
/// torn-transfer tests can drive it against scripted streams.
Status ReceiveCheckpointStream(Socket* socket, size_t max_frame_bytes,
                               ReseedProgress* progress,
                               TemporalQueryService::CheckpointImage* image);

/// The follower side of WAL-shipping replication (DESIGN.md §11): a
/// background thread that connects to the leader, subscribes from this
/// node's own applied floor, and hands every shipped batch to
/// TemporalQueryService::ApplyReplicated in one call — persisted with the
/// leader's sequence numbers into the follower's local WAL (so the resume
/// cursor survives a follower restart with no extra state file), then
/// applied through the same idempotence-guarded path crash recovery
/// replays through.
///
/// Disconnects and leader restarts are retried forever with jittered
/// exponential backoff. The leader's kOutOfRange (our cursor predates its
/// log — its checkpoint moved past us while we were down) triggers an
/// automatic re-seed (DESIGN.md §14): the applier streams the leader's
/// newest checkpoint, installs it atomically, and resumes the normal
/// subscribe loop. Only when the leader refuses the transfer (a leader
/// started with --reseed=off serves none) does the applier park in the
/// `fatal` state — recoverably: it re-probes on a slow timer instead of
/// halting.
class ReplicaApplier {
 public:
  struct Options {
    std::string leader_host = "127.0.0.1";
    uint16_t leader_port = 0;
    /// Reported to the leader; shows up in its stats document.
    std::string follower_name;
    int connect_timeout_ms = 5000;
    /// Must exceed the leader's heartbeat interval — between batches the
    /// stream is silent for up to that long by design.
    int read_timeout_ms = 30000;
    int write_timeout_ms = 30000;
    size_t max_frame_bytes = kDefaultMaxFrameBytes;
    /// Reconnect backoff: uniform in [d/2, d], d doubling from initial to
    /// max per consecutive failure.
    int backoff_initial_ms = 100;
    int backoff_max_ms = 5000;
    /// 0 = fixed default seed (deterministic tests).
    uint64_t jitter_seed = 0;
    /// How long a parked (fatal) applier sleeps before re-probing the
    /// leader. Parking is recoverable: a leader that starts serving
    /// checkpoints (or whose log floor drops back under our cursor)
    /// un-parks us on the next probe.
    int fatal_retry_ms = 30000;
  };

  /// Point-in-time view of the replication session.
  struct State {
    bool connected = false;
    /// The leader refused a needed re-seed: the applier is parked,
    /// re-probing every fatal_retry_ms. Cleared when a session or re-seed
    /// makes progress again.
    bool fatal = false;
    /// A checkpoint transfer (DESIGN.md §14) is in flight.
    bool reseeding = false;
    std::string last_error;
    uint64_t applied_sequence = 0;
    /// The leader's last committed sequence as of the newest batch or
    /// heartbeat — applied_sequence trails it by the current lag.
    uint64_t leader_last_sequence = 0;
    uint64_t batches_applied = 0;
    uint64_t reconnects = 0;
    /// Checkpoint images installed since Start().
    uint64_t reseeds = 0;
  };

  /// The service must outlive the applier and be durable.
  ReplicaApplier(TemporalQueryService* service, Options options);
  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// Validates options and spawns the replication thread.
  Status Start();

  /// Stops the thread (interrupting a blocked read) and joins it.
  /// Idempotent; also run by the destructor.
  void Stop() EXCLUDES(mu_);

  State GetState() const EXCLUDES(mu_);

  /// The `<applier>` element of the follower server's stats document.
  std::unique_ptr<XmlNode> StatsElement() const EXCLUDES(mu_);

 private:
  void Run() EXCLUDES(mu_);
  /// One connect → subscribe → stream session; returns why it ended.
  /// *progressed is set once the session has processed a batch or
  /// heartbeat frame — the signal Run() uses to reset reconnect backoff
  /// (a healthy but idle leader sends only heartbeats; those count).
  Status RunSession(bool* progressed) EXCLUDES(mu_);
  /// One checkpoint transfer + install (DESIGN.md §14): fresh connection,
  /// kCheckpointRequest resuming from reseed_progress_, receive + verify
  /// the archive, InstallCheckpoint. kInvalidArgument means the leader
  /// refused; anything else is transient and the partial archive is kept
  /// for the next attempt's resume offset.
  Status RunReseed() EXCLUDES(mu_);
  void SetError(const Status& status) EXCLUDES(mu_);
  void BackoffSleep(int failures);
  /// The parked-state sleep: options_.fatal_retry_ms, interruptible by
  /// Stop().
  void FatalRetrySleep();

  TemporalQueryService* service_;
  Options options_;
  std::atomic<bool> stopping_{false};
  Thread thread_;
  Random jitter_;
  /// Partial checkpoint transfer carried across dropped connections.
  /// Touched only by the applier thread — no lock needed.
  ReseedProgress reseed_progress_;

  mutable Mutex mu_{LockRank::kReplApplier};
  /// Wakes a backoff sleep when Stop() is called mid-wait.
  CondVar stop_cv_;
  /// The live session's socket, so Stop() can interrupt a blocked read.
  Socket* session_socket_ GUARDED_BY(mu_) = nullptr;
  State state_ GUARDED_BY(mu_);
};

}  // namespace txml

#endif  // TXML_SRC_REPL_REPLICA_APPLIER_H_
