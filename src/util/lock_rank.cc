#include "src/util/lock_rank.h"

#include <cstddef>
#include <vector>

#include "src/util/logging.h"

namespace txml {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kTest:
      return "Test";
    case LockRank::kServer:
      return "Server";
    case LockRank::kReplApplier:
      return "ReplApplier";
    case LockRank::kReplShipper:
      return "ReplShipper";
    case LockRank::kRateLimiter:
      return "RateLimiter";
    case LockRank::kThreadPool:
      return "ThreadPool";
    case LockRank::kCommitStripe:
      return "CommitStripe";
    case LockRank::kCommitApply:
      return "CommitApply";
    case LockRank::kTurnstile:
      return "Turnstile";
    case LockRank::kTicket:
      return "Ticket";
    case LockRank::kWalQueue:
      return "WalQueue";
    case LockRank::kWalTail:
      return "WalTail";
    case LockRank::kSnapshotCache:
      return "SnapshotCache";
    case LockRank::kSeqFloor:
      return "SeqFloor";
    case LockRank::kFailPoint:
      return "FailPoint";
  }
  return "Unknown";
}

#if defined(TXML_LOCK_RANK)

namespace {

struct HeldLock {
  LockRank rank;
  uint64_t seq;
};

// Set once the calling thread's stack is destroyed. Trivially
// destructible, so it stays readable after that: glibc's exit() runs the
// main thread's thread_local destructors before static destructors, and
// those may still lock (a static server stopping, a pool joining).
thread_local bool t_stack_destroyed = false;

struct HeldStackStorage {
  std::vector<HeldLock> held;
  ~HeldStackStorage() { t_stack_destroyed = true; }
};

// The calling thread's held-rank stack, or null once it is destroyed: an
// acquisition during the thread's own teardown is not checked.
std::vector<HeldLock>* HeldStack() {
  if (t_stack_destroyed) return nullptr;
  thread_local HeldStackStorage storage;
  return &storage.held;
}

}  // namespace

void LockRankChecker::NoteAcquire(LockRank rank, uint64_t seq) {
  std::vector<HeldLock>* stack = HeldStack();
  if (stack == nullptr) return;
  std::vector<HeldLock>& held = *stack;
  if (!held.empty()) {
    const HeldLock& top = held.back();
    if (LockRankValue(rank) > LockRankValue(top.rank)) {
      TXML_LOG_FATAL(
          "lock-rank inversion: acquiring %s (%d, seq %llu) while holding "
          "%s (%d, seq %llu); acquisition order must follow DESIGN.md §16",
          LockRankName(rank), LockRankValue(rank),
          static_cast<unsigned long long>(seq), LockRankName(top.rank),
          LockRankValue(top.rank), static_cast<unsigned long long>(top.seq));
    }
    if (rank == top.rank) {
      if (!LockRankAllowsOrderedSameRank(rank)) {
        TXML_LOG_FATAL(
            "lock-rank violation: same-rank acquisition of %s (%d) which "
            "does not allow nesting; see DESIGN.md §16",
            LockRankName(rank), LockRankValue(rank));
      }
      if (seq <= top.seq) {
        TXML_LOG_FATAL(
            "lock-rank violation: same-rank %s acquired with seq %llu while "
            "holding seq %llu; ordered ranks must be taken in ascending "
            "sequence (the LockAllShards order)",
            LockRankName(rank), static_cast<unsigned long long>(seq),
            static_cast<unsigned long long>(top.seq));
      }
    }
  }
  held.push_back(HeldLock{rank, seq});
}

void LockRankChecker::NoteRelease(LockRank rank, uint64_t seq) {
  std::vector<HeldLock>* stack = HeldStack();
  if (stack == nullptr) return;
  std::vector<HeldLock>& held = *stack;
  // Search from the top: locks are usually released LIFO, but
  // UnlockAllShards releases stripes FIFO, so the match may be deeper.
  for (size_t i = held.size(); i > 0; --i) {
    const HeldLock& entry = held[i - 1];
    if (entry.rank == rank && entry.seq == seq) {
      held.erase(held.begin() + static_cast<ptrdiff_t>(i - 1));
      return;
    }
  }
  TXML_LOG_FATAL(
      "lock-rank bookkeeping error: releasing %s (seq %llu) which this "
      "thread does not hold",
      LockRankName(rank), static_cast<unsigned long long>(seq));
}

int LockRankChecker::HeldDepthForTest() {
  std::vector<HeldLock>* held = HeldStack();
  return held == nullptr ? 0 : static_cast<int>(held->size());
}

#endif  // TXML_LOCK_RANK

}  // namespace txml
