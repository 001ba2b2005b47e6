// E15: the price of durability (DESIGN.md §9) — commit overhead per WAL
// fsync policy against the in-memory baseline, and recovery time as a
// function of the replayed log length.
// E17: group-commit scaling (DESIGN.md §12) — multi-writer commit
// throughput per sync mode, where the always-mode rows show the fsync
// amortization of the shared log-writer batch.
//
// The interesting comparisons:
//   - none / every_n / always vs no WAL at all: what one logical commit
//     costs once the append (and possibly the fsync) is on the write path;
//   - recovery vs log length: replay is re-execution of the logical
//     records through the normal write path (parse + diff + index), so it
//     scales with committed work, not with file bytes — the case for
//     checkpointing on a byte/record budget rather than never;
//   - always-mode throughput at 8 writers vs 1: with one fsync per batch
//     instead of per commit, concurrent writers share the sync they used
//     to serialize on (the wal_syncs counter shows the coalescing).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/service/service.h"
#include "src/storage/wal.h"

namespace txml {
namespace bench {
namespace {

std::string Dir(const char* leaf) {
  return (std::filesystem::temp_directory_path() / leaf).string();
}

/// Small document whose content moves with v: every commit is a real
/// diff + index update, not a no-op.
std::string SmallDoc(int v) {
  std::string xml = "<guide>";
  for (int i = 0; i < 8; ++i) {
    xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
           std::to_string(100 + ((v + i) % 17)) + "</price></item>";
  }
  return xml + "</guide>";
}

ServiceOptions DurableOptions(const std::string& dir, WalSyncMode mode) {
  ServiceOptions options;
  options.worker_threads = 1;
  options.durability.data_dir = dir;
  options.durability.wal.sync_mode = mode;
  options.durability.wal.sync_every_n = 8;
  // No auto-checkpoints: the loop measures pure commit cost (and the
  // recovery benchmark needs the whole history in the log).
  options.durability.checkpoint_log_bytes = 0;
  options.durability.checkpoint_log_records = 0;
  return options;
}

/// arg 0..2 = WalSyncMode; arg 3 = no WAL (in-memory baseline).
void BM_CommitPerSyncMode(benchmark::State& state) {
  bool durable = state.range(0) < 3;
  std::string dir = Dir("txml_bench_wal_commit");
  std::filesystem::remove_all(dir);
  ServiceOptions options =
      durable ? DurableOptions(dir, static_cast<WalSyncMode>(state.range(0)))
              : ServiceOptions{};
  options.worker_threads = 1;
  auto service = TemporalQueryService::Create(options);
  if (!service.ok()) {
    state.SkipWithError(service.status().ToString().c_str());
    return;
  }
  int v = 0;
  for (auto _ : state) {
    auto put = (*service)->PutAt("doc", SmallDoc(v), DayN(v));
    ++v;
    if (!put.ok()) {
      state.SkipWithError(put.status().ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (durable) {
    state.counters["wal_bytes"] =
        static_cast<double>((*service)->wal()->file_bytes());
    state.SetLabel(std::string(WalSyncModeToString(
        static_cast<WalSyncMode>(state.range(0)))));
  } else {
    state.SetLabel("no-wal");
  }
  service->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CommitPerSyncMode)
    ->Arg(0)  // none
    ->Arg(1)  // every_n (n=8)
    ->Arg(2)  // always
    ->Arg(3)  // in-memory baseline
    ->Unit(benchmark::kMicrosecond);

/// Minimal document: the commit is almost all commit-path work (lock,
/// sequence, log, fsync), not parse/diff/index — the right shape for
/// measuring what group commit amortizes.
std::string TinyDoc(int v) {
  return "<d><v>" + std::to_string(v) + "</v></d>";
}

/// arg0 = concurrent writers (each committing its own document, so the
/// commit shards stay disjoint); arg1 = WalSyncMode; arg2 = commit
/// shards. shards=1 is the serialized baseline — writers take turns on
/// one stripe and pay one fsync each, the pre-sharding commit path —
/// against which the sharded rows' speedup is read (within one run, so
/// the comparison is immune to run-to-run fsync drift). Manual timing:
/// the spawn/join of the burst is the measured unit, items/s is commits/s
/// aggregated over the whole burst.
void BM_MultiWriterCommit(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  constexpr int kCommitsPerWriter = 32;
  std::string dir = Dir("txml_bench_wal_multiwriter");
  std::filesystem::remove_all(dir);
  ServiceOptions options =
      DurableOptions(dir, static_cast<WalSyncMode>(state.range(1)));
  options.commit_shards = static_cast<size_t>(state.range(2));
  auto service = TemporalQueryService::Create(options);
  if (!service.ok()) {
    state.SkipWithError(service.status().ToString().c_str());
    return;
  }
  // One document per writer, on distinct commit-shard stripes (same hash
  // the service's ShardIndexFor uses) — otherwise colliding writers
  // serialize on a stripe and the measured concurrency is silently lower
  // than the writer count. The serialized (shards=1) rows keep plain
  // names; every stripe choice collides there by construction.
  const size_t shards = static_cast<size_t>(state.range(2));
  std::vector<std::string> urls;
  std::vector<bool> used(shards, false);
  for (int k = 0; urls.size() < static_cast<size_t>(writers); ++k) {
    std::string name = "w";
    name += std::to_string(k);
    size_t stripe = std::hash<std::string_view>{}(name) % shards;
    if (static_cast<size_t>(writers) <= shards && used[stripe]) continue;
    used[stripe] = true;
    urls.push_back(std::move(name));
  }
  // Per-writer version counters persist across iterations so commit
  // timestamps keep ascending per document.
  std::vector<int> version(static_cast<size_t>(writers), 0);
  std::atomic<bool> failed{false};
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(writers));
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        const std::string& url = urls[static_cast<size_t>(w)];
        for (int i = 0; i < kCommitsPerWriter; ++i) {
          int v = version[static_cast<size_t>(w)]++;
          auto put = (*service)->PutAt(url, TinyDoc(v), DayN(v));
          if (!put.ok()) failed.store(true, std::memory_order_relaxed);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count());
    if (failed.load(std::memory_order_relaxed)) {
      state.SkipWithError("a commit failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * writers * kCommitsPerWriter);
  ServiceStats stats = (*service)->Stats();
  state.counters["wal_syncs"] =
      static_cast<double>(stats.commit_path.syncs);
  state.counters["max_batch"] =
      static_cast<double>(stats.commit_path.max_batch_records);
  state.SetLabel(std::string(WalSyncModeToString(
                     static_cast<WalSyncMode>(state.range(1)))) +
                 "/writers:" + std::to_string(writers) +
                 (state.range(2) == 1 ? "/serialized" : ""));
  service->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_MultiWriterCommit)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 1, 2}, {16}})
    ->Args({8, 2, 1})  // serialized baseline: 8 writers, one stripe
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

/// arg = records in the log to replay. The dir template (store-less: no
/// checkpoint, the entire history lives in the WAL) is rebuilt per length
/// and copied back before every timed Create(), because recovery itself
/// checkpoints and truncates the log.
void BM_RecoveryVsLogLength(benchmark::State& state) {
  int records = static_cast<int>(state.range(0));
  std::string tmpl = Dir("txml_bench_wal_recover_tmpl");
  std::string work = Dir("txml_bench_wal_recover");
  std::filesystem::remove_all(tmpl);
  ServiceOptions options = DurableOptions(tmpl, WalSyncMode::kNone);
  {
    auto service = TemporalQueryService::Create(options);
    if (!service.ok()) {
      state.SkipWithError(service.status().ToString().c_str());
      return;
    }
    for (int v = 0; v < records; ++v) {
      auto put = (*service)->PutAt("doc", SmallDoc(v), DayN(v));
      if (!put.ok()) {
        state.SkipWithError(put.status().ToString().c_str());
        return;
      }
    }
  }
  ServiceOptions work_options = DurableOptions(work, WalSyncMode::kNone);
  uint64_t recovered = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(work);
    std::filesystem::copy(tmpl, work);
    state.ResumeTiming();
    auto service = TemporalQueryService::Create(work_options);
    if (!service.ok()) {
      state.SkipWithError(service.status().ToString().c_str());
      break;
    }
    recovered = (*service)->Stats().durability.recovered_records;
    benchmark::DoNotOptimize(service);
  }
  state.counters["recovered_records"] = static_cast<double>(recovered);
  std::filesystem::remove_all(tmpl);
  std::filesystem::remove_all(work);
}
BENCHMARK(BM_RecoveryVsLogLength)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

/// Checkpoint cost at a given history size: what the auto-checkpoint
/// budget spends when it fires.
void BM_Checkpoint(benchmark::State& state) {
  int records = static_cast<int>(state.range(0));
  std::string dir = Dir("txml_bench_wal_ckpt");
  std::filesystem::remove_all(dir);
  auto service =
      TemporalQueryService::Create(DurableOptions(dir, WalSyncMode::kNone));
  if (!service.ok()) {
    state.SkipWithError(service.status().ToString().c_str());
    return;
  }
  for (int v = 0; v < records; ++v) {
    auto put = (*service)->PutAt("doc", SmallDoc(v), DayN(v));
    if (!put.ok()) {
      state.SkipWithError(put.status().ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    Status status = (*service)->Checkpoint();
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
  }
  service->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Checkpoint)->Arg(64)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace txml

BENCHMARK_MAIN();
