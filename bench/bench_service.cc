// E12: service-layer throughput (src/service/).
//
// Measures the multi-client query service end to end — textual query in,
// serialized-ready result out, through the shared commit lock:
//
//   * BM_ServiceSnapshotReads: concurrent readers (1/2/4/8 threads)
//     materializing *old* versions of a 64-version document, with the
//     sharded snapshot cache off (arg 0) and on (arg 1). Off, every query
//     re-applies the delta chain; on, hot versions come from the LRU.
//   * BM_ServiceCurrentReads: the cheap path (current version, no delta
//     chain) under the same thread counts — isolates lock overhead.
//   * BM_ServiceMixedReadWrite: thread 0 commits (exclusive lock), the
//     rest read — the single-writer/multi-reader shape in one number.
//
// Thread-scaling caveat: q/s at k threads only rises with k when the host
// grants the process k cores; on a single-core host the threaded rows
// measure lock/convoy overhead, not parallel speedup (see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>
#include <mutex>
#include <string>

#include "bench/bench_util.h"
#include "src/service/service.h"

namespace txml {
namespace bench {
namespace {

constexpr size_t kVersions = 64;

/// The versions the readers revisit: old enough to cost a delta chain,
/// few enough that a modest cache holds them all once warm.
constexpr int kHotDays[] = {4, 8, 12, 16, 20, 24, 28, 32};

/// One service per cache configuration, shared by all benchmark threads
/// and reused across benchmarks (population dominates setup time).
TemporalQueryService* SharedService(bool with_cache) {
  static std::mutex mu;
  static std::unique_ptr<TemporalQueryService> services[2];
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = services[with_cache ? 1 : 0];
  if (slot == nullptr) {
    HistorySpec spec;
    spec.versions = kVersions;
    spec.items = 60;
    spec.mutations_per_version = 4;
    ServiceOptions options;
    options.snapshot_cache_capacity = with_cache ? 256 : 0;
    // Queries and single puts run on the caller's thread; only write
    // batches and replay fan out onto the pool.
    options.worker_threads = 1;
    slot = std::make_unique<TemporalQueryService>(options, BuildHistory(spec));
  }
  return slot.get();
}

/// A materializing listing of doc0 at day `day` — COUNT-style aggregates
/// would sidestep reconstruction and hide the cost the cache removes.
std::string SnapshotListing(int day) {
  return "SELECT R FROM doc(\"doc0\")[" +
         DayN(static_cast<size_t>(day)).ToString() + "]/item R";
}

void BM_ServiceSnapshotReads(benchmark::State& state) {
  bool with_cache = state.range(0) != 0;
  TemporalQueryService* service = SharedService(with_cache);
  std::string queries[std::size(kHotDays)];
  for (size_t i = 0; i < std::size(kHotDays); ++i) {
    queries[i] = SnapshotListing(kHotDays[i]);
  }
  size_t next = static_cast<size_t>(state.thread_index());
  for (auto _ : state) {
    QueryRequest request;
    request.query_text = queries[next % std::size(queries)];
    auto result = service->Execute(request);
    ++next;
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    SnapshotCacheStats cache = service->Stats().snapshot_cache;
    state.counters["cache_hits"] = static_cast<double>(cache.hits);
    state.counters["cache_misses"] = static_cast<double>(cache.misses);
    state.counters["cache_evictions"] = static_cast<double>(cache.evictions);
  }
}
BENCHMARK(BM_ServiceSnapshotReads)
    ->Arg(0)->Arg(1)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_ServiceCurrentReads(benchmark::State& state) {
  TemporalQueryService* service = SharedService(true);
  std::string query = SnapshotListing(static_cast<int>(kVersions) - 1);
  for (auto _ : state) {
    QueryRequest request;
    request.query_text = query;
    auto result = service->Execute(request);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceCurrentReads)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_ServiceMixedReadWrite(benchmark::State& state) {
  TemporalQueryService* service = SharedService(true);
  std::string read_query = SnapshotListing(kHotDays[0]);
  bool is_writer = state.thread_index() == 0;
  int i = 0;
  for (auto _ : state) {
    if (is_writer) {
      std::string url = "mixed" + std::to_string(state.thread_index());
      auto put = service->Put(
          url, "<d><item><name>w" + std::to_string(i++) + "</name></item></d>");
      if (!put.ok()) {
        state.SkipWithError(put.status().ToString().c_str());
        return;
      }
    } else {
      QueryRequest request;
      request.query_text = read_query;
      auto result = service->Execute(request);
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceMixedReadWrite)
    ->Threads(2)->Threads(4)->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace
}  // namespace bench
}  // namespace txml

BENCHMARK_MAIN();
