// E9 (paper Section 7.3.9, reference [7] = XyDiff): the Diff operator and
// the change-detection substrate.
//
// Series: diff cost and edit-script size as functions of document size
// (nodes) and change volume (mutations between the versions). Expected
// shape: near-linear in document size at fixed change volume (hash-based
// matching), script size proportional to the change volume, not the
// document size.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_util.h"
#include "src/diff/diff.h"
#include "src/query/diff_op.h"

namespace txml {
namespace bench {
namespace {

struct VersionPair {
  std::unique_ptr<XmlNode> old_tree;  // with XIDs
  std::unique_ptr<XmlNode> new_tree;  // XID-free, as parsed input would be
  XidAllocator alloc;
};

std::unique_ptr<VersionPair> MakePair(size_t items, size_t mutations) {
  auto pair = std::make_unique<VersionPair>();
  TDocGenOptions options;
  options.initial_items = items;
  options.mutations_per_version = mutations;
  options.seed = 99;
  TDocGen gen(options);
  pair->old_tree = gen.InitialDocument();
  AssignFreshXids(pair->old_tree.get(), &pair->alloc);
  StampAll(pair->old_tree.get(), DayN(0));
  pair->new_tree = gen.NextVersion(*pair->old_tree);
  return pair;
}

void BM_DiffTrees(benchmark::State& state) {
  size_t items = static_cast<size_t>(state.range(0));
  size_t mutations = static_cast<size_t>(state.range(1));
  auto pair = MakePair(items, mutations);
  size_t ops = 0, bytes = 0;
  for (auto _ : state) {
    // The differ assigns XIDs into the new tree; work on a copy.
    state.PauseTiming();
    auto new_copy = pair->new_tree->Clone();
    XidAllocator alloc = pair->alloc;
    state.ResumeTiming();
    auto result = DiffTrees(*pair->old_tree, new_copy.get(), &alloc, DayN(1));
    if (!result.ok()) {
      state.SkipWithError("diff failed");
      return;
    }
    ops = result->script.size();
    std::string encoded;
    result->script.EncodeTo(&encoded);
    bytes = encoded.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["script_ops"] = static_cast<double>(ops);
  state.counters["script_bytes"] = static_cast<double>(bytes);
  state.counters["doc_nodes"] =
      static_cast<double>(pair->old_tree->CountNodes());
}
BENCHMARK(BM_DiffTrees)
    ->ArgsProduct({{50, 200, 800}, {1, 8, 64}})
    ->Unit(benchmark::kMicrosecond);

void BM_ApplyForward(benchmark::State& state) {
  size_t items = static_cast<size_t>(state.range(0));
  auto pair = MakePair(items, 16);
  auto new_copy = pair->new_tree->Clone();
  XidAllocator alloc = pair->alloc;
  auto result = DiffTrees(*pair->old_tree, new_copy.get(), &alloc, DayN(1));
  if (!result.ok()) {
    state.SkipWithError("diff failed");
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto tree = pair->old_tree->Clone();
    XidIndex index(alloc.next());
    if (!index.Add(tree.get()).ok()) state.SkipWithError("index failed");
    state.ResumeTiming();
    auto status = result->script.ApplyForward(tree.get(), &index);
    if (!status.ok()) state.SkipWithError("apply failed");
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_ApplyForward)
    ->Arg(50)->Arg(800)
    ->Unit(benchmark::kMicrosecond);

/// The query-level Diff operator between two stored element versions
/// (includes both reconstructions).
void BM_DiffOpEndToEnd(benchmark::State& state) {
  HistorySpec spec;
  spec.versions = 64;
  spec.items = static_cast<size_t>(state.range(0));
  spec.mutations_per_version = 8;
  auto db = BuildHistory(spec);
  const VersionedDocument* doc = db->store().FindByUrl("doc0");
  Eid root{doc->doc_id(), doc->current()->xid()};
  QueryContext ctx = db->Context();
  for (auto _ : state) {
    auto delta = DiffOp(ctx, Teid{root, DayN(16)}, Teid{root, DayN(48)});
    if (!delta.ok()) state.SkipWithError("DiffOp failed");
    benchmark::DoNotOptimize(delta);
  }
}
BENCHMARK(BM_DiffOpEndToEnd)
    ->Arg(50)->Arg(200)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace txml

BENCHMARK_MAIN();
