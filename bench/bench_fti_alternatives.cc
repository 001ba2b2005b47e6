// E3 (paper Section 7.2): the three content-indexing alternatives the
// paper sketches and defers to future work:
//   A — index the contents of the versions (the paper's choice;
//       TemporalFullTextIndex, interval postings);
//   B — index the contents of the delta objects (DeltaContentIndex,
//       add/remove events);
//   C — both.
//
// Measured: index size (postings + compressed bytes), per-version update
// cost, snapshot-query cost and change-query cost. Expected shape (and the
// paper's prediction): B is "less efficient for other access patterns,
// e.g., query on snapshot contents" — snapshot lookups on B must fold the
// whole event history — while change queries are direct; C pays the
// combined size and update cost.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/baselines/delta_fti.h"
#include "bench/bench_util.h"
#include "src/index/fti.h"

namespace txml {
namespace bench {
namespace {

constexpr size_t kVersions = 128;
constexpr size_t kItems = 80;
constexpr size_t kMutations = 8;

struct Setup {
  // B, attached to db before its first put; declared first so db, which
  // points at it, dies first.
  std::unique_ptr<DeltaContentIndex> delta_index;
  std::unique_ptr<TemporalXmlDatabase> db;  // maintains A, feeds B
  std::vector<std::string> hot_words;       // frequent vocabulary words
};

Setup* Shared() {
  static Setup setup = [] {
    Setup s;
    HistorySpec spec;
    spec.versions = kVersions;
    spec.items = kItems;
    spec.mutations_per_version = kMutations;
    s.delta_index = std::make_unique<DeltaContentIndex>();
    spec.observer = s.delta_index.get();
    s.db = BuildHistory(spec);
    // The Zipf head of TDocGen's vocabulary.
    s.hot_words = {"wa0", "wb1", "wc2", "wd3", "we4"};
    return s;
  }();
  return &setup;
}

/// Snapshot version map for alternative B's fold (doc -> version at t).
std::unordered_map<DocId, VersionNum> VersionsAt(
    const VersionedDocumentStore& store, Timestamp t) {
  std::unordered_map<DocId, VersionNum> out;
  for (const VersionedDocument* doc : store.AllDocuments()) {
    auto v = doc->delta_index().VersionAt(t);
    out[doc->doc_id()] = doc->ExistsAt(t) && v.has_value() ? *v : 0;
  }
  return out;
}

void BM_A_SnapshotLookup(benchmark::State& state) {
  Setup* s = Shared();
  Timestamp mid = DayN(kVersions / 2);
  size_t hits = 0;
  for (auto _ : state) {
    for (const std::string& word : s->hot_words) {
      hits = s->db->fti().LookupT(TermKind::kWord, word, mid).size();
      benchmark::DoNotOptimize(hits);
    }
  }
  state.counters["postings_hit"] = static_cast<double>(hits);
}
BENCHMARK(BM_A_SnapshotLookup)->Unit(benchmark::kMicrosecond);

void BM_B_SnapshotLookup(benchmark::State& state) {
  Setup* s = Shared();
  Timestamp mid = DayN(kVersions / 2);
  auto versions = VersionsAt(s->db->store(), mid);
  size_t hits = 0;
  for (auto _ : state) {
    for (const std::string& word : s->hot_words) {
      hits = s->delta_index->LookupSnapshot(TermKind::kWord, word, versions)
                 .size();
      benchmark::DoNotOptimize(hits);
    }
  }
  state.counters["postings_hit"] = static_cast<double>(hits);
}
BENCHMARK(BM_B_SnapshotLookup)->Unit(benchmark::kMicrosecond);

void BM_A_ChangeLookup(benchmark::State& state) {
  // "When did this word disappear?" — on A: scan postings for closed
  // intervals.
  Setup* s = Shared();
  size_t hits = 0;
  for (auto _ : state) {
    for (const std::string& word : s->hot_words) {
      size_t count = 0;
      for (const Posting* posting :
           s->db->fti().LookupH(TermKind::kWord, word)) {
        if (!posting->OpenEnded()) ++count;
      }
      hits = count;
      benchmark::DoNotOptimize(hits);
    }
  }
  state.counters["events_hit"] = static_cast<double>(hits);
}
BENCHMARK(BM_A_ChangeLookup)->Unit(benchmark::kMicrosecond);

void BM_B_ChangeLookup(benchmark::State& state) {
  Setup* s = Shared();
  size_t hits = 0;
  for (auto _ : state) {
    for (const std::string& word : s->hot_words) {
      size_t count = 0;
      for (const auto* event :
           s->delta_index->LookupEvents(TermKind::kWord, word)) {
        if (event->event == DeltaContentIndex::Event::kRemoved) ++count;
      }
      hits = count;
      benchmark::DoNotOptimize(hits);
    }
  }
  state.counters["events_hit"] = static_cast<double>(hits);
}
BENCHMARK(BM_B_ChangeLookup)->Unit(benchmark::kMicrosecond);

/// Per-version index maintenance cost (the update side of the trade-off).
template <typename Index>
void UpdateCost(benchmark::State& state) {
  // Pre-generate a fresh short history, then time feeding it to the index.
  HistorySpec spec;
  spec.versions = 16;
  spec.items = kItems;
  spec.mutations_per_version = kMutations;
  auto db = BuildHistory(spec);
  const VersionedDocument* doc = db->store().FindByUrl("doc0");
  std::vector<std::unique_ptr<XmlNode>> trees;
  for (VersionNum v = 1; v <= doc->version_count(); ++v) {
    auto tree = doc->ReconstructVersion(v);
    trees.push_back(std::move(*tree));
  }
  for (auto _ : state) {
    Index index;
    for (VersionNum v = 1; v <= trees.size(); ++v) {
      index.OnVersionStored(doc->doc_id(), v,
                            doc->delta_index().TimestampOf(v),
                            *trees[v - 1], nullptr);
    }
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trees.size()));
}

/// Alternative A needs the store pointer; wrap it.
class IndexAWrapper {
 public:
  IndexAWrapper() : index_(nullptr) {}
  void OnVersionStored(DocId doc, VersionNum v, Timestamp ts,
                       const XmlNode& tree, const EditScript* delta) {
    index_.OnVersionStored(doc, v, ts, tree, delta);
  }

 private:
  TemporalFullTextIndex index_;
};

void BM_A_UpdateCost(benchmark::State& state) {
  UpdateCost<IndexAWrapper>(state);
}
BENCHMARK(BM_A_UpdateCost)->Unit(benchmark::kMillisecond);

void BM_B_UpdateCost(benchmark::State& state) {
  UpdateCost<DeltaContentIndex>(state);
}
BENCHMARK(BM_B_UpdateCost)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace bench
}  // namespace txml

int main(int argc, char** argv) {
  using txml::bench::PrintRow;
  auto* s = txml::bench::Shared();
  size_t a_postings = s->db->fti().posting_count();
  size_t a_bytes = s->db->fti().EncodedSizeBytes();
  size_t b_postings = s->delta_index->posting_count();
  size_t b_bytes = s->delta_index->EncodedSizeBytes();
  PrintRow("E3", "alternative=A(version-content)  postings=" +
                     std::to_string(a_postings) +
                     " encoded_bytes=" + std::to_string(a_bytes));
  PrintRow("E3", "alternative=B(delta-content)    postings=" +
                     std::to_string(b_postings) +
                     " encoded_bytes=" + std::to_string(b_bytes));
  PrintRow("E3", "alternative=C(combined)         postings=" +
                     std::to_string(a_postings + b_postings) +
                     " encoded_bytes=" + std::to_string(a_bytes + b_bytes));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
