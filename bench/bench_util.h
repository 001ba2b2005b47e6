#ifndef TXML_BENCH_BENCH_UTIL_H_
#define TXML_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/baselines/stratum_store.h"
#include "src/core/database.h"
#include "src/util/timestamp.h"
#include "src/workload/tdocgen.h"
#include "src/xml/pattern.h"

namespace txml {
namespace bench {

/// Base date for generated histories: one version per day from here.
inline Timestamp BaseDay() { return Timestamp::FromDate(2001, 1, 1); }
inline Timestamp DayN(size_t n) {
  return BaseDay().AddDays(static_cast<int64_t>(n));
}

/// Knobs of a generated history.
struct HistorySpec {
  size_t documents = 1;
  size_t versions = 64;
  size_t items = 50;
  size_t mutations_per_version = 4;
  uint32_t snapshot_every = 0;
  uint64_t seed = 42;
  /// Extra index attached to the store before the first put (e.g. E3's
  /// DeltaContentIndex); not owned, must outlive the database.
  StoreObserver* observer = nullptr;
};

/// Builds a database holding TDocGen histories per the spec. Document d
/// lives at url "doc<d>".
inline std::unique_ptr<TemporalXmlDatabase> BuildHistory(
    const HistorySpec& spec) {
  DatabaseOptions options;
  options.snapshot_every = spec.snapshot_every;
  auto db = std::make_unique<TemporalXmlDatabase>(options);
  if (spec.observer != nullptr) db->AddStoreObserver(spec.observer);
  for (size_t d = 0; d < spec.documents; ++d) {
    TDocGenOptions gen_options;
    gen_options.initial_items = spec.items;
    gen_options.mutations_per_version = spec.mutations_per_version;
    gen_options.seed = spec.seed + d;
    TDocGen gen(gen_options);
    std::string url = "doc" + std::to_string(d);
    auto put = db->PutDocumentTree(url, gen.InitialDocument(),
                                   DayN(d * spec.versions));
    if (!put.ok()) {
      std::fprintf(stderr, "bench setup put failed: %s\n",
                   put.status().ToString().c_str());
      std::abort();
    }
    for (size_t v = 2; v <= spec.versions; ++v) {
      auto next =
          gen.NextVersion(*db->store().FindByUrl(url)->current());
      auto status = db->PutDocumentTree(url, std::move(next),
                                        DayN(d * spec.versions + v - 1));
      if (!status.ok()) {
        std::fprintf(stderr, "bench setup put failed: %s\n",
                     status.status().ToString().c_str());
        std::abort();
      }
    }
  }
  return db;
}

/// Mirrors a database's history into a stratum store (full copies).
inline std::unique_ptr<StratumStore> MirrorToStratum(
    const TemporalXmlDatabase& db) {
  auto stratum = std::make_unique<StratumStore>();
  for (const VersionedDocument* doc : db.store().AllDocuments()) {
    for (VersionNum v = 1; v <= doc->version_count(); ++v) {
      auto tree = doc->ReconstructVersion(v);
      if (!tree.ok()) std::abort();
      auto put = stratum->Put(doc->url(), std::move(*tree),
                              doc->delta_index().TimestampOf(v));
      if (!put.ok()) std::abort();
    }
  }
  return stratum;
}

/// Pattern //item (the generic record pattern of TDocGen documents).
inline Pattern ItemPattern() {
  return Pattern(PatternNode::Make(PatternNode::Test::kElementName,
                                   PatternNode::Axis::kDescendantOrSelf,
                                   "item", /*projected=*/true));
}

/// Pattern //item[name[~word]] — item constrained by a word in its name.
inline Pattern ItemWithWordPattern(const std::string& word) {
  auto root = PatternNode::Make(PatternNode::Test::kElementName,
                                PatternNode::Axis::kDescendantOrSelf, "item",
                                /*projected=*/true);
  auto* name = root->AddChild(PatternNode::Make(
      PatternNode::Test::kElementName, PatternNode::Axis::kChild, "name"));
  name->AddChild(PatternNode::Make(PatternNode::Test::kWord,
                                   PatternNode::Axis::kSelf, word));
  return Pattern(std::move(root));
}

/// Prints one row of an experiment table: "label: k1=v1 k2=v2 …".
inline void PrintRow(const char* experiment, const std::string& row) {
  std::printf("[%s] %s\n", experiment, row.c_str());
}

}  // namespace bench
}  // namespace txml

#endif  // TXML_BENCH_BENCH_UTIL_H_
