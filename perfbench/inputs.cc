#include "perfbench/inputs.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/util/random.h"
#include "src/workload/tdocgen.h"
#include "src/xml/serializer.h"

namespace perfbench {

using txml::Pattern;
using txml::PatternNode;
using txml::Random;
using txml::TDocGen;
using txml::TDocGenOptions;
using txml::Timestamp;

namespace {

Timestamp Day(size_t n) {
  return Timestamp::FromDate(2001, 1, 1).AddDays(static_cast<int64_t>(n));
}

/// splitmix64: decorrelates the per-document / per-connection sub-seeds.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TDocGenOptions GenOptions(const Sizes& sizes, uint64_t seed) {
  TDocGenOptions options;
  options.initial_items = sizes.items;
  options.mutations_per_version = sizes.mutations;
  options.seed = seed;
  return options;
}

std::string Serialize(const txml::XmlNode& tree) {
  return txml::SerializeXml(tree);
}

/// Generates `count` versions of one document, continuing from `tree`
/// (null = start with a fresh initial version), one per `step` from
/// `first_ts`. Leaves the last generated tree in `tree`.
void GenerateVersions(TDocGen* gen, std::unique_ptr<txml::XmlNode>* tree,
                      size_t count, Timestamp first_ts, int64_t step_micros,
                      DocumentHistory* out) {
  for (size_t v = 0; v < count; ++v) {
    *tree = *tree == nullptr ? gen->InitialDocument()
                             : gen->NextVersion(**tree);
    out->xml.push_back(Serialize(**tree));
    out->ts.push_back(first_ts.AddMicros(step_micros * static_cast<int64_t>(v)));
  }
}

/// Exactly `weights[k] * n / sum` requests of kind k (the remainder goes
/// to the first kind), shuffled with `rng`: every seed sees the same mix.
std::vector<QuerySpec::Kind> KindSequence(
    const std::vector<std::pair<QuerySpec::Kind, size_t>>& weights, size_t n,
    Random* rng) {
  size_t total = 0;
  for (const auto& [kind, w] : weights) total += w;
  std::vector<QuerySpec::Kind> kinds;
  for (const auto& [kind, w] : weights) {
    kinds.insert(kinds.end(), n * w / total, kind);
  }
  while (kinds.size() < n) kinds.push_back(weights.front().first);
  for (size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng->Uniform(i)]);
  }
  return kinds;
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

QuerySpec::From DocFrom(const std::string& url) {
  QuerySpec::From from;
  from.url = url;
  return from;
}

QuerySpec::From SnapshotFrom(const std::string& url, Timestamp t) {
  QuerySpec::From from = DocFrom(url);
  from.mode = QuerySpec::From::Mode::kSnapshot;
  from.time = t;
  return from;
}

std::string FromText(const QuerySpec::From& from, const std::string& path,
                     const std::string& var) {
  std::string text = (from.collection ? "collection(" + Quote(from.url + "*")
                                      : "doc(" + Quote(from.url)) +
                     ")";
  if (from.mode == QuerySpec::From::Mode::kSnapshot) {
    text += "[" + QueryDate(from.time) + "]";
  } else if (from.mode == QuerySpec::From::Mode::kEvery) {
    text += "[EVERY]";
  }
  return text + path + " " + var;
}

QuerySpec HistoryQuery(QuerySpec::Kind kind, const Sizes& sizes, Random* rng,
                       TDocGen* words) {
  QuerySpec q;
  q.kind = kind;
  const std::string url = "h" + std::to_string(rng->Uniform(sizes.documents));
  // An old version: any but the current one.
  auto old_day = [&] { return Day(rng->Uniform(sizes.versions - 1)); };
  switch (kind) {
    case QuerySpec::Kind::kSnapshotListing:
      q.from = {SnapshotFrom(url, old_day())};
      q.text = "SELECT R FROM " + FromText(q.from[0], "/item", "R");
      break;
    case QuerySpec::Kind::kEveryWord:
    case QuerySpec::Kind::kEveryCreateTime: {
      q.from = {DocFrom(url)};
      q.from[0].mode = QuerySpec::From::Mode::kEvery;
      q.word = words->RandomWord();
      const bool create = kind == QuerySpec::Kind::kEveryCreateTime;
      q.word_path = create ? "info" : "name";
      q.create_time = create;
      q.text = std::string("SELECT ") + (create ? "CREATE TIME(R)" : "R/name") +
               " FROM " + FromText(q.from[0], "/item", "R") +
               " WHERE CONTAINS(R/" + q.word_path + ", " + Quote(q.word) + ")";
      break;
    }
    case QuerySpec::Kind::kDiff: {
      size_t a = rng->Uniform(sizes.versions - 1);
      size_t b = rng->Uniform(sizes.versions - 1);
      if (a == b) b = (a + 1) % (sizes.versions - 1);
      if (a > b) std::swap(a, b);
      q.from = {SnapshotFrom(url, Day(a)), SnapshotFrom(url, Day(b))};
      q.word = words->RandomWord();
      q.word_path = "name";
      // What changed between the two dates in the items named with the
      // word ('==' is element identity). FROM paths start at item because
      // the documents' root element, collection, is a keyword.
      q.text = "SELECT DIFF(R1, R2) FROM " +
               FromText(q.from[0], "/item", "R1") + ", " +
               FromText(q.from[1], "/item", "R2") +
               " WHERE R1 == R2 AND CONTAINS(R1/name, " + Quote(q.word) +
               ") AND CONTAINS(R2/name, " + Quote(q.word) + ")";
      break;
    }
    default:
      break;
  }
  return q;
}

QuerySpec CorpusQuery(QuerySpec::Kind kind, const Sizes& sizes, Random* rng,
                      const txml::ZipfSampler& doc_zipf,
                      const std::vector<size_t>& doc_of_rank, TDocGen* words) {
  QuerySpec q;
  q.kind = kind;
  const size_t doc = doc_of_rank[doc_zipf.Sample(rng)];
  const std::string url = "c" + std::to_string(doc);
  switch (kind) {
    case QuerySpec::Kind::kCurrentContains:
      q.from = {DocFrom(url)};
      q.word = words->RandomWord();
      q.word_path = "name";
      q.text = "SELECT R FROM " + FromText(q.from[0], "/item", "R") +
               " WHERE CONTAINS(R/name, " + Quote(q.word) + ")";
      break;
    case QuerySpec::Kind::kSnapshotCount: {
      // One of the two versions before the current one.
      const size_t back = 2 + rng->Uniform(2);
      q.from = {SnapshotFrom(url, Day(sizes.versions - back))};
      q.text = "SELECT COUNT(R) FROM " +
               FromText(q.from[0], "/item", "R") +
               " WHERE R/price > 50";
      break;
    }
    case QuerySpec::Kind::kCollectionCount: {
      // The document's URL cut to three characters names the prefix:
      // c12* matches c12 and c120..c129, c10* also c1000..c1023, and a
      // one-digit document's prefix (c5*) over a hundred documents.
      q.from = {DocFrom(url.substr(0, std::min<size_t>(url.size(), 3)))};
      q.from[0].collection = true;
      q.word = words->RandomWord();
      q.word_path = "name";
      q.text = "SELECT COUNT(R) FROM " +
               FromText(q.from[0], "/item", "R") +
               " WHERE CONTAINS(R/name, " + Quote(q.word) + ")";
      break;
    }
    default:
      break;
  }
  return q;
}

QuerySpec IngestQuery(QuerySpec::Kind kind, const Sizes& sizes, Random* rng,
                      TDocGen* words) {
  QuerySpec q;
  q.kind = kind;
  q.from = {DocFrom("i" + std::to_string(rng->Uniform(sizes.documents)))};
  q.word = words->RandomWord();
  const bool create = kind == QuerySpec::Kind::kCurrentCreateTime;
  q.word_path = create ? "info" : "name";
  q.create_time = create;
  q.text = std::string("SELECT ") + (create ? "CREATE TIME(R)" : "R") +
           " FROM " + FromText(q.from[0], "/item", "R") +
           " WHERE CONTAINS(R/" + q.word_path + ", " + Quote(q.word) + ")";
  return q;
}

void Fnv(uint64_t* h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 0x100000001B3ULL;
  }
  *h ^= 0xFF;  // field separator
  *h *= 0x100000001B3ULL;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kHistoryReads, Workload::kCorpusPointReads,
                     Workload::kIngest}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kHistoryReads:
      return "history_reads";
    case Workload::kCorpusPointReads:
      return "corpus_point_reads";
    case Workload::kIngest:
      return "ingest";
  }
  return "?";
}

const char* KindName(QuerySpec::Kind kind) {
  switch (kind) {
    case QuerySpec::Kind::kSnapshotListing:
      return "snapshot_listing";
    case QuerySpec::Kind::kEveryWord:
      return "every_word";
    case QuerySpec::Kind::kEveryCreateTime:
      return "every_create_time";
    case QuerySpec::Kind::kDiff:
      return "diff";
    case QuerySpec::Kind::kCurrentContains:
      return "current_contains";
    case QuerySpec::Kind::kSnapshotCount:
      return "snapshot_count";
    case QuerySpec::Kind::kCollectionCount:
      return "collection_count";
    case QuerySpec::Kind::kCurrentCreateTime:
      return "current_create_time";
  }
  return "?";
}

Sizes Sizes::Defaults(Workload workload) {
  Sizes s;
  s.setups = 3;
  switch (workload) {
    case Workload::kHistoryReads:
      s.documents = 32;
      s.versions = 64;
      s.items = 40;
      s.mutations = 4;
      s.read_connections = 4;
      s.queries_per_connection = 2048;
      s.warmup_per_connection = 100;
      s.check_per_connection = 8;
      s.trace_queries = 120;
      s.load_batch = 32;
      break;
    case Workload::kCorpusPointReads:
      s.documents = 1024;
      s.versions = 6;
      s.items = 20;
      s.mutations = 4;
      s.read_connections = 4;
      s.queries_per_connection = 4096;
      s.warmup_per_connection = 256;
      s.check_per_connection = 8;
      s.trace_queries = 400;
      s.load_batch = 64;
      break;
    case Workload::kIngest:
      s.documents = 64;
      s.versions = 16;
      s.items = 40;
      s.mutations = 4;
      s.read_connections = 1;
      s.write_connections = 3;
      s.queries_per_connection = 2048;
      s.warmup_per_connection = 16;
      s.trace_queries = 80;
      s.trace_puts = 240;
      s.next_versions = 150;
      s.load_batch = 64;
      s.durable = true;
      s.checkpoint_log_records = 1500;
      break;
  }
  return s;
}

Sizes Sizes::Smoke(Workload workload) {
  Sizes s = Defaults(workload);
  s.setups = 1;
  s.documents = workload == Workload::kCorpusPointReads ? 40 : 6;
  s.versions = workload == Workload::kHistoryReads ? 10 : 4;
  s.items = 12;
  s.queries_per_connection = 64;
  s.warmup_per_connection = 8;
  s.trace_queries = 24;
  s.trace_puts = workload == Workload::kIngest ? 24 : 0;
  s.next_versions = workload == Workload::kIngest ? 40 : 0;
  s.load_batch = 8;
  return s;
}

Pattern QuerySpec::ScanPattern() const {
  auto item = PatternNode::Make(PatternNode::Test::kElementName,
                                PatternNode::Axis::kDescendantOrSelf, "item",
                                /*projected=*/true);
  if (!word.empty()) {
    PatternNode* under = item->AddChild(PatternNode::Make(
        PatternNode::Test::kElementName, PatternNode::Axis::kChild, word_path));
    under->AddChild(PatternNode::Make(PatternNode::Test::kWord,
                                      PatternNode::Axis::kSelf, word));
  }
  return Pattern(std::move(item));
}

Inputs MakeInputs(Workload workload, const Sizes& sizes, uint64_t seed) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  in.sizes = sizes;

  const char* prefix = workload == Workload::kHistoryReads       ? "h"
                       : workload == Workload::kCorpusPointReads ? "c"
                                                                 : "i";
  // history/corpus versions are a day apart (queries name dates); ingest
  // versions a minute apart, so thousands of puts stay in a few years.
  const int64_t step = workload == Workload::kIngest
                           ? int64_t{60} * 1000000
                           : int64_t{86400} * 1000000;
  in.documents.resize(sizes.documents);
  if (workload == Workload::kIngest) in.next.resize(sizes.documents);
  for (size_t d = 0; d < sizes.documents; ++d) {
    TDocGen gen(GenOptions(sizes, Mix(seed, d)));
    std::unique_ptr<txml::XmlNode> tree;
    DocumentHistory& doc = in.documents[d];
    doc.url = prefix + std::to_string(d);
    GenerateVersions(&gen, &tree, sizes.versions, Day(0), step, &doc);
    if (workload == Workload::kIngest) {
      DocumentHistory& next = in.next[d];
      next.url = doc.url;
      GenerateVersions(&gen, &tree, sizes.next_versions,
                       doc.ts.back().AddMicros(step), step, &next);
    }
  }

  std::vector<std::pair<QuerySpec::Kind, size_t>> mix;
  switch (workload) {
    case Workload::kHistoryReads:
      mix = {{QuerySpec::Kind::kSnapshotListing, 1},
             {QuerySpec::Kind::kEveryWord, 1},
             {QuerySpec::Kind::kEveryCreateTime, 1},
             {QuerySpec::Kind::kDiff, 1}};
      break;
    case Workload::kCorpusPointReads:
      mix = {{QuerySpec::Kind::kCurrentContains, 5},
             {QuerySpec::Kind::kSnapshotCount, 4},
             {QuerySpec::Kind::kCollectionCount, 1}};
      break;
    case Workload::kIngest:
      mix = {{QuerySpec::Kind::kCurrentContains, 1},
             {QuerySpec::Kind::kCurrentCreateTime, 1}};
      break;
  }
  // Corpus: Zipf over document ranks, ranks mapped to documents by a
  // seeded permutation so each seed has its own hot set.
  txml::ZipfSampler doc_zipf(std::max<size_t>(sizes.documents, 1), 0.99);
  std::vector<size_t> doc_of_rank(sizes.documents);
  {
    Random rng(Mix(seed, 1u << 20));
    for (size_t i = 0; i < doc_of_rank.size(); ++i) doc_of_rank[i] = i;
    for (size_t i = doc_of_rank.size(); i > 1; --i) {
      std::swap(doc_of_rank[i - 1], doc_of_rank[rng.Uniform(i)]);
    }
  }
  in.queries.resize(sizes.read_connections);
  for (size_t c = 0; c < sizes.read_connections; ++c) {
    Random rng(Mix(seed, (1u << 21) + c));
    TDocGen words(GenOptions(sizes, Mix(seed, (1u << 22) + c)));
    for (QuerySpec::Kind kind :
         KindSequence(mix, sizes.queries_per_connection, &rng)) {
      switch (workload) {
        case Workload::kHistoryReads:
          in.queries[c].push_back(HistoryQuery(kind, sizes, &rng, &words));
          break;
        case Workload::kCorpusPointReads:
          in.queries[c].push_back(
              CorpusQuery(kind, sizes, &rng, doc_zipf, doc_of_rank, &words));
          break;
        case Workload::kIngest:
          in.queries[c].push_back(IngestQuery(kind, sizes, &rng, &words));
          break;
      }
    }
  }
  return in;
}

uint64_t Inputs::Fingerprint() const {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto* list : {&documents, &next}) {
    for (const DocumentHistory& doc : *list) {
      Fnv(&h, doc.url);
      for (size_t v = 0; v < doc.xml.size(); ++v) {
        Fnv(&h, doc.xml[v]);
        Fnv(&h, std::to_string(doc.ts[v].micros()));
      }
    }
  }
  for (const auto& connection : queries) {
    for (const QuerySpec& q : connection) Fnv(&h, q.text);
  }
  return h;
}

std::string Inputs::Shape() const {
  size_t versions = 0;
  for (const DocumentHistory& doc : documents) versions += doc.xml.size();
  size_t puts = 0;
  for (const DocumentHistory& doc : next) puts += doc.xml.size();
  std::vector<size_t> mix(QuerySpec::kKindCount, 0);
  for (const auto& connection : queries) {
    for (const QuerySpec& q : connection) ++mix[static_cast<size_t>(q.kind)];
  }
  std::string shape = "documents=" + std::to_string(documents.size()) +
                      " versions=" + std::to_string(versions) +
                      " puts=" + std::to_string(puts) +
                      " connections=" + std::to_string(queries.size());
  for (size_t k = 0; k < mix.size(); ++k) {
    if (mix[k] == 0) continue;
    shape += std::string(" ") + KindName(static_cast<QuerySpec::Kind>(k)) +
             "=" + std::to_string(mix[k]);
  }
  return shape;
}

uint64_t Inputs::SetupXmlBytes() const {
  uint64_t bytes = 0;
  for (const DocumentHistory& doc : documents) {
    for (const std::string& xml : doc.xml) bytes += xml.size();
  }
  return bytes;
}

std::string QueryDate(Timestamp t) { return t.ToString(); }

}  // namespace perfbench
