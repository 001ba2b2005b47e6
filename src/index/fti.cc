#include "src/index/fti.h"

#include <algorithm>
#include <utility>

#include "src/storage/delta_chain_cursor.h"
#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace txml {
namespace {

/// Stable string key identifying one occurrence: kind, term, element and
/// path. A moved element's occurrence changes key (its path changed), so a
/// move closes the old posting and opens a fresh one — paths stored in
/// postings stay immutable.
std::string OccurrenceKey(TermKind kind, std::string_view term, Xid element,
                          const std::vector<Xid>& path) {
  std::string key;
  key.reserve(term.size() + 2 + 5 * (path.size() + 1));
  key.push_back(static_cast<char>(kind));
  key.append(term);
  key.push_back('\0');
  PutVarint32(&key, element);
  for (Xid xid : path) PutVarint32(&key, xid);
  return key;
}

}  // namespace

Posting* TemporalFullTextIndex::PostingOf(const OpenRef& ref) {
  if (ref.in_diff) return diff_.At(ref.kind, ref.term, ref.index);
  return &MapFor(ref.kind).at(ref.term)[ref.index];
}

template <typename Fn>
void TemporalFullTextIndex::ForEachPosting(TermKind kind,
                                           const std::string& lowered,
                                           const std::vector<DocId>* docs,
                                           Fn&& fn) const {
  auto visit = [&](const std::vector<Posting>& list) {
    for (const Posting& posting : list) {
      if (docs == nullptr ||
          std::binary_search(docs->begin(), docs->end(), posting.doc_id)) {
        fn(posting);
      }
    }
  };
  const PostingMap& main = MapFor(kind);
  if (auto it = main.find(lowered); it != main.end()) visit(it->second);
  if (const std::vector<Posting>* adds = diff_.Find(kind, lowered)) {
    visit(*adds);
  }
}

/// One version's FTI work: the occurrences it opens and the open keys it
/// closes, computed against the document's open map as of BeginVersion.
class TemporalFullTextIndex::Pending : public StoreObserver::PendingVersion {
 public:
  struct Opened {
    std::string key;
    Occurrence occ;
  };

  explicit Pending(const OpenMap* open) : open_(open) {}

  void Prepare(const XmlNode& next) override {
    std::vector<Occurrence> occurrences = ExtractOccurrences(next);
    std::unordered_set<std::string> present;
    present.reserve(occurrences.size());
    for (Occurrence& occ : occurrences) {
      std::string key =
          OccurrenceKey(occ.kind, occ.term, occ.element, occ.path);
      if (!present.insert(key).second) continue;
      if (open_ != nullptr && open_->contains(key)) {
        continue;  // occurrence survives, posting stays
      }
      opened_.push_back({std::move(key), std::move(occ)});
    }
    if (open_ == nullptr) return;
    for (const auto& [key, ref] : *open_) {
      if (!present.contains(key)) closed_.push_back(key);
    }
  }

  std::vector<Opened>& opened() { return opened_; }
  const std::vector<std::string>& closed() const { return closed_; }

 private:
  const OpenMap* open_;
  std::vector<Opened> opened_;
  std::vector<std::string> closed_;
};

std::unique_ptr<StoreObserver::PendingVersion>
TemporalFullTextIndex::BeginVersion(DocId doc_id) const {
  auto it = open_.find(doc_id);
  return std::make_unique<Pending>(it == open_.end() ? nullptr : &it->second);
}

void TemporalFullTextIndex::OnVersionStored(DocId doc_id, VersionNum version,
                                            Timestamp ts,
                                            const XmlNode& current,
                                            const EditScript* delta) {
  std::unique_ptr<PendingVersion> pending = BeginVersion(doc_id);
  pending->Prepare(current);
  PublishVersion(doc_id, version, ts, current, delta, pending.get());
}

void TemporalFullTextIndex::PublishVersion(DocId doc_id, VersionNum version,
                                           Timestamp /*ts*/,
                                           const XmlNode& /*current*/,
                                           const EditScript* /*delta*/,
                                           PendingVersion* prepared) {
  auto* pending = static_cast<Pending*>(prepared);
  OpenMap& open = open_[doc_id];
  for (Pending::Opened& opened : pending->opened()) {
    // New runs always open in the differential: the main lists never grow
    // between compactions, so this commit's index work is bounded by its
    // own change volume.
    Occurrence& occ = opened.occ;
    size_t index = diff_.Append(
        occ.kind, occ.term,
        Posting{doc_id, occ.element, std::move(occ.path), version,
                kOpenVersion});
    open.emplace(std::move(opened.key),
                 OpenRef{occ.kind, std::move(occ.term), index,
                         /*in_diff=*/true});
  }
  // Close postings for occurrences that vanished in this version. Closing
  // is an in-place `end` write in whichever half holds the run's posting;
  // nothing moves.
  for (const std::string& key : pending->closed()) {
    auto it = open.find(key);
    PostingOf(it->second)->end = version;
    open.erase(it);
  }
}

void TemporalFullTextIndex::OnDocumentDeleted(DocId doc_id, VersionNum last,
                                              Timestamp /*ts*/) {
  auto it = open_.find(doc_id);
  if (it == open_.end()) return;
  // The last version remains valid up to the delete time; postings close
  // just after it so ValidAt(last) still holds while LookupCurrent (which
  // wants open-ended postings only) no longer sees the document.
  for (auto& [key, ref] : it->second) {
    PostingOf(ref)->end = last + 1;
  }
  open_.erase(it);
}

void TemporalFullTextIndex::OnHistoryVacuumed(const VersionedDocument& doc) {
  // Fold the differential in first: the vacuum below erases and re-anchors
  // postings in place (indices shift), which is exactly what a compaction
  // boundary is for — and a vacuum pass is rare enough that forcing one
  // here costs nothing measurable.
  CompactDifferential();
  const DocId doc_id = doc.doc_id();
  bool erased_any = false;
  for (PostingMap* map : {&names_, &words_}) {
    for (auto it = map->begin(); it != map->end();) {
      std::vector<Posting>& list = it->second;
      const size_t before = list.size();
      std::erase_if(list, [&](Posting& posting) {
        if (posting.doc_id != doc_id) return false;
        VersionNum end = posting.end == kOpenVersion
                             ? doc.version_count() + 1
                             : posting.end;
        if (!doc.AnyRetainedIn(posting.start, end)) return true;
        // Coarse-zone starts keep their original version number (their
        // timestamps survive coarsening), but nothing below
        // first_retained() has a timestamp anymore.
        if (posting.start < doc.first_retained()) {
          posting.start = doc.first_retained();
        }
        return false;
      });
      erased_any |= list.size() != before;
      it = list.empty() ? map->erase(it) : std::next(it);
    }
  }
  // Erasing list entries shifts posting indices, and term vectors are
  // shared across documents — every OpenRef is suspect.
  if (erased_any) RebuildOpenRefs();
}

void TemporalFullTextIndex::CompactDifferential() {
  if (diff_.empty()) return;
  // Per (kind, term): the main list length before the fold — a
  // differential posting at index i lands at main index base + i.
  std::unordered_map<std::string, size_t> bases[2];
  for (PostingMap* map : {&names_, &words_}) {
    TermKind kind =
        map == &names_ ? TermKind::kElementName : TermKind::kWord;
    auto& base = bases[static_cast<size_t>(kind)];
    for (auto& [term, adds] : diff_.MapFor(kind)) {
      std::vector<Posting>& dst = (*map)[term];
      base.emplace(term, dst.size());
      dst.insert(dst.end(), std::make_move_iterator(adds.begin()),
                 std::make_move_iterator(adds.end()));
    }
  }
  // Re-point open refs of differential postings at their new main slots.
  // Appending after the existing entries preserved the merged iteration
  // order (main then differential), so lookups see the same sequence.
  for (auto& [doc_id, open] : open_) {
    for (auto& [key, ref] : open) {
      if (!ref.in_diff) continue;
      ref.index += bases[static_cast<size_t>(ref.kind)].at(ref.term);
      ref.in_diff = false;
    }
  }
  diff_.Clear();
  ++compactions_;
}

void TemporalFullTextIndex::RebuildOpenRefs() {
  // Only ever runs at a compaction boundary — with the differential
  // folded, open refs are rebuilt pointing into the main half.
  TXML_CHECK(diff_.empty());
  open_.clear();
  for (PostingMap* map : {&names_, &words_}) {
    TermKind kind =
        map == &names_ ? TermKind::kElementName : TermKind::kWord;
    for (auto& [term, list] : *map) {
      for (size_t p = 0; p < list.size(); ++p) {
        if (!list[p].OpenEnded()) continue;
        open_[list[p].doc_id].emplace(
            OccurrenceKey(kind, term, list[p].element, list[p].path),
            OpenRef{kind, term, p});
      }
    }
  }
}

std::vector<const Posting*> TemporalFullTextIndex::LookupCurrent(
    TermKind kind, std::string_view term,
    const std::vector<DocId>* docs) const {
  std::vector<const Posting*> result;
  ForEachPosting(kind, ToLower(term), docs, [&](const Posting& posting) {
    if (posting.OpenEnded()) result.push_back(&posting);
  });
  return result;
}

std::vector<const Posting*> TemporalFullTextIndex::LookupT(
    TermKind kind, std::string_view term, Timestamp t,
    const std::vector<DocId>* docs) const {
  std::vector<const Posting*> result;
  // Resolve time -> version once per document touched by this list.
  std::unordered_map<DocId, VersionNum> resolved;
  ForEachPosting(kind, ToLower(term), docs, [&](const Posting& posting) {
    auto cached = resolved.find(posting.doc_id);
    if (cached == resolved.end()) {
      VersionNum v = 0;  // 0 = document absent at t
      const VersionedDocument* doc = store_->FindById(posting.doc_id);
      if (doc != nullptr && doc->ExistsAt(t)) {
        auto version = doc->delta_index().VersionAt(t);
        // The snapshot presented for t is the nearest *retained* version
        // (identity below a coarsened horizon).
        if (version.has_value()) v = doc->SnapToRetained(*version);
      }
      cached = resolved.emplace(posting.doc_id, v).first;
    }
    if (cached->second != 0 && posting.ValidAt(cached->second)) {
      result.push_back(&posting);
    }
  });
  return result;
}

std::vector<const Posting*> TemporalFullTextIndex::LookupH(
    TermKind kind, std::string_view term,
    const std::vector<DocId>* docs) const {
  std::vector<const Posting*> result;
  ForEachPosting(kind, ToLower(term), docs, [&](const Posting& posting) {
    result.push_back(&posting);
  });
  return result;
}

std::unique_ptr<TemporalFullTextIndex> TemporalFullTextIndex::Rebuild(
    const VersionedDocumentStore& store) {
  auto index = std::make_unique<TemporalFullTextIndex>(&store);
  StoreObserver* observer = index.get();
  Status replayed = ReplayRetainedHistory(store, {&observer, 1});
  TXML_CHECK(replayed.ok());
  // A rebuild *is* a full compaction — start the new generation clean.
  index->CompactDifferential();
  return index;
}

namespace {

void EncodePosting(const Posting& posting, std::string* dst) {
  PutVarint32(dst, posting.doc_id);
  PutVarint32(dst, posting.element);
  PutVarint64(dst, posting.path.size());
  Xid prev = 0;
  for (Xid xid : posting.path) {
    PutVarintSigned64(dst,
                      static_cast<int64_t>(xid) - static_cast<int64_t>(prev));
    prev = xid;
  }
  PutVarint32(dst, posting.start);
  // 0 = open-ended, otherwise run length (always >= 1).
  PutVarint32(dst, posting.end == kOpenVersion ? 0
                                               : posting.end - posting.start);
}

/// Encodes the merged (main-then-differential) list for one term; either
/// half may be null/absent.
void EncodePostingList(const std::string& term,
                       const std::vector<Posting>* main,
                       const std::vector<Posting>* adds, std::string* dst) {
  PutLengthPrefixed(dst, term);
  PutVarint64(dst, (main != nullptr ? main->size() : 0) +
                       (adds != nullptr ? adds->size() : 0));
  if (main != nullptr) {
    for (const Posting& posting : *main) EncodePosting(posting, dst);
  }
  if (adds != nullptr) {
    for (const Posting& posting : *adds) EncodePosting(posting, dst);
  }
}

StatusOr<std::pair<std::string, std::vector<Posting>>> DecodePostingList(
    Decoder* decoder) {
  auto term = decoder->ReadLengthPrefixed();
  if (!term.ok()) return term.status();
  auto count = decoder->ReadVarint64();
  if (!count.ok()) return count.status();
  std::vector<Posting> list;
  if (*count > decoder->remaining()) {
    return Status::Corruption("implausible posting count");
  }
  list.reserve(*count);
  for (uint64_t i = 0; i < *count; ++i) {
    Posting posting;
    auto doc = decoder->ReadVarint32();
    if (!doc.ok()) return doc.status();
    posting.doc_id = *doc;
    auto element = decoder->ReadVarint32();
    if (!element.ok()) return element.status();
    posting.element = *element;
    auto path_len = decoder->ReadVarint64();
    if (!path_len.ok()) return path_len.status();
    if (*path_len > decoder->remaining()) {
      return Status::Corruption("implausible path length");
    }
    int64_t prev = 0;
    for (uint64_t p = 0; p < *path_len; ++p) {
      auto gap = decoder->ReadVarintSigned64();
      if (!gap.ok()) return gap.status();
      prev += *gap;
      posting.path.push_back(static_cast<Xid>(prev));
    }
    auto start = decoder->ReadVarint32();
    if (!start.ok()) return start.status();
    posting.start = *start;
    auto run = decoder->ReadVarint32();
    if (!run.ok()) return run.status();
    posting.end = *run == 0 ? kOpenVersion : posting.start + *run;
    list.push_back(std::move(posting));
  }
  return std::make_pair(std::string(*term), std::move(list));
}

}  // namespace

void TemporalFullTextIndex::EncodeTo(std::string* dst) const {
  // Canonical bytes: terms in sorted order, each with its merged list
  // (main then differential — the order a fold leaves them in). The same
  // history therefore encodes identically whenever the last fold ran, so
  // a leader's and a follower's checkpoints of it match byte for byte
  // even when their fold thresholds differ.
  for (const PostingMap* map : {&names_, &words_}) {
    TermKind kind =
        map == &names_ ? TermKind::kElementName : TermKind::kWord;
    const PostingMap& adds = diff_.MapFor(kind);
    std::vector<const std::string*> terms;
    terms.reserve(map->size() + adds.size());
    for (const auto& [term, list] : *map) terms.push_back(&term);
    for (const auto& [term, list] : adds) {
      if (!map->contains(term)) terms.push_back(&term);
    }
    std::sort(terms.begin(), terms.end(),
              [](const std::string* a, const std::string* b) {
                return *a < *b;
              });
    PutVarint64(dst, terms.size());
    for (const std::string* term : terms) {
      auto main = map->find(*term);
      auto added = adds.find(*term);
      EncodePostingList(*term, main == map->end() ? nullptr : &main->second,
                        added == adds.end() ? nullptr : &added->second, dst);
    }
  }
}

StatusOr<std::unique_ptr<TemporalFullTextIndex>> TemporalFullTextIndex::Decode(
    std::string_view data, const VersionedDocumentStore* store) {
  auto index = std::make_unique<TemporalFullTextIndex>(store);
  Decoder decoder(data);
  // Everything decodes into the main half — a load starts a fresh,
  // already-compacted generation with an empty differential.
  for (PostingMap* map : {&index->names_, &index->words_}) {
    TermKind kind = map == &index->names_ ? TermKind::kElementName
                                          : TermKind::kWord;
    auto term_count = decoder.ReadVarint64();
    if (!term_count.ok()) return term_count.status();
    for (uint64_t i = 0; i < *term_count; ++i) {
      auto list = DecodePostingList(&decoder);
      if (!list.ok()) return list.status();
      // Rebuild the open-occurrence map from open-ended postings so
      // incremental maintenance continues seamlessly.
      std::vector<Posting>& stored =
          (*map)[list->first] = std::move(list->second);
      for (size_t p = 0; p < stored.size(); ++p) {
        if (!stored[p].OpenEnded()) continue;
        std::string key = OccurrenceKey(kind, list->first,
                                        stored[p].element, stored[p].path);
        index->open_[stored[p].doc_id].emplace(
            std::move(key), OpenRef{kind, list->first, p});
      }
    }
  }
  if (!decoder.AtEnd()) {
    return Status::Corruption("trailing bytes after FTI");
  }
  return index;
}

size_t TemporalFullTextIndex::term_count() const {
  size_t count = names_.size() + words_.size();
  for (const PostingMap* map : {&names_, &words_}) {
    TermKind kind =
        map == &names_ ? TermKind::kElementName : TermKind::kWord;
    for (const auto& [term, list] : diff_.MapFor(kind)) {
      if (!map->contains(term)) ++count;
    }
  }
  return count;
}

size_t TemporalFullTextIndex::main_posting_count() const {
  size_t count = 0;
  for (const auto& [term, list] : names_) count += list.size();
  for (const auto& [term, list] : words_) count += list.size();
  return count;
}

size_t TemporalFullTextIndex::posting_count() const {
  return main_posting_count() + diff_.posting_count();
}

size_t TemporalFullTextIndex::PostingCountFor(TermKind kind,
                                              std::string_view term) const {
  const std::string lowered = ToLower(term);
  size_t count = 0;
  const PostingMap& main = MapFor(kind);
  if (auto it = main.find(lowered); it != main.end()) {
    count += it->second.size();
  }
  if (const std::vector<Posting>* adds = diff_.Find(kind, lowered)) {
    count += adds->size();
  }
  return count;
}

size_t TemporalFullTextIndex::EncodedSizeBytes() const {
  std::string scratch;
  EncodeTo(&scratch);
  return scratch.size();
}

}  // namespace txml
