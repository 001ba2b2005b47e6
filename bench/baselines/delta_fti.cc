#include "bench/baselines/delta_fti.h"

#include <map>
#include <utility>

#include "src/util/coding.h"
#include "src/util/strings.h"

namespace txml {
namespace {

std::string OccKeyOf(const Occurrence& occ) {
  std::string key;
  key.push_back(static_cast<char>(occ.kind));
  key.append(occ.term);
  key.push_back('\0');
  PutVarint32(&key, occ.element);
  for (Xid xid : occ.path) PutVarint32(&key, xid);
  return key;
}

}  // namespace

void DeltaContentIndex::OnVersionStored(DocId doc_id, VersionNum version,
                                        Timestamp /*ts*/,
                                        const XmlNode& current,
                                        const EditScript* /*delta*/) {
  std::vector<Occurrence> occurrences = ExtractOccurrences(current);
  auto& previous = previous_[doc_id];

  std::unordered_map<std::string, Occurrence> now;
  now.reserve(occurrences.size());
  for (Occurrence& occ : occurrences) {
    now.emplace(OccKeyOf(occ), std::move(occ));
  }

  for (const auto& [key, occ] : now) {
    if (previous.contains(key)) continue;
    MapFor(occ.kind)[occ.term].push_back(EventPosting{
        doc_id, occ.element, occ.path, version, Event::kAdded});
  }
  for (const auto& [key, occ] : previous) {
    if (now.contains(key)) continue;
    MapFor(occ.kind)[occ.term].push_back(EventPosting{
        doc_id, occ.element, occ.path, version, Event::kRemoved});
  }
  previous = std::move(now);
}

void DeltaContentIndex::OnDocumentDeleted(DocId doc_id, VersionNum last,
                                          Timestamp /*ts*/) {
  auto it = previous_.find(doc_id);
  if (it == previous_.end()) return;
  for (const auto& [key, occ] : it->second) {
    MapFor(occ.kind)[occ.term].push_back(EventPosting{
        doc_id, occ.element, occ.path, last + 1, Event::kRemoved});
  }
  previous_.erase(it);
}

void DeltaContentIndex::OnHistoryVacuumed(const VersionedDocument& doc) {
  const DocId doc_id = doc.doc_id();
  const VersionNum horizon = doc.first_retained();
  if (horizon <= 1) return;
  for (EventMap* map : {&names_, &words_}) {
    for (auto it = map->begin(); it != map->end();) {
      std::vector<EventPosting>& list = it->second;
      // Per occurrence (element, path) run: position of the last "removed"
      // event at or below the horizon. Everything up to it — the adds it
      // cancels included — is invisible from every retained version.
      std::map<std::pair<Xid, std::vector<Xid>>, size_t> cutoff;
      for (size_t i = 0; i < list.size(); ++i) {
        const EventPosting& event = list[i];
        if (event.doc_id == doc_id && event.event == Event::kRemoved &&
            event.version <= horizon) {
          cutoff[{event.element, event.path}] = i;
        }
      }
      if (!cutoff.empty()) {
        std::vector<EventPosting> keep;
        keep.reserve(list.size());
        for (size_t i = 0; i < list.size(); ++i) {
          if (list[i].doc_id == doc_id) {
            auto c = cutoff.find({list[i].element, list[i].path});
            if (c != cutoff.end() && i <= c->second) continue;
          }
          keep.push_back(std::move(list[i]));
        }
        list = std::move(keep);
      }
      it = list.empty() ? map->erase(it) : std::next(it);
    }
  }
}

std::vector<const DeltaContentIndex::EventPosting*>
DeltaContentIndex::LookupEvents(TermKind kind, std::string_view term) const {
  std::vector<const EventPosting*> result;
  auto it = MapFor(kind).find(ToLower(term));
  if (it == MapFor(kind).end()) return result;
  result.reserve(it->second.size());
  for (const EventPosting& event : it->second) result.push_back(&event);
  return result;
}

std::vector<DeltaContentIndex::EventPosting>
DeltaContentIndex::LookupSnapshot(
    TermKind kind, std::string_view term,
    const std::unordered_map<DocId, VersionNum>& version_of) const {
  std::vector<EventPosting> result;
  auto it = MapFor(kind).find(ToLower(term));
  if (it == MapFor(kind).end()) return result;
  // Fold: an occurrence is valid at v if its latest event with
  // version <= v is an add. Events per (doc, element, path) are naturally
  // in version order (appended as versions commit).
  std::unordered_map<std::string, const EventPosting*> latest;
  for (const EventPosting& event : it->second) {
    auto doc_version = version_of.find(event.doc_id);
    if (doc_version == version_of.end() || doc_version->second == 0 ||
        event.version > doc_version->second) {
      continue;
    }
    std::string key;
    PutVarint32(&key, event.doc_id);
    PutVarint32(&key, event.element);
    for (Xid xid : event.path) PutVarint32(&key, xid);
    latest[key] = &event;
  }
  for (const auto& [key, event] : latest) {
    if (event->event == Event::kAdded) result.push_back(*event);
  }
  return result;
}

size_t DeltaContentIndex::posting_count() const {
  size_t count = 0;
  for (const auto& [term, list] : names_) count += list.size();
  for (const auto& [term, list] : words_) count += list.size();
  return count;
}

size_t DeltaContentIndex::EncodedSizeBytes() const {
  std::string scratch;
  size_t total = 0;
  for (const EventMap* map : {&names_, &words_}) {
    for (const auto& [term, list] : *map) {
      scratch.clear();
      PutLengthPrefixed(&scratch, term);
      PutVarint64(&scratch, list.size());
      for (const EventPosting& event : list) {
        PutVarint32(&scratch, event.doc_id);
        PutVarint32(&scratch, event.element);
        PutVarint64(&scratch, event.path.size());
        Xid prev = 0;
        for (Xid xid : event.path) {
          PutVarintSigned64(&scratch, static_cast<int64_t>(xid) -
                                          static_cast<int64_t>(prev));
          prev = xid;
        }
        PutVarint32(&scratch, event.version);
        scratch.push_back(static_cast<char>(event.event));
      }
      total += scratch.size();
    }
  }
  return total;
}

}  // namespace txml
