#include "bench/baselines/stratum_store.h"

#include <utility>

#include "src/xml/codec.h"

namespace txml {

StatusOr<DocId> StratumStore::Put(const std::string& url,
                                  std::unique_ptr<XmlNode> tree,
                                  Timestamp ts) {
  if (tree == nullptr || !tree->is_element()) {
    return Status::InvalidArgument("document version must be an element tree");
  }
  auto it = by_url_.find(url);
  DocId doc_id;
  if (it == by_url_.end()) {
    doc_id = next_doc_id_++;
    by_url_[url] = doc_id;
    by_id_[doc_id] = StratumDocument{doc_id, url, Timestamp::Infinity(), {}};
  } else {
    doc_id = it->second;
  }
  StratumDocument& doc = by_id_[doc_id];
  if (!doc.versions.empty() && ts <= doc.versions.back().ts) {
    return Status::InvalidArgument("version timestamps must increase");
  }
  if (!doc.delete_ts.IsInfinite()) {
    return Status::InvalidArgument("document was deleted");
  }
  doc.versions.push_back(StoredVersion{ts, std::move(tree)});
  return doc_id;
}

Status StratumStore::Delete(const std::string& url, Timestamp ts) {
  auto it = by_url_.find(url);
  if (it == by_url_.end()) {
    return Status::NotFound("no document at '" + url + "'");
  }
  by_id_[it->second].delete_ts = ts;
  return Status::OK();
}

const StratumStore::StratumDocument* StratumStore::Find(
    const std::string& url) const {
  auto it = by_url_.find(url);
  return it == by_url_.end() ? nullptr : &by_id_.at(it->second);
}

StatusOr<const XmlNode*> StratumStore::SnapshotAt(const std::string& url,
                                                  Timestamp t) const {
  const StratumDocument* doc = Find(url);
  if (doc == nullptr) {
    return Status::NotFound("no document at '" + url + "'");
  }
  if (t >= doc->delete_ts) {
    return Status::NotFound("document deleted before " + t.ToString());
  }
  // Middleware scan: latest version with ts <= t.
  const XmlNode* found = nullptr;
  for (const StoredVersion& version : doc->versions) {
    if (version.ts <= t) {
      found = version.tree.get();
    } else {
      break;
    }
  }
  if (found == nullptr) {
    return Status::NotFound("document does not exist yet at " + t.ToString());
  }
  return found;
}

std::vector<const XmlNode*> StratumStore::ScanSnapshot(const Pattern& pattern,
                                                       Timestamp t) const {
  std::vector<const XmlNode*> results;
  int projected = pattern.ProjectedId();
  if (projected < 0) return results;
  for (const auto& [id, doc] : by_id_) {
    if (t >= doc.delete_ts) continue;
    const XmlNode* snapshot = nullptr;
    for (const StoredVersion& version : doc.versions) {
      if (version.ts <= t) snapshot = version.tree.get();
    }
    if (snapshot == nullptr) continue;
    for (const PatternMatch& match : MatchPattern(*snapshot, pattern)) {
      results.push_back(match[static_cast<size_t>(projected)]);
    }
  }
  return results;
}

std::vector<StratumStore::AllMatch> StratumStore::ScanAllVersions(
    const Pattern& pattern) const {
  std::vector<AllMatch> results;
  int projected = pattern.ProjectedId();
  if (projected < 0) return results;
  for (const auto& [id, doc] : by_id_) {
    for (const StoredVersion& version : doc.versions) {
      for (const PatternMatch& match : MatchPattern(*version.tree, pattern)) {
        results.push_back(AllMatch{
            id, version.ts, match[static_cast<size_t>(projected)]});
      }
    }
  }
  return results;
}

size_t StratumStore::StorageBytes() const {
  size_t total = 0;
  for (const auto& [id, doc] : by_id_) {
    for (const StoredVersion& version : doc.versions) {
      total += EncodeNodeToString(*version.tree).size();
    }
  }
  return total;
}

std::vector<const StratumStore::StratumDocument*> StratumStore::AllDocuments()
    const {
  std::vector<const StratumDocument*> docs;
  docs.reserve(by_id_.size());
  for (const auto& [id, doc] : by_id_) docs.push_back(&doc);
  return docs;
}

}  // namespace txml
