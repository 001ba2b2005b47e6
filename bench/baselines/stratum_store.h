#ifndef TXML_BENCH_BASELINES_STRATUM_STORE_H_
#define TXML_BENCH_BASELINES_STRATUM_STORE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/util/statusor.h"
#include "src/util/timestamp.h"
#include "src/xml/ids.h"
#include "src/xml/node.h"
#include "src/xml/pattern.h"

namespace txml {

/// The baseline the paper argues against in Section 1: "store all versions
/// of all documents in the database, and use a middleware layer to convert
/// temporal query language statements into conventional statements" — the
/// *stratum* approach of Jensen & Snodgrass [10].
///
/// Every version is stored as a complete tree; there are no deltas, no
/// temporal index, and no persistent element identity. Snapshot and history
/// queries scan the stored versions and run PatternScan directly on the
/// trees. Used by the E5 benchmark as the comparator for both storage size
/// and query cost.
class StratumStore {
 public:
  struct StoredVersion {
    Timestamp ts;
    std::unique_ptr<XmlNode> tree;
  };

  struct StratumDocument {
    DocId doc_id;
    std::string url;
    Timestamp delete_ts = Timestamp::Infinity();
    std::vector<StoredVersion> versions;
  };

  /// Stores one more complete version.
  StatusOr<DocId> Put(const std::string& url, std::unique_ptr<XmlNode> tree,
                      Timestamp ts);

  Status Delete(const std::string& url, Timestamp ts);

  const StratumDocument* Find(const std::string& url) const;

  /// Middleware-style snapshot: linear scan of the version list for the
  /// version valid at t; returns a borrowed tree.
  StatusOr<const XmlNode*> SnapshotAt(const std::string& url,
                                      Timestamp t) const;

  /// Runs a pattern against the snapshot of every document at time t
  /// (the stratum equivalent of TPatternScan). Returns matched elements.
  std::vector<const XmlNode*> ScanSnapshot(const Pattern& pattern,
                                           Timestamp t) const;

  /// Runs a pattern against *all* versions of all documents (the stratum
  /// equivalent of TPatternScanAll): element plus version timestamp.
  struct AllMatch {
    DocId doc_id;
    Timestamp ts;
    const XmlNode* element;
  };
  std::vector<AllMatch> ScanAllVersions(const Pattern& pattern) const;

  /// Total encoded bytes of all stored versions (E5/E7 accounting).
  size_t StorageBytes() const;

  size_t document_count() const { return by_id_.size(); }
  std::vector<const StratumDocument*> AllDocuments() const;

 private:
  DocId next_doc_id_ = 1;
  std::map<DocId, StratumDocument> by_id_;
  std::unordered_map<std::string, DocId> by_url_;
};

}  // namespace txml

#endif  // TXML_BENCH_BASELINES_STRATUM_STORE_H_
