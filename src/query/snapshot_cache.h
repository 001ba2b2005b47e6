#ifndef TXML_SRC_QUERY_SNAPSHOT_CACHE_H_
#define TXML_SRC_QUERY_SNAPSHOT_CACHE_H_

#include <memory>

#include "src/xml/ids.h"
#include "src/xml/node.h"

namespace txml {

/// Memoization point for reconstructed document snapshots, consulted by
/// query execution before applying a delta chain. Keys are
/// (DocId, version number); both are never reused, and a committed
/// version's tree is immutable, so an entry can never go stale — a cache
/// may drop entries at any time (capacity, invalidation policy) but must
/// never serve a tree that differs from ReconstructVersion's result.
///
/// Cached trees are shared across executions (and, in the service layer,
/// across threads), so they must be *owned* deep trees. That is why the
/// current version of a live document is never cached: SnapshotTree
/// (src/query/scan.h) aliases VersionedDocument::current() for the length
/// of one execution instead, because the next append replaces that tree.
/// Only versions that can no longer change are offered to a cache.
///
/// Implementations must be safe for concurrent Lookup/Insert from many
/// reader threads; the sharded LRU cache of src/service/ is the production
/// implementation.
class SnapshotCacheInterface {
 public:
  virtual ~SnapshotCacheInterface() = default;

  /// The cached tree of (doc, version), or null on a miss.
  virtual std::shared_ptr<const XmlNode> Lookup(DocId doc_id,
                                                VersionNum version) = 0;

  /// Offers a freshly materialized tree for (doc, version). The cache may
  /// adopt or ignore it.
  virtual void Insert(DocId doc_id, VersionNum version,
                      std::shared_ptr<const XmlNode> tree) = 0;
};

}  // namespace txml

#endif  // TXML_SRC_QUERY_SNAPSHOT_CACHE_H_
