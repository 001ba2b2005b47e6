#ifndef TXML_SRC_DIFF_EDIT_SCRIPT_H_
#define TXML_SRC_DIFF_EDIT_SCRIPT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/util/timestamp.h"

#include "src/util/status.h"
#include "src/util/statusor.h"
#include "src/xml/ids.h"
#include "src/xml/node.h"

namespace txml {

/// XID → node index over one live tree, addressed by XID. XIDs are
/// document-scoped, never reused and lie in [1, next_xid), so `capacity` is
/// the document's next_xid() and never grows: a node naming an XID at or
/// beyond it is Corruption, not a resize.
///
/// Lookups go to one dense vector of slots, but its size follows the nodes
/// being indexed, not `capacity`: next_xid() counts every insert over the
/// document's life and is read from images received over the wire (re-seed
/// installs), so it must not decide how much is allocated. The slots cover
/// the *top* of [0, capacity) — XIDs are allocated in increasing order, so
/// the live nodes of a long-edited document are mostly recent ones — and
/// XIDs below them live in a hash map. Memory is O(indexed nodes) whatever
/// their XIDs and whatever `capacity` says.
class XidIndex {
 public:
  XidIndex() = default;
  /// An empty index for XIDs below `capacity`, with dense slots for the
  /// top min(capacity, kDenseFloor + kDensePerNode × expected_nodes) XIDs:
  /// up to 8 KiB plus 64 bytes per expected node.
  explicit XidIndex(Xid capacity, size_t expected_nodes = 0);

  static constexpr size_t kDenseFloor = 1024;
  static constexpr size_t kDensePerNode = 8;

  Xid capacity() const { return capacity_; }

  /// The indexed node with this XID, or null (also for any XID outside
  /// [0, capacity())).
  XmlNode* Find(Xid xid) const {
    // Unsigned: an XID below dense_floor_ wraps past dense_.size().
    if (xid - dense_floor_ < dense_.size()) return dense_[xid - dense_floor_];
    if (sparse_.empty()) return nullptr;
    auto it = sparse_.find(xid);
    return it == sparse_.end() ? nullptr : it->second;
  }

  /// Indexes every node of `subtree`. Corruption if one names an XID at or
  /// beyond capacity(); the nodes visited before it stay indexed, so the
  /// caller must discard the index (and its tree) on failure.
  Status Add(XmlNode* subtree);

  /// Unindexes every node of `subtree`.
  void Remove(const XmlNode* subtree);

 private:
  Xid capacity_ = 0;
  /// dense_[i] is the node with XID dense_floor_ + i.
  Xid dense_floor_ = 0;
  std::vector<XmlNode*> dense_;
  std::unordered_map<Xid, XmlNode*> sparse_;
};

/// One operation of an edit script. Operations address nodes by XID and are
/// applied *in sequence*: positions refer to the tree state after all
/// preceding operations of the same script.
///
/// Every operation carries enough information to be inverted, which is what
/// makes a script a *completed delta* (paper Section 7.1: "completed deltas
/// can be used both as forward and backward deltas"):
///  * kInsert stores the inserted subtree (so backward application knows it
///    may simply remove it — and forward application has the content);
///  * kDelete stores the deleted subtree and its position;
///  * kUpdate stores both old and new value;
///  * kMove stores both source and destination position.
struct EditOp {
  enum class Kind { kInsert, kDelete, kUpdate, kMove, kRename };

  Kind kind = Kind::kUpdate;

  /// kInsert/kDelete: XID of the parent element.
  Xid parent = kInvalidXid;
  /// kInsert/kDelete: position among the parent's children.
  uint32_t pos = 0;
  /// kInsert/kDelete: the subtree, with final XIDs assigned.
  std::unique_ptr<XmlNode> subtree;

  /// kUpdate/kMove/kRename: the addressed node.
  Xid target = kInvalidXid;
  /// kUpdate: old/new text or attribute value. kRename: old/new name.
  std::string old_value;
  std::string new_value;

  /// kMove: source location.
  Xid from_parent = kInvalidXid;
  uint32_t from_pos = 0;
  /// kMove: destination location (in the tree state at application time).
  Xid to_parent = kInvalidXid;
  uint32_t to_pos = 0;

  EditOp Clone() const;
};

/// A completed delta between two consecutive versions of a document:
/// applying it forward turns version n into version n+1; applying it
/// backward turns n+1 into n. Scripts serialize both as XML (the paper's
/// closure requirement: "as long as an edit script is represented in XML
/// this operator does not break closure properties") and in a compact
/// binary form for the repository.
class EditScript {
 public:
  EditScript() = default;
  EditScript(EditScript&&) = default;
  EditScript& operator=(EditScript&&) = default;

  std::vector<EditOp>& ops() { return ops_; }
  const std::vector<EditOp>& ops() const { return ops_; }
  bool empty() const { return ops_.empty() && restamps_.empty(); }
  size_t size() const { return ops_.size(); }

  void Add(EditOp op) { ops_.push_back(std::move(op)); }

  /// Timestamp bookkeeping. Surviving (matched) nodes whose timestamp
  /// changed in this version transition are listed with their *old* stamp;
  /// the new stamp is uniformly the version's commit timestamp. Forward
  /// application stamps them with commit_ts, backward application restores
  /// the old stamps — so reconstructed versions answer TIME() correctly.
  void set_commit_ts(Timestamp ts) { commit_ts_ = ts; }
  Timestamp commit_ts() const { return commit_ts_; }
  void AddRestamp(Xid xid, Timestamp old_ts) {
    restamps_.emplace_back(xid, old_ts);
  }
  const std::vector<std::pair<Xid, Timestamp>>& restamps() const {
    return restamps_;
  }

  /// Marks this script as a *merged* delta spanning several original
  /// version transitions (produced by the vacuum subsystem,
  /// src/storage/vacuum.h). A merged script cannot restamp uniformly with
  /// commit_ts on forward application — a node restamped mid-range keeps
  /// the stamp of the last transition that touched it — so it carries two
  /// explicit stamp lists:
  ///  * `backward` (stored as restamps()): per surviving XID, the stamp the
  ///    node has in the merge's *base* version — restored by
  ///    ApplyBackward exactly like a plain script;
  ///  * `forward` (forward_stamps()): per XID that survives to the merge's
  ///    *target* version with a changed stamp, the stamp it has there —
  ///    applied by ApplyForward instead of the uniform commit_ts rule.
  void SetMergedStamps(std::vector<std::pair<Xid, Timestamp>> backward,
                       std::vector<std::pair<Xid, Timestamp>> forward) {
    restamps_ = std::move(backward);
    forward_stamps_ = std::move(forward);
    merged_ = true;
  }
  bool merged() const { return merged_; }
  const std::vector<std::pair<Xid, Timestamp>>& forward_stamps() const {
    return forward_stamps_;
  }

  /// Applies the script to `root` (version n), producing version n+1 in
  /// place. `index` must index exactly the nodes of `root`'s tree; it is
  /// kept current across inserts and deletes. Fails with Corruption if an
  /// addressed XID is missing or beyond the index's capacity, or a position
  /// is out of range — after which the tree may be half-edited and the
  /// index out of step with it, so both must be discarded.
  Status ApplyForward(XmlNode* root, XidIndex* index) const;

  /// Applies the inverse script to `root` (version n+1), producing version
  /// n in place. Same contract as ApplyForward.
  Status ApplyBackward(XmlNode* root, XidIndex* index) const;

  EditScript Clone() const;

  /// The XML representation, e.g.
  ///   <delta>
  ///     <update xid="7" old="15" new="18"/>
  ///     <insert parent="1" pos="2">…subtree…</insert>
  ///   </delta>
  /// Subtrees carry xid attributes so the delta is self-contained.
  XmlDocument ToXml() const;

  /// Parses the XML representation back (inverse of ToXml).
  static StatusOr<EditScript> FromXml(const XmlNode& delta_root);

  /// Compact binary representation for the repository.
  void EncodeTo(std::string* dst) const;
  static StatusOr<EditScript> Decode(std::string_view data);

  /// Total number of nodes carried in insert/delete subtrees (a size
  /// measure used by the storage-space experiments).
  size_t PayloadNodeCount() const;

 private:
  std::vector<EditOp> ops_;
  Timestamp commit_ts_;
  std::vector<std::pair<Xid, Timestamp>> restamps_;
  /// See SetMergedStamps().
  bool merged_ = false;
  std::vector<std::pair<Xid, Timestamp>> forward_stamps_;
};

}  // namespace txml

#endif  // TXML_SRC_DIFF_EDIT_SCRIPT_H_
