#include "src/diff/edit_script.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "src/util/coding.h"
#include "src/util/logging.h"
#include "src/util/macros.h"
#include "src/xml/codec.h"

namespace txml {
namespace {

Status MissingXid(Xid xid) {
  return Status::Corruption("delta refers to unknown xid " +
                            std::to_string(xid));
}

Status CheckIndexed(const XmlNode* root, const XidIndex& index) {
  if (index.Find(root->xid()) != root) {
    return Status::InvalidArgument("xid index does not cover the tree");
  }
  return Status::OK();
}

Status ApplyInsert(const EditOp& op, XidIndex* index) {
  XmlNode* parent = index->Find(op.parent);
  if (parent == nullptr) return MissingXid(op.parent);
  if (op.pos > parent->child_count()) {
    return Status::Corruption("insert position out of range");
  }
  if (op.subtree == nullptr) {
    return Status::Corruption("insert op without subtree");
  }
  XmlNode* inserted = parent->InsertChild(op.pos, op.subtree->Clone());
  return index->Add(inserted);
}

Status ApplyDelete(const EditOp& op, XidIndex* index) {
  XmlNode* parent = index->Find(op.parent);
  if (parent == nullptr) return MissingXid(op.parent);
  if (op.pos >= parent->child_count()) {
    return Status::Corruption("delete position out of range");
  }
  const XmlNode* victim = parent->child(op.pos);
  if (op.subtree != nullptr && victim->xid() != op.subtree->xid()) {
    return Status::Corruption("delete position does not hold expected node");
  }
  index->Remove(victim);
  parent->RemoveChild(op.pos);
  return Status::OK();
}

Status ApplyMove(XidIndex* index, Xid target, Xid from_parent,
                 uint32_t from_pos, Xid to_parent, uint32_t to_pos) {
  XmlNode* node = index->Find(target);
  if (node == nullptr) return MissingXid(target);
  XmlNode* source = index->Find(from_parent);
  XmlNode* dest = index->Find(to_parent);
  if (source == nullptr) return MissingXid(from_parent);
  if (dest == nullptr) return MissingXid(to_parent);
  if (node->parent() != source || from_pos >= source->child_count() ||
      source->child(from_pos) != node) {
    return Status::Corruption("move source does not hold expected node");
  }
  for (const XmlNode* p = dest; p != nullptr; p = p->parent()) {
    if (p == node) {
      return Status::Corruption("move destination inside moved subtree");
    }
  }
  // to_pos counts the destination's children after the detach. Checking
  // it first means a failed move never frees the subtree the index still
  // points into.
  if (to_pos > dest->child_count() - (dest == source ? 1 : 0)) {
    return Status::Corruption("move destination position out of range");
  }
  dest->InsertChild(to_pos, source->RemoveChild(from_pos));
  return Status::OK();
}

}  // namespace

XidIndex::XidIndex(Xid capacity, size_t expected_nodes)
    : capacity_(capacity),
      dense_(std::min<size_t>(capacity,
                              kDenseFloor + kDensePerNode * expected_nodes),
             nullptr) {
  dense_floor_ = capacity - static_cast<Xid>(dense_.size());
}

Status XidIndex::Add(XmlNode* subtree) {
  const Xid xid = subtree->xid();
  if (xid >= capacity_) {
    return Status::Corruption("xid " + std::to_string(xid) +
                              " is beyond the document's xid range [1, " +
                              std::to_string(capacity_) + ")");
  }
  if (xid != kInvalidXid) {
    if (xid >= dense_floor_) {
      dense_[xid - dense_floor_] = subtree;
    } else {
      sparse_[xid] = subtree;
    }
  }
  for (size_t i = 0; i < subtree->child_count(); ++i) {
    TXML_RETURN_IF_ERROR(Add(subtree->child(i)));
  }
  return Status::OK();
}

void XidIndex::Remove(const XmlNode* subtree) {
  const Xid xid = subtree->xid();
  if (xid >= dense_floor_ && xid < capacity_) {
    dense_[xid - dense_floor_] = nullptr;
  } else {
    sparse_.erase(xid);
  }
  for (size_t i = 0; i < subtree->child_count(); ++i) {
    Remove(subtree->child(i));
  }
}

EditOp EditOp::Clone() const {
  EditOp copy;
  copy.kind = kind;
  copy.parent = parent;
  copy.pos = pos;
  if (subtree != nullptr) copy.subtree = subtree->Clone();
  copy.target = target;
  copy.old_value = old_value;
  copy.new_value = new_value;
  copy.from_parent = from_parent;
  copy.from_pos = from_pos;
  copy.to_parent = to_parent;
  copy.to_pos = to_pos;
  return copy;
}

Status EditScript::ApplyForward(XmlNode* root, XidIndex* index) const {
  TXML_RETURN_IF_ERROR(CheckIndexed(root, *index));
  for (const EditOp& op : ops_) {
    switch (op.kind) {
      case EditOp::Kind::kInsert:
        TXML_RETURN_IF_ERROR(ApplyInsert(op, index));
        break;
      case EditOp::Kind::kDelete:
        TXML_RETURN_IF_ERROR(ApplyDelete(op, index));
        break;
      case EditOp::Kind::kUpdate: {
        XmlNode* node = index->Find(op.target);
        if (node == nullptr) return MissingXid(op.target);
        if (node->value() != op.old_value) {
          return Status::Corruption("update: unexpected current value");
        }
        node->set_value(op.new_value);
        break;
      }
      case EditOp::Kind::kMove:
        TXML_RETURN_IF_ERROR(ApplyMove(index, op.target, op.from_parent,
                                       op.from_pos, op.to_parent, op.to_pos));
        break;
      case EditOp::Kind::kRename: {
        XmlNode* node = index->Find(op.target);
        if (node == nullptr) return MissingXid(op.target);
        if (node->name() != op.old_value) {
          return Status::Corruption("rename: unexpected current name");
        }
        node->set_name(op.new_value);
        break;
      }
    }
  }
  if (merged_) {
    // Merged scripts carry explicit target stamps: a node restamped by an
    // intermediate (vacuumed-away) transition keeps that transition's
    // timestamp, not the merge's commit_ts.
    for (const auto& [xid, new_ts] : forward_stamps_) {
      XmlNode* node = index->Find(xid);
      if (node == nullptr) return MissingXid(xid);
      node->set_timestamp(new_ts);
    }
    return Status::OK();
  }
  for (const auto& [xid, old_ts] : restamps_) {
    (void)old_ts;
    XmlNode* node = index->Find(xid);
    if (node == nullptr) return MissingXid(xid);
    node->set_timestamp(commit_ts_);
  }
  return Status::OK();
}

Status EditScript::ApplyBackward(XmlNode* root, XidIndex* index) const {
  TXML_RETURN_IF_ERROR(CheckIndexed(root, *index));
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    const EditOp& op = *it;
    switch (op.kind) {
      case EditOp::Kind::kInsert: {
        // Inverse of insert is delete at the same location.
        XmlNode* parent = index->Find(op.parent);
        if (parent == nullptr) return MissingXid(op.parent);
        if (op.pos >= parent->child_count() ||
            (op.subtree != nullptr &&
             parent->child(op.pos)->xid() != op.subtree->xid())) {
          return Status::Corruption("undo-insert: node not where expected");
        }
        index->Remove(parent->child(op.pos));
        parent->RemoveChild(op.pos);
        break;
      }
      case EditOp::Kind::kDelete: {
        // Inverse of delete is insert of the stored subtree.
        XmlNode* parent = index->Find(op.parent);
        if (parent == nullptr) return MissingXid(op.parent);
        if (op.subtree == nullptr) {
          return Status::Corruption("undo-delete: delta not completed");
        }
        if (op.pos > parent->child_count()) {
          return Status::Corruption("undo-delete: position out of range");
        }
        XmlNode* inserted = parent->InsertChild(op.pos, op.subtree->Clone());
        TXML_RETURN_IF_ERROR(index->Add(inserted));
        break;
      }
      case EditOp::Kind::kUpdate: {
        XmlNode* node = index->Find(op.target);
        if (node == nullptr) return MissingXid(op.target);
        if (node->value() != op.new_value) {
          return Status::Corruption("undo-update: unexpected current value");
        }
        node->set_value(op.old_value);
        break;
      }
      case EditOp::Kind::kMove:
        TXML_RETURN_IF_ERROR(ApplyMove(index, op.target, op.to_parent,
                                       op.to_pos, op.from_parent,
                                       op.from_pos));
        break;
      case EditOp::Kind::kRename: {
        XmlNode* node = index->Find(op.target);
        if (node == nullptr) return MissingXid(op.target);
        if (node->name() != op.new_value) {
          return Status::Corruption("undo-rename: unexpected current name");
        }
        node->set_name(op.old_value);
        break;
      }
    }
  }
  for (const auto& [xid, old_ts] : restamps_) {
    XmlNode* node = index->Find(xid);
    if (node == nullptr) return MissingXid(xid);
    node->set_timestamp(old_ts);
  }
  return Status::OK();
}

EditScript EditScript::Clone() const {
  EditScript copy;
  copy.ops_.reserve(ops_.size());
  for (const EditOp& op : ops_) copy.ops_.push_back(op.Clone());
  copy.commit_ts_ = commit_ts_;
  copy.restamps_ = restamps_;
  copy.merged_ = merged_;
  copy.forward_stamps_ = forward_stamps_;
  return copy;
}

size_t EditScript::PayloadNodeCount() const {
  size_t count = 0;
  for (const EditOp& op : ops_) {
    if (op.subtree != nullptr) count += op.subtree->CountNodes();
  }
  return count;
}

namespace {

void AddIntAttr(XmlNode* element, const char* name, uint64_t value) {
  element->AddChild(XmlNode::Attribute(name, std::to_string(value)));
}

StatusOr<uint64_t> GetIntAttr(const XmlNode& element, const char* name) {
  const XmlNode* attr = element.FindAttribute(name);
  if (attr == nullptr) {
    return Status::Corruption(std::string("delta op missing attribute '") +
                              name + "'");
  }
  uint64_t value = 0;
  for (char c : attr->value()) {
    if (c < '0' || c > '9') {
      return Status::Corruption(std::string("bad numeric attribute '") +
                                name + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

std::string GetStrAttr(const XmlNode& element, const char* name) {
  const XmlNode* attr = element.FindAttribute(name);
  return attr == nullptr ? "" : attr->value();
}

}  // namespace

XmlDocument EditScript::ToXml() const {
  auto delta = XmlNode::Element("delta");
  delta->AddChild(XmlNode::Attribute("commit-ts",
                                     std::to_string(commit_ts_.micros())));
  for (const EditOp& op : ops_) {
    std::unique_ptr<XmlNode> el;
    switch (op.kind) {
      case EditOp::Kind::kInsert:
      case EditOp::Kind::kDelete: {
        el = XmlNode::Element(
            op.kind == EditOp::Kind::kInsert ? "insert" : "delete");
        AddIntAttr(el.get(), "parent", op.parent);
        AddIntAttr(el.get(), "pos", op.pos);
        // The payload is wrapped in <content> so attribute payloads do not
        // mix with the operation's own parameters.
        auto content = XmlNode::Element("content");
        if (op.subtree != nullptr) content->AddChild(op.subtree->Clone());
        el->AddChild(std::move(content));
        break;
      }
      case EditOp::Kind::kUpdate:
        el = XmlNode::Element("update");
        AddIntAttr(el.get(), "xid", op.target);
        el->AddChild(XmlNode::Attribute("old", op.old_value));
        el->AddChild(XmlNode::Attribute("new", op.new_value));
        break;
      case EditOp::Kind::kMove:
        el = XmlNode::Element("move");
        AddIntAttr(el.get(), "xid", op.target);
        AddIntAttr(el.get(), "from-parent", op.from_parent);
        AddIntAttr(el.get(), "from-pos", op.from_pos);
        AddIntAttr(el.get(), "to-parent", op.to_parent);
        AddIntAttr(el.get(), "to-pos", op.to_pos);
        break;
      case EditOp::Kind::kRename:
        el = XmlNode::Element("rename");
        AddIntAttr(el.get(), "xid", op.target);
        el->AddChild(XmlNode::Attribute("old", op.old_value));
        el->AddChild(XmlNode::Attribute("new", op.new_value));
        break;
    }
    delta->AddChild(std::move(el));
  }
  for (const auto& [xid, old_ts] : restamps_) {
    auto el = XmlNode::Element("stamp");
    AddIntAttr(el.get(), "xid", xid);
    el->AddChild(XmlNode::Attribute("old-ts",
                                    std::to_string(old_ts.micros())));
    delta->AddChild(std::move(el));
  }
  if (merged_) {
    delta->AddChild(XmlNode::Attribute("merged", "1"));
    for (const auto& [xid, new_ts] : forward_stamps_) {
      auto el = XmlNode::Element("fstamp");
      AddIntAttr(el.get(), "xid", xid);
      el->AddChild(XmlNode::Attribute("new-ts",
                                      std::to_string(new_ts.micros())));
      delta->AddChild(std::move(el));
    }
  }
  return XmlDocument(std::move(delta));
}

StatusOr<EditScript> EditScript::FromXml(const XmlNode& delta_root) {
  if (!delta_root.is_element() || delta_root.name() != "delta") {
    return Status::Corruption("not a <delta> document");
  }
  EditScript script;
  {
    const XmlNode* ts_attr = delta_root.FindAttribute("commit-ts");
    if (ts_attr != nullptr) {
      script.set_commit_ts(
          Timestamp::FromMicros(std::strtoll(ts_attr->value().c_str(),
                                             nullptr, 10)));
    }
  }
  bool merged = false;
  std::vector<std::pair<Xid, Timestamp>> forward_stamps;
  {
    const XmlNode* merged_attr = delta_root.FindAttribute("merged");
    merged = merged_attr != nullptr && merged_attr->value() == "1";
  }
  for (const auto& child : delta_root.children()) {
    if (!child->is_element()) continue;
    EditOp op;
    const std::string& tag = child->name();
    if (tag == "fstamp") {
      auto xid = GetIntAttr(*child, "xid");
      if (!xid.ok()) return xid.status();
      const XmlNode* new_ts = child->FindAttribute("new-ts");
      if (new_ts == nullptr) {
        return Status::Corruption("<fstamp> missing new-ts");
      }
      forward_stamps.emplace_back(
          static_cast<Xid>(*xid),
          Timestamp::FromMicros(
              std::strtoll(new_ts->value().c_str(), nullptr, 10)));
      continue;
    }
    if (tag == "stamp") {
      auto xid = GetIntAttr(*child, "xid");
      if (!xid.ok()) return xid.status();
      const XmlNode* old_ts = child->FindAttribute("old-ts");
      if (old_ts == nullptr) {
        return Status::Corruption("<stamp> missing old-ts");
      }
      script.AddRestamp(
          static_cast<Xid>(*xid),
          Timestamp::FromMicros(
              std::strtoll(old_ts->value().c_str(), nullptr, 10)));
      continue;
    }
    if (tag == "insert" || tag == "delete") {
      op.kind =
          tag == "insert" ? EditOp::Kind::kInsert : EditOp::Kind::kDelete;
      auto parent = GetIntAttr(*child, "parent");
      if (!parent.ok()) return parent.status();
      auto pos = GetIntAttr(*child, "pos");
      if (!pos.ok()) return pos.status();
      op.parent = static_cast<Xid>(*parent);
      op.pos = static_cast<uint32_t>(*pos);
      const XmlNode* content = child->FindChildElement("content");
      if (content != nullptr && content->child_count() == 1) {
        op.subtree = content->child(0)->Clone();
      }
      if (op.subtree == nullptr) {
        return Status::Corruption("insert/delete op without subtree");
      }
    } else if (tag == "update" || tag == "rename") {
      op.kind =
          tag == "update" ? EditOp::Kind::kUpdate : EditOp::Kind::kRename;
      auto xid = GetIntAttr(*child, "xid");
      if (!xid.ok()) return xid.status();
      op.target = static_cast<Xid>(*xid);
      op.old_value = GetStrAttr(*child, "old");
      op.new_value = GetStrAttr(*child, "new");
    } else if (tag == "move") {
      op.kind = EditOp::Kind::kMove;
      auto xid = GetIntAttr(*child, "xid");
      if (!xid.ok()) return xid.status();
      auto from_parent = GetIntAttr(*child, "from-parent");
      if (!from_parent.ok()) return from_parent.status();
      auto from_pos = GetIntAttr(*child, "from-pos");
      if (!from_pos.ok()) return from_pos.status();
      auto to_parent = GetIntAttr(*child, "to-parent");
      if (!to_parent.ok()) return to_parent.status();
      auto to_pos = GetIntAttr(*child, "to-pos");
      if (!to_pos.ok()) return to_pos.status();
      op.target = static_cast<Xid>(*xid);
      op.from_parent = static_cast<Xid>(*from_parent);
      op.from_pos = static_cast<uint32_t>(*from_pos);
      op.to_parent = static_cast<Xid>(*to_parent);
      op.to_pos = static_cast<uint32_t>(*to_pos);
    } else {
      return Status::Corruption("unknown delta op <" + tag + ">");
    }
    script.Add(std::move(op));
  }
  if (merged) {
    auto backward = std::move(script.restamps_);
    script.SetMergedStamps(std::move(backward), std::move(forward_stamps));
  } else if (!forward_stamps.empty()) {
    return Status::Corruption("<fstamp> in a non-merged delta");
  }
  return script;
}

void EditScript::EncodeTo(std::string* dst) const {
  PutVarintSigned64(dst, commit_ts_.micros());
  PutVarint64(dst, restamps_.size());
  for (const auto& [xid, old_ts] : restamps_) {
    PutVarint32(dst, xid);
    PutVarintSigned64(dst, old_ts.micros());
  }
  PutVarint64(dst, ops_.size());
  for (const EditOp& op : ops_) {
    PutVarint32(dst, static_cast<uint32_t>(op.kind));
    switch (op.kind) {
      case EditOp::Kind::kInsert:
      case EditOp::Kind::kDelete: {
        PutVarint32(dst, op.parent);
        PutVarint32(dst, op.pos);
        TXML_DCHECK(op.subtree != nullptr);
        EncodeNode(*op.subtree, dst);
        break;
      }
      case EditOp::Kind::kUpdate:
      case EditOp::Kind::kRename:
        PutVarint32(dst, op.target);
        PutLengthPrefixed(dst, op.old_value);
        PutLengthPrefixed(dst, op.new_value);
        break;
      case EditOp::Kind::kMove:
        PutVarint32(dst, op.target);
        PutVarint32(dst, op.from_parent);
        PutVarint32(dst, op.from_pos);
        PutVarint32(dst, op.to_parent);
        PutVarint32(dst, op.to_pos);
        break;
    }
  }
  // Trailing merged-stamps section, present only for merged scripts so
  // plain scripts keep the original byte layout (Decode distinguishes the
  // two via AtEnd).
  if (merged_) {
    PutVarint32(dst, 1);
    PutVarint64(dst, forward_stamps_.size());
    for (const auto& [xid, new_ts] : forward_stamps_) {
      PutVarint32(dst, xid);
      PutVarintSigned64(dst, new_ts.micros());
    }
  }
}

StatusOr<EditScript> EditScript::Decode(std::string_view data) {
  Decoder decoder(data);
  EditScript script;
  auto commit_ts = decoder.ReadVarintSigned64();
  if (!commit_ts.ok()) return commit_ts.status();
  script.set_commit_ts(Timestamp::FromMicros(*commit_ts));
  auto restamp_count = decoder.ReadVarint64();
  if (!restamp_count.ok()) return restamp_count.status();
  for (uint64_t i = 0; i < *restamp_count; ++i) {
    auto xid = decoder.ReadVarint32();
    if (!xid.ok()) return xid.status();
    auto old_ts = decoder.ReadVarintSigned64();
    if (!old_ts.ok()) return old_ts.status();
    script.AddRestamp(*xid, Timestamp::FromMicros(*old_ts));
  }
  auto count = decoder.ReadVarint64();
  if (!count.ok()) return count.status();
  for (uint64_t i = 0; i < *count; ++i) {
    auto kind_raw = decoder.ReadVarint32();
    if (!kind_raw.ok()) return kind_raw.status();
    if (*kind_raw > static_cast<uint32_t>(EditOp::Kind::kRename)) {
      return Status::Corruption("bad edit op kind");
    }
    EditOp op;
    op.kind = static_cast<EditOp::Kind>(*kind_raw);
    switch (op.kind) {
      case EditOp::Kind::kInsert:
      case EditOp::Kind::kDelete: {
        auto parent = decoder.ReadVarint32();
        if (!parent.ok()) return parent.status();
        auto pos = decoder.ReadVarint32();
        if (!pos.ok()) return pos.status();
        op.parent = *parent;
        op.pos = *pos;
        auto subtree = DecodeNode(&decoder);
        if (!subtree.ok()) return subtree.status();
        op.subtree = std::move(*subtree);
        break;
      }
      case EditOp::Kind::kUpdate:
      case EditOp::Kind::kRename: {
        auto target = decoder.ReadVarint32();
        if (!target.ok()) return target.status();
        auto old_value = decoder.ReadLengthPrefixed();
        if (!old_value.ok()) return old_value.status();
        auto new_value = decoder.ReadLengthPrefixed();
        if (!new_value.ok()) return new_value.status();
        op.target = *target;
        op.old_value = std::string(*old_value);
        op.new_value = std::string(*new_value);
        break;
      }
      case EditOp::Kind::kMove: {
        auto target = decoder.ReadVarint32();
        if (!target.ok()) return target.status();
        auto from_parent = decoder.ReadVarint32();
        if (!from_parent.ok()) return from_parent.status();
        auto from_pos = decoder.ReadVarint32();
        if (!from_pos.ok()) return from_pos.status();
        auto to_parent = decoder.ReadVarint32();
        if (!to_parent.ok()) return to_parent.status();
        auto to_pos = decoder.ReadVarint32();
        if (!to_pos.ok()) return to_pos.status();
        op.target = *target;
        op.from_parent = *from_parent;
        op.from_pos = *from_pos;
        op.to_parent = *to_parent;
        op.to_pos = *to_pos;
        break;
      }
    }
    script.Add(std::move(op));
  }
  if (!decoder.AtEnd()) {
    auto merged_flag = decoder.ReadVarint32();
    if (!merged_flag.ok()) return merged_flag.status();
    if (*merged_flag != 1) {
      return Status::Corruption("bad merged-stamps flag");
    }
    auto forward_count = decoder.ReadVarint64();
    if (!forward_count.ok()) return forward_count.status();
    std::vector<std::pair<Xid, Timestamp>> forward;
    for (uint64_t i = 0; i < *forward_count; ++i) {
      auto xid = decoder.ReadVarint32();
      if (!xid.ok()) return xid.status();
      auto new_ts = decoder.ReadVarintSigned64();
      if (!new_ts.ok()) return new_ts.status();
      forward.emplace_back(*xid, Timestamp::FromMicros(*new_ts));
    }
    auto backward = std::move(script.restamps_);
    script.SetMergedStamps(std::move(backward), std::move(forward));
  }
  if (!decoder.AtEnd()) {
    return Status::Corruption("trailing bytes after edit script");
  }
  return script;
}

}  // namespace txml
