#ifndef TXML_SRC_XML_NODE_H_
#define TXML_SRC_XML_NODE_H_

#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/timestamp.h"
#include "src/xml/ids.h"

namespace txml {

/// A node of an XML tree. The data model (paper Section 4) views documents
/// as trees whose every element carries a persistent XID and a timestamp
/// (time of the last update of the element or one of its children).
///
/// Attributes are modelled as child nodes of kind kAttribute, ordered before
/// all other children; this gives them XIDs and lets the diff/index layers
/// treat them uniformly. The serializer folds them back into the start tag.
///
/// Ownership: children are owned by their parent via unique_ptr; parent
/// pointers are non-owning back-references maintained by the mutation
/// methods.
class XmlNode {
 public:
  enum class Kind {
    kElement,
    kText,
    kAttribute,
    kComment,
  };

  static std::unique_ptr<XmlNode> Element(std::string name);
  /// An element carrying `attributes` as attribute children, in order.
  static std::unique_ptr<XmlNode> Element(
      std::string name,
      std::initializer_list<std::pair<std::string_view, std::string>>
          attributes);
  static std::unique_ptr<XmlNode> Text(std::string value);
  static std::unique_ptr<XmlNode> Attribute(std::string name,
                                            std::string value);
  static std::unique_ptr<XmlNode> Comment(std::string value);

  Kind kind() const { return kind_; }
  bool is_element() const { return kind_ == Kind::kElement; }
  bool is_text() const { return kind_ == Kind::kText; }
  bool is_attribute() const { return kind_ == Kind::kAttribute; }

  /// Element/attribute name; empty for text and comment nodes.
  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Text/attribute/comment content; empty for elements.
  const std::string& value() const { return value_; }
  void set_value(std::string value) { value_ = std::move(value); }

  Xid xid() const { return xid_; }
  void set_xid(Xid xid) { xid_ = xid; }

  /// Timestamp of the last update of this node or one of its descendants.
  Timestamp timestamp() const { return timestamp_; }
  void set_timestamp(Timestamp ts) { timestamp_ = ts; }

  XmlNode* parent() { return parent_; }
  const XmlNode* parent() const { return parent_; }

  size_t child_count() const { return children_.size(); }
  XmlNode* child(size_t i) { return children_[i].get(); }
  const XmlNode* child(size_t i) const { return children_[i].get(); }
  const std::vector<std::unique_ptr<XmlNode>>& children() const {
    return children_;
  }

  /// Appends a child; returns a borrowed pointer to it.
  XmlNode* AddChild(std::unique_ptr<XmlNode> child);

  /// Inserts a child at position pos (clamped to [0, child_count()]).
  XmlNode* InsertChild(size_t pos, std::unique_ptr<XmlNode> child);

  /// Detaches and returns the child at pos.
  std::unique_ptr<XmlNode> RemoveChild(size_t pos);

  /// Position of a direct child, or child_count() if not a child.
  size_t IndexOfChild(const XmlNode* child) const;

  /// First child element with the given name, or nullptr.
  XmlNode* FindChildElement(std::string_view name);
  const XmlNode* FindChildElement(std::string_view name) const;

  /// First attribute child with the given name, or nullptr.
  const XmlNode* FindAttribute(std::string_view name) const;

  /// Deep copy including XIDs and timestamps.
  std::unique_ptr<XmlNode> Clone() const;

  /// Content equality: kind, name, value and (recursively, in order) all
  /// children. Ignores XIDs and timestamps — this is the `=` deep-equality
  /// of Section 7.4, as opposed to `==` EID identity.
  bool ContentEquals(const XmlNode& other) const;

  /// Shallow content equality: kind, name, value only.
  bool ShallowEquals(const XmlNode& other) const;

  /// Concatenation of all descendant text and attribute values, in document
  /// order.
  std::string TextContent() const;

  /// Number of nodes in this subtree, including this node.
  size_t CountNodes() const;

  /// Searches the subtree for the node carrying `xid`; nullptr if absent.
  XmlNode* FindByXid(Xid xid);
  const XmlNode* FindByXid(Xid xid) const;

  /// Serialized form (compact); convenience wrapper over the serializer.
  std::string ToString() const;

 private:
  XmlNode(Kind kind, std::string name, std::string value)
      : kind_(kind), name_(std::move(name)), value_(std::move(value)) {}

  Kind kind_;
  std::string name_;
  std::string value_;
  Xid xid_ = kInvalidXid;
  Timestamp timestamp_;
  XmlNode* parent_ = nullptr;
  std::vector<std::unique_ptr<XmlNode>> children_;
};

/// An XML document: a named handle on a single tree. Move-only; deep copies
/// are explicit via Clone().
class XmlDocument {
 public:
  XmlDocument() = default;
  explicit XmlDocument(std::unique_ptr<XmlNode> root)
      : root_(std::move(root)) {}

  XmlDocument(XmlDocument&&) = default;
  XmlDocument& operator=(XmlDocument&&) = default;
  XmlDocument(const XmlDocument&) = delete;
  XmlDocument& operator=(const XmlDocument&) = delete;

  bool empty() const { return root_ == nullptr; }
  XmlNode* root() { return root_.get(); }
  const XmlNode* root() const { return root_.get(); }

  std::unique_ptr<XmlNode> ReleaseRoot() { return std::move(root_); }
  void SetRoot(std::unique_ptr<XmlNode> root) { root_ = std::move(root); }

  XmlDocument Clone() const {
    return XmlDocument(root_ ? root_->Clone() : nullptr);
  }

  bool ContentEquals(const XmlDocument& other) const {
    if (empty() || other.empty()) return empty() == other.empty();
    return root_->ContentEquals(*other.root_);
  }

  std::string ToString() const { return root_ ? root_->ToString() : ""; }

 private:
  std::unique_ptr<XmlNode> root_;
};

}  // namespace txml

#endif  // TXML_SRC_XML_NODE_H_
