#include "src/xml/node.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/xml/serializer.h"

namespace txml {

std::unique_ptr<XmlNode> XmlNode::Element(std::string name) {
  return std::unique_ptr<XmlNode>(
      new XmlNode(Kind::kElement, std::move(name), ""));
}

std::unique_ptr<XmlNode> XmlNode::Element(
    std::string name,
    std::initializer_list<std::pair<std::string_view, std::string>>
        attributes) {
  std::unique_ptr<XmlNode> element = Element(std::move(name));
  for (const auto& [attribute, value] : attributes) {
    element->AddChild(Attribute(std::string(attribute), value));
  }
  return element;
}

std::unique_ptr<XmlNode> XmlNode::Text(std::string value) {
  return std::unique_ptr<XmlNode>(
      new XmlNode(Kind::kText, "", std::move(value)));
}

std::unique_ptr<XmlNode> XmlNode::Attribute(std::string name,
                                            std::string value) {
  return std::unique_ptr<XmlNode>(
      new XmlNode(Kind::kAttribute, std::move(name), std::move(value)));
}

std::unique_ptr<XmlNode> XmlNode::Comment(std::string value) {
  return std::unique_ptr<XmlNode>(
      new XmlNode(Kind::kComment, "", std::move(value)));
}

XmlNode* XmlNode::AddChild(std::unique_ptr<XmlNode> child) {
  return InsertChild(children_.size(), std::move(child));
}

XmlNode* XmlNode::InsertChild(size_t pos, std::unique_ptr<XmlNode> child) {
  TXML_DCHECK(child != nullptr);
  TXML_DCHECK(kind_ == Kind::kElement);
  pos = std::min(pos, children_.size());
  child->parent_ = this;
  XmlNode* borrowed = child.get();
  children_.insert(children_.begin() + static_cast<ptrdiff_t>(pos),
                   std::move(child));
  return borrowed;
}

std::unique_ptr<XmlNode> XmlNode::RemoveChild(size_t pos) {
  TXML_DCHECK(pos < children_.size());
  std::unique_ptr<XmlNode> removed = std::move(children_[pos]);
  children_.erase(children_.begin() + static_cast<ptrdiff_t>(pos));
  removed->parent_ = nullptr;
  return removed;
}

size_t XmlNode::IndexOfChild(const XmlNode* child) const {
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == child) return i;
  }
  return children_.size();
}

XmlNode* XmlNode::FindChildElement(std::string_view name) {
  return const_cast<XmlNode*>(
      static_cast<const XmlNode*>(this)->FindChildElement(name));
}

const XmlNode* XmlNode::FindChildElement(std::string_view name) const {
  for (const auto& child : children_) {
    if (child->is_element() && child->name() == name) return child.get();
  }
  return nullptr;
}

const XmlNode* XmlNode::FindAttribute(std::string_view name) const {
  for (const auto& child : children_) {
    if (child->is_attribute() && child->name() == name) return child.get();
  }
  return nullptr;
}

std::unique_ptr<XmlNode> XmlNode::Clone() const {
  std::unique_ptr<XmlNode> copy(new XmlNode(kind_, name_, value_));
  copy->xid_ = xid_;
  copy->timestamp_ = timestamp_;
  copy->children_.reserve(children_.size());
  for (const auto& child : children_) {
    copy->AddChild(child->Clone());
  }
  return copy;
}

bool XmlNode::ShallowEquals(const XmlNode& other) const {
  return kind_ == other.kind_ && name_ == other.name_ &&
         value_ == other.value_;
}

bool XmlNode::ContentEquals(const XmlNode& other) const {
  if (!ShallowEquals(other)) return false;
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->ContentEquals(*other.children_[i])) return false;
  }
  return true;
}

std::string XmlNode::TextContent() const {
  std::string result;
  if (is_text() || is_attribute()) {
    result += value_;
  }
  for (const auto& child : children_) {
    result += child->TextContent();
  }
  return result;
}

size_t XmlNode::CountNodes() const {
  size_t count = 1;
  for (const auto& child : children_) {
    count += child->CountNodes();
  }
  return count;
}

XmlNode* XmlNode::FindByXid(Xid xid) {
  return const_cast<XmlNode*>(
      static_cast<const XmlNode*>(this)->FindByXid(xid));
}

const XmlNode* XmlNode::FindByXid(Xid xid) const {
  if (xid_ == xid) return this;
  for (const auto& child : children_) {
    if (const XmlNode* found = child->FindByXid(xid)) return found;
  }
  return nullptr;
}

std::string XmlNode::ToString() const { return SerializeXml(*this); }

}  // namespace txml
