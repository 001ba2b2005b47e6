#include "src/workload/tdocgen.h"

#include <utility>

#include "src/util/logging.h"

namespace txml {
namespace {

const char* const kFieldNames[] = {"name", "info", "price", "status",
                                   "note"};
constexpr size_t kFieldNameCount = 5;

}  // namespace

TDocGen::TDocGen(TDocGenOptions options)
    : options_(options),
      rng_(options.seed),
      zipf_(options.vocabulary, options.zipf_theta) {
  vocabulary_.reserve(options_.vocabulary);
  for (size_t i = 0; i < options_.vocabulary; ++i) {
    // Deterministic pronounceable-ish words: w<i> with letter suffix mix.
    std::string word = "w";
    uint64_t n = i;
    do {
      word.push_back(static_cast<char>('a' + n % 26));
      n /= 26;
    } while (n > 0);
    word += std::to_string(i);
    vocabulary_.push_back(std::move(word));
  }
}

const std::string& TDocGen::RandomWord() {
  return vocabulary_[zipf_.Sample(&rng_)];
}

std::string TDocGen::MakeText() {
  std::string text;
  for (size_t i = 0; i < options_.words_per_text; ++i) {
    if (i > 0) text += " ";
    text += RandomWord();
  }
  return text;
}

std::unique_ptr<XmlNode> TDocGen::MakeItem() {
  auto item = XmlNode::Element("item");
  std::string key = "k";
  key += std::to_string(next_key_++);
  item->AddChild(XmlNode::Attribute("key", std::move(key)));
  size_t fields = 2 + rng_.Uniform(3);
  for (size_t f = 0; f < fields && f < kFieldNameCount; ++f) {
    XmlNode* field = item->AddChild(XmlNode::Element(kFieldNames[f]));
    if (std::string(kFieldNames[f]) == "price") {
      field->AddChild(XmlNode::Text(std::to_string(5 + rng_.Uniform(95))));
    } else {
      field->AddChild(XmlNode::Text(MakeText()));
    }
  }
  return item;
}

std::unique_ptr<XmlNode> TDocGen::InitialDocument() {
  auto root = XmlNode::Element("collection");
  for (size_t i = 0; i < options_.initial_items; ++i) {
    root->AddChild(MakeItem());
  }
  return root;
}

void TDocGen::StripXids(XmlNode* node) {
  node->set_xid(kInvalidXid);
  for (size_t i = 0; i < node->child_count(); ++i) {
    StripXids(node->child(i));
  }
}

std::unique_ptr<XmlNode> TDocGen::NextVersion(const XmlNode& current) {
  std::unique_ptr<XmlNode> next = current.Clone();
  StripXids(next.get());

  for (size_t m = 0; m < options_.mutations_per_version; ++m) {
    // Re-collect items each round (inserts/deletes change the set).
    std::vector<XmlNode*> items;
    for (size_t i = 0; i < next->child_count(); ++i) {
      if (next->child(i)->is_element()) items.push_back(next->child(i));
    }
    double roll = rng_.NextDouble();
    if (roll < options_.update_ratio && !items.empty()) {
      // Update one field's text of a random item.
      XmlNode* item = items[rng_.Uniform(items.size())];
      std::vector<XmlNode*> leaves;
      for (size_t i = 0; i < item->child_count(); ++i) {
        XmlNode* field = item->child(i);
        if (field->is_element() && field->child_count() == 1 &&
            field->child(0)->is_text()) {
          leaves.push_back(field->child(0));
        }
      }
      if (!leaves.empty()) {
        leaves[rng_.Uniform(leaves.size())]->set_value(MakeText());
      }
    } else if (roll < options_.update_ratio + options_.insert_ratio) {
      next->InsertChild(rng_.Uniform(next->child_count() + 1), MakeItem());
    } else if (roll < options_.update_ratio + options_.insert_ratio +
                          options_.delete_ratio) {
      if (items.size() > 1) {
        XmlNode* victim = items[rng_.Uniform(items.size())];
        next->RemoveChild(next->IndexOfChild(victim));
      }
    } else if (items.size() > 1) {
      // Move an item to a different position (sibling reorder).
      XmlNode* victim = items[rng_.Uniform(items.size())];
      auto detached = next->RemoveChild(next->IndexOfChild(victim));
      next->InsertChild(rng_.Uniform(next->child_count() + 1),
                        std::move(detached));
    }
  }
  return next;
}

}  // namespace txml
