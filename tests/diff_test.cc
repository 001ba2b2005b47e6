#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "src/diff/diff.h"
#include "src/diff/edit_script.h"
#include "src/diff/matcher.h"
#include "src/util/random.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"
#include "tests/testutil.h"

namespace txml {
namespace {

std::unique_ptr<XmlNode> Parse(const std::string& text) {
  auto doc = ParseXml(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc->ReleaseRoot();
}

/// Prepares a "version 1" tree: parses, assigns fresh XIDs and stamps.
std::unique_ptr<XmlNode> ParseV1(const std::string& text,
                                 XidAllocator* alloc) {
  auto root = Parse(text);
  AssignFreshXids(root.get(), alloc);
  StampAll(root.get(), Timestamp::FromDate(2001, 1, 1));
  return root;
}

/// Applies `script` to `root` forward through a fresh XID index over the
/// tree; `alloc` has handed out every XID the script names.
Status Forward(const EditScript& script, XmlNode* root,
               const XidAllocator& alloc) {
  XidIndex index(alloc.next());
  Status indexed = index.Add(root);
  if (!indexed.ok()) return indexed;
  return script.ApplyForward(root, &index);
}

/// The backward counterpart of Forward().
Status Backward(const EditScript& script, XmlNode* root,
                const XidAllocator& alloc) {
  XidIndex index(alloc.next());
  Status indexed = index.Add(root);
  if (!indexed.ok()) return indexed;
  return script.ApplyBackward(root, &index);
}

TEST(MatcherTest, IdenticalTreesFullyMatch) {
  auto a = Parse("<g><r><name>Napoli</name></r></g>");
  auto b = Parse("<g><r><name>Napoli</name></r></g>");
  NodeMatching m = MatchTrees(*a, *b);
  EXPECT_EQ(m.size(), a->CountNodes());
  EXPECT_EQ(m.NewFor(a.get()), b.get());
}

TEST(MatcherTest, TextEditKeepsElementMatched) {
  auto a = Parse("<g><r><name>Napoli</name><price>15</price></r></g>");
  auto b = Parse("<g><r><name>Napoli</name><price>18</price></r></g>");
  NodeMatching m = MatchTrees(*a, *b);
  const XmlNode* old_price =
      a->FindChildElement("r")->FindChildElement("price");
  const XmlNode* new_price =
      b->FindChildElement("r")->FindChildElement("price");
  EXPECT_EQ(m.NewFor(old_price), new_price);
  // The text nodes are matched too (value update, not delete+insert).
  EXPECT_EQ(m.NewFor(old_price->child(0)), new_price->child(0));
}

TEST(MatcherTest, MovedSubtreeIsMatchedNotCopied) {
  auto a = Parse("<g><x><r><name>Napoli</name><price>15</price></r></x><y/></g>");
  auto b = Parse("<g><x/><y><r><name>Napoli</name><price>15</price></r></y></g>");
  NodeMatching m = MatchTrees(*a, *b);
  const XmlNode* old_r = a->FindChildElement("x")->FindChildElement("r");
  const XmlNode* new_r = b->FindChildElement("y")->FindChildElement("r");
  EXPECT_EQ(m.NewFor(old_r), new_r);
}

TEST(MatcherTest, UnrelatedContentUnmatched) {
  auto a = Parse("<g><r>alpha</r></g>");
  auto b = Parse("<g><z>omega</z></g>");
  NodeMatching m = MatchTrees(*a, *b);
  EXPECT_EQ(m.NewFor(a.get()), b.get());  // roots force-matched
  EXPECT_FALSE(m.OldMatched(a->child(0)));
  EXPECT_FALSE(m.NewMatched(b->child(0)));
}

TEST(MatcherTest, SubtreeHashDiscriminates) {
  auto a = Parse("<r><name>Napoli</name></r>");
  auto b = Parse("<r><name>Napoli</name></r>");
  auto c = Parse("<r><name>Akropolis</name></r>");
  EXPECT_EQ(SubtreeHash(*a), SubtreeHash(*b));
  EXPECT_NE(SubtreeHash(*a), SubtreeHash(*c));
}

struct DiffCase {
  const char* name;
  const char* old_xml;
  const char* new_xml;
};

// gtest would print a DiffCase as its raw bytes (string addresses), which
// would put the binary's layout into every ctest name: print the name.
void PrintTo(const DiffCase& c, std::ostream* os) { *os << c.name; }

class DiffScriptTest : public ::testing::TestWithParam<DiffCase> {};

TEST_P(DiffScriptTest, ForwardAndBackwardRoundTrip) {
  const DiffCase& c = GetParam();
  XidAllocator alloc;
  auto old_root = ParseV1(c.old_xml, &alloc);
  auto new_root = Parse(c.new_xml);
  auto old_copy = old_root->Clone();

  auto result = DiffTrees(*old_root, new_root.get(), &alloc,
                          Timestamp::FromDate(2001, 1, 15));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Forward: old + delta == new.
  auto forward = old_root->Clone();
  ASSERT_TRUE(Forward(result->script, forward.get(), alloc).ok());
  EXPECT_TRUE(forward->ContentEquals(*new_root))
      << "forward produced " << forward->ToString();

  // Backward: new - delta == old (the completed-delta property).
  auto backward = new_root->Clone();
  ASSERT_TRUE(Backward(result->script, backward.get(), alloc).ok());
  EXPECT_TRUE(backward->ContentEquals(*old_copy))
      << "backward produced " << backward->ToString();
}

TEST_P(DiffScriptTest, BinaryAndXmlRepresentationsRoundTrip) {
  const DiffCase& c = GetParam();
  XidAllocator alloc;
  auto old_root = ParseV1(c.old_xml, &alloc);
  auto new_root = Parse(c.new_xml);
  auto result = DiffTrees(*old_root, new_root.get(), &alloc,
                          Timestamp::FromDate(2001, 1, 15));
  ASSERT_TRUE(result.ok());

  // Binary round trip.
  std::string encoded;
  result->script.EncodeTo(&encoded);
  auto decoded = EditScript::Decode(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto forward = old_root->Clone();
  ASSERT_TRUE(Forward(*decoded, forward.get(), alloc).ok());
  EXPECT_TRUE(forward->ContentEquals(*new_root));

  // XML round trip (the closure property: deltas are XML documents).
  XmlDocument as_xml = result->script.ToXml();
  EXPECT_EQ(as_xml.root()->name(), "delta");
  auto from_xml = EditScript::FromXml(*as_xml.root());
  ASSERT_TRUE(from_xml.ok()) << from_xml.status().ToString();
  auto forward2 = old_root->Clone();
  ASSERT_TRUE(Forward(*from_xml, forward2.get(), alloc).ok());
  EXPECT_TRUE(forward2->ContentEquals(*new_root));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DiffScriptTest,
    ::testing::Values(
        DiffCase{"identical", "<g><r>x</r></g>", "<g><r>x</r></g>"},
        DiffCase{"text_update",
                 "<g><r><price>15</price></r></g>",
                 "<g><r><price>18</price></r></g>"},
        DiffCase{"insert_subtree",
                 "<g><r><name>Napoli</name></r></g>",
                 "<g><r><name>Napoli</name></r>"
                 "<r><name>Akropolis</name><price>13</price></r></g>"},
        DiffCase{"delete_subtree",
                 "<g><r><name>Napoli</name></r>"
                 "<r><name>Akropolis</name></r></g>",
                 "<g><r><name>Napoli</name></r></g>"},
        DiffCase{"move_between_parents",
                 "<g><x><r><name>Napoli</name></r></x><y/></g>",
                 "<g><x/><y><r><name>Napoli</name></r></y></g>"},
        DiffCase{"reorder_siblings",
                 "<g><a>1</a><b>2</b><c>3</c></g>",
                 "<g><c>3</c><a>1</a><b>2</b></g>"},
        DiffCase{"attribute_update",
                 "<g><r rating=\"3\">x</r></g>",
                 "<g><r rating=\"5\">x</r></g>"},
        DiffCase{"attribute_add_remove",
                 "<g><r a=\"1\">x</r></g>",
                 "<g><r b=\"2\">x</r></g>"},
        DiffCase{"root_rename", "<guide><r>x</r></guide>",
                 "<list><r>x</r></list>"},
        DiffCase{"mixed_everything",
                 "<g><r><name>Napoli</name><price>15</price></r>"
                 "<r><name>Akropolis</name><price>13</price></r></g>",
                 "<g><r><name>Napoli</name><price>18</price>"
                 "<rating>4</rating></r><hotel><name>Ritz</name></hotel></g>"},
        DiffCase{"wrapper_inserted_around_existing",
                 "<g><r><name>Napoli</name></r></g>",
                 "<g><section><r><name>Napoli</name></r></section></g>"},
        DiffCase{"wrapper_removed",
                 "<g><section><r><name>Napoli</name></r></section></g>",
                 "<g><r><name>Napoli</name></r></g>"},
        DiffCase{"everything_replaced", "<g><a>1</a><b>2</b></g>",
                 "<g><c>3</c><d>4</d></g>"}),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      return info.param.name;
    });

TEST(DiffTest, XidsPersistAcrossVersions) {
  XidAllocator alloc;
  auto v1 = ParseV1(
      "<g><r><name>Napoli</name><price>15</price></r></g>", &alloc);
  auto v2 = Parse("<g><r><name>Napoli</name><price>18</price></r></g>");
  auto result = DiffTrees(*v1, v2.get(), &alloc,
                          Timestamp::FromDate(2001, 1, 31));
  ASSERT_TRUE(result.ok());
  // The restaurant element (and its name) keep their XIDs; identity
  // persists across the update (Section 3.2).
  const XmlNode* old_r = v1->FindChildElement("r");
  const XmlNode* new_r = v2->FindChildElement("r");
  EXPECT_EQ(old_r->xid(), new_r->xid());
  EXPECT_EQ(old_r->FindChildElement("name")->xid(),
            new_r->FindChildElement("name")->xid());
  EXPECT_EQ(old_r->FindChildElement("price")->xid(),
            new_r->FindChildElement("price")->xid());
}

TEST(DiffTest, NewElementsGetFreshXids) {
  XidAllocator alloc;
  auto v1 = ParseV1("<g><r><name>Napoli</name></r></g>", &alloc);
  Xid max_v1 = alloc.next() - 1;
  auto v2 = Parse(
      "<g><r><name>Napoli</name></r><r><name>Akropolis</name></r></g>");
  auto result = DiffTrees(*v1, v2.get(), &alloc,
                          Timestamp::FromDate(2001, 1, 15));
  ASSERT_TRUE(result.ok());
  const XmlNode* added = v2->child(1);
  EXPECT_GT(added->xid(), max_v1);
  // Every node has an XID.
  std::vector<const XmlNode*> stack = {v2.get()};
  while (!stack.empty()) {
    const XmlNode* n = stack.back();
    stack.pop_back();
    EXPECT_NE(n->xid(), kInvalidXid);
    for (const auto& child : n->children()) stack.push_back(child.get());
  }
}

TEST(DiffTest, ReinsertedElementGetsNewXid) {
  // The Section 7.4 caveat: deleting an entry and re-adding identical
  // content yields a *new* EID.
  XidAllocator alloc;
  auto v1 = ParseV1(
      "<g><r><name>Napoli</name></r><r><name>Akropolis</name></r></g>",
      &alloc);
  Xid akropolis_xid = v1->child(1)->xid();

  auto v2 = Parse("<g><r><name>Napoli</name></r></g>");
  auto r2 = DiffTrees(*v1, v2.get(), &alloc, Timestamp::FromDate(2001, 1, 2));
  ASSERT_TRUE(r2.ok());

  auto v3 = Parse(
      "<g><r><name>Napoli</name></r><r><name>Akropolis</name></r></g>");
  auto r3 = DiffTrees(*v2, v3.get(), &alloc, Timestamp::FromDate(2001, 1, 3));
  ASSERT_TRUE(r3.ok());
  EXPECT_NE(v3->child(1)->xid(), akropolis_xid);
}

TEST(DiffTest, TimestampPropagation) {
  Timestamp t1 = Timestamp::FromDate(2001, 1, 1);
  Timestamp t2 = Timestamp::FromDate(2001, 1, 31);
  XidAllocator alloc;
  auto v1 = ParseV1(
      "<g><r><name>Napoli</name><price>15</price></r>"
      "<r><name>Akropolis</name><price>13</price></r></g>", &alloc);
  auto v2 = Parse(
      "<g><r><name>Napoli</name><price>18</price></r>"
      "<r><name>Akropolis</name><price>13</price></r></g>");
  auto result = DiffTrees(*v1, v2.get(), &alloc, t2);
  ASSERT_TRUE(result.ok());

  const XmlNode* napoli = v2->child(0);
  const XmlNode* akropolis = v2->child(1);
  // Updated price and its ancestors carry the new stamp...
  EXPECT_EQ(napoli->FindChildElement("price")->timestamp(), t2);
  EXPECT_EQ(napoli->timestamp(), t2);
  EXPECT_EQ(v2->timestamp(), t2);  // root always touched
  // ...but untouched elements keep their original stamp.
  EXPECT_EQ(akropolis->timestamp(), t1);
  EXPECT_EQ(akropolis->FindChildElement("price")->timestamp(), t1);
  EXPECT_EQ(napoli->FindChildElement("name")->timestamp(), t1);
}

TEST(DiffTest, BackwardApplicationRestoresTimestamps) {
  Timestamp t1 = Timestamp::FromDate(2001, 1, 1);
  Timestamp t2 = Timestamp::FromDate(2001, 1, 31);
  XidAllocator alloc;
  auto v1 = ParseV1("<g><r><price>15</price></r></g>", &alloc);
  auto v2 = Parse("<g><r><price>18</price></r></g>");
  auto result = DiffTrees(*v1, v2.get(), &alloc, t2);
  ASSERT_TRUE(result.ok());

  auto back = v2->Clone();
  ASSERT_TRUE(Backward(result->script, back.get(), alloc).ok());
  EXPECT_EQ(back->timestamp(), t1);
  EXPECT_EQ(back->FindChildElement("r")->timestamp(), t1);

  auto fwd = back->Clone();
  ASSERT_TRUE(Forward(result->script, fwd.get(), alloc).ok());
  EXPECT_EQ(fwd->FindChildElement("r")->timestamp(), t2);
}

TEST(DiffTest, ApplyRejectsCorruptScripts) {
  XidAllocator alloc;
  auto v1 = ParseV1("<g><r>x</r></g>", &alloc);
  EditScript script;
  EditOp op;
  op.kind = EditOp::Kind::kUpdate;
  op.target = 999;  // no such xid
  script.Add(std::move(op));
  EXPECT_TRUE(Forward(script, v1.get(), alloc).IsCorruption());

  EditScript script2;
  EditOp op2;
  op2.kind = EditOp::Kind::kInsert;
  op2.parent = v1->xid();
  op2.pos = 57;  // out of range
  op2.subtree = XmlNode::Text("x");
  op2.subtree->set_xid(alloc.Allocate());
  script2.Add(std::move(op2));
  EXPECT_TRUE(Forward(script2, v1.get(), alloc).IsCorruption());
}

TEST(DiffTest, UpdateIntegrityCheck) {
  XidAllocator alloc;
  auto v1 = ParseV1("<g><p>15</p></g>", &alloc);
  EditScript script;
  EditOp op;
  op.kind = EditOp::Kind::kUpdate;
  op.target = v1->child(0)->child(0)->xid();
  op.old_value = "999";  // does not match current value
  op.new_value = "18";
  script.Add(std::move(op));
  EXPECT_TRUE(Forward(script, v1.get(), alloc).IsCorruption());
}

TEST(DiffTest, EmptyDiffForIdenticalVersions) {
  XidAllocator alloc;
  auto v1 = ParseV1("<g><r><name>Napoli</name></r></g>", &alloc);
  auto v2 = Parse("<g><r><name>Napoli</name></r></g>");
  auto result = DiffTrees(*v1, v2.get(), &alloc,
                          Timestamp::FromDate(2001, 2, 1));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->script.ops().empty());
  EXPECT_TRUE(result->script.restamps().empty());
}

/// Property sweep: random trees + random mutations; diff must reproduce the
/// new version forward and the old version backward, through the binary
/// codec as well.
class DiffPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DiffPropertyTest, RandomisedRoundTrip) {
  auto [seed, tree_size, mutations] = GetParam();
  Random rng(static_cast<uint64_t>(seed));
  XidAllocator alloc;

  auto old_root = testing::RandomTree(&rng, static_cast<size_t>(tree_size));
  AssignFreshXids(old_root.get(), &alloc);
  StampAll(old_root.get(), Timestamp::FromDate(2001, 1, 1));

  auto new_root = old_root->Clone();
  testing::MutateTree(&rng, new_root.get(), static_cast<size_t>(mutations));
  // Fresh XIDs are decided by the differ, not inherited from the clone.
  std::vector<XmlNode*> stack = {new_root.get()};
  while (!stack.empty()) {
    XmlNode* n = stack.back();
    stack.pop_back();
    n->set_xid(kInvalidXid);
    for (size_t i = 0; i < n->child_count(); ++i) stack.push_back(n->child(i));
  }

  auto old_copy = old_root->Clone();
  auto result = DiffTrees(*old_root, new_root.get(), &alloc,
                          Timestamp::FromDate(2001, 1, 15));
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::string encoded;
  result->script.EncodeTo(&encoded);
  auto script = EditScript::Decode(encoded);
  ASSERT_TRUE(script.ok());

  auto forward = old_root->Clone();
  ASSERT_TRUE(Forward(*script, forward.get(), alloc).ok());
  EXPECT_TRUE(forward->ContentEquals(*new_root));

  auto backward = new_root->Clone();
  ASSERT_TRUE(Backward(*script, backward.get(), alloc).ok());
  EXPECT_TRUE(backward->ContentEquals(*old_copy));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiffPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values(10, 60, 250),
                       ::testing::Values(1, 8, 40)));

}  // namespace
}  // namespace txml
