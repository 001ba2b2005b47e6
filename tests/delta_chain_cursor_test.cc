// Oracle and corruption tests for DeltaChainCursor
// (src/storage/delta_chain_cursor.h), the one walker of a document's delta
// chain. At every retained version, a cursor stepped backward from the
// current version, a cursor stepped forward from first_retained() and
// ReconstructVersion must each reproduce, byte for byte, the encoding of
// current() recorded just after that version was appended — XIDs and
// timestamps included — and the cursor's XID index must index exactly the
// nodes of its tree. Hand-corrupted deltas, delivered through a decoded
// document image as a re-seed would deliver them, must return Corruption,
// poison the cursor, and never make the index allocate for a forged XID.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/storage/delta_chain_cursor.h"
#include "src/storage/vacuum.h"
#include "src/storage/versioned_document.h"
#include "src/util/coding.h"
#include "src/workload/tdocgen.h"
#include "src/xml/codec.h"

namespace txml {
namespace {

// Bytes requested from operator new while `g_counting` is set.
std::atomic<bool> g_counting{false};
std::atomic<size_t> g_counted_bytes{0};

}  // namespace
}  // namespace txml

// The replacement allocator goes through out-of-line helpers so GCC does
// not pair the inlined new/delete of the test harness with malloc/free.
[[gnu::noinline]] void* CountedAlloc(std::size_t size) {
  if (txml::g_counting.load(std::memory_order_relaxed)) {
    txml::g_counted_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
[[gnu::noinline]] void CountedFree(void* p) { std::free(p); }

void* operator new(std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }

namespace txml {
namespace {

constexpr int kVersions = 40;

Timestamp Day(int d) {
  return Timestamp::FromDate(2001, 1, 1).AddMicros(int64_t{d} * 86400000000);
}

/// A seeded TDocGen history and the encoding of current() recorded just
/// after each append (encoded[v] for version v; encoded[0] unused).
struct History {
  std::unique_ptr<VersionedDocument> doc;
  std::vector<std::string> encoded;
};

History BuildHistory(uint64_t seed, uint32_t snapshot_every) {
  TDocGenOptions options;
  options.initial_items = 12;
  options.vocabulary = 60;
  options.mutations_per_version = 4;
  options.seed = seed;
  TDocGen gen(options);
  History history;
  history.doc = std::make_unique<VersionedDocument>(1, "u", snapshot_every);
  history.encoded.emplace_back();
  for (int v = 1; v <= kVersions; ++v) {
    std::unique_ptr<XmlNode> content =
        v == 1 ? gen.InitialDocument()
               : gen.NextVersion(*history.doc->current());
    // Every fifth version renames the root, so kRename ops are covered.
    if (v % 5 == 0) content->set_name(v % 10 == 0 ? "collection" : "catalog");
    auto appended = history.doc->AppendVersion(std::move(content), Day(v));
    EXPECT_TRUE(appended.ok()) << appended.status().ToString();
    history.encoded.push_back(EncodeNodeToString(*history.doc->current()));
  }
  return history;
}

/// The op kinds the document's retained transitions use.
std::set<EditOp::Kind> OpKinds(const VersionedDocument& doc) {
  std::set<EditOp::Kind> kinds;
  for (VersionNum v = doc.first_retained(); v < doc.version_count();
       v = doc.NextRetained(v)) {
    for (const EditOp& op : doc.RetainedTransition(v).ops()) {
      kinds.insert(op.kind);
    }
  }
  return kinds;
}

void CollectXids(const XmlNode& node, std::map<Xid, const XmlNode*>* out) {
  (*out)[node.xid()] = &node;
  for (const auto& child : node.children()) CollectXids(*child, out);
}

/// The cursor's index holds exactly the nodes of its tree.
void ExpectIndexExact(const DeltaChainCursor& cursor, Xid next_xid) {
  std::map<Xid, const XmlNode*> nodes;
  CollectXids(cursor.tree(), &nodes);
  for (Xid xid = 0; xid < next_xid; ++xid) {
    auto it = nodes.find(xid);
    ASSERT_EQ(cursor.Find(xid), it == nodes.end() ? nullptr : it->second)
        << "xid " << xid << " at version " << cursor.version();
  }
  EXPECT_EQ(cursor.Find(next_xid), nullptr);
}

TEST(DeltaChainCursorHistoryTest, HistoriesCoverEveryOpKind) {
  for (uint64_t seed : {1, 2, 3}) {
    History history = BuildHistory(seed, /*snapshot_every=*/0);
    EXPECT_EQ(OpKinds(*history.doc),
              (std::set<EditOp::Kind>{
                  EditOp::Kind::kInsert, EditOp::Kind::kDelete,
                  EditOp::Kind::kUpdate, EditOp::Kind::kMove,
                  EditOp::Kind::kRename}))
        << "seed " << seed;
  }
}

TEST(DeltaChainCursorHistoryTest, XidsBelowTheDenseSlotsWalkExactly) {
  // Every version replaces all items with new ones, so next_xid() outgrows
  // the tree and the index keeps most XIDs a walk meets (the root's, and
  // every item of an older version) in its hash map, not its dense slots.
  VersionedDocument doc(1, "u", /*snapshot_every=*/0);
  std::vector<std::string> encoded(1);
  for (int v = 1; v <= kVersions; ++v) {
    auto root = XmlNode::Element("catalog");
    for (int i = 0; i < 30; ++i) {
      std::string name = "item";
      name += std::to_string(v);
      std::string text = name;
      text += '_';
      text += std::to_string(i);
      root->AddChild(XmlNode::Element(name))->AddChild(XmlNode::Text(text));
    }
    ASSERT_TRUE(doc.AppendVersion(std::move(root), Day(v)).ok());
    encoded.push_back(EncodeNodeToString(*doc.current()));
  }
  ASSERT_GT(doc.next_xid(),
            XidIndex::kDenseFloor +
                XidIndex::kDensePerNode * doc.current()->CountNodes());
  const VersionNum last = doc.version_count();
  auto cursor = DeltaChainCursor::Open(doc, last);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  for (VersionNum v = last; v >= 1; --v) {
    if (v < last) {
      ASSERT_TRUE(cursor->StepBackward().ok()) << v;
    }
    ASSERT_EQ(cursor->version(), v);
    EXPECT_EQ(EncodeNodeToString(cursor->tree()), encoded[v]);
    ExpectIndexExact(*cursor, doc.next_xid());
  }
  for (VersionNum v = 2; v <= last; ++v) {
    ASSERT_TRUE(cursor->StepForward().ok()) << v;
    EXPECT_EQ(EncodeNodeToString(cursor->tree()), encoded[v]);
    ExpectIndexExact(*cursor, doc.next_xid());
  }
}

enum class Shape { kPlain, kVacuumed };

void PrintTo(Shape shape, std::ostream* os) {
  *os << (shape == Shape::kVacuumed ? "vacuumed" : "plain");
}

class DeltaChainCursorOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t, Shape>> {
 protected:
  void SetUp() override {
    auto [seed, snapshot_every, shape] = GetParam();
    history_ = BuildHistory(seed, snapshot_every);
    if (shape == Shape::kVacuumed) {
      RetentionPolicy policy;
      policy.drop_before = Day(6);
      policy.coarsen_older_than = Day(24);
      policy.keep_every = 3;
      auto outcome = history_.doc->Vacuum(policy);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ASSERT_TRUE(outcome->changed);
      ASSERT_GT(history_.doc->first_retained(), 1u);
      ASSERT_GT(history_.doc->dense_floor(), history_.doc->first_retained());
    }
  }

  std::vector<VersionNum> Retained() const {
    std::vector<VersionNum> retained;
    for (VersionNum v = doc().first_retained(); v != 0;
         v = doc().NextRetained(v)) {
      retained.push_back(v);
    }
    return retained;
  }

  const VersionedDocument& doc() const { return *history_.doc; }

  History history_;
};

TEST_P(DeltaChainCursorOracleTest, StepBackwardFromCurrentMatchesAppends) {
  auto cursor = DeltaChainCursor::Open(doc(), doc().version_count());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<VersionNum> retained = Retained();
  for (auto it = retained.rbegin(); it != retained.rend(); ++it) {
    ASSERT_EQ(cursor->version(), *it);
    EXPECT_EQ(EncodeNodeToString(cursor->tree()), history_.encoded[*it])
        << "version " << *it;
    ExpectIndexExact(*cursor, doc().next_xid());
    if (*it == doc().first_retained()) break;
    ASSERT_TRUE(cursor->StepBackward().ok());
  }
  // Past the first retained version there is nowhere to go, and the cursor
  // is not poisoned by asking.
  EXPECT_EQ(cursor->StepBackward().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(cursor->status().ok());
}

TEST_P(DeltaChainCursorOracleTest, StepForwardFromFirstRetainedMatchesAppends) {
  auto cursor = DeltaChainCursor::Open(doc(), doc().first_retained());
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  for (VersionNum v : Retained()) {
    if (v != doc().first_retained()) {
      ASSERT_TRUE(cursor->StepForward().ok());
    }
    ASSERT_EQ(cursor->version(), v);
    EXPECT_EQ(EncodeNodeToString(cursor->tree()), history_.encoded[v])
        << "version " << v;
    ExpectIndexExact(*cursor, doc().next_xid());
  }
  EXPECT_EQ(cursor->StepForward().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(cursor->status().ok());

  // ForEachRetainedVersion is the same walk.
  std::vector<VersionNum> visited;
  ASSERT_TRUE(ForEachRetainedVersion(doc(), [&](const DeltaChainCursor& c) {
                EXPECT_EQ(EncodeNodeToString(c.tree()),
                          history_.encoded[c.version()]);
                visited.push_back(c.version());
                return Status::OK();
              }).ok());
  EXPECT_EQ(visited, Retained());
}

TEST_P(DeltaChainCursorOracleTest, ReconstructVersionMatchesAppends) {
  for (VersionNum v : Retained()) {
    VersionedDocument::ReconstructStats stats;
    auto tree = doc().ReconstructVersion(v, &stats);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_EQ(EncodeNodeToString(**tree), history_.encoded[v])
        << "version " << v;
  }
  // Every version opens at the retained version that presents it.
  for (VersionNum v = doc().first_retained(); v <= doc().version_count();
       ++v) {
    auto cursor = DeltaChainCursor::Open(doc(), v);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    EXPECT_EQ(cursor->version(), doc().SnapToRetained(v));
  }
  if (doc().first_retained() > 1) {
    EXPECT_EQ(DeltaChainCursor::Open(doc(), 1).status().code(),
              StatusCode::kNotFound);
  }
  EXPECT_EQ(DeltaChainCursor::Open(doc(), 0).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      DeltaChainCursor::Open(doc(), doc().version_count() + 1).status().code(),
      StatusCode::kOutOfRange);
}

INSTANTIATE_TEST_SUITE_P(
    Histories, DeltaChainCursorOracleTest,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}),
                       ::testing::Values(0u, 4u),
                       ::testing::Values(Shape::kPlain, Shape::kVacuumed)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_every" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) == Shape::kVacuumed ? "_vacuumed"
                                                          : "_plain");
    });

// ------------------------------------------------------------ corruption

/// The snapshot version whose outgoing transition the corruption tests
/// forge (snapshot_every = 4, so the cursor can start on either side of it
/// without crossing it).
constexpr VersionNum kForged = 4;

/// `doc`'s encoded image with the transition from `from` replaced by
/// `replacement`, decoded the way a re-seed install decodes an image.
std::unique_ptr<VersionedDocument> WithDelta(const VersionedDocument& doc,
                                             VersionNum from,
                                             const EditScript& replacement) {
  std::string image;
  doc.EncodeTo(&image);
  // Walk the header in VersionedDocument::EncodeTo order to the deltas.
  Decoder decoder(image);
  EXPECT_TRUE(decoder.ReadVarint32().ok());        // doc id
  EXPECT_TRUE(decoder.ReadLengthPrefixed().ok());  // url
  EXPECT_TRUE(decoder.ReadVarint32().ok());        // snapshot_every
  EXPECT_TRUE(decoder.ReadVarint32().ok());        // next xid
  EXPECT_TRUE(decoder.ReadVarintSigned64().ok());  // delete time
  EXPECT_TRUE(DeltaIndex::Decode(&decoder).ok());
  EXPECT_TRUE(decoder.ReadVarint32().ok());  // has current
  EXPECT_TRUE(DecodeNode(&decoder).ok());
  auto count = decoder.ReadVarint64();
  EXPECT_TRUE(count.ok());
  std::string forged;
  for (uint64_t i = 0; count.ok() && i < *count; ++i) {
    const size_t begin = decoder.position();
    EXPECT_TRUE(decoder.ReadLengthPrefixed().ok());
    if (i + 1 == from) {  // deltas_[i] is transition i+1 -> i+2
      std::string encoded;
      replacement.EncodeTo(&encoded);
      forged = image.substr(0, begin);
      PutLengthPrefixed(&forged, encoded);
      forged += image.substr(decoder.position());
    }
  }
  auto decoded = VersionedDocument::Decode(forged);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? std::move(*decoded) : nullptr;
}

/// `doc`'s encoded image with the header's next_xid varint rewritten to
/// `next_xid`, decoded the way a re-seed install decodes an image.
std::unique_ptr<VersionedDocument> WithNextXid(const VersionedDocument& doc,
                                               Xid next_xid) {
  std::string image;
  doc.EncodeTo(&image);
  Decoder decoder(image);
  EXPECT_TRUE(decoder.ReadVarint32().ok());        // doc id
  EXPECT_TRUE(decoder.ReadLengthPrefixed().ok());  // url
  EXPECT_TRUE(decoder.ReadVarint32().ok());        // snapshot_every
  const size_t begin = decoder.position();
  EXPECT_TRUE(decoder.ReadVarint32().ok());  // next xid
  std::string forged = image.substr(0, begin);
  PutVarint32(&forged, next_xid);
  forged += image.substr(decoder.position());
  auto decoded = VersionedDocument::Decode(forged);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  return decoded.ok() ? std::move(*decoded) : nullptr;
}

class DeltaChainCursorCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    history_ = BuildHistory(/*seed=*/7, /*snapshot_every=*/4);
    std::vector<VersionNum> snapshots = doc().SnapshotVersions();
    ASSERT_FALSE(snapshots.empty());
    ASSERT_EQ(snapshots.front(), kForged);
  }

  const VersionedDocument& doc() const { return *history_.doc; }

  /// The forged transition kForged -> kForged+1: the real one plus `op`,
  /// applied last forward and first backward.
  std::unique_ptr<VersionedDocument> Forge(EditOp op) const {
    EditScript delta = doc().TransitionDelta(kForged).Clone();
    delta.Add(std::move(op));
    return WithDelta(doc(), kForged, delta);
  }

  /// Applies the forged transition in one direction from a cursor that
  /// reached its start without crossing it, and checks the poisoning rule.
  /// Returns the error.
  Status StepOver(const VersionedDocument& forged, bool forward) {
    auto cursor = DeltaChainCursor::Open(forged, forward ? kForged
                                                         : kForged + 1);
    EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
    if (!cursor.ok()) return cursor.status();
    // Index the anchor first, so the count below covers the step alone.
    EXPECT_NE(cursor->Find(RootXid()), nullptr);
    g_counted_bytes = 0;
    g_counting = true;
    Status failed = forward ? cursor->StepForward() : cursor->StepBackward();
    g_counting = false;
    allocated_ = g_counted_bytes;
    EXPECT_EQ(failed.code(), StatusCode::kCorruption) << failed.ToString();
    // Poisoned: the error sticks to every later call.
    EXPECT_EQ(cursor->status().ToString(), failed.ToString());
    EXPECT_EQ(cursor->StepForward().ToString(), failed.ToString());
    EXPECT_EQ(cursor->StepBackward().ToString(), failed.ToString());
    EXPECT_EQ(cursor->TakeTree().status().ToString(), failed.ToString());
    return failed;
  }

  /// Root XID and an XID below next_xid() that version kForged+1 lacks.
  Xid RootXid() const { return doc().current()->xid(); }
  Xid AbsentXid() const {
    auto tree = DecodeNodeFromString(history_.encoded[kForged + 1]);
    EXPECT_TRUE(tree.ok());
    std::map<Xid, const XmlNode*> present;
    CollectXids(**tree, &present);
    for (Xid xid = 1; xid < doc().next_xid(); ++xid) {
      if (!present.contains(xid)) return xid;
    }
    ADD_FAILURE() << "every allocated xid is present";
    return kInvalidXid;
  }

  History history_;
  size_t allocated_ = 0;
};

TEST_F(DeltaChainCursorCorruptionTest, UnknownXidPoisonsTheCursor) {
  EditOp op;
  op.kind = EditOp::Kind::kUpdate;
  op.target = AbsentXid();
  auto forged = Forge(std::move(op));
  ASSERT_NE(forged, nullptr);
  for (bool forward : {true, false}) {
    Status failed = StepOver(*forged, forward);
    EXPECT_NE(failed.message().find("unknown xid"), std::string::npos)
        << failed.ToString();
  }
}

TEST_F(DeltaChainCursorCorruptionTest, OutOfRangePositionPoisonsTheCursor) {
  EditOp op;
  op.kind = EditOp::Kind::kDelete;
  op.parent = RootXid();
  op.pos = 100000;
  op.subtree = XmlNode::Element("ghost");
  op.subtree->set_xid(RootXid());
  auto forged = Forge(std::move(op));
  ASSERT_NE(forged, nullptr);
  for (bool forward : {true, false}) {
    Status failed = StepOver(*forged, forward);
    EXPECT_NE(failed.message().find("out of range"), std::string::npos)
        << failed.ToString();
  }
}

TEST_F(DeltaChainCursorCorruptionTest, FailedMoveLeavesNoDanglingIndexEntry) {
  // A move whose destination is out of range fails before it detaches
  // anything, so every node the poisoned index still names is alive.
  auto version = DecodeNodeFromString(history_.encoded[kForged + 1]);
  ASSERT_TRUE(version.ok());
  EditOp op;
  op.kind = EditOp::Kind::kMove;
  op.target = (*version)->child(0)->xid();
  op.from_parent = RootXid();
  op.from_pos = 0;
  op.to_parent = RootXid();
  op.to_pos = 100000;
  auto forged = Forge(std::move(op));
  ASSERT_NE(forged, nullptr);
  auto cursor = DeltaChainCursor::Open(*forged, kForged);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  EXPECT_EQ(cursor->StepForward().code(), StatusCode::kCorruption);
  for (Xid xid = 1; xid < forged->next_xid(); ++xid) {
    if (const XmlNode* node = cursor->Find(xid)) {
      EXPECT_EQ(node->xid(), xid);
    }
  }
}

TEST_F(DeltaChainCursorCorruptionTest, XidBeyondNextXidAllocatesNothing) {
  // A resize to this XID would ask for 128 MiB of index slots.
  const Xid forged_xid = Xid{1} << 24;
  ASSERT_LT(doc().next_xid(), forged_xid);
  // Forward, an insert brings the forged XID in; backward, the undo of a
  // delete does.
  for (EditOp::Kind kind : {EditOp::Kind::kInsert, EditOp::Kind::kDelete}) {
    EditOp op;
    op.kind = kind;
    op.parent = RootXid();
    op.pos = 0;
    op.subtree = XmlNode::Element("ghost");
    op.subtree->set_xid(forged_xid);
    auto forged = Forge(std::move(op));
    ASSERT_NE(forged, nullptr);
    Status failed = StepOver(*forged, kind == EditOp::Kind::kInsert);
    EXPECT_NE(failed.message().find("beyond the document's xid range"),
              std::string::npos)
        << failed.ToString();
    // The failed step cloned one node and built an error message; the
    // index itself never grew.
    EXPECT_LT(allocated_, 4096u);
  }
}

TEST_F(DeltaChainCursorCorruptionTest, ForgedNextXidCannotSizeTheIndex) {
  // An otherwise valid image whose header claims every XID is in use. An
  // index sized from it would ask for 32 GiB of slots on every Open.
  constexpr Xid kForgedNextXid = 0xFFFFFFFF;
  auto forged = WithNextXid(doc(), kForgedNextXid);
  ASSERT_NE(forged, nullptr);
  ASSERT_EQ(forged->next_xid(), kForgedNextXid);
  for (VersionNum v = 1; v <= forged->version_count(); ++v) {
    g_counted_bytes = 0;
    g_counting = true;
    auto cursor = DeltaChainCursor::Open(*forged, v);
    const bool indexed = cursor.ok() && cursor->Find(RootXid()) != nullptr;
    g_counting = false;
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    EXPECT_TRUE(indexed);
    // A clone of a few dozen nodes plus an index sized from them.
    EXPECT_LT(g_counted_bytes.load(), size_t{256} << 10) << "version " << v;
    EXPECT_EQ(EncodeNodeToString(cursor->tree()), history_.encoded[v])
        << "version " << v;
  }
  VersionNum visited = 0;
  ASSERT_TRUE(ForEachRetainedVersion(*forged, [&](const DeltaChainCursor& c) {
                ++visited;
                EXPECT_EQ(EncodeNodeToString(c.tree()),
                          history_.encoded[c.version()]);
                return Status::OK();
              }).ok());
  EXPECT_EQ(visited, forged->version_count());
}

TEST_F(DeltaChainCursorCorruptionTest, ForgedHighXidCostsOneEntry) {
  // Under a forged next_xid, a node XID near the top of the range is
  // within capacity, so the step succeeds; the node takes one hash-map
  // entry, not a dense slot per XID below it.
  constexpr Xid kHighXid = 0xFFFFFFF0;
  EditOp op;
  op.kind = EditOp::Kind::kInsert;
  op.parent = RootXid();
  op.pos = 0;
  op.subtree = XmlNode::Element("ghost");
  op.subtree->set_xid(kHighXid);
  auto with_op = Forge(std::move(op));
  ASSERT_NE(with_op, nullptr);
  auto forged = WithNextXid(*with_op, 0xFFFFFFFF);
  ASSERT_NE(forged, nullptr);
  auto cursor = DeltaChainCursor::Open(*forged, kForged);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  ASSERT_NE(cursor->Find(RootXid()), nullptr);
  g_counted_bytes = 0;
  g_counting = true;
  Status stepped = cursor->StepForward();
  g_counting = false;
  ASSERT_TRUE(stepped.ok()) << stepped.ToString();
  EXPECT_LT(g_counted_bytes.load(), size_t{64} << 10);
  const XmlNode* ghost = cursor->Find(kHighXid);
  ASSERT_NE(ghost, nullptr);
  EXPECT_EQ(ghost->name(), "ghost");
  ASSERT_TRUE(cursor->StepBackward().ok());
  EXPECT_EQ(cursor->Find(kHighXid), nullptr);
  EXPECT_EQ(EncodeNodeToString(cursor->tree()), history_.encoded[kForged]);
}

}  // namespace
}  // namespace txml
