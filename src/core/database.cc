#include "src/core/database.h"

#include <utility>
#include <vector>

#include "src/storage/delta_chain_cursor.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/env.h"
#include "src/util/logging.h"
#include "src/util/macros.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace txml {

TemporalXmlDatabase::TemporalXmlDatabase(DatabaseOptions options)
    : TemporalXmlDatabase(options,
                          std::make_unique<VersionedDocumentStore>(
                              StoreOptions{options.snapshot_every}),
                          /*attach_indexes=*/true) {}

TemporalXmlDatabase::TemporalXmlDatabase(
    DatabaseOptions options, std::unique_ptr<VersionedDocumentStore> store,
    bool attach_indexes)
    : options_(options), store_(std::move(store)) {
  if (attach_indexes) AttachIndexes(nullptr, nullptr);
}

TemporalXmlDatabase::~TemporalXmlDatabase() = default;

void TemporalXmlDatabase::AttachIndexes(
    std::unique_ptr<TemporalFullTextIndex> fti,
    std::unique_ptr<LifetimeIndex> lifetime) {
  fti_ = fti != nullptr ? std::move(fti)
                        : std::make_unique<TemporalFullTextIndex>(store_.get());
  store_->AddObserver(fti_.get());
  lifetime_ = lifetime != nullptr ? std::move(lifetime)
                                  : std::make_unique<LifetimeIndex>();
  store_->AddObserver(lifetime_.get());
  if (!options_.document_time_path.empty()) {
    auto path = PathExpr::Parse(options_.document_time_path);
    if (path.ok()) {
      doctime_ = std::make_unique<DocumentTimeIndex>(std::move(*path));
      store_->AddObserver(doctime_.get());
    } else {
      TXML_LOG_WARN("invalid document_time_path '%s': %s",
                    options_.document_time_path.c_str(),
                    path.status().ToString().c_str());
    }
  }
}

void TemporalXmlDatabase::ReplayIntoIndexes(bool include_indexes) {
  std::vector<StoreObserver*> observers;
  if (include_indexes) {
    observers.push_back(fti_.get());
    observers.push_back(lifetime_.get());
  }
  if (doctime_ != nullptr) observers.push_back(doctime_.get());
  Status replayed = ReplayRetainedHistory(*store_, observers);
  TXML_CHECK(replayed.ok());
  for (const VersionedDocument* doc : store_->AllDocuments()) {
    clock_.AdvanceTo(doc->delta_index().last_timestamp().AddMicros(1));
    if (doc->deleted()) clock_.AdvanceTo(doc->delete_time().AddMicros(1));
  }
}

StatusOr<TemporalXmlDatabase::PutResult> TemporalXmlDatabase::PutDocument(
    const std::string& url, std::string_view xml_text) {
  return PutDocumentAt(url, xml_text, clock_.Next());
}

StatusOr<TemporalXmlDatabase::PutResult> TemporalXmlDatabase::PutDocumentAt(
    const std::string& url, std::string_view xml_text, Timestamp ts) {
  TXML_ASSIGN_OR_RETURN(XmlDocument doc, ParseXml(xml_text));
  return PutDocumentTree(url, doc.ReleaseRoot(), ts);
}

StatusOr<TemporalXmlDatabase::PutResult> TemporalXmlDatabase::PutDocumentTree(
    const std::string& url, std::unique_ptr<XmlNode> tree, Timestamp ts) {
  PreparedPut put = ResolvePut(url);
  TXML_RETURN_IF_ERROR(PreparePut(&put, std::move(tree), ts));
  return PublishPut(std::move(put));
}

TemporalXmlDatabase::PutResult TemporalXmlDatabase::PublishPut(
    PreparedPut put) {
  TXML_CHECK(put.version.has_value());
  const Timestamp ts = put.version->ts;
  VersionedDocumentStore::PutResult stored = store_->PublishPut(std::move(put));
  clock_.AdvanceTo(ts.AddMicros(1));
  return PutResult{stored.doc_id, stored.version, ts};
}

Status TemporalXmlDatabase::DeleteDocument(const std::string& url) {
  return DeleteDocumentAt(url, clock_.Next());
}

Status TemporalXmlDatabase::DeleteDocumentAt(const std::string& url,
                                             Timestamp ts) {
  TXML_RETURN_IF_ERROR(store_->Delete(url, ts));
  clock_.AdvanceTo(ts.AddMicros(1));
  return Status::OK();
}

StatusOr<VacuumStats> TemporalXmlDatabase::Vacuum(
    const RetentionPolicy& policy) {
  return store_->Vacuum(policy);
}

QueryContext TemporalXmlDatabase::Context() const {
  QueryContext ctx;
  ctx.store = store_.get();
  ctx.fti = fti_.get();
  ctx.lifetime = lifetime_.get();
  ctx.snapshot_cache = snapshot_cache_;
  return ctx;
}

StatusOr<XmlDocument> TemporalXmlDatabase::Query(
    std::string_view query_text) {
  ExecStats stats;
  return QueryAt(query_text, clock_.Last(), &stats);
}

StatusOr<XmlDocument> TemporalXmlDatabase::QueryAt(
    std::string_view query_text, Timestamp epoch, ExecStats* stats) const {
  ExecOptions exec_options;
  exec_options.now = epoch;
  // Defaults are kAuto: the planner resolves strategies per query from
  // what the context actually has attached.
  QueryExecutor executor(Context(), exec_options);
  return executor.Execute(query_text, stats);
}

StatusOr<std::string> TemporalXmlDatabase::Explain(
    std::string_view query_text) {
  ExecOptions exec_options;
  exec_options.now = clock_.Last();
  QueryExecutor executor(Context(), exec_options);
  return executor.Explain(query_text);
}

StatusOr<std::string> TemporalXmlDatabase::QueryToString(
    std::string_view query_text, bool pretty) {
  TXML_ASSIGN_OR_RETURN(XmlDocument results, Query(query_text));
  SerializeOptions options;
  options.pretty = pretty;
  return SerializeXml(*results.root(), options);
}

StatusOr<XmlDocument> TemporalXmlDatabase::Snapshot(const std::string& url,
                                                    Timestamp t) const {
  const VersionedDocument* doc = store_->FindByUrl(url);
  if (doc == nullptr) {
    return Status::NotFound("no document at '" + url + "'");
  }
  TXML_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> tree, doc->ReconstructAt(t));
  return XmlDocument(std::move(tree));
}

StatusOr<std::vector<MaterializedVersion>> TemporalXmlDatabase::History(
    const std::string& url, Timestamp t1, Timestamp t2) const {
  const VersionedDocument* doc = store_->FindByUrl(url);
  if (doc == nullptr) {
    return Status::NotFound("no document at '" + url + "'");
  }
  return DocHistory(Context(), doc->doc_id(), t1, t2);
}

namespace {

constexpr char kIndexFileName[] = "indexes.txml";
constexpr uint32_t kIndexMagic = 0x54495831;  // "TIX1"

}  // namespace

Status TemporalXmlDatabase::Save(const std::string& dir) const {
  TXML_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::string store_blob;
  store_->EncodeTo(&store_blob);
  TXML_RETURN_IF_ERROR(WriteStringToFile(dir + "/store.txml", store_blob));

  // Persist the always-on indexes, fingerprinted against the store blob so
  // a stale index file is detected and rebuilt instead of trusted.
  std::string index_blob;
  PutFixed32(&index_blob, kIndexMagic);
  PutFixed32(&index_blob, crc32c::Mask(crc32c::Value(store_blob)));
  std::string fti_blob;
  fti_->EncodeTo(&fti_blob);
  PutLengthPrefixed(&index_blob, fti_blob);
  // 1: a lifetime section follows. Open rebuilds both indexes from a file
  // whose flag is 0.
  PutVarint32(&index_blob, 1);
  std::string lifetime_blob;
  lifetime_->EncodeTo(&lifetime_blob);
  PutLengthPrefixed(&index_blob, lifetime_blob);
  return WriteStringToFile(dir + "/" + kIndexFileName, index_blob);
}

StatusOr<std::unique_ptr<TemporalXmlDatabase>> TemporalXmlDatabase::Open(
    const std::string& dir, DatabaseOptions options) {
  TXML_ASSIGN_OR_RETURN(std::string store_blob,
                        ReadFileToString(dir + "/store.txml"));
  TXML_ASSIGN_OR_RETURN(std::unique_ptr<VersionedDocumentStore> store,
                        VersionedDocumentStore::Decode(store_blob));
  options.snapshot_every = store->options().snapshot_every;
  std::unique_ptr<TemporalXmlDatabase> db(new TemporalXmlDatabase(
      options, std::move(store), /*attach_indexes=*/false));

  // Try the persisted indexes; on any mismatch fall back to a rebuild.
  std::unique_ptr<TemporalFullTextIndex> fti;
  std::unique_ptr<LifetimeIndex> lifetime;
  auto load_indexes = [&]() -> Status {
    TXML_ASSIGN_OR_RETURN(std::string blob,
                          ReadFileToString(dir + "/" + kIndexFileName));
    Decoder decoder(blob);
    TXML_ASSIGN_OR_RETURN(uint32_t magic, decoder.ReadFixed32());
    if (magic != kIndexMagic) return Status::Corruption("bad index magic");
    TXML_ASSIGN_OR_RETURN(uint32_t fingerprint, decoder.ReadFixed32());
    if (crc32c::Unmask(fingerprint) != crc32c::Value(store_blob)) {
      return Status::Corruption("index file does not match store");
    }
    TXML_ASSIGN_OR_RETURN(std::string_view fti_blob,
                          decoder.ReadLengthPrefixed());
    TXML_ASSIGN_OR_RETURN(
        fti, TemporalFullTextIndex::Decode(fti_blob, db->store_.get()));
    TXML_ASSIGN_OR_RETURN(uint32_t has_lifetime, decoder.ReadVarint32());
    if (has_lifetime == 0) {
      return Status::Corruption("index file has no lifetime section");
    }
    TXML_ASSIGN_OR_RETURN(std::string_view lifetime_blob,
                          decoder.ReadLengthPrefixed());
    TXML_ASSIGN_OR_RETURN(lifetime, LifetimeIndex::Decode(lifetime_blob));
    return Status::OK();
  };
  Status loaded = load_indexes();
  if (!loaded.ok()) {
    fti = nullptr;
    lifetime = nullptr;
  }
  db->AttachIndexes(std::move(fti), std::move(lifetime));
  db->ReplayIntoIndexes(/*include_indexes=*/!loaded.ok());
  return db;
}

}  // namespace txml
