#include "src/storage/store.h"

#include <utility>

#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/env.h"
#include "src/util/macros.h"

namespace txml {
namespace {

constexpr char kStoreFileName[] = "store.txml";
constexpr uint32_t kStoreMagic = 0x544D5831;  // "TMX1"

void AppendFramedRecord(std::string* dst, std::string_view payload) {
  PutVarint64(dst, payload.size());
  dst->append(payload);
  PutFixed32(dst, crc32c::Mask(crc32c::Value(payload)));
}

StatusOr<std::string_view> ReadFramedRecord(Decoder* decoder) {
  auto payload = decoder->ReadLengthPrefixed();
  if (!payload.ok()) return payload.status();
  auto crc = decoder->ReadFixed32();
  if (!crc.ok()) return crc.status();
  if (crc32c::Unmask(*crc) != crc32c::Value(*payload)) {
    return Status::Corruption("record checksum mismatch");
  }
  return *payload;
}

}  // namespace

VersionedDocumentStore::PreparedPut VersionedDocumentStore::ResolvePut(
    const std::string& url) const {
  PreparedPut put;
  put.url = url;
  put.doc = FindByUrl(url);
  const DocId doc_id = put.doc != nullptr ? put.doc->doc_id() : 0;
  put.observed.reserve(observers_.size());
  for (const StoreObserver* observer : observers_) {
    put.observed.push_back(observer->BeginVersion(doc_id));
  }
  return put;
}

Status VersionedDocumentStore::PreparePut(PreparedPut* put,
                                          std::unique_ptr<XmlNode> content,
                                          Timestamp ts) const {
  StatusOr<VersionedDocument::PreparedVersion> version =
      put->doc != nullptr
          ? put->doc->PrepareVersion(std::move(content), ts)
          // First contact: diff against a document with no history.
          : VersionedDocument(0, put->url, options_.snapshot_every)
                .PrepareVersion(std::move(content), ts);
  if (!version.ok()) return version.status();
  for (const auto& pending : put->observed) {
    if (pending != nullptr) pending->Prepare(*version->tree);
  }
  put->version = std::move(*version);
  return Status::OK();
}

VersionedDocumentStore::PutResult VersionedDocumentStore::PublishPut(
    PreparedPut put) {
  TXML_CHECK(put.version.has_value());
  TXML_CHECK(put.observed.size() == observers_.size());
  writes_begun_ = true;
  VersionedDocument* doc = FindByUrl(put.url);
  TXML_CHECK(doc == put.doc);
  if (doc == nullptr) {
    auto owned = std::make_unique<VersionedDocument>(
        next_doc_id_++, put.url, options_.snapshot_every);
    doc = owned.get();
    by_id_[doc->doc_id()] = std::move(owned);
    by_url_[put.url] = doc;
  }
  const Timestamp ts = put.version->ts;
  VersionedDocument::AppendResult appended =
      doc->PublishVersion(std::move(*put.version));
  for (size_t i = 0; i < observers_.size(); ++i) {
    observers_[i]->PublishVersion(doc->doc_id(), appended.version, ts,
                                  *doc->current(), appended.delta,
                                  put.observed[i].get());
  }
  return PutResult{doc->doc_id(), appended.version};
}

StatusOr<VersionedDocumentStore::PutResult> VersionedDocumentStore::Put(
    const std::string& url, std::unique_ptr<XmlNode> content, Timestamp ts) {
  PreparedPut put = ResolvePut(url);
  TXML_RETURN_IF_ERROR(PreparePut(&put, std::move(content), ts));
  return PublishPut(std::move(put));
}

Status VersionedDocumentStore::Delete(const std::string& url, Timestamp ts) {
  writes_begun_ = true;
  VersionedDocument* doc = FindByUrl(url);
  if (doc == nullptr) {
    return Status::NotFound("no document at '" + url + "'");
  }
  TXML_RETURN_IF_ERROR(doc->MarkDeleted(ts));
  for (StoreObserver* observer : observers_) {
    observer->OnDocumentDeleted(doc->doc_id(), doc->version_count(), ts);
  }
  return Status::OK();
}

VersionedDocument* VersionedDocumentStore::FindByUrl(const std::string& url) {
  auto it = by_url_.find(url);
  return it == by_url_.end() ? nullptr : it->second;
}

const VersionedDocument* VersionedDocumentStore::FindByUrl(
    const std::string& url) const {
  auto it = by_url_.find(url);
  return it == by_url_.end() ? nullptr : it->second;
}

VersionedDocument* VersionedDocumentStore::FindById(DocId doc_id) {
  auto it = by_id_.find(doc_id);
  return it == by_id_.end() ? nullptr : it->second.get();
}

const VersionedDocument* VersionedDocumentStore::FindById(
    DocId doc_id) const {
  auto it = by_id_.find(doc_id);
  return it == by_id_.end() ? nullptr : it->second.get();
}

std::vector<const VersionedDocument*> VersionedDocumentStore::AllDocuments()
    const {
  std::vector<const VersionedDocument*> docs;
  docs.reserve(by_id_.size());
  for (const auto& [id, doc] : by_id_) docs.push_back(doc.get());
  return docs;
}

std::vector<VersionedDocument*> VersionedDocumentStore::AllDocuments() {
  std::vector<VersionedDocument*> docs;
  docs.reserve(by_id_.size());
  for (auto& [id, doc] : by_id_) docs.push_back(doc.get());
  return docs;
}

size_t VersionedDocumentStore::CurrentBytes() const {
  size_t total = 0;
  for (const auto& [id, doc] : by_id_) total += doc->CurrentBytes();
  return total;
}

size_t VersionedDocumentStore::DeltaBytes() const {
  size_t total = 0;
  for (const auto& [id, doc] : by_id_) total += doc->DeltaBytes();
  return total;
}

size_t VersionedDocumentStore::SnapshotBytes() const {
  size_t total = 0;
  for (const auto& [id, doc] : by_id_) total += doc->SnapshotBytes();
  return total;
}

void VersionedDocumentStore::EncodeTo(std::string* dst) const {
  PutFixed32(dst, kStoreMagic);
  PutVarint32(dst, options_.snapshot_every);
  PutVarint32(dst, next_doc_id_);
  PutVarint64(dst, by_id_.size());
  std::string payload;
  for (const auto& [id, doc] : by_id_) {
    payload.clear();
    doc->EncodeTo(&payload);
    AppendFramedRecord(dst, payload);
  }
}

Status VersionedDocumentStore::Save(const std::string& dir) const {
  TXML_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::string out;
  EncodeTo(&out);
  return WriteStringToFile(dir + "/" + kStoreFileName, out);
}

StatusOr<std::unique_ptr<VersionedDocumentStore>>
VersionedDocumentStore::Load(const std::string& dir) {
  TXML_ASSIGN_OR_RETURN(std::string data,
                        ReadFileToString(dir + "/" + kStoreFileName));
  return Decode(data);
}

StatusOr<std::unique_ptr<VersionedDocumentStore>>
VersionedDocumentStore::Decode(std::string_view data) {
  Decoder decoder(data);
  auto magic = decoder.ReadFixed32();
  if (!magic.ok()) return magic.status();
  if (*magic != kStoreMagic) {
    return Status::Corruption("not a txml store file");
  }
  auto snapshot_every = decoder.ReadVarint32();
  if (!snapshot_every.ok()) return snapshot_every.status();
  auto next_doc_id = decoder.ReadVarint32();
  if (!next_doc_id.ok()) return next_doc_id.status();
  auto doc_count = decoder.ReadVarint64();
  if (!doc_count.ok()) return doc_count.status();

  StoreOptions options;
  options.snapshot_every = *snapshot_every;
  auto store = std::make_unique<VersionedDocumentStore>(options);
  store->next_doc_id_ = *next_doc_id;
  for (uint64_t i = 0; i < *doc_count; ++i) {
    auto payload = ReadFramedRecord(&decoder);
    if (!payload.ok()) return payload.status();
    auto doc = VersionedDocument::Decode(*payload);
    if (!doc.ok()) return doc.status();
    VersionedDocument* borrowed = doc->get();
    store->by_id_[borrowed->doc_id()] = std::move(*doc);
    store->by_url_[borrowed->url()] = borrowed;
  }
  if (!decoder.AtEnd()) {
    return Status::Corruption("trailing bytes in store file");
  }
  return store;
}

}  // namespace txml
