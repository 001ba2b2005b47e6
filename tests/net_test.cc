// Tests of the network front end (src/net/): the wire codec (including
// malformed-frame fuzzing), the TCP server/client pair end to end against
// the in-process oracle, robustness (oversized/garbage frames, idle
// timeouts) and graceful shutdown. The Net*/Wire* suites run under
// ThreadSanitizer via scripts/check.sh.
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/net/cli_flags.h"
#include "src/net/client.h"
#include "src/net/rate_limiter.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/service/service.h"
#include "src/util/coding.h"
#include "src/util/random.h"
#include "src/xml/parser.h"

namespace txml {
namespace {

Timestamp Day(int d) { return Timestamp::FromDate(2001, 1, d); }

/// Unified-Execute convenience: run one query against the in-process
/// service and unwrap the payload (used as the oracle for wire tests).
StatusOr<std::string> RunQuery(TemporalQueryService* service,
                               const std::string& query, bool pretty = true) {
  QueryRequest request;
  request.query_text = query;
  request.pretty = pretty;
  auto response = service->Execute(request);
  if (!response.ok()) return response.status();
  return std::move(response->payload);
}

// ------------------------------------------------------------- wire codec

TEST(WireTest, FrameLayout) {
  std::string out;
  AppendFrame(FrameType::kResponseChunk, "abc", &out);
  ASSERT_EQ(out.size(), 8u);  // fixed32 length + type + 3 payload bytes
  Decoder decoder(out);
  auto length = decoder.ReadFixed32();
  ASSERT_TRUE(length.ok());
  EXPECT_EQ(*length, 4u);  // type byte + payload
  EXPECT_EQ(out[4], static_cast<char>(FrameType::kResponseChunk));
  EXPECT_EQ(out.substr(5), "abc");
}

TEST(WireTest, QueryRequestRoundTrip) {
  QueryRequest request;
  request.query_text = "SELECT R FROM doc(\"u\")[01/01/2001]/item R";
  request.pretty = false;
  auto decoded = DecodeQueryRequest(EncodeQueryRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->query_text, request.query_text);
  EXPECT_EQ(decoded->pretty, false);
}

TEST(WireTest, PutRequestRoundTrip) {
  PutRequest request;
  request.url = "http://example.com/doc.xml";
  request.xml_text = "<d><x>1</x></d>";
  auto plain = DecodePutRequest(EncodePutRequest(request));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->url, request.url);
  EXPECT_EQ(plain->xml_text, request.xml_text);
  EXPECT_FALSE(plain->timestamp.has_value());

  request.timestamp = Day(17);
  auto stamped = DecodePutRequest(EncodePutRequest(request));
  ASSERT_TRUE(stamped.ok());
  ASSERT_TRUE(stamped->timestamp.has_value());
  EXPECT_EQ(*stamped->timestamp, Day(17));
}

TEST(WireTest, ResponseHeaderRoundTrip) {
  ResponseHeader header;
  header.status_code = StatusCode::kNotFound;
  header.error_message = "no document at 'u'";
  header.payload_bytes = 12345;
  header.stats.snapshot_reconstructions = 3;
  header.stats.snapshot_cache_hits = 5;
  header.stats.rows_considered = 70;
  header.stats.rows_emitted = 7;
  auto decoded = DecodeResponseHeader(EncodeResponseHeader(header));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->status_code, StatusCode::kNotFound);
  EXPECT_EQ(decoded->error_message, header.error_message);
  EXPECT_EQ(decoded->payload_bytes, header.payload_bytes);
  EXPECT_EQ(decoded->stats.snapshot_cache_hits, 5u);
  EXPECT_EQ(decoded->stats.rows_emitted, 7u);

  auto end = DecodeResponseEnd(EncodeResponseEnd(987));
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(*end, 987u);
}

TEST(WireTest, DecodeRejectsUnsupportedVersion) {
  std::string payload;
  PutVarint32(&payload, kEnvelopeVersion + 1);
  PutLengthPrefixed(&payload, "SELECT");
  PutVarint32(&payload, 1);
  auto decoded = DecodeQueryRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidFrame);
}

TEST(WireTest, DecodeRejectsTruncationAndTrailingGarbage) {
  std::string good = EncodeQueryRequest(
      QueryRequest{"SELECT R FROM doc(\"u\")[01/01/2001]/item R", true});
  // Every strict prefix must fail cleanly, never crash.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    auto decoded = DecodeQueryRequest(std::string_view(good).substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << cut << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidFrame);
  }
  // Trailing bytes after a well-formed envelope are also a violation.
  auto trailing = DecodeQueryRequest(good + "x");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kInvalidFrame);
}

// Fuzz-ish: random byte strings through every decoder must return
// kInvalidFrame or a value, never crash or mislabel the error.
TEST(WireTest, RandomBytesNeverCrashDecoders) {
  Random rng(301);
  for (int round = 0; round < 2000; ++round) {
    size_t size = rng.Uniform(64);
    std::string bytes;
    bytes.reserve(size);
    for (size_t i = 0; i < size; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(256)));
    }
    for (int which = 0; which < 10; ++which) {
      Status status = Status::OK();
      switch (which) {
        case 0: status = DecodeQueryRequest(bytes).status(); break;
        case 1: status = DecodePutRequest(bytes).status(); break;
        case 2: status = DecodeResponseHeader(bytes).status(); break;
        case 3: status = DecodeResponseEnd(bytes).status(); break;
        case 4: status = DecodeReplSubscribe(bytes).status(); break;
        case 5: status = DecodeReplBatch(bytes).status(); break;
        case 6: status = DecodeReplHeartbeat(bytes).status(); break;
        case 7: status = DecodeReplAck(bytes).status(); break;
        case 8: status = DecodeStatsRequest(bytes).status(); break;
        case 9: status = DecodeWriteBatchRequest(bytes).status(); break;
      }
      if (!status.ok()) {
        EXPECT_EQ(status.code(), StatusCode::kInvalidFrame)
            << status.ToString();
      }
    }
  }
}

// --------------------------------------------------------- test fixtures

std::string RestaurantXml(const std::string& name, int price) {
  return "<restaurant><name>" + name + "</name><price>" +
         std::to_string(price) + "</price></restaurant>";
}

/// The paper's restaurant guide, six versions at days 1..6 — Napoli's
/// price moves, Roma comes and goes, Sorrento appears on day 3.
void PutGuideHistory(TemporalQueryService* service) {
  auto put = [&](int day, const std::string& body) {
    auto result =
        service->PutAt("guide", "<guide>" + body + "</guide>", Day(day));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  };
  put(1, RestaurantXml("Napoli", 30) + RestaurantXml("Roma", 20));
  put(2, RestaurantXml("Napoli", 35) + RestaurantXml("Roma", 20));
  put(3, RestaurantXml("Napoli", 35) + RestaurantXml("Roma", 22) +
             RestaurantXml("Sorrento", 28));
  put(4, RestaurantXml("Napoli", 38) + RestaurantXml("Roma", 22) +
             RestaurantXml("Sorrento", 28));
  put(5, RestaurantXml("Napoli", 38) + RestaurantXml("Sorrento", 28));
  put(6, RestaurantXml("Napoli", 40) + RestaurantXml("Sorrento", 30));
}

/// The paper's worked queries Q1-Q3 (Figure 1 / Section 6.2 shapes).
const char* kPaperQueries[] = {
    // Q1: snapshot listing at an explicit time.
    "SELECT R FROM doc(\"guide\")[03/01/2001]/restaurant R",
    // Q2: aggregate-only snapshot (no reconstruction needed).
    "SELECT COUNT(R) FROM doc(\"guide\")[05/01/2001]/restaurant R",
    // Q3: full temporal history of one element's subpath.
    "SELECT TIME(R), R/price FROM doc(\"guide\")[EVERY]/guide/restaurant R "
    "WHERE R/name = \"Napoli\"",
};

struct ServerFixture {
  std::unique_ptr<TemporalQueryService> service;
  std::unique_ptr<TxmlServer> server;

  explicit ServerFixture(ServerOptions options = {},
                         ServiceOptions service_options = {}) {
    auto created = TemporalQueryService::Create(service_options);
    TXML_CHECK(created.ok());
    service = std::move(*created);
    options.port = 0;  // ephemeral
    server = std::make_unique<TxmlServer>(service.get(), options);
    Status started = server->Start();
    TXML_CHECK(started.ok());
  }

  StatusOr<TxmlClient> Connect(ClientOptions options = {}) {
    return TxmlClient::Connect("127.0.0.1", server->port(), options);
  }
};

// ------------------------------------------------------------ end to end

TEST(NetTest, PaperQueriesMatchInProcessByteForByte) {
  ServerFixture fixture;
  PutGuideHistory(fixture.service.get());

  auto client = fixture.Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  for (bool pretty : {true, false}) {
    for (const char* query : kPaperQueries) {
      auto in_process = RunQuery(fixture.service.get(), query, pretty);
      ASSERT_TRUE(in_process.ok()) << in_process.status().ToString();

      QueryRequest request;
      request.query_text = query;
      request.pretty = pretty;
      auto over_wire = client->Execute(request);
      ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
      EXPECT_EQ(over_wire->payload, *in_process) << query;
    }
  }
  // One connection, one session, all requests on it.
  EXPECT_EQ(fixture.server->Stats().connections_accepted, 1u);
  EXPECT_EQ(fixture.server->Stats().requests_served, 6u);
}

TEST(NetTest, ExecStatsTravelOverTheWire) {
  ServiceOptions service_options;
  service_options.snapshot_cache_capacity = 64;
  ServerFixture fixture({}, service_options);
  PutGuideHistory(fixture.service.get());

  auto client = fixture.Connect();
  ASSERT_TRUE(client.ok());
  QueryRequest request;
  request.query_text = kPaperQueries[0];

  auto cold = client->Execute(request);
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(cold->stats.snapshot_reconstructions, 0u);
  EXPECT_EQ(cold->stats.snapshot_cache_hits, 0u);

  auto warm = client->Execute(request);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.snapshot_reconstructions, 0u);
  EXPECT_GT(warm->stats.snapshot_cache_hits, 0u);
  EXPECT_EQ(warm->payload, cold->payload);
}

TEST(NetTest, PutsOverTheWireCommitAndConfirm) {
  ServerFixture fixture;
  auto client = fixture.Connect();
  ASSERT_TRUE(client.ok());

  PutRequest put;
  put.url = "wire";
  put.xml_text = "<d><item><name>alpha</name></item></d>";
  put.timestamp = Day(2);
  auto first = client->Execute(put);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->payload,
            "<put-result url=\"wire\" version=\"1\" commit=\"02/01/2001\"/>");

  // Clock-stamped variant: version advances.
  put.timestamp.reset();
  put.xml_text = "<d><item><name>alpha</name><price>2</price></item></d>";
  auto second = client->Execute(put);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second->payload.find("version=\"2\""), std::string::npos);

  // The writes are queryable over the same connection.
  QueryRequest query;
  query.query_text = "SELECT COUNT(I) FROM doc(\"wire\")[02/01/2001]/item I";
  auto count = client->Execute(query);
  ASSERT_TRUE(count.ok());
  EXPECT_NE(count->payload.find("1"), std::string::npos);
}

TEST(WireTest, WriteBatchRequestRoundTrip) {
  WriteBatchRequest request;
  WriteBatchItem put;
  put.kind = WriteBatchItem::Kind::kPut;
  put.url = "a";
  put.xml_text = "<d><x>1</x></d>";
  put.timestamp = Day(3);
  request.items.push_back(put);
  WriteBatchItem del;
  del.kind = WriteBatchItem::Kind::kDelete;
  del.url = "b";
  request.items.push_back(del);

  auto decoded = DecodeWriteBatchRequest(EncodeWriteBatchRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->items.size(), 2u);
  EXPECT_EQ(decoded->items[0].kind, WriteBatchItem::Kind::kPut);
  EXPECT_EQ(decoded->items[0].url, "a");
  EXPECT_EQ(decoded->items[0].xml_text, "<d><x>1</x></d>");
  ASSERT_TRUE(decoded->items[0].timestamp.has_value());
  EXPECT_EQ(*decoded->items[0].timestamp, Day(3));
  EXPECT_EQ(decoded->items[1].kind, WriteBatchItem::Kind::kDelete);
  EXPECT_EQ(decoded->items[1].url, "b");
  EXPECT_FALSE(decoded->items[1].timestamp.has_value());

  // The decoder enforces the batch cap before reserving anything: a
  // hostile count cannot drive a giant allocation.
  std::string oversized;
  PutVarint32(&oversized, kEnvelopeVersion);
  PutVarint32(&oversized, static_cast<uint32_t>(kMaxWriteBatchItems + 1));
  auto rejected = DecodeWriteBatchRequest(oversized);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidFrame());

  // Unknown item kinds are rejected, not misparsed.
  std::string bad_kind;
  PutVarint32(&bad_kind, kEnvelopeVersion);
  PutVarint32(&bad_kind, 1);
  PutVarint32(&bad_kind, 7);  // no such WriteBatchItem::Kind
  auto unknown = DecodeWriteBatchRequest(bad_kind);
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsInvalidFrame());
}

TEST(NetRateLimiterTest, TokenBucketAdmitsBurstThenThrottles) {
  int64_t now = 0;
  TokenBucketRateLimiter::Options options;
  options.tokens_per_sec = 2;
  options.burst = 3;
  TokenBucketRateLimiter limiter(options, [&now] { return now; });

  // A fresh key starts full: the burst is admitted, the next is not.
  EXPECT_TRUE(limiter.Admit("10.0.0.1"));
  EXPECT_TRUE(limiter.Admit("10.0.0.1"));
  EXPECT_TRUE(limiter.Admit("10.0.0.1"));
  EXPECT_FALSE(limiter.Admit("10.0.0.1"));
  EXPECT_EQ(limiter.rejected(), 1u);

  // Other keys have their own buckets.
  EXPECT_TRUE(limiter.Admit("10.0.0.2"));

  // Half a second refills one token (2/sec); one request fits, two don't.
  now += 500'000;
  EXPECT_TRUE(limiter.Admit("10.0.0.1"));
  EXPECT_FALSE(limiter.Admit("10.0.0.1"));

  // Refill saturates at burst: after a long idle, exactly 3 fit again.
  now += 3'600'000'000;
  EXPECT_TRUE(limiter.Admit("10.0.0.1"));
  EXPECT_TRUE(limiter.Admit("10.0.0.1"));
  EXPECT_TRUE(limiter.Admit("10.0.0.1"));
  EXPECT_FALSE(limiter.Admit("10.0.0.1"));
}

TEST(NetRateLimiterTest, FullBucketsAreSweptAtCapacity) {
  int64_t now = 0;
  TokenBucketRateLimiter::Options options;
  options.tokens_per_sec = 1;
  options.burst = 2;
  options.max_buckets = 4;
  TokenBucketRateLimiter limiter(options, [&now] { return now; });

  // Fill the map with keys, draining one of them.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(limiter.Admit("key" + std::to_string(i)));
  }
  EXPECT_TRUE(limiter.Admit("key0"));
  EXPECT_FALSE(limiter.Admit("key0"));  // drained
  ASSERT_EQ(limiter.bucket_count(), 4u);

  // A long idle refills keys 1..3 to full; the next new key triggers the
  // sweep, which drops exactly the full (stateless) buckets. key0, still
  // refilling, survives.
  now += 1'500'000;  // key0 is at 1.5 of 2 tokens — not yet full
  EXPECT_TRUE(limiter.Admit("fresh"));
  EXPECT_EQ(limiter.bucket_count(), 2u);  // key0 + fresh
  // key0's partial drain is still remembered: one token, not a burst.
  EXPECT_TRUE(limiter.Admit("key0"));
  EXPECT_FALSE(limiter.Admit("key0"));
}

TEST(NetRateLimiterTest, DistinctKeyFloodNeverExceedsMaxBuckets) {
  int64_t now = 0;
  TokenBucketRateLimiter::Options options;
  options.tokens_per_sec = 1;
  options.burst = 8;
  options.max_buckets = 64;
  TokenBucketRateLimiter limiter(options, [&now] { return now; });

  // A sustained flood of distinct keys (spoofed-source style), with no
  // time passing so pass 1 never frees anything — every bucket is freshly
  // drained by one token. The hard bound must hold after every insert,
  // and each key's first request is still admitted (it gets a fresh
  // bucket, possibly force-evicting the stalest).
  for (int i = 0; i < 10 * 64; ++i) {
    EXPECT_TRUE(limiter.Admit("10.1." + std::to_string(i / 256) + "." +
                              std::to_string(i % 256)));
    ASSERT_LE(limiter.bucket_count(), 64u) << "after insert " << i;
    now += 1000;  // 1ms between arrivals: refills 0.001 of 8 tokens
  }
  // The map is bounded but not empty: the most recent keys survive.
  EXPECT_GT(limiter.bucket_count(), 0u);

  // A key admitted before the flood and kept active throughout is the
  // *least* stale and must have survived the force-evictions with its
  // drain state intact.
  TokenBucketRateLimiter active_limiter(options, [&now] { return now; });
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(active_limiter.Admit("victim"));  // drain to empty
  }
  EXPECT_FALSE(active_limiter.Admit("victim"));
  for (int i = 0; i < 200; ++i) {
    now += 1000;
    active_limiter.Admit("flood" + std::to_string(i));
    // Rejected, but the refill attempt refreshes the victim's stamp —
    // an active key is never the stalest, so force-eviction spares it.
    active_limiter.Admit("victim");
    ASSERT_LE(active_limiter.bucket_count(), 64u);
  }
  // Still throttled: the flood never reset the victim's bucket.
  EXPECT_FALSE(active_limiter.Admit("victim"));
}

TEST(NetRateLimiterTest, SingleBucketCapStillAdmits) {
  // The degenerate cap: every distinct key evicts the previous one, and
  // the bound still holds (keep-watermark clamps at one eviction).
  int64_t now = 0;
  TokenBucketRateLimiter::Options options;
  options.tokens_per_sec = 1;
  options.burst = 2;
  options.max_buckets = 1;
  TokenBucketRateLimiter limiter(options, [&now] { return now; });
  for (int i = 0; i < 20; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    EXPECT_TRUE(limiter.Admit(key));
    ASSERT_LE(limiter.bucket_count(), 1u);
  }
}

TEST(NetTest, WriteBatchOverTheWireCommitsAndReportsPerItem) {
  ServerFixture fixture;
  ASSERT_TRUE(
      fixture.service->PutAt("doomed", "<d><x>1</x></d>", Day(1)).ok());
  auto client = fixture.Connect();
  ASSERT_TRUE(client.ok());

  WriteBatchRequest batch;
  WriteBatchItem put;
  put.kind = WriteBatchItem::Kind::kPut;
  put.url = "batched";
  put.xml_text = "<d><item><name>alpha</name></item></d>";
  put.timestamp = Day(2);
  batch.items.push_back(put);
  WriteBatchItem bad;
  bad.kind = WriteBatchItem::Kind::kPut;
  bad.url = "broken";
  bad.xml_text = "<unclosed>";
  batch.items.push_back(bad);
  WriteBatchItem del;
  del.kind = WriteBatchItem::Kind::kDelete;
  del.url = "doomed";
  batch.items.push_back(del);

  auto response = client->Execute(batch);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find("items=\"3\""), std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("committed=\"2\""), std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("failed=\"1\""), std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("url=\"broken\" action=\"put\" "
                                   "status=\"error\""),
            std::string::npos)
      << response->payload;

  // The batch's effects are queryable over the same connection.
  QueryRequest query;
  query.query_text = "SELECT COUNT(I) FROM doc(\"batched\")[NOW]/item I";
  auto count = client->Execute(query);
  ASSERT_TRUE(count.ok());
  EXPECT_NE(count->payload.find(">1<"), std::string::npos) << count->payload;
  query.query_text = "SELECT COUNT(X) FROM doc(\"doomed\")[NOW]/x X";
  auto gone = client->Execute(query);
  ASSERT_TRUE(gone.ok()) << gone.status().ToString();
  EXPECT_NE(gone->payload.find(">0<"), std::string::npos) << gone->payload;

  // An empty batch is an InvalidArgument request failure, not a protocol
  // error — the connection survives it.
  WriteBatchRequest empty;
  auto rejected = client->Execute(empty);
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  auto still_alive = client->Execute(query);
  EXPECT_TRUE(still_alive.ok());
}

TEST(NetTest, RateLimitedRequestsGetRetryableUnavailable) {
  ServerOptions options;
  // Two requests of burst, then an (effectively) unrefillable bucket:
  // rejections are deterministic, no timing dependence.
  options.rate_limit_per_sec = 0.0001;
  options.rate_limit_burst = 2;
  ServerFixture fixture(options);
  PutGuideHistory(fixture.service.get());
  auto client = fixture.Connect();
  ASSERT_TRUE(client.ok());

  QueryRequest query;
  query.query_text = kPaperQueries[0];
  EXPECT_TRUE(client->Execute(query).ok());
  EXPECT_TRUE(client->Execute(query).ok());
  auto throttled = client->Execute(query);
  ASSERT_FALSE(throttled.ok());
  EXPECT_TRUE(throttled.status().IsUnavailable()) << throttled.status().ToString();

  // Throttling is back-pressure, not a protocol error: the connection is
  // still serviceable (and still throttled).
  auto again = client->Execute(query);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsUnavailable());

  ServerStats stats = fixture.server->Stats();
  EXPECT_GE(stats.requests_rate_limited, 2u);
  // Admitted requests were served normally.
  EXPECT_EQ(stats.requests_served, 2u);
}

TEST(NetTest, ErrorStatusCodesSurviveTheRoundTrip) {
  ServerFixture fixture;
  PutGuideHistory(fixture.service.get());
  auto client = fixture.Connect();
  ASSERT_TRUE(client.ok());

  QueryRequest malformed;
  malformed.query_text = "SELECT";
  auto parse_error = client->Execute(malformed);
  ASSERT_FALSE(parse_error.ok());
  EXPECT_EQ(parse_error.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(parse_error.status().message().empty());

  QueryRequest missing;
  missing.query_text =
      "SELECT R FROM doc(\"nowhere\")[01/01/2001]/item R";
  auto not_found = client->Execute(missing);
  ASSERT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);

  // The connection survives request-level failures.
  QueryRequest good;
  good.query_text = kPaperQueries[1];
  EXPECT_TRUE(client->Execute(good).ok());
  EXPECT_EQ(fixture.server->Stats().requests_failed, 2u);
}

TEST(NetTest, LargePayloadStreamsInChunks) {
  ServerOptions server_options;
  server_options.response_chunk_bytes = 512;  // force many chunks
  ServerFixture fixture(server_options);

  std::string body;
  for (int i = 0; i < 400; ++i) {
    body += "<item><name>n" + std::to_string(i) + "</name><price>" +
            std::to_string(i) + "</price></item>";
  }
  ASSERT_TRUE(
      fixture.service->PutAt("big", "<d>" + body + "</d>", Day(1)).ok());

  const char* query = "SELECT R FROM doc(\"big\")[01/01/2001]/item R";
  auto in_process = RunQuery(fixture.service.get(), query);
  ASSERT_TRUE(in_process.ok());
  ASSERT_GT(in_process->size(), 8 * server_options.response_chunk_bytes);

  auto client = fixture.Connect();
  ASSERT_TRUE(client.ok());
  QueryRequest request;
  request.query_text = query;
  auto over_wire = client->Execute(request);
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
  EXPECT_EQ(over_wire->payload, *in_process);
}

// ------------------------------------------------------------ robustness

TEST(NetTest, GarbageFrameGetsInvalidFrameAndConnectionCloses) {
  ServerFixture fixture;
  auto raw = Socket::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetTimeouts(2000, 2000).ok());

  // A well-framed body with an unknown frame type.
  std::string frame;
  AppendFrame(static_cast<FrameType>(99), "junk", &frame);
  ASSERT_TRUE(raw->WriteAll(frame).ok());

  auto reply = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kResponseHeader);
  auto header = DecodeResponseHeader(reply->payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->status_code, StatusCode::kInvalidFrame);

  auto end = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end->type, FrameType::kResponseEnd);

  // After the report the server hangs up.
  auto eof = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(fixture.server->Stats().frames_rejected, 1u);
}

TEST(NetTest, UndecodableEnvelopeIsRejected) {
  ServerFixture fixture;
  auto raw = Socket::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetTimeouts(2000, 2000).ok());

  // Correct frame type, garbage envelope bytes.
  std::string frame;
  AppendFrame(FrameType::kQueryRequest, "\xff\xff\xff\xff\xff", &frame);
  ASSERT_TRUE(raw->WriteAll(frame).ok());

  auto reply = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok());
  auto header = DecodeResponseHeader(reply->payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->status_code, StatusCode::kInvalidFrame);
}

TEST(NetTest, ZeroAndOversizedLengthPrefixesDropTheConnection) {
  ServerOptions server_options;
  server_options.max_frame_bytes = 1024;
  ServerFixture fixture(server_options);

  {
    // Length prefix zero: no type byte can follow.
    auto raw = Socket::Connect("127.0.0.1", fixture.server->port());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw->SetTimeouts(2000, 2000).ok());
    std::string zero;
    PutFixed32(&zero, 0);
    ASSERT_TRUE(raw->WriteAll(zero).ok());
    auto reply = ReadFrame(&*raw, kDefaultMaxFrameBytes);
    ASSERT_TRUE(reply.ok());
    auto header = DecodeResponseHeader(reply->payload);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->status_code, StatusCode::kInvalidFrame);
  }
  {
    // Length prefix over the server's budget: rejected before any
    // allocation; the body bytes are never read.
    auto raw = Socket::Connect("127.0.0.1", fixture.server->port());
    ASSERT_TRUE(raw.ok());
    ASSERT_TRUE(raw->SetTimeouts(2000, 2000).ok());
    std::string huge;
    PutFixed32(&huge, 64u << 20);
    ASSERT_TRUE(raw->WriteAll(huge).ok());
    auto reply = ReadFrame(&*raw, kDefaultMaxFrameBytes);
    ASSERT_TRUE(reply.ok());
    auto header = DecodeResponseHeader(reply->payload);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header->status_code, StatusCode::kInvalidFrame);
    EXPECT_NE(header->error_message.find("exceeds limit"),
              std::string::npos);
  }
}

TEST(NetTest, IdleConnectionTimesOut) {
  ServerOptions server_options;
  server_options.read_timeout_ms = 150;
  ServerFixture fixture(server_options);

  auto raw = Socket::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetTimeouts(5000, 5000).ok());

  // Send nothing; the server reports the timeout, then hangs up.
  auto reply = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto header = DecodeResponseHeader(reply->payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->status_code, StatusCode::kTimeout);
  EXPECT_EQ(fixture.server->Stats().timeouts, 1u);
}

TEST(NetTest, ConnectionsBeyondThePoolQueueUntilAHandlerFrees) {
  ServerOptions server_options;
  server_options.connection_threads = 1;
  ServerFixture fixture(server_options);
  PutGuideHistory(fixture.service.get());

  auto first = fixture.Connect();
  ASSERT_TRUE(first.ok());
  QueryRequest request;
  request.query_text = kPaperQueries[1];
  ASSERT_TRUE(first->Execute(request).ok());

  // The second connection is accepted but waits in the pool queue while
  // the first one occupies the only handler thread…
  auto second = fixture.Connect();
  ASSERT_TRUE(second.ok());
  // …and is served as soon as the first connection closes.
  first->Close();
  auto served = second->Execute(request);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
}

// ----------------------------------------------------- shutdown + stress

TEST(NetTest, GracefulShutdownDrainsInFlightQueries) {
  ServerFixture fixture;
  PutGuideHistory(fixture.service.get());

  std::string oracle;
  {
    auto answer = RunQuery(fixture.service.get(), kPaperQueries[0]);
    ASSERT_TRUE(answer.ok());
    oracle = *answer;
  }

  constexpr int kClients = 4;
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> corrupted{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&fixture, &oracle, &completed, &corrupted] {
      auto client = fixture.Connect();
      if (!client.ok()) return;
      QueryRequest request;
      request.query_text = kPaperQueries[0];
      while (true) {
        auto response = client->Execute(request);
        if (!response.ok()) return;  // server went away: expected
        // Every response that *does* arrive must be complete and correct,
        // shutdown or not — that is the drain guarantee.
        if (response->payload != oracle) {
          corrupted.store(true);
          return;
        }
        completed.fetch_add(1);
      }
    });
  }

  // Let the clients get in flight, then pull the plug. (Bounded wait so a
  // wedged server fails the assertion below instead of hanging the test.)
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (completed.load() < 8 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  fixture.server->Stop();
  for (auto& client : clients) client.join();

  EXPECT_FALSE(corrupted.load());
  EXPECT_GE(completed.load(), 8u);
  // The server is really gone.
  auto after = fixture.Connect();
  EXPECT_FALSE(after.ok());
}

TEST(NetStressTest, ConcurrentClientsMatchSerialOracle) {
  ServerFixture fixture;
  PutGuideHistory(fixture.service.get());

  std::vector<std::string> oracle;
  for (const char* query : kPaperQueries) {
    auto answer = RunQuery(fixture.service.get(), query);
    ASSERT_TRUE(answer.ok());
    oracle.push_back(*answer);
  }

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 25;
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&fixture, &oracle, &failed, c] {
      auto client = fixture.Connect();
      if (!client.ok()) {
        failed.store(true);
        ADD_FAILURE() << "connect: " << client.status().ToString();
        return;
      }
      for (int i = 0; i < kQueriesPerClient && !failed.load(); ++i) {
        size_t q = static_cast<size_t>(c + i) % std::size(kPaperQueries);
        QueryRequest request;
        request.query_text = kPaperQueries[q];
        auto response = client->Execute(request);
        if (!response.ok() || response->payload != oracle[q]) {
          failed.store(true);
          ADD_FAILURE() << "client " << c << " query " << q << ": "
                        << (response.ok() ? "answer diverged"
                                          : response.status().ToString());
          return;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  ASSERT_FALSE(failed.load());

  ServerStats stats = fixture.server->Stats();
  EXPECT_EQ(stats.requests_served,
            static_cast<uint64_t>(kClients * kQueriesPerClient));
  EXPECT_EQ(stats.requests_failed, 0u);
  EXPECT_EQ(stats.frames_rejected, 0u);
}

// ----------------------------------------------------------------- vacuum

TEST(WireTest, VacuumRequestRoundTrip) {
  VacuumRequest request;
  request.drop_before = Day(4);
  request.coarsen_older_than = Day(9);
  request.keep_every = 3;
  auto decoded = DecodeVacuumRequest(EncodeVacuumRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->drop_before, request.drop_before);
  EXPECT_EQ(decoded->coarsen_older_than, request.coarsen_older_than);
  EXPECT_EQ(decoded->keep_every, 3u);

  // Each horizon is independently optional.
  VacuumRequest sparse;
  sparse.coarsen_older_than = Day(2);
  auto partial = DecodeVacuumRequest(EncodeVacuumRequest(sparse));
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->drop_before.has_value());
  EXPECT_EQ(partial->coarsen_older_than, sparse.coarsen_older_than);
}

TEST(NetTest, VacuumOverTheWirePreservesPostHorizonAnswers) {
  ServerFixture fixture;
  PutGuideHistory(fixture.service.get());
  auto client = fixture.Connect();
  ASSERT_TRUE(client.ok());

  QueryRequest day3;
  day3.query_text = kPaperQueries[0];  // snapshot at day 3, the horizon
  auto before = client->Execute(day3);
  ASSERT_TRUE(before.ok());

  VacuumRequest vacuum;
  vacuum.drop_before = Day(3);
  auto response = client->Execute(vacuum);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find("<vacuum-result"), std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("vacuumed=\"1\""), std::string::npos)
      << response->payload;

  auto after = client->Execute(day3);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->payload, before->payload);

  // A degenerate policy comes back as a typed error, not a dropped
  // connection.
  VacuumRequest empty;
  auto rejected = client->Execute(empty);
  EXPECT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
}

TEST(NetTest, ServerReportsEffectiveConnectionThreads) {
  // connection_threads = 0 means "use the default"; the accessor must
  // report the resolved pool size, never the raw 0 (the startup banner
  // prints it).
  ServerOptions defaulted;
  defaulted.connection_threads = 0;
  ServerFixture fixture(defaulted);
  EXPECT_EQ(fixture.server->connection_threads(), kDefaultConnectionThreads);

  ServerOptions pinned;
  pinned.connection_threads = 3;
  ServerFixture small(pinned);
  EXPECT_EQ(small.server->connection_threads(), 3u);
}

// ------------------------------------------------------------ client retry

/// Speaks just enough of the response protocol to script a flaky server:
/// header (+ one chunk when OK) + end, exactly like TxmlServer's
/// SendResponse.
void SendScriptedResponse(Socket* socket, const Status& status,
                          const std::string& payload) {
  ResponseHeader header;
  header.status_code = status.code();
  header.error_message = status.message();
  header.payload_bytes = status.ok() ? payload.size() : 0;
  ASSERT_TRUE(WriteFrame(socket, FrameType::kResponseHeader,
                         EncodeResponseHeader(header))
                  .ok());
  if (status.ok() && !payload.empty()) {
    ASSERT_TRUE(WriteFrame(socket, FrameType::kResponseChunk, payload).ok());
  }
  ASSERT_TRUE(WriteFrame(socket, FrameType::kResponseEnd,
                         EncodeResponseEnd(header.payload_bytes))
                  .ok());
}

ClientOptions RetryOptions(int max_retries) {
  ClientOptions options;
  options.max_retries = max_retries;
  options.retry_backoff_initial_ms = 1;
  options.retry_backoff_max_ms = 5;
  return options;
}

TEST(ClientRetryTest, ConnectRetriesUntilTheServerComesUp) {
  uint16_t port;
  {
    auto probe = ListenSocket::Listen(0);
    ASSERT_TRUE(probe.ok());
    port = probe->port();
  }  // probe closed: connections to `port` now fail

  // Without retries the connect failure surfaces immediately.
  auto no_retry = TxmlClient::Connect("127.0.0.1", port, RetryOptions(0));
  EXPECT_FALSE(no_retry.ok());

  std::atomic<bool> accepted{false};
  std::thread late_server([port, &accepted] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    auto listener = ListenSocket::Listen(port);
    if (!listener.ok()) return;
    auto conn = listener->Accept();
    accepted.store(conn.ok());
  });
  ClientOptions options = RetryOptions(50);
  options.retry_backoff_initial_ms = 20;
  options.retry_backoff_max_ms = 50;
  auto client = TxmlClient::Connect("127.0.0.1", port, options);
  late_server.join();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(accepted.load());
}

TEST(ClientRetryTest, ServerReportedUnavailableIsRetried) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::atomic<int> requests{0};
  std::thread fake([&] {
    // Round 1: shed the request, hang up (like an overloaded TxmlServer).
    {
      auto conn = listener->Accept();
      ASSERT_TRUE(conn.ok());
      auto frame = ReadFrame(&*conn, kDefaultMaxFrameBytes);
      ASSERT_TRUE(frame.ok());
      requests.fetch_add(1);
      SendScriptedResponse(&*conn, Status::Unavailable("try again"), "");
    }
    // Round 2: serve the retried request.
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto frame = ReadFrame(&*conn, kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok());
    requests.fetch_add(1);
    SendScriptedResponse(&*conn, Status::OK(), "pong");
  });
  auto client =
      TxmlClient::Connect("127.0.0.1", listener->port(), RetryOptions(3));
  ASSERT_TRUE(client.ok());
  QueryRequest request;
  request.query_text = "SELECT";
  auto response = client->Execute(request);
  fake.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->payload, "pong");
  EXPECT_EQ(requests.load(), 2);
}

TEST(ClientRetryTest, MaxRetriesZeroSurfacesUnavailableUnchanged) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::atomic<int> requests{0};
  std::thread fake([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto frame = ReadFrame(&*conn, kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok());
    requests.fetch_add(1);
    SendScriptedResponse(&*conn, Status::Unavailable("no capacity"), "");
    // No second request may arrive — only the client's hangup.
    auto next = ReadFrame(&*conn, kDefaultMaxFrameBytes);
    EXPECT_FALSE(next.ok());
  });
  auto client =
      TxmlClient::Connect("127.0.0.1", listener->port(), RetryOptions(0));
  ASSERT_TRUE(client.ok());
  QueryRequest request;
  request.query_text = "SELECT";
  auto response = client->Execute(request);
  client->Close();
  fake.join();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsUnavailable());
  EXPECT_EQ(requests.load(), 1);
}

TEST(ClientRetryTest, TimeoutAfterASentWriteIsNeverRetried) {
  auto listener = ListenSocket::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::atomic<int> requests{0};
  std::thread fake([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    auto frame = ReadFrame(&*conn, kDefaultMaxFrameBytes);
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame->type, FrameType::kPutRequest);
    requests.fetch_add(1);
    // Never respond: the commit may or may not have landed. A retry here
    // would risk a duplicate commit, so the client must NOT resend — the
    // next thing on the wire has to be its hangup.
    auto next = ReadFrame(&*conn, kDefaultMaxFrameBytes);
    EXPECT_FALSE(next.ok());
  });
  ClientOptions options = RetryOptions(5);
  options.read_timeout_ms = 200;
  auto client = TxmlClient::Connect("127.0.0.1", listener->port(), options);
  ASSERT_TRUE(client.ok());
  PutRequest put;
  put.url = "u";
  put.xml_text = "<d><x>1</x></d>";
  auto response = client->Execute(put);
  client->Close();
  fake.join();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsTimeout()) << response.status().ToString();
  EXPECT_EQ(requests.load(), 1);
}

TEST(ClientRetryTest, ClosedClientReconnectsTransparently) {
  ServerFixture fixture;
  PutGuideHistory(fixture.service.get());
  auto client = fixture.Connect(RetryOptions(1));
  ASSERT_TRUE(client.ok());
  QueryRequest request;
  request.query_text = kPaperQueries[1];
  auto first = client->Execute(request);
  ASSERT_TRUE(first.ok());

  // An explicitly closed client re-dials on the next request.
  client->Close();
  EXPECT_FALSE(client->connected());
  auto second = client->Execute(request);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->payload, first->payload);
  EXPECT_EQ(fixture.server->Stats().connections_accepted, 2u);
}

// ---------------------------------------------------------- load shedding

TEST(NetTest, OverloadedServerShedsConnectionsWithUnavailable) {
  ServerOptions server_options;
  server_options.connection_threads = 1;
  server_options.max_pending_connections = 1;
  ServerFixture fixture(server_options);
  PutGuideHistory(fixture.service.get());

  // Occupy the only handler thread…
  auto busy = fixture.Connect();
  ASSERT_TRUE(busy.ok());
  QueryRequest request;
  request.query_text = kPaperQueries[1];
  ASSERT_TRUE(busy->Execute(request).ok());

  // …fill the pending queue (wait for the accept loop to register it)…
  auto queued = fixture.Connect();
  ASSERT_TRUE(queued.ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fixture.server->Stats().connections_accepted < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(fixture.server->Stats().connections_accepted, 2u);

  // …and the next connection is shed with a typed, retryable error
  // instead of waiting in an unbounded line.
  auto raw = Socket::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetTimeouts(5000, 5000).ok());
  auto reply = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kResponseHeader);
  auto header = DecodeResponseHeader(reply->payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->status_code, StatusCode::kUnavailable);
  EXPECT_NE(header->error_message.find("overloaded"), std::string::npos);
  auto end = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end->type, FrameType::kResponseEnd);
  EXPECT_EQ(fixture.server->Stats().connections_rejected, 1u);

  // The queued connection is served once the handler frees up.
  busy->Close();
  auto served = queued->Execute(request);
  EXPECT_TRUE(served.ok()) << served.status().ToString();
}

TEST(ClientRetryTest, RetryingClientRidesOutServerOverload) {
  ServerOptions server_options;
  server_options.connection_threads = 1;
  server_options.max_pending_connections = 1;
  ServerFixture fixture(server_options);
  PutGuideHistory(fixture.service.get());

  auto busy = fixture.Connect();
  ASSERT_TRUE(busy.ok());
  QueryRequest request;
  request.query_text = kPaperQueries[1];
  ASSERT_TRUE(busy->Execute(request).ok());
  auto queued = fixture.Connect();  // fills the pending queue
  ASSERT_TRUE(queued.ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (fixture.server->Stats().connections_accepted < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }

  // Capacity frees up while the shed client is backing off.
  std::thread relief([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    queued->Close();
    busy->Close();
  });

  ClientOptions options;
  options.max_retries = 10;
  options.retry_backoff_initial_ms = 20;
  options.retry_backoff_max_ms = 200;
  auto client = fixture.Connect(options);
  ASSERT_TRUE(client.ok());
  auto served = client->Execute(request);
  relief.join();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_GE(fixture.server->Stats().connections_rejected, 1u);
}

// -------------------------------------------------------------- CLI flags

TEST(CliFlagsTest, ParseFlagValueMatchesOnlyNameEqualsValue) {
  std::string value;
  EXPECT_TRUE(ParseFlagValue("--port=7400", "--port", &value));
  EXPECT_EQ(value, "7400");
  EXPECT_TRUE(ParseFlagValue("--port=", "--port", &value));
  EXPECT_EQ(value, "");
  EXPECT_FALSE(ParseFlagValue("--port", "--port", &value));
  EXPECT_FALSE(ParseFlagValue("--ports=1", "--port", &value));
  EXPECT_FALSE(ParseFlagValue("--por=1", "--port", &value));
}

// Regression: these went through raw std::stoi/std::stoul, which threw an
// uncaught exception on "--port=abc" and silently truncated "--port=99999"
// through the uint16_t cast.
TEST(CliFlagsTest, ParsePortFlagRejectsGarbageAndOutOfRange) {
  auto ok = ParsePortFlag("7400");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7400);
  EXPECT_EQ(*ParsePortFlag("0"), 0);
  EXPECT_EQ(*ParsePortFlag("65535"), 65535);

  EXPECT_FALSE(ParsePortFlag("").ok());
  EXPECT_FALSE(ParsePortFlag("abc").ok());
  EXPECT_FALSE(ParsePortFlag("74a0").ok());
  EXPECT_FALSE(ParsePortFlag("-1").ok());
  EXPECT_FALSE(ParsePortFlag("65536").ok());
  EXPECT_FALSE(ParsePortFlag("99999").ok());
  EXPECT_FALSE(ParsePortFlag("184467440737095516160").ok());

  Status bad = ParsePortFlag("abc").status();
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_NE(bad.message().find("not a number"), std::string::npos)
      << bad.ToString();
  Status big = ParsePortFlag("99999").status();
  EXPECT_NE(big.message().find("out of range"), std::string::npos)
      << big.ToString();
}

TEST(CliFlagsTest, ParseSizeFlagRejectsGarbageAndOverflow) {
  EXPECT_EQ(*ParseSizeFlag("0"), 0u);
  EXPECT_EQ(*ParseSizeFlag("16"), 16u);
  EXPECT_EQ(*ParseSizeFlag("18446744073709551615"),
            std::numeric_limits<size_t>::max());

  EXPECT_FALSE(ParseSizeFlag("").ok());
  EXPECT_FALSE(ParseSizeFlag("x").ok());
  EXPECT_FALSE(ParseSizeFlag("1 2").ok());
  EXPECT_FALSE(ParseSizeFlag("18446744073709551616").ok());  // 2^64
}

TEST(CliFlagsTest, ParseHostPortFlagSplitsOnLastColon) {
  auto parsed = ParseHostPortFlag("127.0.0.1:7400");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->first, "127.0.0.1");
  EXPECT_EQ(parsed->second, 7400);

  EXPECT_FALSE(ParseHostPortFlag("").ok());
  EXPECT_FALSE(ParseHostPortFlag("justhost").ok());
  EXPECT_FALSE(ParseHostPortFlag(":7400").ok());
  EXPECT_FALSE(ParseHostPortFlag("host:").ok());
  EXPECT_FALSE(ParseHostPortFlag("host:abc").ok());
  EXPECT_FALSE(ParseHostPortFlag("host:0").ok());
  EXPECT_FALSE(ParseHostPortFlag("host:99999").ok());
}

// ------------------------------------------------- replication frames --

TEST(WireTest, ReplFramesRoundTrip) {
  ReplSubscribeRequest subscribe;
  subscribe.from_sequence = 41;
  subscribe.follower_name = "f1";
  auto subscribe_again = DecodeReplSubscribe(EncodeReplSubscribe(subscribe));
  ASSERT_TRUE(subscribe_again.ok()) << subscribe_again.status().ToString();
  EXPECT_EQ(subscribe_again->from_sequence, 41u);
  EXPECT_EQ(subscribe_again->follower_name, "f1");
  EXPECT_TRUE(subscribe_again->auth_token.empty());

  ReplBatch batch;
  batch.leader_last_sequence = 7;
  for (uint64_t sequence = 6; sequence <= 7; ++sequence) {
    WalRecord record;
    record.type = WalRecordType::kPut;
    record.sequence = sequence;
    record.ts = Day(static_cast<int>(sequence));
    record.url = "u";
    record.payload = "<v n=\"" + std::to_string(sequence) + "\"/>";
    batch.records.push_back(std::move(record));
  }
  auto batch_again = DecodeReplBatch(EncodeReplBatch(batch));
  ASSERT_TRUE(batch_again.ok()) << batch_again.status().ToString();
  EXPECT_EQ(batch_again->leader_last_sequence, 7u);
  ASSERT_EQ(batch_again->records.size(), 2u);
  EXPECT_EQ(batch_again->records[0].sequence, 6u);
  EXPECT_EQ(batch_again->records[1].payload, "<v n=\"7\"/>");
  EXPECT_EQ(batch_again->records[1].ts, Day(7));

  ReplHeartbeat heartbeat;
  heartbeat.leader_last_sequence = 12;
  auto heartbeat_again = DecodeReplHeartbeat(EncodeReplHeartbeat(heartbeat));
  ASSERT_TRUE(heartbeat_again.ok());
  EXPECT_EQ(heartbeat_again->leader_last_sequence, 12u);

  ReplAck ack;
  ack.applied_sequence = 11;
  auto ack_again = DecodeReplAck(EncodeReplAck(ack));
  ASSERT_TRUE(ack_again.ok());
  EXPECT_EQ(ack_again->applied_sequence, 11u);

  auto stats_again = DecodeStatsRequest(EncodeStatsRequest(StatsRequest{}));
  ASSERT_TRUE(stats_again.ok());
  EXPECT_TRUE(stats_again->auth_token.empty());
}

TEST(WireTest, ReplFrameDecodersRejectTruncationAndTrailingGarbage) {
  ReplBatch batch;
  batch.leader_last_sequence = 3;
  WalRecord record;
  record.type = WalRecordType::kPut;
  record.sequence = 3;
  record.ts = Day(3);
  record.url = "u";
  record.payload = "<r/>";
  batch.records.push_back(std::move(record));

  ReplSubscribeRequest subscribe;
  subscribe.from_sequence = 1;
  subscribe.follower_name = "f";

  ReplHeartbeat heartbeat;
  heartbeat.leader_last_sequence = 2;

  ReplAck ack;
  ack.applied_sequence = 2;

  const struct {
    const char* what;
    std::string encoded;
    std::function<Status(std::string_view)> decode;
  } kCases[] = {
      {"ReplSubscribe", EncodeReplSubscribe(subscribe),
       [](std::string_view bytes) {
         return DecodeReplSubscribe(bytes).status();
       }},
      {"ReplBatch", EncodeReplBatch(batch),
       [](std::string_view bytes) { return DecodeReplBatch(bytes).status(); }},
      {"ReplHeartbeat", EncodeReplHeartbeat(heartbeat),
       [](std::string_view bytes) {
         return DecodeReplHeartbeat(bytes).status();
       }},
      {"ReplAck", EncodeReplAck(ack),
       [](std::string_view bytes) { return DecodeReplAck(bytes).status(); }},
      {"StatsRequest", EncodeStatsRequest(StatsRequest{}),
       [](std::string_view bytes) {
         return DecodeStatsRequest(bytes).status();
       }},
  };
  for (const auto& c : kCases) {
    // Every strict prefix must fail cleanly, never crash or accept.
    for (size_t cut = 0; cut < c.encoded.size(); ++cut) {
      Status status =
          c.decode(std::string_view(c.encoded).substr(0, cut));
      ASSERT_FALSE(status.ok())
          << c.what << " decoded a prefix of " << cut << " bytes";
      EXPECT_EQ(status.code(), StatusCode::kInvalidFrame) << c.what;
    }
    Status trailing = c.decode(c.encoded + "x");
    ASSERT_FALSE(trailing.ok()) << c.what << " accepted trailing garbage";
    EXPECT_EQ(trailing.code(), StatusCode::kInvalidFrame) << c.what;
  }

  // A batch whose announced record count exceeds what the bytes hold
  // must be rejected outright, not trusted for a giant reserve.
  std::string huge;
  PutVarint32(&huge, kEnvelopeVersion);
  PutVarint64(&huge, 3);            // leader_last_sequence
  PutVarint32(&huge, 1000000);      // record count: a lie
  auto lying = DecodeReplBatch(huge);
  ASSERT_FALSE(lying.ok());
  EXPECT_EQ(lying.status().code(), StatusCode::kInvalidFrame);
}

TEST(NetTest, SubscribeToNonReplicatingServerIsRejected) {
  ServerFixture fixture;  // no repl_handler installed
  auto raw = Socket::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetTimeouts(2000, 2000).ok());

  ReplSubscribeRequest subscribe;
  subscribe.from_sequence = 0;
  subscribe.follower_name = "f1";
  ASSERT_TRUE(WriteFrame(&*raw, FrameType::kReplSubscribe,
                         EncodeReplSubscribe(subscribe))
                  .ok());
  auto reply = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kResponseHeader);
  auto header = DecodeResponseHeader(reply->payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->status_code, StatusCode::kInvalidArgument);
  EXPECT_NE(header->error_message.find("not enabled"), std::string::npos)
      << header->error_message;

  // The connection closes after the rejection.
  auto end = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(end.ok());
  EXPECT_EQ(end->type, FrameType::kResponseEnd);
  auto eof = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
}

TEST(NetTest, MalformedSubscribeFrameIsRejected) {
  ServerFixture fixture;
  auto raw = Socket::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetTimeouts(2000, 2000).ok());

  ASSERT_TRUE(WriteFrame(&*raw, FrameType::kReplSubscribe,
                         "\xff\xff\xff\xff\xff")
                  .ok());
  auto reply = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kResponseHeader);
  auto header = DecodeResponseHeader(reply->payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->status_code, StatusCode::kInvalidFrame);
}

TEST(NetTest, SubscribeWithAuthTokenIsRejectedUntilAuthShips) {
  ServerFixture fixture;
  auto raw = Socket::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(raw->SetTimeouts(2000, 2000).ok());

  ReplSubscribeRequest subscribe;
  subscribe.auth_token = "secret";
  ASSERT_TRUE(WriteFrame(&*raw, FrameType::kReplSubscribe,
                         EncodeReplSubscribe(subscribe))
                  .ok());
  auto reply = ReadFrame(&*raw, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok());
  auto header = DecodeResponseHeader(reply->payload);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->status_code, StatusCode::kInvalidArgument);
  EXPECT_NE(header->error_message.find("auth"), std::string::npos)
      << header->error_message;
}

// One codec round trip per wire frame type, by name. txml_lint enforces
// that every FrameType enumerator appears in a test (a frame without a
// codec test is a frame whose format can drift silently); this battery is
// the canonical reference point, so adding an enum value without a codec
// test fails the lint until a case lands here.
TEST(WireTest, EveryFrameTypeHasACodecRoundTrip) {
  std::string framed;

  QueryRequest query;
  query.query_text = "SELECT R FROM doc(\"u\")/r R";
  AppendFrame(FrameType::kQueryRequest, EncodeQueryRequest(query), &framed);
  auto query_again = DecodeQueryRequest(EncodeQueryRequest(query));
  ASSERT_TRUE(query_again.ok());
  EXPECT_EQ(query_again->query_text, query.query_text);

  PutRequest put;
  put.url = "http://example.com/menu.xml";
  put.xml_text = "<menu/>";
  put.timestamp = Day(26);
  AppendFrame(FrameType::kPutRequest, EncodePutRequest(put), &framed);
  auto put_again = DecodePutRequest(EncodePutRequest(put));
  ASSERT_TRUE(put_again.ok());
  EXPECT_EQ(put_again->url, put.url);

  ResponseHeader header;
  header.status_code = StatusCode::kNotFound;
  header.error_message = "gone";
  AppendFrame(FrameType::kResponseHeader, EncodeResponseHeader(header),
              &framed);
  auto header_again = DecodeResponseHeader(EncodeResponseHeader(header));
  ASSERT_TRUE(header_again.ok());
  EXPECT_EQ(header_again->status_code, header.status_code);

  // kResponseChunk carries raw payload bytes — no envelope codec. Its
  // "codec" is the frame layer itself: payload travels verbatim behind
  // the length prefix and tag (layout pinned by WireTest.FrameLayout).
  const std::string chunk_bytes = "<r v=\"1\"/>";
  framed.clear();
  AppendFrame(FrameType::kResponseChunk, chunk_bytes, &framed);
  ASSERT_EQ(framed.size(), 4 + 1 + chunk_bytes.size());
  EXPECT_EQ(framed.substr(5), chunk_bytes);

  AppendFrame(FrameType::kResponseEnd, EncodeResponseEnd(123), &framed);
  auto end_again = DecodeResponseEnd(EncodeResponseEnd(123));
  ASSERT_TRUE(end_again.ok());
  EXPECT_EQ(*end_again, 123u);

  VacuumRequest vacuum;
  vacuum.drop_before = Day(5);
  vacuum.keep_every = 3;
  AppendFrame(FrameType::kVacuumRequest, EncodeVacuumRequest(vacuum), &framed);
  auto vacuum_again = DecodeVacuumRequest(EncodeVacuumRequest(vacuum));
  ASSERT_TRUE(vacuum_again.ok());
  EXPECT_EQ(vacuum_again->keep_every, vacuum.keep_every);

  ReplSubscribeRequest subscribe;
  subscribe.from_sequence = 42;
  subscribe.follower_name = "f1";
  AppendFrame(FrameType::kReplSubscribe, EncodeReplSubscribe(subscribe),
              &framed);
  auto subscribe_again = DecodeReplSubscribe(EncodeReplSubscribe(subscribe));
  ASSERT_TRUE(subscribe_again.ok());
  EXPECT_EQ(subscribe_again->from_sequence, subscribe.from_sequence);

  ReplBatch batch;
  batch.leader_last_sequence = 9;
  WalRecord record;
  record.sequence = 9;
  record.type = WalRecordType::kPut;
  record.ts = Day(26);
  record.url = "u";
  record.payload = "<r/>";
  batch.records.push_back(record);
  AppendFrame(FrameType::kReplBatch, EncodeReplBatch(batch), &framed);
  auto batch_again = DecodeReplBatch(EncodeReplBatch(batch));
  ASSERT_TRUE(batch_again.ok());
  ASSERT_EQ(batch_again->records.size(), 1u);
  EXPECT_EQ(batch_again->records[0].url, "u");

  ReplHeartbeat heartbeat;
  heartbeat.leader_last_sequence = 9;
  AppendFrame(FrameType::kReplHeartbeat, EncodeReplHeartbeat(heartbeat),
              &framed);
  auto heartbeat_again = DecodeReplHeartbeat(EncodeReplHeartbeat(heartbeat));
  ASSERT_TRUE(heartbeat_again.ok());
  EXPECT_EQ(heartbeat_again->leader_last_sequence, 9u);

  ReplAck ack;
  ack.applied_sequence = 8;
  AppendFrame(FrameType::kReplAck, EncodeReplAck(ack), &framed);
  auto ack_again = DecodeReplAck(EncodeReplAck(ack));
  ASSERT_TRUE(ack_again.ok());
  EXPECT_EQ(ack_again->applied_sequence, 8u);

  AppendFrame(FrameType::kStatsRequest, EncodeStatsRequest(StatsRequest{}),
              &framed);
  auto stats_again = DecodeStatsRequest(EncodeStatsRequest(StatsRequest{}));
  ASSERT_TRUE(stats_again.ok());

  WriteBatchRequest write_batch;
  WriteBatchItem item;
  item.url = "u";
  item.xml_text = "<r/>";
  write_batch.items.push_back(item);
  AppendFrame(FrameType::kWriteBatchRequest,
              EncodeWriteBatchRequest(write_batch), &framed);
  auto write_batch_again =
      DecodeWriteBatchRequest(EncodeWriteBatchRequest(write_batch));
  ASSERT_TRUE(write_batch_again.ok());
  ASSERT_EQ(write_batch_again->items.size(), 1u);
  EXPECT_EQ(write_batch_again->items[0].url, "u");

  CheckpointRequest checkpoint_request;
  checkpoint_request.resume_offset = 4096;
  checkpoint_request.resume_crc32c = 0xDEADBEEF;
  AppendFrame(FrameType::kCheckpointRequest,
              EncodeCheckpointRequest(checkpoint_request), &framed);
  auto checkpoint_request_again =
      DecodeCheckpointRequest(EncodeCheckpointRequest(checkpoint_request));
  ASSERT_TRUE(checkpoint_request_again.ok());
  EXPECT_EQ(checkpoint_request_again->resume_offset, 4096u);

  CheckpointMeta meta;
  meta.covered_sequence = 9;
  meta.total_bytes = 48;
  meta.archive_crc32c = 0x12345678;
  meta.files = {{"store.txml", 32}, {"checkpoint.txml", 16}};
  AppendFrame(FrameType::kCheckpointMeta, EncodeCheckpointMeta(meta), &framed);
  auto meta_again = DecodeCheckpointMeta(EncodeCheckpointMeta(meta));
  ASSERT_TRUE(meta_again.ok());
  ASSERT_EQ(meta_again->files.size(), 2u);
  EXPECT_EQ(meta_again->files[0].name, "store.txml");

  CheckpointChunk chunk;
  chunk.offset = 16;
  chunk.data = "<store/>";
  chunk.crc32c = 0x9ABCDEF0;
  AppendFrame(FrameType::kCheckpointChunk, EncodeCheckpointChunk(chunk),
              &framed);
  auto chunk_again = DecodeCheckpointChunk(EncodeCheckpointChunk(chunk));
  ASSERT_TRUE(chunk_again.ok());
  EXPECT_EQ(chunk_again->data, chunk.data);
}

TEST(NetTest, StatsRequestServesReplicationGauges) {
  ServerFixture fixture;
  auto client = TxmlClient::Connect("127.0.0.1", fixture.server->port());
  ASSERT_TRUE(client.ok());
  auto response = client->Stats();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->payload.find("<replication "), std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("last-committed-sequence="),
            std::string::npos)
      << response->payload;
  EXPECT_NE(response->payload.find("read-only=\"false\""), std::string::npos)
      << response->payload;
}

TEST(NetTest, StatsFrameKeepsItsElementAndAttributeOrder) {
  // Monitoring scripts key on the stats frame's names: pin every element
  // and its attributes, in order, as a fresh server serves them after one
  // query.
  ServerFixture fixture;
  PutGuideHistory(fixture.service.get());
  auto client = fixture.Connect();
  ASSERT_TRUE(client.ok());
  QueryRequest request;
  request.query_text = kPaperQueries[0];
  ASSERT_TRUE(client->Execute(request).ok());
  auto response = client->Stats();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto parsed = ParseXml(response->payload);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  std::vector<std::string> shape;
  std::function<void(const XmlNode&)> walk = [&](const XmlNode& element) {
    std::string line = element.name() + ":";
    for (const auto& child : element.children()) {
      if (child->is_attribute()) line += " " + child->name();
    }
    shape.push_back(line);
    for (const auto& child : element.children()) {
      if (child->is_element()) walk(*child);
    }
  };
  walk(*parsed->root());
  const std::vector<std::string> expected = {
      "stats:",
      "service: queries writes vacuums queries-failed writes-failed "
      "write-batches",
      "durability: wal-last-sequence wal-bytes checkpoints "
      "checkpoints-failed recovered-records",
      "replication: last-committed-sequence last-checkpoint-sequence "
      "replicated-applied replicated-skipped reseeds reseed-bytes read-only",
      "commit-path: shards acquires waits batches records syncs max-batch",
      "fti: main-postings differential-postings compactions",
      "planner: scans-index scans-traversal lifetime-index "
      "lifetime-traversal fallbacks",
      "server: connections-accepted requests-served requests-failed "
      "requests-rate-limited connections-rejected frames-rejected timeouts",
      "snapshot-cache: hits misses evictions",
  };
  EXPECT_EQ(shape, expected) << response->payload;
}

}  // namespace
}  // namespace txml
