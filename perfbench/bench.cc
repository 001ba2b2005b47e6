#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "perfbench/trace.h"
#include "src/lang/executor.h"
#include "src/net/client.h"
#include "src/util/thread.h"
#include "src/xml/parser.h"
#include "src/xml/serializer.h"

namespace perfbench {

using txml::QueryRequest;
using txml::QueryResponse;
using txml::TemporalQueryService;
using txml::TxmlClient;

void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

txml::ServiceOptions ServiceOptionsFor(const Sizes& sizes,
                                       const std::string& data_dir) {
  txml::ServiceOptions options;
  options.durability.data_dir = data_dir;
  if (sizes.checkpoint_log_records > 0) {
    options.durability.checkpoint_log_records = sizes.checkpoint_log_records;
  }
  return options;
}

std::unique_ptr<Instance> Instance::Start(const Sizes& sizes,
                                          const std::string& data_dir) {
  auto instance = std::unique_ptr<Instance>(new Instance());
  instance->data_dir_ = data_dir;
  auto service =
      TemporalQueryService::Create(ServiceOptionsFor(sizes, data_dir));
  if (!service.ok()) Die("service: " + service.status().ToString());
  instance->service_ = std::move(service.value());
  instance->server_ = std::make_unique<txml::TxmlServer>(
      instance->service_.get(), txml::ServerOptions{});
  txml::Status started = instance->server_->Start();
  if (!started.ok()) Die("server: " + started.ToString());
  return instance;
}

Instance::~Instance() { Shutdown(); }

void Instance::Shutdown() {
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  service_.reset();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank.
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::vector<std::vector<double>> OneSecondWindows(
    const std::vector<double>& us, const std::vector<double>& end_s) {
  double last = 0;
  for (double t : end_s) last = std::max(last, t);
  std::vector<std::vector<double>> windows(
      std::max<size_t>(1, static_cast<size_t>(last)));
  for (size_t i = 0; i < us.size(); ++i) {
    const auto w = static_cast<size_t>(end_s[i]);
    if (w < windows.size()) windows[w].push_back(us[i]);
  }
  return windows;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

std::string SerializeResult(const txml::XmlDocument& doc) {
  txml::SerializeOptions options;
  options.pretty = QueryRequest{}.pretty;
  return txml::SerializeXml(*doc.root(), options);
}

std::vector<txml::WriteBatchRequest> LoadBatches(const Inputs& inputs,
                                                 size_t connection,
                                                 size_t connections) {
  std::vector<txml::WriteBatchRequest> batches;
  const Sizes& sizes = inputs.sizes;
  for (size_t v = 0; v < sizes.versions; ++v) {
    txml::WriteBatchRequest batch;
    for (size_t d = connection; d < inputs.documents.size(); d += connections) {
      const DocumentHistory& doc = inputs.documents[d];
      txml::WriteBatchItem item;
      item.url = doc.url;
      item.xml_text = doc.xml[v];
      item.timestamp = doc.ts[v];
      batch.items.push_back(std::move(item));
      if (batch.items.size() == sizes.load_batch) {
        batches.push_back(std::move(batch));
        batch = {};
      }
    }
    if (!batch.items.empty()) batches.push_back(std::move(batch));
  }
  return batches;
}

TxmlClient ConnectOrDie(uint16_t port) {
  auto client = TxmlClient::Connect("127.0.0.1", port);
  if (!client.ok()) Die("connect: " + client.status().ToString());
  return std::move(client.value());
}

bool BatchCommitted(const txml::StatusOr<QueryResponse>& response) {
  return response.ok() &&
         response->payload.find(" failed=\"0\"") != std::string::npos;
}

namespace {

/// Runs `fn(i)` on `n` threads and joins them.
template <typename Fn>
void Parallel(size_t n, Fn fn) {
  std::vector<txml::Thread> threads;
  for (size_t i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (txml::Thread& t : threads) t.Join();
}

}  // namespace

std::vector<double> LoadOverWire(const Inputs& inputs, uint16_t port,
                                 size_t connections) {
  std::vector<std::vector<double>> latencies(connections);
  std::atomic<bool> failed{false};
  Parallel(connections, [&](size_t c) {
    TxmlClient client = ConnectOrDie(port);
    for (const txml::WriteBatchRequest& batch :
         LoadBatches(inputs, c, connections)) {
      const int64_t start = NowNanos();
      auto response = client.Execute(batch);
      latencies[c].push_back(static_cast<double>(NowNanos() - start) / 1e3);
      if (!BatchCommitted(response)) {
        std::fprintf(stderr, "perfbench: load batch failed: %s\n",
                     response.ok() ? response->payload.substr(0, 400).c_str()
                                   : response.status().ToString().c_str());
        failed = true;
        return;
      }
    }
  });
  if (failed) Die("set-up load failed");
  std::vector<double> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  return all;
}

void WarmUp(const Inputs& inputs, uint16_t port) {
  std::atomic<bool> failed{false};
  Parallel(inputs.queries.size(), [&](size_t c) {
    TxmlClient client = ConnectOrDie(port);
    const auto& list = inputs.queries[c];
    for (size_t i = 0; i < inputs.sizes.warmup_per_connection; ++i) {
      QueryRequest request;
      request.query_text = list[i % list.size()].text;
      auto response = client.Execute(request);
      if (!response.ok()) {
        std::fprintf(stderr, "perfbench: %s: %s\n",
                     request.query_text.c_str(),
                     response.status().ToString().c_str());
        failed = true;
      }
    }
  });
  if (failed) Die("warm-up query failed");
}

LoopOutcome ClosedLoop(const Inputs& inputs, uint16_t port, double seconds,
                       const std::vector<size_t>& first_put) {
  const Sizes& sizes = inputs.sizes;
  const size_t readers = inputs.queries.size();
  const size_t writers = inputs.next.empty() ? 0 : sizes.write_connections;
  LoopOutcome out;
  out.checked.resize(readers);
  out.acked = first_put;
  std::vector<std::vector<double>> latencies(readers + writers);
  std::vector<std::vector<double>> ends(readers + writers);
  std::vector<std::vector<QuerySpec::Kind>> kinds(readers);
  std::vector<uint64_t> failures(readers + writers, 0);
  std::vector<uint64_t> bytes(writers, 0);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> exhausted{false};
  std::atomic<int64_t> deadline{0};
  int64_t start_ns = 0;

  auto wait_for_start = [&] {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  };
  auto body = [&](size_t t) {
    TxmlClient client = ConnectOrDie(port);
    if (t < readers) {
      const auto& list = inputs.queries[t];
      size_t i = sizes.warmup_per_connection;
      wait_for_start();
      for (; NowNanos() < deadline.load(); ++i) {
        QueryRequest request;
        request.query_text = list[i % list.size()].text;
        const int64_t t0 = NowNanos();
        auto response = client.Execute(request);
        const int64_t t1 = NowNanos();
        latencies[t].push_back(static_cast<double>(t1 - t0) / 1e3);
        ends[t].push_back(static_cast<double>(t1 - start_ns) / 1e9);
        kinds[t].push_back(list[i % list.size()].kind);
        if (!response.ok()) {
          ++failures[t];
        } else if (i - sizes.warmup_per_connection <
                   sizes.check_per_connection) {
          out.checked[t].push_back(std::move(response->payload));
        }
      }
      return;
    }
    // Writer w owns documents d with d % writers == w and puts their next
    // versions round-robin.
    const size_t w = t - readers;
    std::vector<size_t> docs;
    for (size_t d = w; d < inputs.next.size(); d += writers) docs.push_back(d);
    wait_for_start();
    for (size_t k = 0; NowNanos() < deadline.load(); ++k) {
      const size_t d = docs[k % docs.size()];
      const DocumentHistory& next = inputs.next[d];
      if (out.acked[d] >= next.xml.size()) {
        exhausted = true;
        break;
      }
      txml::PutRequest put;
      put.url = next.url;
      put.xml_text = next.xml[out.acked[d]];
      put.timestamp = next.ts[out.acked[d]];
      const int64_t t0 = NowNanos();
      auto response = client.Execute(put);
      const int64_t t1 = NowNanos();
      latencies[t].push_back(static_cast<double>(t1 - t0) / 1e3);
      ends[t].push_back(static_cast<double>(t1 - start_ns) / 1e9);
      if (!response.ok()) {
        ++failures[t];
        std::fprintf(stderr, "perfbench: put failed: %s\n",
                     response.status().ToString().c_str());
        break;  // later versions of the document would be out of order
      }
      bytes[w] += put.xml_text.size();
      ++out.acked[d];
    }
  };

  std::vector<txml::Thread> threads;
  for (size_t t = 0; t < readers + writers; ++t) threads.emplace_back(body, t);
  while (ready.load() < readers + writers) std::this_thread::yield();
  start_ns = NowNanos();
  deadline = start_ns + static_cast<int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  for (txml::Thread& t : threads) t.Join();

  for (size_t t = 0; t < readers; ++t) {
    out.query_us.insert(out.query_us.end(), latencies[t].begin(),
                        latencies[t].end());
    out.query_end_s.insert(out.query_end_s.end(), ends[t].begin(),
                           ends[t].end());
    out.query_kind.insert(out.query_kind.end(), kinds[t].begin(),
                          kinds[t].end());
    out.query_failed += failures[t];
  }
  for (size_t t = readers; t < readers + writers; ++t) {
    out.put_us.insert(out.put_us.end(), latencies[t].begin(),
                      latencies[t].end());
    out.put_end_s.insert(out.put_end_s.end(), ends[t].begin(), ends[t].end());
    out.put_failed += failures[t];
    out.put_bytes += bytes[t - readers];
  }
  out.puts_exhausted = exhausted;
  return out;
}

namespace {

/// Newlines escaped, for one-line diagnostics.
std::string OneLine(std::string s) {
  for (size_t i = 0; (i = s.find('\n', i)) != std::string::npos;) {
    s.replace(i, 1, "\\n");
  }
  return s;
}

/// The <result> rows of a payload, each serialized compactly, sorted: the
/// dialect has no ORDER BY, so the index and traversal arms may emit the
/// same rows in different orders.
std::vector<std::string> SortedRows(const std::string& payload) {
  std::vector<std::string> rows;
  auto doc = txml::ParseXml(payload);
  if (!doc.ok()) return {"<unparsable>"};
  for (const auto& row : doc->root()->children()) {
    rows.push_back(txml::SerializeXml(*row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// True when `got` equals the oracle's `want` byte for byte, or row for
/// row in another order (counted in `reordered`).
bool SameAnswer(const std::string& want, const std::string& got,
                uint64_t* reordered) {
  if (want == got) return true;
  if (SortedRows(want) != SortedRows(got)) return false;
  ++*reordered;
  return true;
}

/// The answer oracle: an in-process executor over the service's database
/// at its current epoch, pinned to the traversal arms, with no cache.
txml::QueryExecutor TraversalOracle(TemporalQueryService* service) {
  txml::QueryContext ctx = service->database().Context();
  ctx.snapshot_cache = nullptr;
  txml::ExecOptions options;
  options.now = service->Epoch();
  options.scan_strategy = txml::ScanStrategy::kTraversal;
  options.lifetime_strategy = txml::LifetimeStrategy::kTraversal;
  return txml::QueryExecutor(ctx, options);
}

/// Compares each checked wire payload with the oracle over the same
/// database.
uint64_t CheckReads(const Inputs& inputs, const LoopOutcome& loop,
                    TemporalQueryService* service, uint64_t* reordered) {
  const txml::QueryExecutor oracle = TraversalOracle(service);
  uint64_t wrong = 0;
  for (size_t c = 0; c < loop.checked.size(); ++c) {
    const auto& list = inputs.queries[c];
    for (size_t j = 0; j < loop.checked[c].size(); ++j) {
      const QuerySpec& q =
          list[(inputs.sizes.warmup_per_connection + j) % list.size()];
      txml::ExecStats stats;
      auto expected = oracle.Execute(q.text, &stats);
      const std::string want = expected.ok() ? SerializeResult(*expected)
                                             : expected.status().ToString();
      const std::string& got = loop.checked[c][j];
      if (expected.ok() && SameAnswer(want, got, reordered)) continue;
      ++wrong;
      size_t at = 0;
      while (at < want.size() && at < got.size() && want[at] == got[at]) ++at;
      const size_t from = at < 80 ? 0 : at - 80;
      std::fprintf(stderr,
                   "perfbench: wrong answer for %s (first difference at "
                   "byte %zu)\n  oracle: ...%s\n  served: ...%s\n",
                   q.text.c_str(), at, OneLine(want.substr(from, 240)).c_str(),
                   OneLine(got.substr(from, 240)).c_str());
    }
  }
  return wrong;
}

/// The CREATE TIME query the ingest check asks about document `url`.
QueryRequest CreateTimeQuery(const std::string& url) {
  QueryRequest request;
  request.query_text = "SELECT CREATE TIME(R) FROM doc(\"" + url + "\")/item R";
  return request;
}

/// ingest: after the run, reopen the data dir. Each document's current
/// version must be its last acknowledged put, and its CREATE TIME answer
/// must equal both the answer the live service gave after that put
/// (`live_answers`) and the traversal oracle over the recovered state.
/// Returns the number of mismatching documents; sets the recovery time.
uint64_t RecoverAndCheck(const Inputs& inputs, const std::string& data_dir,
                         const std::vector<size_t>& acked,
                         const std::vector<std::string>& live_answers,
                         double* recovery_s, uint64_t* reordered) {
  const int64_t start = NowNanos();
  auto service =
      TemporalQueryService::Create(ServiceOptionsFor(inputs.sizes, data_dir));
  if (!service.ok()) Die("recovery: " + service.status().ToString());
  QueryRequest probe;
  probe.query_text =
      "SELECT COUNT(R) FROM doc(\"" + inputs.documents[0].url + "\")/item R";
  if (!(*service)->Execute(probe).ok()) Die("recovered service cannot serve");
  *recovery_s = static_cast<double>(NowNanos() - start) / 1e9;

  const txml::QueryExecutor oracle = TraversalOracle(service->get());
  uint64_t wrong = 0;
  for (size_t d = 0; d < inputs.documents.size(); ++d) {
    const DocumentHistory& doc = inputs.documents[d];
    const std::string& last =
        acked[d] == 0 ? doc.xml.back() : inputs.next[d].xml[acked[d] - 1];
    const txml::VersionedDocument* stored =
        (*service)->database().store().FindByUrl(doc.url);
    auto expected = txml::ParseXml(last);
    bool ok = stored != nullptr && expected.ok() &&
              stored->version_count() == doc.xml.size() + acked[d] &&
              txml::SerializeXml(*stored->current()) ==
                  txml::SerializeXml(*expected->root());
    const QueryRequest created = CreateTimeQuery(doc.url);
    auto answer = (*service)->Execute(created);
    txml::ExecStats stats;
    auto oracle_answer = oracle.Execute(created.query_text, &stats);
    const bool oracle_agrees =
        answer.ok() && oracle_answer.ok() &&
        SameAnswer(SerializeResult(*oracle_answer), answer->payload, reordered);
    ok = ok && answer.ok() && answer->payload == live_answers[d] &&
         oracle_agrees;
    if (!ok) {
      ++wrong;
      std::fprintf(stderr,
                   "perfbench: recovered %s does not match its last "
                   "acknowledged put (versions %zu, expected %zu; live "
                   "answer %s; oracle %s)\n",
                   doc.url.c_str(),
                   stored == nullptr ? size_t{0} : size_t{stored->version_count()},
                   doc.xml.size() + acked[d],
                   answer.ok() && answer->payload == live_answers[d] ? "same"
                                                                     : "differs",
                   oracle_agrees ? "same" : "differs");
    }
  }
  return wrong;
}

/// Median over windows of each window's percentile `p`.
double WindowedPercentile(const std::vector<std::vector<double>>& windows,
                          double p) {
  std::vector<double> per_window;
  for (const auto& w : windows) {
    if (!w.empty()) per_window.push_back(Percentile(w, p));
  }
  return Median(per_window);
}

/// Median over one-second windows of the requests completed in each.
double WindowedRate(const std::vector<std::vector<double>>& windows) {
  std::vector<double> per_window;
  for (const auto& w : windows) per_window.push_back(static_cast<double>(w.size()));
  return Median(per_window);
}

std::string SetupDir(const Args& args, size_t i) {
  return args.work_dir + "/data-" + std::to_string(i);
}

}  // namespace

void RunWorkload(const Args& args, const Inputs& inputs, Result* result) {
  const Sizes& sizes = inputs.sizes;
  const size_t connections = sizes.read_connections + sizes.write_connections;

  // Set up `setups` times; keep the last instance. setup_s and the load
  // rate are medians over the set-ups, the batch p50 pools their batches.
  std::vector<double> setup_s;
  std::vector<double> load_batch_us;
  std::vector<double> load_per_s;
  std::unique_ptr<Instance> instance;
  for (size_t i = 0; i < sizes.setups; ++i) {
    if (instance != nullptr) {
      instance->Shutdown();
      if (sizes.durable) std::filesystem::remove_all(instance->data_dir());
    }
    const int64_t start = NowNanos();
    instance = Instance::Start(sizes, sizes.durable ? SetupDir(args, i) : "");
    const std::vector<double> batch_us =
        LoadOverWire(inputs, instance->port(), connections);
    load_batch_us.insert(load_batch_us.end(), batch_us.begin(), batch_us.end());
    load_per_s.push_back(
        static_cast<double>(inputs.documents.size() * sizes.versions) /
        (static_cast<double>(NowNanos() - start) / 1e9));
    WarmUp(inputs, instance->port());
    setup_s.push_back(static_cast<double>(NowNanos() - start) / 1e9);
  }
  const txml::ServiceStats before = instance->service()->Stats();

  std::vector<size_t> first_put(inputs.next.size(), 0);
  LoopOutcome loop =
      ClosedLoop(inputs, instance->port(), args.seconds, first_put);
  if (loop.puts_exhausted) {
    result->notes.push_back("pre-generated puts ran out before the deadline");
  }
  const txml::ServiceStats after = instance->service()->Stats();

  uint64_t wrong = 0;
  uint64_t reordered = 0;
  double recovery_s = 0;
  uint64_t data_bytes = 0;
  uint64_t acked_bytes = inputs.SetupXmlBytes() + loop.put_bytes;
  if (sizes.durable) {
    std::vector<std::string> live_answers;
    for (const DocumentHistory& doc : inputs.documents) {
      auto answer = instance->service()->Execute(CreateTimeQuery(doc.url));
      if (!answer.ok()) Die("CREATE TIME: " + answer.status().ToString());
      live_answers.push_back(std::move(answer->payload));
    }
    const std::string dir = instance->data_dir();
    instance->Shutdown();
    data_bytes = DirectoryBytes(dir);
    wrong = RecoverAndCheck(inputs, dir, loop.acked, live_answers, &recovery_s,
                            &reordered);
  } else {
    wrong = CheckReads(inputs, loop, instance->service(), &reordered);
    instance->Shutdown();
  }

  const uint64_t queries = loop.query_us.size();
  const uint64_t puts = loop.put_us.size();
  result->attempted = queries + puts;
  result->wrong = wrong;
  result->failed = loop.query_failed + loop.put_failed + wrong;

  const bool ingest = !inputs.next.empty();
  std::vector<Metric>& m = result->metrics;
  // p50 and rates are medians over one-second windows, so a transient
  // stall moves them less.
  const auto query_windows = OneSecondWindows(loop.query_us, loop.query_end_s);
  std::string per_window = "query p50 per one-second window (us):";
  for (const auto& w : query_windows) {
    per_window += " " + std::to_string(static_cast<int64_t>(Percentile(w, 0.5)));
  }
  result->notes.push_back(per_window);
  m.push_back({"setup_s", Median(setup_s), "s"});
  m.push_back({"query_p50_us", WindowedPercentile(query_windows, 0.50), "us"});
  m.push_back({"query_qps", WindowedRate(query_windows), "1/s"});
  if (ingest) {
    const auto put_windows = OneSecondWindows(loop.put_us, loop.put_end_s);
    m.push_back({"write_p50_us", WindowedPercentile(put_windows, 0.50), "us"});
    m.push_back({"write_per_s", WindowedRate(put_windows), "1/s"});
  } else {
    // Read workloads write only while loading: one WriteBatchRequest
    // round trip, and document versions acknowledged per second of load.
    m.push_back({"write_p50_us", Percentile(load_batch_us, 0.50), "us"});
    m.push_back({"write_per_s", Median(load_per_s), "1/s"});
  }
  m.push_back({"rss_mb", PeakRssMb(), "MiB"});

  std::vector<Metric>& x = result->extra;
  x.push_back({"error_rate",
               result->attempted == 0
                   ? 0
                   : static_cast<double>(result->failed) / result->attempted,
               "ratio"});
  // p99 is printed, not gated: on a 4-vCPU host shared with other tenants
  // its spread across seeds exceeded the largest bound the gate allows.
  x.push_back({"query_p99_us", Percentile(loop.query_us, 0.99), "us"});
  x.push_back({"query_samples", static_cast<double>(queries), "count"});
  for (size_t k = 0; k < QuerySpec::kKindCount; ++k) {
    std::vector<double> of_kind;
    for (size_t i = 0; i < loop.query_us.size(); ++i) {
      if (static_cast<size_t>(loop.query_kind[i]) == k) {
        of_kind.push_back(loop.query_us[i]);
      }
    }
    if (of_kind.empty()) continue;
    const std::string kind = KindName(static_cast<QuerySpec::Kind>(k));
    x.push_back({"query_p50_us." + kind, Percentile(of_kind, 0.50), "us"});
    x.push_back({"query_samples." + kind, static_cast<double>(of_kind.size()),
                 "count"});
  }
  size_t checked = inputs.documents.size();
  if (!sizes.durable) {
    checked = 0;
    for (const auto& payloads : loop.checked) checked += payloads.size();
  }
  x.push_back({"answers_checked", static_cast<double>(checked), "count"});
  x.push_back({"answers_reordered", static_cast<double>(reordered), "count"});
  x.push_back({"cache_hits", static_cast<double>(after.snapshot_cache.hits -
                                                 before.snapshot_cache.hits),
               "count"});
  x.push_back({"cache_misses",
               static_cast<double>(after.snapshot_cache.misses -
                                   before.snapshot_cache.misses),
               "count"});
  if (ingest) {
    x.push_back({"put_p99_us", Percentile(loop.put_us, 0.99), "us"});
    x.push_back({"put_samples", static_cast<double>(puts), "count"});
    x.push_back({"bytes_per_user_byte",
                 static_cast<double>(data_bytes) /
                     static_cast<double>(acked_bytes),
                 "ratio"});
    x.push_back({"recovery_s", recovery_s, "s"});
    x.push_back({"fti_folds", static_cast<double>(after.fti.compactions),
                 "count"});
    x.push_back({"checkpoints",
                 static_cast<double>(after.durability.checkpoints_completed),
                 "count"});
  }
}

}  // namespace perfbench
