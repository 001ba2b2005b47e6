// E1 + E10 (paper Figure 1, Section 6.2): the worked queries Q1-Q3 on a
// scaled-up restaurant guide, plus the Q2 observation that aggregate-only
// snapshot queries need no reconstruction ("reconstruction of the
// documents is not needed. This is important...").
//
// The table printed first shows Q2 with and without the skip-
// reconstruction optimization; the benchmarks time Q1/Q2/Q3 end to end
// (parse -> plan -> temporal operators -> FTI -> render).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/lang/executor.h"
#include "src/workload/restaurant.h"
#include "src/xml/serializer.h"

namespace txml {
namespace bench {
namespace {

constexpr size_t kRestaurants = 150;
constexpr size_t kVersions = 80;
const char kUrl[] = "http://guide.com/restaurants.xml";

TemporalXmlDatabase* Guide() {
  static std::unique_ptr<TemporalXmlDatabase> db = [] {
    auto built = std::make_unique<TemporalXmlDatabase>(
        DatabaseOptions{.snapshot_every = 16});
    RestaurantWorkload workload(
        {.restaurants = kRestaurants, .price_change_prob = 0.05,
         .churn = 0.8, .seed = 11});
    for (size_t v = 0; v < kVersions; ++v) {
      auto put = built->PutDocumentTree(kUrl, workload.CurrentVersion(),
                                        DayN(v));
      if (!put.ok()) std::abort();
      workload.Step();
    }
    return built;
  }();
  return db.get();
}

std::string MidDate() { return DayN(kVersions / 2).ToString(); }

std::string Q1() {
  return "SELECT R FROM doc(\"" + std::string(kUrl) + "\")[" + MidDate() +
         "]/restaurant R";
}
std::string Q2() {
  return "SELECT SUM(R) FROM doc(\"" + std::string(kUrl) + "\")[" +
         MidDate() + "]/restaurant R";
}
std::string Q3() {
  return "SELECT TIME(R), R/price FROM doc(\"" + std::string(kUrl) +
         "\")[EVERY]/guide/restaurant R WHERE R/name = \"Napoli\"";
}

void RunQuery(benchmark::State& state, const std::string& query,
              bool skip_reconstruction) {
  TemporalXmlDatabase* db = Guide();
  ExecOptions options;
  options.now = db->clock()->Last();
  options.skip_unneeded_reconstruction = skip_reconstruction;
  size_t reconstructions = 0, rows = 0;
  for (auto _ : state) {
    ExecStats stats;
    auto result = QueryExecutor(db->Context(), options).Execute(query, &stats);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
    reconstructions = stats.snapshot_reconstructions;
    rows = stats.rows_emitted;
  }
  state.counters["reconstructions"] = static_cast<double>(reconstructions);
  state.counters["rows"] = static_cast<double>(rows);
}

void BM_Q1_SnapshotListing(benchmark::State& state) {
  RunQuery(state, Q1(), true);
}
BENCHMARK(BM_Q1_SnapshotListing)->Unit(benchmark::kMicrosecond);

void BM_Q2_CountNoReconstruction(benchmark::State& state) {
  RunQuery(state, Q2(), true);
}
BENCHMARK(BM_Q2_CountNoReconstruction)->Unit(benchmark::kMicrosecond);

void BM_Q2_CountForcedReconstruction(benchmark::State& state) {
  RunQuery(state, Q2(), false);
}
BENCHMARK(BM_Q2_CountForcedReconstruction)->Unit(benchmark::kMicrosecond);

void BM_Q3_PriceHistory(benchmark::State& state) {
  RunQuery(state, Q3(), true);
}
BENCHMARK(BM_Q3_PriceHistory)->Unit(benchmark::kMicrosecond);

void BM_Q1_CurrentSnapshot(benchmark::State& state) {
  RunQuery(state,
           "SELECT R FROM doc(\"" + std::string(kUrl) +
               "\")[NOW]/restaurant R",
           true);
}
BENCHMARK(BM_Q1_CurrentSnapshot)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace txml

int main(int argc, char** argv) {
  // E10 table: the Q2 fast path in numbers.
  txml::bench::Guide();
  for (bool skip : {true, false}) {
    txml::TemporalXmlDatabase* db = txml::bench::Guide();
    txml::ExecOptions options;
    options.now = db->clock()->Last();
    options.skip_unneeded_reconstruction = skip;
    txml::ExecStats stats;
    auto result = txml::QueryExecutor(db->Context(), options)
                      .Execute(txml::bench::Q2(), &stats);
    if (result.ok()) {
      txml::bench::PrintRow(
          "E10",
          std::string("q2 skip_reconstruction=") + (skip ? "on " : "off") +
              " reconstructions=" +
              std::to_string(stats.snapshot_reconstructions) +
              " result=" + txml::SerializeXml(*result->root()));
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
