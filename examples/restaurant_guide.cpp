// The paper's running example (Figure 1 and Section 6.2), end to end:
// loads the restaurant-guide history and runs the worked queries Q1-Q3
// plus the Section 7.4 equality examples.
//
//   $ ./build/examples/restaurant_guide
#include <cstdio>
#include <cstdlib>

#include "src/core/database.h"
#include "src/query/scan.h"
#include "src/query/time_ops.h"
#include "src/workload/restaurant.h"
#include "src/xml/serializer.h"

using namespace txml;

namespace {

/// Runs and prints one query; returns its counters.
ExecStats Show(TemporalXmlDatabase* db, const char* label,
               const std::string& query) {
  std::printf("--- %s\n%s\n", label, query.c_str());
  ExecStats stats;
  auto result = db->QueryAt(query, db->latest_commit(), &stats);
  if (!result.ok()) {
    std::printf("error: %s\n\n", result.status().ToString().c_str());
    return stats;
  }
  std::printf("%s\n\n",
              SerializeXml(*result->root(), {.pretty = true}).c_str());
  return stats;
}

}  // namespace

int main() {
  TemporalXmlDatabase db;
  std::printf("Loading Figure 1: the restaurant list at guide.com as "
              "retrieved on 01/01, 15/01 and 31/01 2001.\n\n");
  for (const Figure1Version& version : Figure1History()) {
    auto put = db.PutDocumentAt(kGuideUrl, version.xml, version.ts);
    if (!put.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   put.status().ToString().c_str());
      return EXIT_FAILURE;
    }
  }
  std::string url(kGuideUrl);

  // Q1: all restaurants as of 26/01/2001 (TPatternScan + Reconstruct).
  Show(&db, "Q1: snapshot at 26/01/2001",
       "SELECT R FROM doc(\"" + url + "\")[26/01/2001]/restaurant R");

  // Q2: count at 26/01/2001 (TPatternScan + aggregate, no reconstruction).
  ExecStats q2_stats = Show(
      &db, "Q2: number of restaurants at 26/01/2001",
      "SELECT SUM(R) FROM doc(\"" + url + "\")[26/01/2001]/restaurant R");
  std::printf("    (snapshot reconstructions during Q2: %zu — the paper's "
              "point that deltas\n     do not hurt aggregate-only "
              "queries)\n\n",
              q2_stats.snapshot_reconstructions);

  // Q3: the price history of Napoli (TPatternScanAll).
  Show(&db, "Q3: price history of Napoli",
       "SELECT TIME(R), R/price FROM doc(\"" + url +
           "\")[EVERY]/guide/restaurant R WHERE R/name = \"Napoli\"");

  // Section 5: relative time.
  Show(&db, "snapshot at NOW - 10 DAYS",
       "SELECT R/name FROM doc(\"" + url + "\")[NOW - 10 DAYS]/restaurant R");

  // Section 6.1: element lifetimes.
  Show(&db, "create/delete times of all restaurants ever",
       "SELECT R/name, CREATE TIME(R), DELETE TIME(R) FROM doc(\"" + url +
           "\")[26/01/2001]/restaurant R");

  // Section 6.1: navigating versions.
  Show(&db, "current price of restaurants seen on 26/01",
       "SELECT DISTINCT R/name, CURRENT(R)/price FROM doc(\"" + url +
           "\")[26/01/2001]/restaurant R");

  // Section 7.4: which restaurants raised their price since 10/01?
  Show(&db, "price increases since 10/01/2001 (identity join)",
       "SELECT R1/name FROM doc(\"" + url + "\")[10/01/2001]/restaurant R1, "
       "doc(\"" + url + "\")[NOW]/restaurant R2 "
       "WHERE R1 == R2 AND R1/price < R2/price");

  // DIFF between two snapshots of the whole guide.
  Show(&db, "edit script between 26/01 and 31/01",
       "SELECT DIFF(G1, G2) FROM doc(\"" + url + "\")[26/01/2001]/guide G1, "
       "doc(\"" + url + "\")[31/01/2001]/guide G2 WHERE G1 == G2");

  // The same data through the operator API (what the language lowers to).
  std::printf("--- operator level: TPatternScanAll over 'restaurant'\n");
  QueryContext ctx = db.Context();
  auto pattern = Pattern(PatternNode::Make(
      PatternNode::Test::kElementName, PatternNode::Axis::kDescendantOrSelf,
      "restaurant", /*projected=*/true));
  auto runs = TPatternScanAll(ctx, pattern);
  if (runs.ok()) {
    for (const ScanMatch& match : *runs) {
      std::printf("  element %s valid %s\n",
                  match.ProjectedTeid(pattern).eid.ToString().c_str(),
                  match.validity.ToString().c_str());
    }
  }
  return EXIT_SUCCESS;
}
