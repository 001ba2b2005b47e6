#!/usr/bin/env bash
# Builds and tests the configurations that gate a change:
#
#   1. Release (RelWithDebInfo, the tier-1 configuration) — full ctest
#      (which includes the fuzz-corpus replay regression test), then the
#      same suite built with -DCMAKE_BUILD_TYPE=Release (build-release/):
#      -O3 without debug info inlines differently, and GCC's
#      -Werror=restrict false positives have broken that build before;
#   2. ThreadSanitizer (-DTXML_SANITIZE=thread)           — concurrency
#      tests (service layer, network front end, replication,
#      vacuum-vs-readers stress), then the leader+2-follower replication
#      smoke (scripts/repl_smoke.sh) over the TSan binaries. Pass
#      --tsan-all to run the whole suite under TSan instead (slow: TSan
#      costs ~5-15x).
#   3. Address+UB sanitizers (-DTXML_SANITIZE=address)    — the history
#      rewriting suites (vacuum splices delta chains in place; ASan/UBSan
#      catch lifetime and aliasing mistakes TSan cannot) plus the
#      durability suites (WAL torn-tail matrix, crash-recovery failpoint
#      sweep), with -DTXML_FAILPOINTS=ON pinned explicitly;
#   4. Static analysis (-DTXML_ANALYZE=ON, build-analyze/) — clang's
#      thread-safety capability analysis as -Werror plus the clang-tidy
#      check set pinned in .clang-tidy, and a negative compile-test
#      (tests/analyze_negative.cc must be REJECTED — proof the analyzer
#      is live, since the annotations are no-ops under GCC). Skipped
#      with a warning when clang/clang-tidy are not installed.
#   5. Fuzz smoke (-DTXML_FUZZ=ON, build-fuzz/) — each libFuzzer harness
#      runs ~10 s from its seed corpus. Requires clang (libFuzzer);
#      skipped with a warning otherwise (the corpus still replays in
#      stage 1 via fuzz_corpus_test).
#   6. -DTXML_FAILPOINTS=OFF (build-nofp/, build only)    — proves the
#      zero-cost no-failpoint configuration still compiles -Werror-clean.
#   7. Lint + lock rank (DESIGN.md §16) — tools/txml_lint.py over the
#      tree plus its self-test (each rule must reject a seeded
#      violation), the lock-rank death tests in a Debug build with the
#      checker pinned ON (build-rank/), and a -DTXML_LOCK_RANK=OFF
#      build-only configuration (build-norank/) proving the checker
#      compiles away -Werror-clean, exactly like stage 6 does for
#      failpoints.
#
# Usage: scripts/check.sh [--tsan-all] [--asan-all] [--fuzz-secs N] [-j N]
set -euo pipefail
cd "$(dirname "$0")/.."

# Concurrency suites (tests/service_test.cc, tests/net_test.cc) plus the
# vacuum battery (tests/vacuum_test.cc — ServiceStressTest covers the
# vacuum-racing-readers case), the multi-writer group-commit smoke
# (ServiceStressTest's concurrent-writer cases race the sharded commit
# path; WalGroupCommitTest races committers against the log-writer
# thread), and the FTI-fold races (CompactionStressTest: readers vs the
# post-commit fold, folds vs vacuums). Matching is against gtest case
# names, not binary names; --no-tests=error guards filter rot.
TSAN_FILTER="-R Service|ThreadPool|StoreObserver|Net|Wire|Vacuum|ClientRetry|Repl|WalGroupCommit|Compaction"
# History-rewriting suites for the ASan/UBSan pass: the storage layer,
# the vacuum oracle battery, persistence round trips, and the durability
# suites (WAL byte surgery + the failpoint crash-recovery sweep; "Wal"
# also picks up the WalGroupCommitTest multi-writer smoke, and "Service"
# the concurrent-writer stress cases), plus the differential-FTI fold
# suites ("Compaction": posting-vector splices and open-ref re-anchoring
# are exactly the pointer surgery ASan is for), and the delta-chain cursor
# suites (forged deltas against the dense XID index), and the lock-rank
# suite (its exit-time case touches the checker after the main thread's
# thread_locals are destroyed — a use-after-free only ASan reports), and
# the thread-pool suite (ThreadPool::ForEach's claim state must outlive a
# caller that returned before its late helpers ran).
ASAN_FILTER="-R DeltaChainCursor|Vacuum|Retention|MergeEditScripts|Storage|Persist|Service|Wal|Durab|CrashRecovery|FailPoint|Repl|Compaction|LockRank|ThreadPool"
JOBS=$(nproc)
FUZZ_SECS=10
while [[ $# -gt 0 ]]; do
  case "$1" in
    --tsan-all) TSAN_FILTER=""; shift ;;
    --asan-all) ASAN_FILTER=""; shift ;;
    --fuzz-secs) FUZZ_SECS="$2"; shift 2 ;;
    -j) JOBS="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

run() { echo "+ $*" >&2; "$@"; }

echo "=== Release configuration (build/) ==="
run cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
run cmake --build build -j "$JOBS"
run ctest --test-dir build --output-on-failure -j "$JOBS"
run cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
run cmake --build build-release -j "$JOBS"
run ctest --test-dir build-release --output-on-failure -j "$JOBS"

echo "=== ThreadSanitizer configuration (build-tsan/) ==="
run cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTXML_SANITIZE=thread
run cmake --build build-tsan -j "$JOBS"
# shellcheck disable=SC2086  # intentional word-splitting of the filter
run ctest --test-dir build-tsan --output-on-failure --no-tests=error \
    -j "$JOBS" $TSAN_FILTER
# End-to-end replication smoke over the TSan binaries: leader + two
# followers, convergence and read-your-writes asserted through the CLI
# (the shipper/applier threads run under the race detector).
run scripts/repl_smoke.sh build-tsan

echo "=== Address+UB sanitizer configuration (build-asan/) ==="
run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTXML_SANITIZE=address -DTXML_FAILPOINTS=ON
run cmake --build build-asan -j "$JOBS"
# shellcheck disable=SC2086  # intentional word-splitting of the filter
run ctest --test-dir build-asan --output-on-failure --no-tests=error \
    -j "$JOBS" $ASAN_FILTER

echo "=== Static analysis configuration (build-analyze/) ==="
if command -v clang++ >/dev/null 2>&1; then
  ANALYZE_ARGS=(-DCMAKE_CXX_COMPILER=clang++ -DTXML_ANALYZE=ON)
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "WARNING: clang-tidy not found; analyze stage runs" \
         "thread-safety analysis only" >&2
  fi
  run cmake -B build-analyze -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      "${ANALYZE_ARGS[@]}"
  run cmake --build build-analyze -j "$JOBS"
  # Negative check: the deliberately lock-misusing file must be REJECTED.
  # If it compiles clean, the analyzer is not actually running and the
  # whole stage is vacuous — fail loudly.
  echo "+ clang++ -fsyntax-only tests/analyze_negative.cc (must FAIL)" >&2
  if clang++ -fsyntax-only -std=c++20 -I. -Wthread-safety \
      -Werror=thread-safety tests/analyze_negative.cc 2>/dev/null; then
    echo "ERROR: tests/analyze_negative.cc compiled cleanly —" \
         "the thread-safety gate is not analyzing anything" >&2
    exit 1
  fi
  echo "analyze negative check OK (analyzer rejected the bad file)" >&2
else
  echo "WARNING: clang++ not found; SKIPPING the static-analysis stage." \
       "The thread-safety annotations are no-ops under GCC, so this" \
       "run proves nothing about lock discipline." >&2
fi

echo "=== Fuzz smoke (build-fuzz/) ==="
# libFuzzer is clang-only; probe for it rather than trusting the version.
if command -v clang++ >/dev/null 2>&1 \
    && echo 'extern "C" int LLVMFuzzerTestOneInput(const unsigned char*, unsigned long){return 0;}' \
       | clang++ -x c++ -fsanitize=fuzzer - -o /tmp/txml-fuzz-probe.$$ 2>/dev/null; then
  rm -f "/tmp/txml-fuzz-probe.$$"
  run cmake -B build-fuzz -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_COMPILER=clang++ -DTXML_FUZZ=ON
  run cmake --build build-fuzz -j "$JOBS"
  for target in fuzz_query_parser fuzz_wire fuzz_wal_replay; do
    corpus="fuzz/corpus/${target#fuzz_}"
    corpus="${corpus%_parser}"       # fuzz_query_parser -> fuzz/corpus/query
    corpus="${corpus/wal_replay/wal}"
    # First (writable) corpus dir is scratch so new inputs and crash
    # artifacts land under build-fuzz/, not in the committed seed corpus.
    mkdir -p "build-fuzz/corpus-$target"
    run "build-fuzz/fuzz/$target" -max_total_time="$FUZZ_SECS" \
        -print_final_stats=1 -artifact_prefix="build-fuzz/" \
        "build-fuzz/corpus-$target" "$corpus"
  done
else
  rm -f "/tmp/txml-fuzz-probe.$$"
  echo "WARNING: no clang/libFuzzer; SKIPPING the fuzz smoke." \
       "Corpus replay still ran in stage 1 (fuzz_corpus_test)." >&2
fi

echo "=== No-failpoint configuration (build-nofp/, compile only) ==="
run cmake -B build-nofp -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTXML_FAILPOINTS=OFF
run cmake --build build-nofp -j "$JOBS"

echo "=== Lint + lock-rank configuration (build-rank/, build-norank/) ==="
# The textual project lint and its negative self-test (the lint analogue
# of the analyze_negative compile check: every rule must still reject a
# seeded violation).
run python3 tools/txml_lint.py --root .
run python3 tools/txml_lint.py --self-test
# Debug build with the rank checker pinned ON: the death tests prove the
# checker aborts on inversions, and the fold/vacuum/checkpoint triple
# pins the documented acquisition order under it.
run cmake -B build-rank -S . -DCMAKE_BUILD_TYPE=Debug -DTXML_LOCK_RANK=ON
run cmake --build build-rank -j "$JOBS" --target lock_rank_test util_test
run ctest --test-dir build-rank --output-on-failure --no-tests=error \
    -j "$JOBS" -R "LockRank|Status|txml_lint"
# -DTXML_LOCK_RANK=OFF must compile away -Werror-clean (build only).
run cmake -B build-norank -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DTXML_LOCK_RANK=OFF
run cmake --build build-norank -j "$JOBS"

echo "=== All checks passed ==="
