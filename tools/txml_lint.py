#!/usr/bin/env python3
"""txml_lint: project-invariant lint for the txml tree.

Plain-Python (no clang, no third-party packages) textual enforcement of
repo invariants that the compiler cannot or does not check, run as a
tier-1 ctest (tests/CMakeLists.txt) and as stage 7 of scripts/check.sh:

  raw-primitive   No raw std::mutex / std::condition_variable /
                  std::thread outside src/util/ — every lock goes through
                  the rank-checked wrappers of src/util/synchronization.h
                  and every thread through src/util/thread.h, so ordering
                  and lifecycle instrumentation see all of them.
  frame-coverage  Every wire FrameType enum value has (a) a fuzz corpus
                  seed fuzz/corpus/wire/<snake_case_name> and (b) a
                  FrameType::k<Name> reference somewhere under tests/ —
                  a frame nobody fuzzes or tests is a frame whose format
                  drifts silently.
  lock-rank       Every Mutex/SharedMutex declaration in src/ names its
                  LockRank (DESIGN.md §16) on the declaration line, or
                  carries a `// rank:` comment pointing at the
                  constructor that supplies it. (The missing default
                  constructor enforces this at compile time too; the lint
                  keeps the rank *visible at the declaration*.)
  no-assert       No assert( in src/ or fuzz/ — release builds compile
                  assert away (NDEBUG), so invariants use TXML_CHECK /
                  TXML_DCHECK / TXML_LOG_FATAL instead. static_assert is
                  fine. Tests may use whatever gtest wants.
  one-chain-walker
                  No call to EditScript::ApplyForward( / ApplyBackward(
                  under src/ outside the DeltaChainCursor's own file
                  (src/storage/delta_chain_cursor.cc) — every walk of a
                  delta chain goes through the cursor and its persistent
                  XID index (DESIGN.md §3), so none pays a whole tree per
                  delta again.
  one-commit-path No call to BeginTurn( or the ticket allocator
                  AllocateCommitRun( under src/ outside the bodies of
                  CommitRun and Vacuum — every local write is a commit
                  run (Put and Delete are runs of one; DESIGN.md §12),
                  and the retired single-commit names AllocateCommit( and
                  CommitPut( never come back.
  one-xml-writer  No string literal opening an XML tag ("< then a letter)
                  under src/service/, src/repl/ or in src/net/server.cc —
                  every payload and stats element there is an XmlNode
                  tree written by SerializeXml, which does the escaping —
                  and the retired per-caller copies of a query's counters
                  (ClientSession, OpenSession, last_query_stats) appear
                  nowhere in src/: the counters live in the response.
  scoped-index-scan
                  No corpus-wide index scan under src/ outside
                  src/query/scan.{h,cc}: a PatternScanCurrent( /
                  TPatternScan( / TPatternScanAll( call must pass the
                  FROM item's documents (the `docs` overload), so the
                  index arm joins only the documents a query names
                  (DESIGN.md §13). Calls are told apart by their
                  top-level argument count, read up to the matching
                  paren across lines.
  one-plan        PlanScan( / BuildPattern( / ResolveDocs( each have
                  exactly one call site in src/lang/executor.cc: a FROM
                  item is planned once, and EXPLAIN prints the plan that
                  Run executes (DESIGN.md §13). Definitions and
                  declarations (the name right after a type) are not
                  call sites.
  no-baseline-in-src
                  Nothing under src/ includes a header from bench/ or
                  names StratumStore / DeltaContentIndex: the paper's
                  comparators (E5's full copies, E3's delta-content
                  index) live in bench/baselines/ (txml_baselines), so
                  the serving libraries hold only serving code.
  one-apply-path  Records that already carry their sequences (recovery
                  replay, replicated batches) are applied only by the
                  service's ApplyLogged, and the sequence space continues
                  only through ContinueAfter (DESIGN.md §9/§11):
                  next_ticket_ / next_apply_ticket_ are assigned only in
                  AllocateCommitRun, FinishTurn and ContinueAfter.

Usage:
  txml_lint.py [--root REPO_DIR]   lint the tree; exit 1 on any finding
  txml_lint.py --self-test         prove each rule rejects a seeded
                                   violation and passes a clean tree
"""

import argparse
import os
import re
import sys
import tempfile

CXX_EXTENSIONS = (".h", ".cc")

RAW_PRIMITIVE_RE = re.compile(
    r"std::(?:mutex|condition_variable|thread)\b")
FRAME_ENUM_RE = re.compile(
    r"^\s*k([A-Z]\w*)\s*=\s*\d+\s*,", re.MULTILINE)
LOCK_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:Mutex|SharedMutex)\s+\w+\s*(?:;|\{)")
ASSERT_RE = re.compile(r"(?<![\w])assert\s*\(")
CHAIN_APPLY_RE = re.compile(r"(?:\.|->)\s*Apply(?:Forward|Backward)\s*\(")
CHAIN_WALKER = os.path.join("src", "storage", "delta_chain_cursor.cc")
COMMIT_STEP_RE = re.compile(r"(?<![\w:])(BeginTurn|AllocateCommitRun)\s*\(")
RETIRED_COMMIT_RE = re.compile(r"(?<![\w])(AllocateCommit|CommitPut)\s*\(")
# A definition starts in column 0; its name is the identifier before its
# parameter list (qualified or not).
DEFINITION_RE = re.compile(r"^[A-Za-z_][^(]*?(\w+)\s*\(")
# A declaration names a return type right before the function name.
DECLARATION_RE = re.compile(r"\b(?!return\b)\w+[\s*&]+$")
COMMIT_PATH_OWNERS = ("CommitRun", "Vacuum")
XML_TAG_LITERAL_RE = re.compile(r'"<[A-Za-z]')
XML_WRITER_SCOPE = (os.path.join("src", "service") + os.sep,
                    os.path.join("src", "repl") + os.sep,
                    os.path.join("src", "net", "server.cc"))
RETIRED_STATS_RE = re.compile(
    r"\b(ClientSession|OpenSession|last_query_stats)\b")
INDEX_SCAN_RE = re.compile(
    r"(?<![\w])(PatternScanCurrent|TPatternScan|TPatternScanAll)\s*\(")
# Argument count of each corpus-wide overload; the doc-scoped one takes
# `docs` as one more.
CORPUS_WIDE_ARITY = {"PatternScanCurrent": 2, "TPatternScan": 3,
                     "TPatternScanAll": 2}
INDEX_SCAN_OWNERS = (os.path.join("src", "query", "scan.h"),
                     os.path.join("src", "query", "scan.cc"))
PLAN_STEP_RE = re.compile(
    r"(?<![\w:.>])(PlanScan|BuildPattern|ResolveDocs)\s*\(")
PLANNER = os.path.join("src", "lang", "executor.cc")
BENCH_INCLUDE_RE = re.compile(r'#\s*include\s+"bench/')
BASELINE_NAME_RE = re.compile(r"\b(StratumStore|DeltaContentIndex)\b")
SEQUENCE_COUNTERS = r"(next_ticket_|next_apply_ticket_)"
# An assignment, compound assignment or increment of a counter (either
# side); comparisons and reads are not writes.
SEQUENCE_WRITE_RE = re.compile(
    r"(?<!\w)" + SEQUENCE_COUNTERS +
    r"\s*(?:[-+*/|&^]?=(?!=)|\+\+|--)|(?:\+\+|--)\s*" +
    SEQUENCE_COUNTERS + r"\b")
SEQUENCE_WRITERS = ("AllocateCommitRun", "FinishTurn", "ContinueAfter")


def strip_line_comment(line):
    """Drops a // comment (naive: ignores // inside string literals,
    which the tree's style never produces on lines these rules match)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def snake_case(name):
    """CamelCase enum name -> corpus seed file name (QueryRequest ->
    query_request)."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", name).lower()


def iter_source_files(root, subdir):
    base = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(base):
        for filename in sorted(filenames):
            if filename.endswith(CXX_EXTENSIONS):
                yield os.path.join(dirpath, filename)


def relpath(root, path):
    return os.path.relpath(path, root)


def check_raw_primitives(root):
    """raw-primitive: std locking/threading types only inside src/util/."""
    findings = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        if rel.startswith(os.path.join("src", "util") + os.sep):
            continue
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, 1):
                code = strip_line_comment(line)
                match = RAW_PRIMITIVE_RE.search(code)
                if match:
                    findings.append(
                        ("raw-primitive", rel, lineno,
                         f"{match.group(0)} outside src/util/; use the "
                         "wrappers in src/util/synchronization.h / "
                         "src/util/thread.h"))
    return findings


def parse_frame_types(root):
    wire_h = os.path.join(root, "src", "net", "wire.h")
    with open(wire_h, encoding="utf-8") as fp:
        text = fp.read()
    enum = re.search(
        r"enum class FrameType[^{]*\{(.*?)\}\s*;", text, re.DOTALL)
    if enum is None:
        return None
    return FRAME_ENUM_RE.findall(enum.group(1))


def check_frame_coverage(root):
    """frame-coverage: every FrameType has a corpus seed and a test ref."""
    findings = []
    names = parse_frame_types(root)
    wire_rel = os.path.join("src", "net", "wire.h")
    if names is None:
        return [("frame-coverage", wire_rel, 1,
                 "could not locate the FrameType enum")]
    corpus_dir = os.path.join(root, "fuzz", "corpus", "wire")
    tests_text = []
    for path in iter_source_files(root, "tests"):
        with open(path, encoding="utf-8") as fp:
            tests_text.append(fp.read())
    tests_text = "\n".join(tests_text)
    for name in names:
        seed = snake_case(name)
        if not os.path.isfile(os.path.join(corpus_dir, seed)):
            findings.append(
                ("frame-coverage", wire_rel, 1,
                 f"FrameType::k{name} has no fuzz corpus seed "
                 f"fuzz/corpus/wire/{seed} (regenerate with "
                 "build/fuzz/gen_seed_corpus fuzz/corpus)"))
        if f"FrameType::k{name}" not in tests_text:
            findings.append(
                ("frame-coverage", wire_rel, 1,
                 f"FrameType::k{name} is never referenced under tests/ "
                 "(add it to WireTest.EveryFrameTypeHasACodecRoundTrip)"))
    return findings


def check_lock_ranks(root):
    """lock-rank: lock declarations name their rank where they are
    declared."""
    findings = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, 1):
                if not LOCK_DECL_RE.match(line):
                    continue
                if "LockRank::" in line or "// rank:" in line:
                    continue
                findings.append(
                    ("lock-rank", rel, lineno,
                     "Mutex/SharedMutex declaration without a LockRank "
                     "(see src/util/lock_rank.h and DESIGN.md §16); "
                     "initialize with {LockRank::k...} or add a "
                     "`// rank:` comment naming the constructor that "
                     "supplies it"))
    return findings


def check_no_assert(root):
    """no-assert: no NDEBUG-erasable assert( outside tests/."""
    findings = []
    for subdir in ("src", "fuzz"):
        for path in iter_source_files(root, subdir):
            rel = relpath(root, path)
            with open(path, encoding="utf-8") as fp:
                for lineno, line in enumerate(fp, 1):
                    code = strip_line_comment(line)
                    if ASSERT_RE.search(code):
                        findings.append(
                            ("no-assert", rel, lineno,
                             "assert( compiles away under NDEBUG; use "
                             "TXML_CHECK / TXML_DCHECK instead"))
    return findings


def check_one_chain_walker(root):
    """one-chain-walker: only the DeltaChainCursor applies edit scripts."""
    findings = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        if rel == CHAIN_WALKER:
            continue
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, 1):
                code = strip_line_comment(line)
                match = CHAIN_APPLY_RE.search(code)
                if match:
                    findings.append(
                        ("one-chain-walker", rel, lineno,
                         "edit script applied outside "
                         f"{CHAIN_WALKER}; walk the delta chain with a "
                         "DeltaChainCursor (DESIGN.md §3)"))
    return findings


def check_one_commit_path(root):
    """one-commit-path: only CommitRun and Vacuum take tickets and turns."""
    findings = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        function = None
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, 1):
                code = strip_line_comment(line)
                definition = DEFINITION_RE.match(code)
                if definition:
                    function = definition.group(1)
                for match in RETIRED_COMMIT_RE.finditer(code):
                    findings.append(
                        ("one-commit-path", rel, lineno,
                         f"{match.group(1)} is retired; commit through "
                         "CommitRun (DESIGN.md §12)"))
                for match in COMMIT_STEP_RE.finditer(code):
                    if definition or DECLARATION_RE.search(
                            code[:match.start()]):
                        continue
                    if function in COMMIT_PATH_OWNERS:
                        continue
                    findings.append(
                        ("one-commit-path", rel, lineno,
                         f"{match.group(1)} called from {function}; only "
                         f"{' and '.join(COMMIT_PATH_OWNERS)} take tickets "
                         "and turns — commit through CommitRun "
                         "(DESIGN.md §12)"))
    return findings


def check_one_xml_writer(root):
    """one-xml-writer: payloads are serialized trees, counters live in the
    response."""
    findings = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        in_scope = rel.startswith(XML_WRITER_SCOPE)
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, 1):
                for match in RETIRED_STATS_RE.finditer(line):
                    findings.append(
                        ("one-xml-writer", rel, lineno,
                         f"{match.group(1)} is retired; a query's counters "
                         "are the response's ExecStats"))
                if in_scope and XML_TAG_LITERAL_RE.search(
                        strip_line_comment(line)):
                    findings.append(
                        ("one-xml-writer", rel, lineno,
                         "XML built from string literals; build an XmlNode "
                         "tree and write it with SerializeXml"))
    return findings


def count_call_args(text, open_paren):
    """Top-level arguments of the call whose '(' is at `open_paren`, read up
    to its matching ')'. Nested (), [] and {} and string/char literals are
    skipped; template argument lists are not (no such argument is passed
    to the calls this counts)."""
    depth = 0
    commas = 0
    saw_argument = False
    i = open_paren + 1
    while i < len(text):
        ch = text[i]
        if ch in "\"'":
            i += 1
            while i < len(text) and text[i] != ch:
                i += 2 if text[i] == "\\" else 1
            saw_argument = True
        elif ch in "([{":
            depth += 1
            saw_argument = True
        elif ch in ")]}":
            if depth == 0:
                break
            depth -= 1
        elif ch == "," and depth == 0:
            commas += 1
        elif not ch.isspace():
            saw_argument = True
        i += 1
    return commas + 1 if saw_argument else 0


def check_scoped_index_scan(root):
    """scoped-index-scan: index scans outside scan.{h,cc} pass `docs`."""
    findings = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        if rel in INDEX_SCAN_OWNERS:
            continue
        with open(path, encoding="utf-8") as fp:
            text = "\n".join(strip_line_comment(line.rstrip("\n"))
                             for line in fp)
        for match in INDEX_SCAN_RE.finditer(text):
            name = match.group(1)
            args = count_call_args(text, match.end() - 1)
            if args > CORPUS_WIDE_ARITY[name]:
                continue
            lineno = text.count("\n", 0, match.start()) + 1
            findings.append(
                ("scoped-index-scan", rel, lineno,
                 f"{name} called with {args} argument(s) scans every "
                 "document; pass the FROM item's resolved documents "
                 "(the `docs` overload)"))
    return findings


def check_one_plan(root):
    """one-plan: each FROM-item planning step has one call site."""
    path = os.path.join(root, PLANNER)
    if not os.path.isfile(path):
        return []
    calls = {}
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            code = strip_line_comment(line)
            for match in PLAN_STEP_RE.finditer(code):
                before = code[:match.start()].rstrip()
                # A type right before the name: a definition or declaration.
                if before and (before[-1].isalnum() or before[-1] in "_>*&") \
                        and not before.endswith("return"):
                    continue
                calls.setdefault(match.group(1), []).append(lineno)
    findings = []
    for name in ("PlanScan", "BuildPattern", "ResolveDocs"):
        lines = calls.get(name, [])
        if len(lines) != 1:
            findings.append(
                ("one-plan", PLANNER, lines[1] if len(lines) > 1 else 1,
                 f"{name} has {len(lines)} call sites (lines "
                 f"{', '.join(map(str, lines)) or 'none'}); plan each FROM "
                 "item once and render or bind that plan"))
    return findings


def check_no_baseline_in_src(root):
    """no-baseline-in-src: the experiment baselines stay out of src/."""
    findings = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, 1):
                if BENCH_INCLUDE_RE.search(line):
                    findings.append(
                        ("no-baseline-in-src", rel, lineno,
                         "src/ includes from bench/; the serving libraries "
                         "do not depend on benchmark code"))
                for match in BASELINE_NAME_RE.finditer(line):
                    findings.append(
                        ("no-baseline-in-src", rel, lineno,
                         f"{match.group(1)} is an experiment baseline; it "
                         "lives in bench/baselines/ (txml_baselines)"))
    return findings


def check_one_apply_path(root):
    """one-apply-path: one applier for logged records, one sequence step."""
    findings = []
    for path in iter_source_files(root, "src"):
        rel = relpath(root, path)
        function = None
        with open(path, encoding="utf-8") as fp:
            for lineno, line in enumerate(fp, 1):
                code = strip_line_comment(line)
                definition = DEFINITION_RE.match(code)
                if definition:
                    function = definition.group(1)
                for match in SEQUENCE_WRITE_RE.finditer(code):
                    if function in SEQUENCE_WRITERS:
                        continue
                    counter = match.group(1) or match.group(2)
                    findings.append(
                        ("one-apply-path", rel, lineno,
                         f"{counter} assigned in {function}; only "
                         f"{', '.join(SEQUENCE_WRITERS)} move the sequence "
                         "space — continue it with ContinueAfter"))
    return findings


CHECKS = (
    check_raw_primitives,
    check_frame_coverage,
    check_lock_ranks,
    check_no_assert,
    check_one_chain_walker,
    check_one_commit_path,
    check_one_xml_writer,
    check_scoped_index_scan,
    check_one_plan,
    check_no_baseline_in_src,
    check_one_apply_path,
)


def run_lint(root):
    findings = []
    for check in CHECKS:
        findings.extend(check(root))
    return findings


def report(findings):
    for rule, rel, lineno, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    print(f"txml_lint: {len(findings)} finding(s)")


# ---------------------------------------------------------------------------
# self-test


def write(root, rel, text):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


CLEAN_WIRE_H = """
enum class FrameType : uint8_t {
  kQueryRequest = 1,
};
"""

SEEDED_WIRE_H = """
enum class FrameType : uint8_t {
  kQueryRequest = 1,
  kGhostFrame = 2,
};
"""


def build_tree(root, seeded):
    """A miniature repo; `seeded` plants exactly one violation per rule."""
    write(root, "src/net/wire.h", SEEDED_WIRE_H if seeded else CLEAN_WIRE_H)
    write(root, "fuzz/corpus/wire/query_request", "seed")
    write(root, "tests/net_test.cc",
          "// refs FrameType::kQueryRequest round trip\n")
    write(root, "src/util/synchronization.h",
          "// wrappers may use std::mutex here\n"
          "#include <mutex>\nstd::mutex raw_;\n")
    good = "mutable Mutex mu_{LockRank::kServer};\n"
    bad = ("std::thread worker_;\n"          # raw-primitive
           "Mutex mu_;\n"                    # lock-rank
           "void F() { assert(true); }\n"    # no-assert
           "Status W(const EditScript& d) {\n"
           "  return d.ApplyBackward(t, &i);\n"  # one-chain-walker
           "}\n")
    write(root, "src/core/widget.h", good + (bad if seeded else ""))
    # one-commit-path: the run path and the vacuum take tickets and turns;
    # the helpers' own definitions and declarations are not calls.
    write(root, "src/service/service.h",
          "  void AllocateCommitRun(std::span<CommitSlot> slots);\n"
          "  void BeginTurn(uint64_t first_ticket) EXCLUDES(turn_mu_);\n")
    write(root, "src/service/service.cc",
          "void TemporalQueryService::BeginTurn(uint64_t first_ticket) {\n"
          "}\n"
          "StatusOr<RunResult> TemporalQueryService::CommitRun(\n"
          "    std::span<const WriteBatchItem> items) {\n"
          "  AllocateCommitRun(slots);\n"
          "  if (m > 0) BeginTurn(slots.front().ticket);\n"
          "}\n"
          "StatusOr<VacuumStats> TemporalQueryService::Vacuum(\n"
          "    const RetentionPolicy& policy) {\n"
          "  AllocateCommitRun({&slot, 1});\n"
          "  BeginTurn(slot.ticket);\n"
          "}\n"
          # one-apply-path: the three sequence writers move the counters;
          # reads and comparisons anywhere are fine.
          "void TemporalQueryService::AllocateCommitRun(\n"
          "    std::span<CommitSlot> slots) {\n"
          "    slot.ticket = ++next_ticket_;\n"
          "}\n"
          "void TemporalQueryService::FinishTurn(uint64_t last_ticket) {\n"
          "  next_apply_ticket_ = last_ticket + 1;\n"
          "}\n"
          "void TemporalQueryService::ContinueAfter(uint64_t sequence) {\n"
          "  next_ticket_ = std::max(next_ticket_, sequence);\n"
          "}\n"
          "void TemporalQueryService::Wait(uint64_t first_ticket) {\n"
          "  while (next_apply_ticket_ != first_ticket) turn_cv_.Wait();\n"
          "}\n" +
          ("Status TemporalQueryService::Delete(const std::string& url) {\n"
           "  BeginTurn(slot.ticket);\n"
           "}\n"
           "Status TemporalQueryService::InstallCheckpoint(\n"
           "    const CheckpointImage& image) {\n"
           "  next_ticket_ = image.covered_sequence;\n"
           "}\n" if seeded else ""))
    # The cursor itself applies scripts; declarations and definitions are
    # not calls.
    write(root, "src/storage/delta_chain_cursor.cc",
          "Status S() { return delta.ApplyForward(tree_.get(), &index_); }\n")
    # one-xml-writer: payload tags in comments and XML text outside the
    # service/repl/server scope are fine; a tag-opening literal in scope
    # and a retired counter copy are not.
    write(root, "src/repl/wal_shipper.cc",
          "// answers with <followers>…</followers>\n"
          "auto followers = XmlNode::Element(\"followers\");\n" +
          ("std::string xml = \"<followers>\";\n" if seeded else ""))
    write(root, "src/net/client.cc",
          "const char* kProbe = \"<ping/>\";\n")
    write(root, "src/core/database.h",
          "  StatusOr<XmlDocument> Query(std::string_view text);\n" +
          ("  const ExecStats& last_query_stats() const;\n"
           if seeded else ""))
    # scoped-index-scan: scan.cc may scan the whole corpus; elsewhere an
    # index scan passes `docs`, however its arguments are spread or
    # nested. Traversal calls are a different name.
    write(root, "src/query/scan.cc",
          "  return TPatternScanAll(ctx, pattern, AllDocuments(ctx));\n"
          "  auto all = TPatternScanAll(ctx, pattern);\n")
    # one-plan: the planner's definitions and one call of each step are
    # fine; a second call of one is not.
    write(root, "src/lang/executor.cc",
          "        ? TPatternScanAllTraversal(ctx_, pattern, docs)\n"
          "        : TPatternScanAll(ctx_, pattern,\n"
          "                          docs));\n"
          "  auto r = TPatternScan(ctx_, Make(a, \"),\"),\n"
          "                        Day(2), docs);  // TPatternScan(c, p)\n"
          "  StatusOr<Pattern> BuildPattern(const FromItem& item) {\n"
          "  StatusOr<std::vector<const VersionedDocument*>> ResolveDocs(\n"
          "    FromPlan plan{item, ResolveDocs(item), BuildPattern(item)};\n"
          "      plan.scan = PlanScan(ctx_, *plan.pattern, plan.kind,\n"
          "  // PlanScan(ctx_, pattern) in a comment is no call\n" +
          ("  auto s = TPatternScan(ctx_, pattern,\n"
           "                        ConstTime({t, u}));\n"
           "    return PlanScan(ctx_, pattern, kind, docs, strategy);\n"
           if seeded else ""))
    # no-baseline-in-src: bench/ and tests/ may use the baselines; src/
    # may neither include them nor name them.
    write(root, "bench/bench_vs_stratum.cc",
          "#include \"bench/baselines/stratum_store.h\"\n"
          "StratumStore stratum;\n")
    write(root, "tests/index_test.cc", "DeltaContentIndex index_;\n")
    if seeded:
        write(root, "src/storage/full_copies.h",
              "#include \"bench/baselines/stratum_store.h\"\n"
              "std::unique_ptr<DeltaContentIndex> events_;\n")
    write(root, "src/diff/edit_script.cc",
          "Status EditScript::ApplyForward(XmlNode* root,\n"
          "                                XidIndex* index) const {}\n")
    # Negative-space checks: commented-out primitives never count, and a
    # ctor-supplied rank is accepted via the marker comment.
    write(root, "src/core/ok.cc",
          "// std::thread in a comment is fine\n"
          "Mutex mu;  // rank: kCommitStripe (ctor-initialized)\n"
          "static_assert(1 + 1 == 2);\n")


def self_test():
    with tempfile.TemporaryDirectory(prefix="txml_lint_selftest") as tmp:
        clean = os.path.join(tmp, "clean")
        seeded = os.path.join(tmp, "seeded")
        build_tree(clean, seeded=False)
        build_tree(seeded, seeded=True)

        clean_findings = run_lint(clean)
        if clean_findings:
            print("self-test FAILED: clean tree produced findings:")
            report(clean_findings)
            return 1

        findings = run_lint(seeded)
        got_rules = {rule for rule, _, _, _ in findings}
        want_rules = {"raw-primitive", "frame-coverage", "lock-rank",
                      "no-assert", "one-chain-walker", "one-commit-path",
                      "one-xml-writer", "scoped-index-scan", "one-plan",
                      "no-baseline-in-src", "one-apply-path"}
        missing = want_rules - got_rules
        if missing:
            print(f"self-test FAILED: rules {sorted(missing)} did not "
                  "reject their seeded violation; findings were:")
            report(findings)
            return 1
        # The ghost frame must be flagged twice: no seed AND no test ref.
        ghost = [f for f in findings if "kGhostFrame" in f[3]]
        if len(ghost) != 2:
            print("self-test FAILED: expected 2 kGhostFrame findings "
                  f"(missing seed + missing test ref), got {len(ghost)}")
            report(findings)
            return 1
        print(f"self-test OK: clean tree 0 findings, seeded tree "
              f"{len(findings)} finding(s) across all {len(CHECKS)} rules")
        return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: this script's ../)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify each rule rejects a seeded violation")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = run_lint(root)
    if findings:
        report(findings)
        return 1
    print("txml_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
