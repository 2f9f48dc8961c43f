// Self-test of the verify_corpus constructors: every constructed variant
// gets its known verdict from the four entry points, the corpus make-up is
// seed-independent, and the token splitter counts as documented.  Exits 0
// when every check holds; run by test_bench.py.
#include <cstdio>
#include <map>

#include "corpus.hpp"

using namespace vsdbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void constructors_give_known_verdicts(std::uint64_t seed) {
  constexpr int kProblems = 80;
  const Corpus corpus = build_corpus(kProblems, seed);
  std::map<Kind, int> matched;
  for (const Candidate& c : corpus.candidates) {
    if (c.kind == Kind::Whitespace || c.repeat) continue;
    const Verdict v = judge(corpus, c, nullptr);
    if (verdict_matches(c.kind, v)) {
      ++matched[c.kind];
    } else {
      expect(false, std::string(kind_name(c.kind)) + " variant of " +
                        corpus.problems[static_cast<std::size_t>(c.problem)].id +
                        " (seed " + std::to_string(seed) + "): lint=" +
                        v.lint_code + " elab=" + v.elab_code +
                        " compiles=" + std::to_string(v.compiles) +
                        " equivalent=" + std::to_string(v.equivalent));
    }
  }
  for (const Kind k : {Kind::Golden, Kind::Identity, Kind::Inverted, Kind::Loop,
                       Kind::Truncated}) {
    expect(matched[k] == kProblems,
           std::string(kind_name(k)) + ": " + std::to_string(matched[k]) + " of " +
               std::to_string(kProblems) + " known verdicts");
  }
}

void corpus_makeup_is_seed_independent() {
  const auto census = [](const Corpus& c) {
    std::map<std::string, int> n;
    for (const Candidate& cand : c.candidates) {
      ++n[std::string(kind_name(cand.kind)) + (cand.repeat ? "+repeat" : "")];
    }
    return n;
  };
  const Corpus a = build_corpus(48, 1);
  const Corpus b = build_corpus(48, 9);
  expect(a.candidates.size() == b.candidates.size(), "corpus size depends on seed");
  expect(a.whitespace == b.whitespace && a.whitespace == 4,
         "whitespace count depends on seed");
  int repeats = 0;
  for (const Candidate& c : a.candidates) repeats += c.repeat ? 1 : 0;
  expect(repeats == 48 * 5 / 4, "repeat share is not a quarter of the unique bodies");
  expect(census(a)["whitespace"] == census(b)["whitespace"] &&
             census(a)["golden"] == 48 && census(b)["golden"] == 48,
         "per-kind counts of unique candidates depend on seed");
  const Corpus a2 = build_corpus(48, 1);
  bool same = a2.candidates.size() == a.candidates.size();
  for (std::size_t i = 0; same && i < a.candidates.size(); ++i) {
    same = a.candidates[i].source == a2.candidates[i].source;
  }
  expect(same, "the same seed gave a different corpus");
}

void whitespace_expects_no_design() {
  for (const std::string& ws : whitespace_sources()) {
    expect(ws.find_first_not_of(" \t\n") == std::string::npos,
           "whitespace candidate holds a non-space character");
  }
  Verdict no_design;
  no_design.lint_code = no_design.elab_code = "VSD-L003";
  expect(verdict_matches(Kind::Whitespace, no_design),
         "a shared no-design code at every entry point is rejected");
  Verdict parse_failure = no_design;
  parse_failure.lint_code = parse_failure.elab_code = "VSD-L001";
  expect(!verdict_matches(Kind::Whitespace, parse_failure),
         "a parse-failure code is accepted as no design");
  Verdict lint_clean = no_design;
  lint_clean.lint_code.clear();
  expect(!verdict_matches(Kind::Whitespace, lint_clean),
         "a clean lint is accepted as no design");
}

void splitter_counts_tokens() {
  expect(count_source_tokens("") == 0, "empty source has tokens");
  expect(count_source_tokens("assign y = a + 8'hFF;") == 7, "assign statement");
  expect(count_source_tokens("always @(posedge clk) q <= d_in;") == 11,
         "always header");
  expect(count_source_tokens("$display(\"x\");\n`define W 4") == 10,
         "system task and directive");
}

}  // namespace

int main() {
  constructors_give_known_verdicts(1);
  constructors_give_known_verdicts(2);
  corpus_makeup_is_seed_independent();
  whitespace_expects_no_design();
  splitter_counts_tokens();
  if (failures == 0) std::printf("corpus_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
