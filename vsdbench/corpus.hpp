// The verify_corpus workload's inputs: RTLLM-like golden designs plus
// variants whose verdicts at the four checking entry points are known by
// construction, so the benchmark can check every verdict it times.
//
//   kind        lint    elab        compile  diff vs golden
//   golden      clean   clean       ok       equivalent
//   identity    clean   clean       ok       equivalent      (golden renamed
//                                                             <top>_wrapped,
//                                                             instantiated by
//                                                             a new <top>)
//   inverted    clean   clean       ok       not equivalent  (first output
//                                                             driven via ~)
//   loop        clean   VSD-L200    ok       equivalent      (an unobservable
//                                                             two-wire loop)
//   truncated   error   error       fails    does not compile
//   whitespace  "no design" at every entry point: all four reject it with
//               one shared code that is not VSD-L001 (a parse failure)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/trace.hpp"
#include "eval/benchmarks.hpp"

namespace vsdbench {

enum class Kind { Golden, Identity, Inverted, Loop, Truncated, Whitespace };

const char* kind_name(Kind k);

/// What the four entry points said about one candidate.  A code is the
/// first Error-severity diagnostic code, empty when there is none.
struct Verdict {
  std::string lint_code;   // vlog::lint_source
  std::string elab_code;   // vlog::elab_lint_source
  bool compiles = false;   // sim::check_compiles
  bool diff_compiles = false;  // sim::diff_check: candidate_compiles
  bool equivalent = false;     // sim::diff_check: equivalent
  long diff_checks = 0;        // sim::diff_check: checks
};

struct Candidate {
  Kind kind = Kind::Golden;
  int problem = -1;  // index into Corpus::problems; -1 for whitespace
  std::string source;
  bool repeat = false;  // a copy of an earlier candidate's body
  long tokens = 0;      // count_source_tokens(source)
};

struct Corpus {
  std::vector<vsd::eval::BenchProblem> problems;
  std::vector<Candidate> candidates;
  int whitespace = 0;  // candidates of Kind::Whitespace (seed-independent)
};

/// Golden renamed `<top>_wrapped`, instantiated by a new `<top>` whose
/// header is the golden's header with `output reg` relaxed to `output`.
/// `invert_first_output` drives the first output port through `~`.
std::string wrapper(const vsd::eval::BenchProblem& p, bool invert_first_output);

/// `golden` with a two-wire combinational loop spliced in before its last
/// `endmodule`; the loop reads and drives nothing else.
std::string with_comb_loop(const std::string& golden);

/// `golden` cut before its last `endmodule`.
std::string truncated(const std::string& golden);

/// The fixed whitespace-only candidates (the same for every seed).
const std::vector<std::string>& whitespace_sources();

/// The benchmark's own token count: identifier/keyword runs (with `$` and
/// a leading backtick), number runs (digits, `'`, base letters, `_`, x/z),
/// and every other non-space character on its own.
long count_source_tokens(std::string_view src);

/// A seeded corpus over `n_problems` RTLLM-like problems: five constructed
/// candidates per problem, then a quarter as many again as repeats of
/// earlier non-whitespace candidates, then the whitespace candidates, all
/// shuffled.  The number of candidates of each kind does not depend on the
/// seed.
Corpus build_corpus(int n_problems, std::uint64_t seed);

/// Runs the four entry points on `c`, each inside its own span when
/// `trace` is non-null (`vlog.lint_source`, `vlog.elab_lint_source`,
/// `sim.check_compiles`, `sim.diff_check`).
Verdict judge(const Corpus& corpus, const Candidate& c,
              vsd::obs::TraceWriter* trace);

/// True iff `v` is the verdict known by construction for `kind`.
bool verdict_matches(Kind kind, const Verdict& v);

}  // namespace vsdbench
