#include "corpus.hpp"

#include <cctype>
#include <regex>
#include <stdexcept>

#include "common/rng.hpp"
#include "sim/check.hpp"
#include "vlog/dataflow.hpp"
#include "vlog/lint.hpp"
#include "vlog/parser.hpp"
#include "vlog/printer.hpp"

namespace vsdbench {

using vsd::eval::BenchProblem;

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '$';
}

std::string first_error_code(const vsd::vlog::LintResult& r) {
  for (const vsd::vlog::Diagnostic& d : r.diagnostics()) {
    if (d.severity == vsd::vlog::Severity::Error) return d.code;
  }
  return {};
}

// Position of the last `endmodule` keyword in `src`.
std::size_t last_endmodule(const std::string& src) {
  const std::size_t pos = src.rfind("endmodule");
  if (pos == std::string::npos) {
    throw std::runtime_error("golden design has no endmodule");
  }
  return pos;
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Golden: return "golden";
    case Kind::Identity: return "identity";
    case Kind::Inverted: return "inverted";
    case Kind::Loop: return "loop";
    case Kind::Truncated: return "truncated";
    case Kind::Whitespace: return "whitespace";
  }
  return "?";
}

std::string wrapper(const BenchProblem& p, bool invert_first_output) {
  const vsd::vlog::ParseResult parsed = vsd::vlog::parse(p.golden_code);
  const vsd::vlog::Module* mod = nullptr;
  if (parsed.ok) {
    for (const auto& m : parsed.unit->modules) {
      if (m->name == p.module_name) mod = m.get();
    }
  }
  if (mod == nullptr) {
    throw std::runtime_error("golden of " + p.id + " does not parse to its top");
  }

  // The golden, renamed.
  const std::string top = p.module_name;
  std::string inner = p.golden_code;
  std::size_t at = 0;
  for (;;) {
    at = inner.find("module " + top, at);
    if (at == std::string::npos) {
      throw std::runtime_error("golden of " + p.id + " does not declare " + top);
    }
    const std::size_t end = at + 7 + top.size();
    if (end >= inner.size() || !ident_char(inner[end])) break;
    at = end;
  }
  inner.insert(at + 7 + top.size(), "_wrapped");

  // The new top: the golden's header with output regs relaxed to nets,
  // since an instance output drives them.
  std::string out = inner + "\n" +
                    std::regex_replace(p.header, std::regex(R"(output\s+reg\b)"),
                                       "output") +
                    "\n";
  std::string inverted_port;
  for (const vsd::vlog::ModulePort& port : mod->ports) {
    if (!port.ansi) {
      throw std::runtime_error("golden of " + p.id + " has a non-ANSI header");
    }
    if (invert_first_output && inverted_port.empty() &&
        port.dir == vsd::vlog::PortDir::Output) {
      inverted_port = port.name;
      out += "  wire ";
      if (port.is_signed) out += "signed ";
      if (port.range) {
        out += "[" + vsd::vlog::print_expr(*port.range->msb) + ":" +
               vsd::vlog::print_expr(*port.range->lsb) + "] ";
      }
      out += "vsd_inv_" + port.name + ";\n";
    }
  }
  if (invert_first_output && inverted_port.empty()) {
    throw std::runtime_error("golden of " + p.id + " has no output");
  }
  out += "  " + top + "_wrapped u_golden (";
  for (std::size_t i = 0; i < mod->ports.size(); ++i) {
    const std::string& name = mod->ports[i].name;
    out += i == 0 ? "" : ", ";
    out += "." + name + "(" + (name == inverted_port ? "vsd_inv_" + name : name) + ")";
  }
  out += ");\n";
  if (!inverted_port.empty()) {
    out += "  assign " + inverted_port + " = ~vsd_inv_" + inverted_port + ";\n";
  }
  return out + "endmodule\n";
}

std::string with_comb_loop(const std::string& golden) {
  const std::size_t pos = last_endmodule(golden);
  return golden.substr(0, pos) +
         "  wire vsd_loop_a, vsd_loop_b;\n"
         "  assign vsd_loop_a = vsd_loop_b;\n"
         "  assign vsd_loop_b = vsd_loop_a;\n" +
         golden.substr(pos);
}

std::string truncated(const std::string& golden) {
  return golden.substr(0, last_endmodule(golden));
}

const std::vector<std::string>& whitespace_sources() {
  static const std::vector<std::string> kSources = {"", " ", "\n\n", "\t \n  \n"};
  return kSources;
}

long count_source_tokens(std::string_view src) {
  long n = 0;
  std::size_t i = 0;
  const auto at = [&](std::size_t k) {
    return static_cast<unsigned char>(src[k]);
  };
  while (i < src.size()) {
    const unsigned char c = at(i);
    if (std::isspace(c) != 0) {
      ++i;
      continue;
    }
    ++n;
    if (std::isalpha(c) != 0 || c == '_' || c == '$' || c == '`') {
      ++i;
      while (i < src.size() && ident_char(src[i])) ++i;
    } else if (std::isdigit(c) != 0 || c == '\'') {
      ++i;
      while (i < src.size() &&
             (std::isalnum(at(i)) != 0 || src[i] == '_' || src[i] == '\'')) {
        ++i;
      }
    } else {
      ++i;
    }
  }
  return n;
}

Corpus build_corpus(int n_problems, std::uint64_t seed) {
  Corpus corpus;
  corpus.problems = vsd::eval::make_rtllm_like(n_problems, seed);
  std::vector<Candidate>& cands = corpus.candidates;
  for (int i = 0; i < static_cast<int>(corpus.problems.size()); ++i) {
    const BenchProblem& p = corpus.problems[static_cast<std::size_t>(i)];
    cands.push_back({Kind::Golden, i, p.golden_code});
    cands.push_back({Kind::Identity, i, wrapper(p, false)});
    cands.push_back({Kind::Inverted, i, wrapper(p, true)});
    cands.push_back({Kind::Loop, i, with_comb_loop(p.golden_code)});
    cands.push_back({Kind::Truncated, i, truncated(p.golden_code)});
  }
  vsd::Rng rng(seed ^ 0x7265706561747321ull);
  const std::size_t unique = cands.size();
  for (std::size_t r = 0; r < unique / 4; ++r) {
    Candidate copy = cands[rng.next_below(unique)];
    copy.repeat = true;
    cands.push_back(std::move(copy));
  }
  for (const std::string& ws : whitespace_sources()) {
    // Diffed against the first golden; no design is equivalent to it.
    cands.push_back({Kind::Whitespace, 0, ws});
    ++corpus.whitespace;
  }
  rng.shuffle(cands);
  for (Candidate& c : cands) c.tokens = count_source_tokens(c.source);
  return corpus;
}

Verdict judge(const Corpus& corpus, const Candidate& c,
              vsd::obs::TraceWriter* trace) {
  const BenchProblem& p = corpus.problems.at(static_cast<std::size_t>(c.problem));
  const std::string top = c.kind == Kind::Whitespace ? std::string() : p.module_name;
  Verdict v;
  {
    const vsd::obs::Span span(trace, "vlog.lint_source", "verify");
    v.lint_code = first_error_code(vsd::vlog::lint_source(c.source));
  }
  {
    const vsd::obs::Span span(trace, "vlog.elab_lint_source", "verify");
    v.elab_code = first_error_code(vsd::vlog::elab_lint_source(c.source, top));
  }
  {
    const vsd::obs::Span span(trace, "sim.check_compiles", "verify");
    v.compiles = vsd::sim::check_compiles(c.source, top).ok;
  }
  {
    const vsd::obs::Span span(trace, "sim.diff_check", "verify");
    const vsd::sim::DiffResult d =
        vsd::sim::diff_check(p.golden_code, c.source, p.module_name);
    v.diff_compiles = d.candidate_compiles;
    v.equivalent = d.equivalent;
    v.diff_checks = d.checks;
  }
  return v;
}

bool verdict_matches(Kind kind, const Verdict& v) {
  const bool lint_clean = v.lint_code.empty();
  const bool elab_clean = v.elab_code.empty();
  switch (kind) {
    case Kind::Golden:
    case Kind::Identity:
      return lint_clean && elab_clean && v.compiles && v.diff_compiles && v.equivalent;
    case Kind::Inverted:
      return lint_clean && elab_clean && v.compiles && v.diff_compiles &&
             !v.equivalent;
    case Kind::Loop:
      return lint_clean && v.elab_code == "VSD-L200" && v.compiles &&
             v.diff_compiles && v.equivalent;
    case Kind::Truncated:
      return !lint_clean && !elab_clean && !v.compiles && !v.diff_compiles;
    case Kind::Whitespace:
      return !lint_clean && v.lint_code == v.elab_code &&
             v.lint_code != "VSD-L001" && !v.compiles && !v.diff_compiles;
  }
  return false;
}

}  // namespace vsdbench
