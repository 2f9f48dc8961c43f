// vsdbench_driver — runs one benchmark workload and prints one JSON line of
// raw measurements (run.py turns them into the reported metrics).
//
//   vsdbench_driver --workload dec_closed8|encdec_closed2|verify_corpus
//                   --seed N --seconds S [--trace-file PATH]
//
// Every layer is reached through its public functions only.  Serving runs
// on one compute thread (nn::set_compute_threads(1)): on a small shared
// host, multi-threaded GEMMs were both slower and less steady than one
// thread per scheduler worker.  The process is pinned to one CPU for
// set-up and the measured phases (threads it starts inherit the pin): on a
// virtual machine, every wake-up of a pool thread on another vCPU is paid
// for in host steal, which made unpinned enc-dec runs of one seed differ by
// a third.  Only the NTP reference decodes run unpinned.
//
// With --trace-file the run is the traced one: the measured phase runs
// once untraced (the tracing-overhead reference) and once with a
// TraceWriter that collects the benchmark's own spans around every public
// call plus the scheduler's tick/phase/check spans; the timeline is
// written to PATH at the end.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.hpp"
#include "common/version.hpp"
#include "corpus.hpp"
#include "data/dataset.hpp"
#include "eval/benchmarks.hpp"
#include "eval/harness.hpp"
#include "nn/kernel_dispatch.hpp"
#include "nn/kv_arena.hpp"
#include "nn/parallel.hpp"
#include "serve/check_stage.hpp"
#include "serve/json.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/session_cache.hpp"
#include "spec/decode.hpp"

using namespace vsd;
using vsdbench::Candidate;
using vsdbench::Corpus;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- the fixed serving system -----------------------------------------------
// The trained model is the system under test, so its training inputs are
// fixed; --seed picks the traffic (prompts, corpus).  Each workload's
// training scale (ServeShape) is one at which the draft heads' chains are
// sometimes accepted whole and sometimes rejected early, so the rejection
// and rollback paths run; at 32 items and 1 epoch every step accepted the
// full chain.  No request hits EOS at these scales, so every request runs
// to its budget.
constexpr std::uint64_t kTrainSeed = 7;
constexpr int kServeSetupReps = 3;
// Output budgets before prepare_request's 1.5x marker budget: prompt i asks
// for kMinNewTokens + (i * 37 mod kNewTokenSpan) tokens, a fixed spread
// across the range.  Equal budgets would keep closed-loop clients in
// lock-step cohorts, so latency would take only a handful of distinct
// values and admission would never happen mid-flight.  The top of the range
// leaves room for prompts of up to 168 tokens, which prepare_request would
// otherwise clip.
constexpr int kMinNewTokens = 80;
constexpr int kNewTokenSpan = 97;
constexpr int kPromptPool = 512;
constexpr int kCacheEntries = 16;

// --- the verify corpus ------------------------------------------------------
constexpr int kCorpusProblems = 160;  // ten per template family
constexpr int kCorpusSetupReps = 101;

// Each run completes at least this many requests, so at least ten latency
// samples lie beyond the nearest-rank p90.
constexpr int kMinRequests = 100;

struct ServeShape {
  const char* name;
  bool encoder_decoder;
  int clients;
  int batch;
  int workers;
  bool prefix_cache;
  int train_items;
  int train_epochs;
};

constexpr ServeShape kServeShapes[] = {
    {"dec_closed8", false, 8, 8, 1, true, 48, 1},
    {"encdec_closed2", true, 2, 2, 2, false, 24, 2},
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Host-wide CPU steal so far (all CPUs), from /proc/stat; 0 when unreadable.
double host_steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return 0.0;
  for (long long& x : v) {
    if (!(in >> x)) return 0.0;
  }
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

int online_cpus() {
  return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

// The calling thread's CPU set; threads it starts inherit it.
cpu_set_t cpu_affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  return set;
}

void set_cpu_affinity(const cpu_set_t& set) {
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

// Restricts the calling thread to the CPU it is running on (the lowest
// allowed one if that is unknown) and restores its CPU set on destruction.
// unpinned() lifts the pin for a scope.
class PinToOneCpu {
 public:
  PinToOneCpu() : all_(cpu_affinity()) {
    int cpu = sched_getcpu();
    for (int c = 0; (cpu < 0 || !CPU_ISSET(cpu, &all_)) && c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpu = c;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    set_cpu_affinity(one);
  }
  ~PinToOneCpu() { sched_setaffinity(0, sizeof(all_), &all_); }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  template <typename F>
  auto unpinned(F&& f) {
    const cpu_set_t pinned = cpu_affinity();
    set_cpu_affinity(all_);
    struct Repin {
      cpu_set_t set;
      ~Repin() { sched_setaffinity(0, sizeof(set), &set); }
    } repin{pinned};
    return f();
  }

 private:
  cpu_set_t all_;
};

// Minimal JSON object builder for the one-line result.
class Json {
 public:
  Json& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + serve::json_escape(v) + "\"");
  }
  Json& boolean(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& nums(const std::string& k, const std::vector<double>& vs) {
    std::string a = "[";
    char buf[64];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ",", vs[i]);
      a += buf;
    }
    return raw(k, a + "]");
  }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "\"" : ",\"") + k + "\":" + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  std::string trace_file;  // empty => untraced run
};

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = std::stoull(val);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(val);
    } else if (flag == "--trace-file") {
      o.trace_file = val;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1) throw std::runtime_error("flags take one value each");
  if (o.workload.empty() || !have_seed || !(o.seconds > 0.0)) {
    throw std::runtime_error(
        "usage: vsdbench_driver --workload W --seed N --seconds S "
        "[--trace-file PATH]");
  }
  return o;
}

// Figures common to every workload's measured phase.
struct Measured {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = 0.0;
  long tokens = 0;
  std::vector<double> latencies_s;
};

void put_measured(Json& j, const Measured& m) {
  j.num("wall_s", m.wall_s)
      .num("cpu_s", m.cpu_s)
      .num("steal_s", m.steal_s)
      .num("tokens", static_cast<double>(m.tokens))
      .nums("latencies_s", m.latencies_s);
}

// --- serving ----------------------------------------------------------------

struct Served {
  int prompt = 0;  // index into the prepared pool
  spec::DecodeResult result;
};

struct ServePhase {
  Measured m;
  std::vector<Served> served;
  serve::ServeStats stats;
  long cache_hits = 0;  // during the measured round only
  long cache_misses = 0;
  long cow_cloned = 0;
};

// Runs `clients` closed-loop clients against one scheduler: each client
// sends its next request only when its previous one has completed (check
// stages included), until `seconds` have passed and at least
// `min_requests` requests were sent.  Client c's k-th request carries
// prompt (c + clients * k) mod pool size.  Ids served past a request's
// budget are not counted as generated tokens.
std::vector<Served> closed_loop(const nn::TransformerModel& model,
                                const std::vector<eval::PreparedRequest>& pool,
                                int clients, double seconds, int min_requests,
                                serve::SchedulerOptions opts,
                                serve::ServeStats* stats, Measured* m) {
  serve::RequestQueue queue(static_cast<std::size_t>(clients));
  std::vector<int> next(static_cast<std::size_t>(clients), 0);
  std::vector<int> req_client;
  std::vector<int> req_prompt;
  std::vector<Served> served;
  int outstanding = 0;
  const auto submit = [&](int c) {
    const int k = next[static_cast<std::size_t>(c)]++;
    const int p = static_cast<int>((static_cast<std::size_t>(c) +
                                    static_cast<std::size_t>(clients) *
                                        static_cast<std::size_t>(k)) %
                                   pool.size());
    serve::Request r;
    r.id = req_client.size();
    r.prompt_ids = pool[static_cast<std::size_t>(p)].prompt_ids;
    r.config = pool[static_cast<std::size_t>(p)].config;
    r.seed = r.id;
    req_client.push_back(c);
    req_prompt.push_back(p);
    ++outstanding;
    if (!queue.try_push(std::move(r))) {
      throw std::runtime_error("queue refused a request");
    }
  };

  const double steal0 = host_steal_seconds();
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (int c = 0; c < clients; ++c) submit(c);
  serve::Scheduler scheduler(model, queue, std::move(opts));
  *stats = scheduler.run([&](const serve::Request& req, spec::DecodeResult res,
                             const serve::CheckReport*) {
    const auto now = Clock::now();
    if (m != nullptr) {
      m->latencies_s.push_back(
          std::chrono::duration<double>(now - req.enqueued_at).count());
      m->tokens += static_cast<long>(
          std::min(res.ids.size(),
                   static_cast<std::size_t>(req.config.max_new_tokens)));
    }
    served.push_back({req_prompt[req.id], std::move(res)});
    --outstanding;
    const int sent = static_cast<int>(served.size()) + outstanding;
    if (now < deadline || sent < min_requests) {
      submit(req_client[req.id]);
    } else if (outstanding == 0) {
      queue.close();
    }
  });
  if (m != nullptr) {
    m->wall_s = since(start);
    m->cpu_s = cpu_seconds() - cpu0;
    m->steal_s = host_steal_seconds() - steal0;
  }
  return served;
}

ServePhase serve_phase(const eval::TrainedSystem& sys, const ServeShape& shape,
                       const std::vector<eval::PreparedRequest>& pool,
                       const std::vector<eval::PreparedRequest>& warm,
                       double seconds, obs::TraceWriter* trace) {
  const nn::TransformerModel& model = *sys.model;
  // Cache and arena live across the warm-up round and the measured round,
  // as in a long-lived server.
  std::unique_ptr<serve::SessionCache> cache;
  if (shape.prefix_cache) {
    cache = std::make_unique<serve::SessionCache>(
        serve::SessionCacheOptions{.capacity = kCacheEntries});
  }
  const nn::ModelConfig& mc = model.config();
  nn::KvArenaOptions ao;
  const int per_seq = (mc.max_seq + ao.page - 1) / ao.page;
  ao.max_pages = (shape.batch + kCacheEntries + 8) * per_seq;
  auto arena = std::make_shared<nn::KvArena>(mc.n_layers, mc.d_model, mc.max_seq, ao);

  // lint,elab check stages, each wrapped in a benchmark span.
  std::string error;
  std::vector<serve::CheckStage> checks = serve::parse_check_stages(
      "lint,elab",
      [&sys](const spec::DecodeResult& r) { return sys.tokenizer.decode(r.ids); },
      error);
  if (checks.size() != 2) throw std::runtime_error("check stages: " + error);
  for (serve::CheckStage& cs : checks) {
    const char* span = cs.name == "lint" ? "bench.check.lint" : "bench.check.elab";
    cs.fn = [fn = std::move(cs.fn), trace, span](const serve::Request& r,
                                                 const spec::DecodeResult& d) {
      const obs::Span s(trace, span, "bench");
      return fn(r, d);
    };
  }
  const serve::SchedulerOptions opts{.workers = shape.workers,
                                     .batch = shape.batch,
                                     .fuse = true,
                                     .cache = cache.get(),
                                     .kv_arena = arena,
                                     .trace = trace,
                                     .checks = checks,
                                     .kernel = nn::KernelMode::Exact};
  ServePhase out;
  serve::ServeStats warm_stats;
  closed_loop(model, warm, shape.clients, 0.0, 0, opts, &warm_stats, nullptr);
  const serve::SessionCacheStats cache0 = cache ? cache->stats() : serve::SessionCacheStats{};
  {
    const obs::Span s(trace, "bench.scheduler_run", "bench");
    out.served = closed_loop(model, pool, shape.clients, seconds, kMinRequests, opts,
                             &out.stats, &out.m);
  }
  if (cache) {
    out.cache_hits = cache->stats().hits - cache0.hits;
    out.cache_misses = cache->stats().misses - cache0.misses;
  }
  out.cow_cloned = out.stats.kv.pages_cow_cloned - warm_stats.kv.pages_cow_cloned;
  return out;
}

// Decodes each distinct served prompt again with greedy NTP (no draft
// heads, scheduler, fused scoring or shared prefixes) and compares every
// served request with it: ids cut to max_new_tokens must match and hit_eos
// must agree.  Returns the number of requests that diverged; adds the ids
// served past the budget to `overshoot`.
int check_against_ntp(const eval::TrainedSystem& sys,
                      const std::vector<eval::PreparedRequest>& pool,
                      const std::vector<Served>& served, long* overshoot) {
  std::vector<int> prompts;
  for (const Served& s : served) prompts.push_back(s.prompt);
  std::sort(prompts.begin(), prompts.end());
  prompts.erase(std::unique(prompts.begin(), prompts.end()), prompts.end());
  std::map<int, spec::DecodeResult> ref;
  for (const int p : prompts) ref[p];
  const int threads = std::min<int>(std::min(online_cpus(), 4),
                                    static_cast<int>(prompts.size()));
  std::vector<std::thread> pool_threads;
  std::vector<std::string> errors(static_cast<std::size_t>(threads));
  const auto work = [&](int t) {
    try {
      const spec::Decoder dec(*sys.model);
      for (std::size_t i = static_cast<std::size_t>(t); i < prompts.size();
           i += static_cast<std::size_t>(threads)) {
        const eval::PreparedRequest& pr = pool[static_cast<std::size_t>(prompts[i])];
        Rng rng(0);
        ref[prompts[i]] = dec.ntp(pr.prompt_ids, pr.config, rng);
      }
    } catch (const std::exception& e) {
      errors[static_cast<std::size_t>(t)] = e.what();
    }
  };
  for (int t = 1; t < threads; ++t) pool_threads.emplace_back(work, t);
  work(0);
  for (std::thread& th : pool_threads) th.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("ntp reference decode: " + e);
  }
  int diverged = 0;
  for (const Served& s : served) {
    const spec::DecodeResult& r = ref[s.prompt];
    const std::size_t budget = static_cast<std::size_t>(
        pool[static_cast<std::size_t>(s.prompt)].config.max_new_tokens);
    const std::vector<int>& ids = s.result.ids;
    *overshoot += ids.size() > budget ? static_cast<long>(ids.size() - budget) : 0;
    const std::vector<int> cut(ids.begin(), ids.begin() + std::min(budget, ids.size()));
    if (cut != r.ids || s.result.hit_eos != r.hit_eos) ++diverged;
  }
  return diverged;
}

// Times InferSession::feed at chain length `chain` and
// TransformerModel::infer_lm_logits at `width` rows, each call in its own
// span (nn.feed / nn.logits).
void time_nn(const eval::TrainedSystem& sys, const std::vector<int>& prompt,
             int chain, int width, obs::TraceWriter* trace) {
  constexpr int kCalls = 200;
  const nn::TransformerModel& model = *sys.model;
  nn::InferSession sess(model);
  if (model.config().encoder_decoder) {
    sess.set_encoder(prompt);
    const int bos[] = {text::Tokenizer::kBos};
    sess.feed(bos);
  } else {
    sess.feed(prompt);
  }
  const int base = sess.len();
  std::vector<int> ids(static_cast<std::size_t>(chain));
  for (int i = 0; i < chain; ++i) {
    ids[static_cast<std::size_t>(i)] = text::Tokenizer::kNumSpecials + i % 32;
  }
  for (int i = 0; i < kCalls; ++i) {
    {
      const obs::Span s(trace, "nn.feed", "nn");
      (void)sess.feed(ids);
    }
    sess.truncate(base);
  }
  Rng rng(1);
  const nn::Tensor hidden = nn::Tensor::randn(width, model.config().d_model, 1.0f, rng);
  for (int i = 0; i < kCalls; ++i) {
    const obs::Span s(trace, "nn.logits", "nn");
    (void)model.infer_lm_logits(hidden);
  }
}

Json run_serving(const ServeShape& shape, const Options& o) {
  PinToOneCpu pin;
  nn::set_compute_threads(1);
  nn::set_kernel_mode(nn::KernelMode::Exact);
  std::unique_ptr<obs::TraceWriter> tracer;
  if (!o.trace_file.empty()) tracer = std::make_unique<obs::TraceWriter>();
  obs::TraceWriter* trace = tracer.get();
  if (trace != nullptr) trace->name_this_thread("bench");

  // --- set-up: dataset, tokenizer, training (repeated; median reported) ---
  std::vector<double> setup_s;
  std::optional<eval::TrainedSystem> sys;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    sys.reset();
    const auto t0 = Clock::now();
    data::DatasetConfig dcfg;
    dcfg.target_items = shape.train_items;
    dcfg.seed = kTrainSeed;
    data::Dataset dataset;
    {
      const obs::Span s(trace, "setup.dataset", "setup");
      dataset = data::build_dataset(dcfg);
    }
    text::Tokenizer tokenizer = text::Tokenizer::byte_fallback();
    {
      const obs::Span s(trace, "setup.tokenizer", "setup");
      tokenizer = text::Tokenizer::train(data::tokenizer_corpus(dataset),
                                         {.vocab_size = 384});
    }
    eval::SystemConfig cfg;
    cfg.method = spec::Method::Ours;
    cfg.encoder_decoder = shape.encoder_decoder;
    cfg.epochs = shape.train_epochs;
    cfg.seed = kTrainSeed;
    {
      const obs::Span s(trace, "setup.train", "setup");
      sys.emplace(eval::train_system(cfg, dataset, tokenizer));
    }
    setup_s.push_back(since(t0));
  }

  // --- traffic: prompts from the seed, prepared before timing ------------
  const auto prepare = [&](const std::vector<std::string>& texts) {
    std::vector<eval::PreparedRequest> out;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      spec::DecodeConfig base;
      base.max_new_tokens =
          kMinNewTokens + static_cast<int>((i * 37) % kNewTokenSpan);
      const obs::Span s(trace, "eval.prepare_request", "bench");
      out.push_back(eval::prepare_request(*sys, texts[i], base));
    }
    return out;
  };
  const auto pool = prepare(eval::make_speed_prompts(kPromptPool, o.seed));
  const auto warm =
      prepare(eval::make_speed_prompts(shape.clients, o.seed ^ 0x5741524dull));

  Json j;
  j.nums("setup_s", setup_s);
  long overshoot = 0;
  int failed = 0;
  int attempted = 0;
  if (trace != nullptr) {
    // Untraced reference for the tracing overhead, then the traced phase.
    const ServePhase ref = serve_phase(*sys, shape, pool, warm, o.seconds, nullptr);
    long ignored = 0;
    failed += pin.unpinned(
        [&] { return check_against_ntp(*sys, pool, ref.served, &ignored); });
    attempted += static_cast<int>(ref.served.size());
    j.num("untraced_tokens_per_s", static_cast<double>(ref.m.tokens) / ref.m.wall_s);
  }
  const ServePhase phase = serve_phase(*sys, shape, pool, warm, o.seconds, trace);
  failed += pin.unpinned(
      [&] { return check_against_ntp(*sys, pool, phase.served, &overshoot); });
  attempted += static_cast<int>(phase.served.size());
  put_measured(j, phase.m);

  // --- per-layer figures from the program's own accounting ---------------
  // Counts are per completed request, so a run that fits more requests in
  // its window does not read as more misses or more overshoot.
  const serve::ServeStats& st = phase.stats;
  const double requests = static_cast<double>(phase.served.size());
  const int full_chain = sys->config.medusa_heads + 1;
  long steps = 0;
  long full_chain_steps = 0;
  long served_ids = 0;
  long positions = 0;
  long prefill = 0;
  for (const Served& s : phase.served) {
    steps += s.result.steps;
    served_ids += static_cast<long>(s.result.ids.size());
    positions += s.result.positions;
    prefill += s.result.prefill_positions;
    full_chain_steps += std::count(s.result.accepted_per_step.begin(),
                                   s.result.accepted_per_step.end(), full_chain);
  }
  // A run in which every step accepted the whole drafted chain never
  // exercises rejection or rollback; run.py flags it.
  j.num("full_chain_step_share", steps > 0 ? static_cast<double>(full_chain_steps) /
                                                 static_cast<double>(steps)
                                           : 0.0);
  const double ids = static_cast<double>(served_ids);
  const auto stage_p50 = [&](const char* name) {
    for (const serve::CheckStageStats& cs : st.check_stages) {
      if (cs.name == name) return cs.latency.p50;
    }
    return 0.0;
  };
  Json layer;
  layer.num("spec.train_steps", sys->train_stats.steps)
      .num("serve.ticks", static_cast<double>(st.ticks) / requests)
      .num("serve.tick_p50_s", st.tick.p50)
      .num("serve.occupancy_mean", st.occupancy_mean)
      .num("serve.fused_rows_per_pass",
           st.fused_passes > 0 ? static_cast<double>(st.fused_rows) /
                                     static_cast<double>(st.fused_passes)
                               : 0.0)
      .num("serve.queue_wait_p50_s", st.queue_wait.p50)
      .num("serve.ttft_p50_s", st.ttft.p50)
      .num("serve.check.lint_p50_s", stage_p50("lint"))
      .num("serve.check.elab_p50_s", stage_p50("elab"))
      .num("serve.cache.hit_positions_share",
           st.cached_positions + st.prefill_positions > 0
               ? static_cast<double>(st.cached_positions) /
                     static_cast<double>(st.cached_positions + st.prefill_positions)
               : 0.0)
      .num("serve.cache.hits", static_cast<double>(phase.cache_hits) / requests)
      .num("serve.cache.misses", static_cast<double>(phase.cache_misses) / requests)
      .num("spec.tokens_per_step", steps > 0 ? ids / static_cast<double>(steps) : 0.0)
      .num("spec.positions_per_token", ids > 0 ? static_cast<double>(positions) / ids : 0.0)
      .num("spec.budget_overshoot_tokens", static_cast<double>(overshoot) / requests)
      .num("nn.kv.pages_total", static_cast<double>(st.kv.pages_total))
      .num("nn.kv.pages_cow_cloned", static_cast<double>(phase.cow_cloned) / requests);

  if (trace != nullptr) {
    const int chain = std::max<int>(
        1, static_cast<int>(std::lround(static_cast<double>(positions - prefill) /
                                        static_cast<double>(std::max(1L, steps)))));
    const int width =
        std::max<int>(1, static_cast<int>(std::lround(
                             static_cast<double>(st.fused_rows) /
                             static_cast<double>(std::max(1L, st.fused_passes)))));
    {
      const obs::Span s(trace, "bench.nn_timing", "bench");
      time_nn(*sys, pool[0].prompt_ids, chain, width, trace);
    }
    layer.num("nn.chain_len", chain).num("nn.fused_width", width);
  }
  j.raw("layer", layer.text())
      .num("attempted", attempted)
      .num("failed", failed)
      .boolean("correct", failed == 0);
  if (tracer && !tracer->write_file(o.trace_file)) {
    throw std::runtime_error("cannot write " + o.trace_file);
  }
  return j;
}

// --- verify corpus ------------------------------------------------------------

struct VerifyPhase {
  Measured m;
  long attempted = 0;
  long failed = 0;
  long wrong = 0;  // failures outside the named whitespace fault
  long passes = 0;
  long diff_checks = 0;
};

// Judges whole passes over the corpus until `seconds` have passed.
VerifyPhase verify_phase(const Corpus& corpus, double seconds,
                         obs::TraceWriter* trace) {
  VerifyPhase v;
  const double steal0 = host_steal_seconds();
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  do {
    for (const Candidate& c : corpus.candidates) {
      const auto t0 = Clock::now();
      vsdbench::Verdict verdict;
      {
        const obs::Span s(trace, "verify.candidate", "verify");
        verdict = vsdbench::judge(corpus, c, trace);
      }
      v.m.latencies_s.push_back(since(t0));
      v.m.tokens += c.tokens;
      v.diff_checks += verdict.diff_checks;
      ++v.attempted;
      if (!vsdbench::verdict_matches(c.kind, verdict)) {
        ++v.failed;
        if (c.kind != vsdbench::Kind::Whitespace) ++v.wrong;
      }
    }
    ++v.passes;
  } while (since(start) < seconds || v.attempted < kMinRequests);
  v.m.wall_s = since(start);
  v.m.cpu_s = cpu_seconds() - cpu0;
  v.m.steal_s = host_steal_seconds() - steal0;
  return v;
}

Json run_verify(const Options& o) {
  const PinToOneCpu pin;
  std::unique_ptr<obs::TraceWriter> tracer;
  if (!o.trace_file.empty()) tracer = std::make_unique<obs::TraceWriter>();
  obs::TraceWriter* trace = tracer.get();
  if (trace != nullptr) trace->name_this_thread("bench");

  std::vector<double> setup_s;
  std::optional<Corpus> corpus;
  for (int rep = 0; rep < kCorpusSetupReps; ++rep) {
    corpus.reset();
    const auto t0 = Clock::now();
    {
      const obs::Span s(trace, "setup.corpus", "setup");
      corpus.emplace(vsdbench::build_corpus(kCorpusProblems, o.seed));
    }
    setup_s.push_back(since(t0));
  }
  Json j;
  j.nums("setup_s", setup_s);
  long attempted = 0;
  long failed = 0;
  long wrong = 0;
  if (trace != nullptr) {
    const VerifyPhase ref = verify_phase(*corpus, o.seconds, nullptr);
    attempted += ref.attempted;
    failed += ref.failed;
    wrong += ref.wrong;
    j.num("untraced_tokens_per_s", static_cast<double>(ref.m.tokens) / ref.m.wall_s);
  }
  const VerifyPhase v = verify_phase(*corpus, o.seconds, trace);
  attempted += v.attempted;
  failed += v.failed;
  wrong += v.wrong;
  put_measured(j, v.m);
  Json layer;
  layer.num("sim.diff_checks",
            static_cast<double>(v.diff_checks) / static_cast<double>(v.passes));
  j.raw("layer", layer.text())
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("wrong_verdicts", static_cast<double>(wrong))
      .boolean("correct", wrong == 0);
  if (tracer && !tracer->write_file(o.trace_file)) {
    throw std::runtime_error("cannot write " + o.trace_file);
  }
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    Json j;
    if (o.workload == "verify_corpus") {
      j = run_verify(o);
    } else {
      const ServeShape* shape = nullptr;
      for (const ServeShape& s : kServeShapes) {
        if (o.workload == s.name) shape = &s;
      }
      if (shape == nullptr) throw std::runtime_error("unknown workload " + o.workload);
      j = run_serving(*shape, o);
    }
    Json env;
    env.num("nproc", online_cpus())
        .str("isa", nn::isa_name(nn::dispatched_isa()))
        .str("compiler", VSDBENCH_COMPILER)
        .str("build_type", VSDBENCH_BUILD_TYPE)
        .str("git_sha", VSDBENCH_GIT_SHA)
        .str("build_info", build_info());
    j.str("workload", o.workload)
        .num("seed", static_cast<double>(o.seed))
        .num("peak_rss_mb", peak_rss_mb())
        .raw("env", env.text());
    std::printf("%s\n", j.text().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsdbench_driver: %s\n", e.what());
    return 2;
  }
}
