// End-to-end QueryEngine benchmark with a traced per-layer run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Each workload generates its data graph and a fixed request sequence (one
// "pass") from the seed, builds a QueryEngine (the whole set-up runs several
// times; setup_s is the median), and drives it from one client thread in a
// closed loop: pass after pass, caches cleared between passes, for
// `--seconds`. The last line of stdout is one JSON object: {"correct",
// "attempted", "failed", "metrics"}. --trace 0 reports the end-to-end
// metrics; --trace 1 serves a shorter untraced window, then serves the first
// pass again with spans around MatchBatch and a layer-by-layer replay
// (filter, order, enumerate) of every query, and reports the per-layer
// metrics. Spans are written to <out>/<workload>-seed<n>.spans.csv when the
// run ends. Human-readable detail goes to stderr. See README.md here.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/rlqvo.h"
#include "datasets/datasets.h"
#include "engine/candidate_cache.h"
#include "engine/query_engine.h"
#include "graph/generators.h"
#include "graph/query_sampler.h"
#include "matching/enumerator.h"
#include "matching/intersect.h"
#include "matching/matcher.h"

namespace {

using rlqvo::BatchResult;
using rlqvo::CandidateSet;
using rlqvo::EngineCounters;
using rlqvo::EnumerateOptions;
using rlqvo::EnumerateResult;
using rlqvo::Graph;
using rlqvo::MatchRunStats;
using rlqvo::Result;
using rlqvo::Status;
using rlqvo::VertexId;

constexpr uint32_t kEngineThreads = 4;
constexpr uint32_t kProbeQueries = 32;
// Share of --seconds the traced run spends on its untraced window; then the
// first pass is served again with spans and the replay.
constexpr double kTracedWindowShare = 1.0 / 3.0;
constexpr double kQueryDeadlineSeconds = 5.0;
// The RL-QVO model is trained on a fixed query set with a fixed seed: models
// trained from different seeds differ in serving cost by up to ~30%, which
// would drown every bound. The order digest pins the model.
constexpr uint64_t kModelSeed = 2022;
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T MustOk(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/// SplitMix64 finaliser: derives independent sub-seeds from one seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

enum Salt : uint64_t {
  kSaltGraph = 1,
  kSaltTrainQueries,
  kSaltTrain,
  kSaltWarmup,
  kSaltProbe,
  kSaltRequests,
};

uint64_t HashOrder(const std::vector<VertexId>& order, uint64_t h) {
  for (VertexId v : order) {
    h ^= static_cast<uint64_t>(v) + 1;
    h *= 0x100000001B3ULL;  // FNV-1a prime
  }
  return h;
}

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Workloads

struct WorkloadSpec {
  std::string name;
  /// true: emulated yeast + RL-QVO engine; false: Erdős–Rényi + Hybrid.
  bool yeast = true;
  /// Query sizes, cycled in equal shares through the request sequence.
  std::vector<uint32_t> sizes;
  /// A request is `fresh` new distinct queries, each sent `repeats` times,
  /// shuffled.
  uint32_t fresh = 1;
  uint32_t repeats = 1;
  /// Requests in one pass of the sequence.
  uint32_t pass_requests = 1;
  /// Timing metrics are taken per window of this many consecutive requests
  /// of a complete pass (a divisor of pass_requests), then the median over
  /// windows: host noise moves on a scale of seconds, and many short
  /// windows outvote a disturbed one.
  uint32_t window = 1;
  /// The untraced run replays every check_stride-th request of the first
  /// pass (a serial replay of er-parallel costs ~3.5x its 4-way serving).
  uint32_t check_stride = 1;
  uint64_t match_limit = 100000;
  uint32_t parallel_threads = 0;
  uint32_t warmup_requests = 1;
  /// Set-up repeats (setup_s is their median).
  int setup_repeats = 5;

  /// The highest percentile with at least ten of a window's samples beyond
  /// it; fixed by the window length, so it never moves with speed.
  double tail_pct() const { return 100.0 * (1.0 - 10.0 / window); }
};

std::vector<WorkloadSpec> Workloads() {
  WorkloadSpec ordering;
  ordering.name = "yeast-ordering";
  ordering.sizes = {8, 16, 32};
  ordering.pass_requests = 18000;
  ordering.window = 500;
  ordering.check_stride = 6;
  ordering.warmup_requests = 30;

  WorkloadSpec batch = ordering;
  batch.name = "yeast-batch";
  batch.fresh = 16;
  batch.repeats = 4;
  batch.pass_requests = 1600;
  batch.window = 100;
  batch.check_stride = 4;
  batch.warmup_requests = 3;

  WorkloadSpec parallel;
  parallel.name = "er-parallel";
  parallel.yeast = false;
  parallel.sizes = {7};
  parallel.pass_requests = 400;
  parallel.window = 100;
  parallel.check_stride = 4;
  parallel.match_limit = 0;
  parallel.parallel_threads = kEngineThreads;
  parallel.warmup_requests = 4;
  parallel.setup_repeats = 25;
  return {ordering, batch, parallel};
}

/// A deterministic request sequence: distinct queries (no two share a
/// fingerprint) and, per request, the indices of the queries it sends.
struct Sequence {
  std::vector<Graph> queries;
  std::vector<std::vector<uint32_t>> requests;

  std::vector<Graph> Request(size_t r) const {
    std::vector<Graph> out;
    out.reserve(requests[r].size());
    for (uint32_t q : requests[r]) out.push_back(queries[q]);
    return out;
  }
};

Result<Sequence> BuildSequence(const Graph& data, const WorkloadSpec& spec,
                               uint64_t seed, uint32_t num_requests) {
  Sequence seq;
  rlqvo::QuerySampler sampler(&data, seed);
  rlqvo::Rng shuffle(Mix(seed, 1));
  std::unordered_set<uint64_t> seen;
  for (uint32_t r = 0; r < num_requests; ++r) {
    std::vector<uint32_t> fresh;
    while (fresh.size() < spec.fresh) {
      const size_t index = seq.queries.size();
      const uint32_t size = spec.sizes[index % spec.sizes.size()];
      for (int attempt = 0;; ++attempt) {
        if (attempt == 1000) {
          return Status::Internal("no fresh query of size " +
                                  std::to_string(size));
        }
        RLQVO_ASSIGN_OR_RETURN(Graph query, sampler.SampleQuery(size));
        if (seen.insert(rlqvo::QueryFingerprint(query)).second) {
          fresh.push_back(static_cast<uint32_t>(seq.queries.size()));
          seq.queries.push_back(std::move(query));
          break;
        }
      }
    }
    std::vector<uint32_t> request;
    for (uint32_t k = 0; k < spec.repeats; ++k) {
      request.insert(request.end(), fresh.begin(), fresh.end());
    }
    for (size_t i = request.size(); i > 1; --i) {
      std::swap(request[i - 1], request[shuffle.NextBounded(i)]);
    }
    seq.requests.push_back(std::move(request));
  }
  return seq;
}

EnumerateOptions EngineEnumOptions(const WorkloadSpec& spec) {
  EnumerateOptions options;
  options.match_limit = spec.match_limit;
  options.time_limit_seconds = kQueryDeadlineSeconds;
  options.parallel_threads = spec.parallel_threads;
  return options;
}

// ---------------------------------------------------------------------------
// Set-up: graph, query sampling, training, engine, warm-up

struct Setup {
  std::shared_ptr<const Graph> data;
  Sequence sequence;
  std::shared_ptr<rlqvo::QueryEngine> engine;
  /// The engine's own filter/ordering configuration, for the replay.
  std::shared_ptr<rlqvo::CandidateFilter> filter;
  std::shared_ptr<rlqvo::Ordering> ordering;
  double graph_build_s = 0.0;
  double train_s = 0.0;
  double total_s = 0.0;
};

Setup BuildSetup(const WorkloadSpec& spec, uint64_t seed) {
  Setup setup;
  const int64_t start = NowNs();
  const EnumerateOptions enum_options = EngineEnumOptions(spec);
  rlqvo::EngineOptions engine_options;
  engine_options.num_threads = kEngineThreads;

  if (spec.yeast) {
    const rlqvo::DatasetSpec yeast =
        MustOk(rlqvo::FindDataset("yeast"), "yeast spec");
    setup.data = std::make_shared<const Graph>(
        MustOk(rlqvo::BuildDataset(yeast, 1.0), "yeast graph"));
  } else {
    rlqvo::LabelConfig labels;
    labels.num_labels = 4;
    labels.zipf_exponent = 0.0;
    setup.data = std::make_shared<const Graph>(MustOk(
        rlqvo::GenerateErdosRenyi(3000, 16.0, labels, Mix(seed, kSaltGraph)),
        "ER graph"));
  }
  setup.graph_build_s = SecondsSince(start);
  setup.sequence =
      MustOk(BuildSequence(*setup.data, spec, Mix(seed, kSaltRequests),
                           spec.pass_requests),
             "request sequence");

  if (spec.yeast) {
    rlqvo::QuerySampler sampler(setup.data.get(),
                                Mix(kModelSeed, kSaltTrainQueries));
    const std::vector<Graph> train =
        MustOk(sampler.SampleQuerySet(16, 8), "training queries");
    rlqvo::RLQVOModel model;
    rlqvo::TrainConfig config;
    config.epochs = 5;
    config.seed = Mix(kModelSeed, kSaltTrain);
    // No wall-clock cut anywhere in training, so the model is deterministic.
    config.train_time_limit_seconds = 0.0;
    config.max_train_seconds = 0.0;
    const int64_t t0 = NowNs();
    MustOk(model.Train(train, *setup.data, config), "training");
    setup.train_s = SecondsSince(t0);
    setup.engine = MustOk(
        model.MakeEngine(setup.data, engine_options, enum_options), "engine");
    const rlqvo::MatcherConfig replay =
        MustOk(model.MakeMatcher(enum_options), "replay matcher")->config();
    setup.filter = replay.filter;
    setup.ordering = replay.ordering;
  } else {
    setup.engine = MustOk(rlqvo::MakeEngineByName("Hybrid", setup.data,
                                                  engine_options, enum_options),
                          "engine");
    const rlqvo::MatcherConfig replay =
        MustOk(rlqvo::MakeMatcherByName("Hybrid", enum_options),
               "replay matcher")
            ->config();
    setup.filter = replay.filter;
    setup.ordering = replay.ordering;
  }

  const Sequence warmup =
      MustOk(BuildSequence(*setup.data, spec, Mix(seed, kSaltWarmup),
                           spec.warmup_requests),
             "warm-up sequence");
  for (size_t r = 0; r < warmup.requests.size(); ++r) {
    const BatchResult result =
        MustOk(setup.engine->MatchBatch(warmup.Request(r)), "warm-up batch");
    if (result.failed != 0 || result.unsolved != 0) Die("warm-up failed");
  }
  setup.engine->ClearCache();
  setup.total_s = SecondsSince(start);
  return setup;
}

// ---------------------------------------------------------------------------
// Outcomes, the correctness gate's comparisons and the order digest

/// What the engine (or the replay) reported for one query.
struct Outcome {
  bool solved = false;
  uint64_t matches = 0;
  uint64_t enums = 0;
  uint64_t order_hash = 0;

  bool operator==(const Outcome&) const = default;
};

std::string Describe(const Outcome& o) {
  return "matches=" + std::to_string(o.matches) +
         " #enum=" + std::to_string(o.enums) +
         " order=" + std::to_string(o.order_hash);
}

Outcome FromEnumerate(const EnumerateResult& run, uint64_t order_hash) {
  return {!run.timed_out, run.num_matches, run.num_enumerations, order_hash};
}

/// The exact-count comparisons of the correctness gate.
struct Gate {
  uint64_t compared = 0;
  uint64_t mismatches = 0;

  /// Compares two outcomes of query `i` of request `r`. A query that missed
  /// its deadline on either side is not comparable and is skipped.
  void Compare(const char* what, size_t r, size_t i, const Outcome& a,
               const Outcome& b) {
    if (!a.solved || !b.solved) return;
    ++compared;
    if (a == b) return;
    ++mismatches;
    std::fprintf(stderr, "MISMATCH %s, request %zu query %zu: %s vs %s\n",
                 what, r, i, Describe(a).c_str(), Describe(b).c_str());
  }
};

std::vector<VertexId> MakeOrder(const Setup& setup, const Graph& query,
                                const CandidateSet& candidates) {
  rlqvo::OrderingContext ctx;
  ctx.query = &query;
  ctx.data = setup.data.get();
  ctx.candidates = &candidates;
  return MustOk(setup.ordering->MakeOrder(ctx), "replay order");
}

/// Order digest of the replay ordering on a fixed probe set: pins that
/// training and ordering are deterministic.
uint64_t OrderDigest(const WorkloadSpec& spec, uint64_t seed,
                     const Setup& setup) {
  WorkloadSpec probe_spec = spec;
  probe_spec.fresh = kProbeQueries;
  probe_spec.repeats = 1;
  const Sequence probe = MustOk(
      BuildSequence(*setup.data, probe_spec, Mix(seed, kSaltProbe), 1),
      "probe queries");
  uint64_t digest = kFnvBasis;
  for (const Graph& query : probe.queries) {
    const CandidateSet candidates =
        MustOk(setup.filter->Filter(query, *setup.data), "probe filter");
    digest = HashOrder(MakeOrder(setup, query, candidates), digest);
  }
  return digest & ((1ULL << 48) - 1);  // exact as a JSON double
}

// ---------------------------------------------------------------------------
// Serving and failure accounting

struct Accounting {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t solved = 0;
  uint64_t deadline_missed = 0;
  uint64_t shed = 0;
  std::map<std::string, uint64_t> non_ok;  // by status code

  /// failed_share's numerator: non-OK (shed included) or deadline-missed.
  uint64_t failed() const { return attempted - solved; }
  uint64_t not_ok() const { return attempted - ok; }

  /// Records one request and returns one Outcome per query (unsolved and
  /// failed queries have solved == false).
  std::vector<Outcome> Add(size_t num_queries,
                           const Result<BatchResult>& result) {
    attempted += num_queries;
    std::vector<Outcome> outcomes(num_queries);
    if (!result.ok()) {
      NonOk(result.status(), num_queries);
      return outcomes;
    }
    for (size_t i = 0; i < num_queries; ++i) {
      if (!result->statuses[i].ok()) {
        NonOk(result->statuses[i], 1);
        continue;
      }
      const MatchRunStats& stats = result->per_query[i];
      ++ok;
      if (!stats.solved) {
        ++deadline_missed;
        continue;
      }
      ++solved;
      outcomes[i] = {true, stats.num_matches, stats.num_enumerations,
                     HashOrder(stats.order, kFnvBasis)};
    }
    return outcomes;
  }

  void Merge(const Accounting& other) {
    attempted += other.attempted;
    ok += other.ok;
    solved += other.solved;
    deadline_missed += other.deadline_missed;
    shed += other.shed;
    for (const auto& [code, n] : other.non_ok) non_ok[code] += n;
  }

  void NonOk(const Status& status, uint64_t n) {
    non_ok[rlqvo::StatusCodeToString(status.code())] += n;
    if (status.code() == rlqvo::StatusCode::kResourceExhausted) shed += n;
  }

  void Print(const char* what) const {
    std::fprintf(stderr,
                 "%s: attempted=%llu ok=%llu solved=%llu deadline_missed=%llu "
                 "shed=%llu",
                 what, static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(ok),
                 static_cast<unsigned long long>(solved),
                 static_cast<unsigned long long>(deadline_missed),
                 static_cast<unsigned long long>(shed));
    for (const auto& [code, n] : non_ok) {
      std::fprintf(stderr, " non_ok[%s]=%llu", code.c_str(),
                   static_cast<unsigned long long>(n));
    }
    std::fprintf(stderr, " failed_share=%llu/%llu\n",
                 static_cast<unsigned long long>(failed()),
                 static_cast<unsigned long long>(attempted));
  }
};

struct Served {
  Accounting accounting;
  uint64_t requests = 0;
  /// Per window of the complete passes; a pass cut by the end of the run
  /// is still accounted and verified, but left out of the timing metrics.
  std::vector<double> window_p50_ms, window_tail_ms, window_qps;
  /// Summed request time of each complete pass.
  std::vector<double> pass_ms;
  /// The first pass's outcomes, by request; every later pass must repeat
  /// them exactly.
  std::vector<std::vector<Outcome>> reference;
  Gate gate;
};

/// The closed loop: one client, next request only after the previous one
/// returned, pass after pass, until `seconds` of wall time have passed. The
/// first pass always completes. Caches are cleared before every pass.
Served Serve(const WorkloadSpec& spec, Setup* setup, double seconds) {
  Served served;
  const Sequence& seq = setup->sequence;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t pass = 0;; ++pass) {
    setup->engine->ClearCache();
    std::vector<double> latency_ms;
    std::vector<uint64_t> solved;
    for (size_t r = 0; r < seq.requests.size(); ++r) {
      if (pass > 0 && NowNs() >= end) break;
      const std::vector<Graph> request = seq.Request(r);
      const int64_t t0 = NowNs();
      const Result<BatchResult> result = setup->engine->MatchBatch(request);
      latency_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      ++served.requests;
      std::vector<Outcome> outcomes =
          served.accounting.Add(request.size(), result);
      solved.push_back(static_cast<uint64_t>(std::count_if(
          outcomes.begin(), outcomes.end(),
          [](const Outcome& o) { return o.solved; })));
      if (pass == 0) {
        served.reference.push_back(std::move(outcomes));
        continue;
      }
      for (size_t i = 0; i < outcomes.size(); ++i) {
        served.gate.Compare("later pass vs first pass", r, i, outcomes[i],
                            served.reference[r][i]);
      }
    }
    if (latency_ms.size() < seq.requests.size()) break;
    double pass_ms = 0.0;
    for (size_t w = 0; w + spec.window <= latency_ms.size(); w += spec.window) {
      const std::vector<double> window(latency_ms.begin() + w,
                                       latency_ms.begin() + w + spec.window);
      double window_ms = 0.0;
      uint64_t window_solved = 0;
      for (size_t r = w; r < w + spec.window; ++r) {
        window_ms += latency_ms[r];
        window_solved += solved[r];
      }
      served.window_p50_ms.push_back(Median(window));
      served.window_tail_ms.push_back(Percentile(window, spec.tail_pct()));
      served.window_qps.push_back(
          Ratio(static_cast<double>(window_solved), window_ms * 1e-3));
      pass_ms += window_ms;
    }
    served.pass_ms.push_back(pass_ms);
    if (NowNs() >= end) break;
  }
  return served;
}

/// Arithmetic mean of #enum over the first pass's solved queries.
double MeanEnumerations(const Served& served) {
  double sum = 0.0;
  uint64_t n = 0;
  for (const auto& request : served.reference) {
    for (const Outcome& o : request) {
      if (!o.solved) continue;
      sum += static_cast<double>(o.enums);
      ++n;
    }
  }
  return Ratio(sum, static_cast<double>(n));
}

// ---------------------------------------------------------------------------
// Tracing

enum SpanName : uint8_t {
  kSpanRequest,
  kSpanMatchBatch,
  kSpanFilter,
  kSpanOrder,
  kSpanEnumerate,
  kSpanEnumerateSerial,
  kNumSpanNames,
};
const char* const kSpanNames[kNumSpanNames] = {
    "request", "engine.match_batch", "filter",
    "order",   "enumerate",          "enumerate.serial"};
constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint32_t request = 0;
  uint32_t parent = kNoParent;
  SpanName name = kSpanRequest;
  uint32_t query_vertices = 0;  // replay spans: |V(q)|
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration() const { return end_ns - start_ns; }
};

/// In-memory span recorder; spans are written out once, after the run.
class Tracer {
 public:
  uint32_t Begin(uint32_t request, SpanName name, uint32_t parent,
                 uint32_t query_vertices = 0) {
    spans_.push_back({request, parent, name, query_vertices, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t id) { spans_[id].end_ns = NowNs(); }
  const Span& span(uint32_t id) const { return spans_[id]; }
  size_t size() const { return spans_.size(); }

  /// Self times in ms (duration minus the children's durations) of the
  /// spans named `name`, optionally only those of |V(q)| == query_vertices.
  std::vector<double> SelfMs(SpanName name, uint32_t query_vertices = 0) const {
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != kNoParent) child[s.parent] += s.duration();
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name &&
          (query_vertices == 0 || spans_[i].query_vertices == query_vertices)) {
        out.push_back(static_cast<double>(spans_[i].duration() - child[i]) *
                      1e-6);
      }
    }
    return out;
  }

  bool Write(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    out << header
        << "span,request,parent,name,query_vertices,start_ns,end_ns\n";
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << ',' << s.request << ','
          << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
          << ',' << kSpanNames[s.name] << ',' << s.query_vertices << ','
          << s.start_ns - origin << ',' << s.end_ns - origin << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Replay: the engine's pipeline called layer by layer

/// One query replayed through filter -> order -> enumerate.
struct Replayed {
  uint32_t query_vertices = 0;
  uint64_t candidates = 0;  // sum of |C(u)|
  EnumerateResult run;
  Outcome outcome;
  int64_t enumerate_ns = 0;
  /// Parallel replays only: a serial Enumerator::Run of the same query.
  Outcome serial;
  int64_t serial_ns = 0;
};

/// Replays queries with the engine's own filter, ordering and enumeration
/// options, without any cache. Serial, unless `parallel`: then enumeration
/// runs RunParallel on a pool of the replay's own, followed by a serial
/// Enumerator::Run of the same query for comparison.
class Replayer {
 public:
  Replayer(const WorkloadSpec& spec, const Setup& setup, bool parallel)
      : setup_(setup), options_(EngineEnumOptions(spec)) {
    serial_options_ = options_;
    serial_options_.parallel_threads = 0;
    if (parallel) {
      pool_ = std::make_unique<rlqvo::ThreadPool>(spec.parallel_threads);
      pool_workspaces_.resize(spec.parallel_threads);
      resources_.pool = pool_.get();
      resources_.worker_workspaces = &pool_workspaces_;
      resources_.caller_workspace = &workspace_;
    }
  }

  /// Replays each distinct query of request `r` once, in request order,
  /// keyed by query index. With a tracer, each layer call gets a span under
  /// `root`.
  std::unordered_map<uint32_t, Replayed> Request(uint32_t r, Tracer* tracer,
                                                 uint32_t root) {
    std::unordered_map<uint32_t, Replayed> out;
    for (uint32_t q : setup_.sequence.requests[r]) {
      if (out.contains(q)) continue;
      out.emplace(q, Query(setup_.sequence.queries[q], r, tracer, root));
    }
    return out;
  }

 private:
  Replayed Query(const Graph& query, uint32_t r, Tracer* tracer,
                 uint32_t root) {
    const Graph& data = *setup_.data;
    Replayed out;
    out.query_vertices = query.num_vertices();
    auto begin = [&](SpanName name) {
      return tracer == nullptr
                 ? 0
                 : tracer->Begin(r, name, root, out.query_vertices);
    };
    auto end = [&](uint32_t span) {
      if (tracer != nullptr) tracer->End(span);
    };

    uint32_t span = begin(kSpanFilter);
    const CandidateSet candidates =
        MustOk(setup_.filter->Filter(query, data), "replay filter");
    end(span);
    out.candidates = candidates.TotalSize();
    span = begin(kSpanOrder);
    const std::vector<VertexId> order = MakeOrder(setup_, query, candidates);
    end(span);
    const uint64_t order_hash = HashOrder(order, kFnvBasis);

    span = begin(kSpanEnumerate);
    int64_t start = NowNs();
    out.run = MustOk(pool_ != nullptr
                         ? enumerator_.RunParallel(query, data, candidates,
                                                   order, options_, resources_)
                         : enumerator_.Run(query, data, candidates, order,
                                           serial_options_, &workspace_),
                     "replay enumerate");
    out.enumerate_ns = NowNs() - start;
    end(span);
    out.outcome = FromEnumerate(out.run, order_hash);
    if (pool_ != nullptr) {
      span = begin(kSpanEnumerateSerial);
      start = NowNs();
      out.serial = FromEnumerate(
          MustOk(enumerator_.Run(query, data, candidates, order,
                                 serial_options_, &workspace_),
                 "replay serial enumerate"),
          order_hash);
      out.serial_ns = NowNs() - start;
      end(span);
    }
    return out;
  }

  const Setup& setup_;
  const EnumerateOptions options_;
  EnumerateOptions serial_options_;
  rlqvo::Enumerator enumerator_;
  rlqvo::EnumeratorWorkspace workspace_;
  std::unique_ptr<rlqvo::ThreadPool> pool_;
  std::vector<rlqvo::EnumeratorWorkspace> pool_workspaces_;
  rlqvo::ParallelEnumResources resources_;
};

/// Compares the engine's first-pass outcome of every query of every
/// check_stride-th request with a serial replay.
void CheckReference(const WorkloadSpec& spec, const Setup& setup,
                    const Served& served, Gate* gate) {
  Replayer replayer(spec, setup, /*parallel=*/false);
  const Sequence& seq = setup.sequence;
  for (uint32_t r = 0; r < seq.requests.size(); r += spec.check_stride) {
    const auto replayed = replayer.Request(r, nullptr, kNoParent);
    for (size_t i = 0; i < seq.requests[r].size(); ++i) {
      gate->Compare("engine vs replay", r, i, served.reference[r][i],
                    replayed.at(seq.requests[r][i]).outcome);
    }
  }
}

/// Layer counters summed over the replayed queries of the traced pass.
struct LayerTotals {
  uint64_t queries = 0;
  uint64_t candidates = 0;
  uint64_t query_vertices = 0;
  uint64_t enumerations = 0;
  uint64_t matches = 0;
  uint64_t intersections = 0;
  uint64_t probe_comparisons = 0;
  uint64_t simd = 0;
  uint64_t bitmap = 0;
  uint64_t local_candidates = 0;
  uint64_t local_candidate_sets = 0;
  uint64_t steals = 0;
  uint64_t splits = 0;
  uint64_t min_worker_work = 0;
  uint64_t max_worker_work = 0;
  int64_t parallel_ns = 0;
  int64_t serial_ns = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t order_hits = 0;
  uint64_t order_misses = 0;
  double busy_seconds = 0.0;
  double batch_seconds = 0.0;
  double match_batch_ms = 0.0;
  std::vector<double> engine_self_ms;

  void AddReplay(const Replayed& replay) {
    const EnumerateResult& run = replay.run;
    ++queries;
    candidates += replay.candidates;
    query_vertices += replay.query_vertices;
    enumerations += run.num_enumerations;
    matches += run.num_matches;
    intersections += run.num_intersections;
    probe_comparisons += run.num_probe_comparisons;
    simd += run.num_simd_intersections;
    bitmap += run.num_bitmap_intersections;
    local_candidates += run.local_candidates_total;
    local_candidate_sets += run.local_candidate_sets;
    steals += run.num_steals;
    splits += run.num_splits;
    min_worker_work += run.min_worker_work;
    max_worker_work += run.max_worker_work;
    parallel_ns += replay.enumerate_ns;
    serial_ns += replay.serial_ns;
  }

  void AddBatch(const BatchResult& batch, double batch_s) {
    double service_s = 0.0;
    for (size_t i = 0; i < batch.per_query.size(); ++i) {
      if (batch.statuses[i].ok()) {
        service_s += batch.per_query[i].total_time_seconds;
      }
    }
    // The engine's own layer time of the request: its per-query service
    // times, spread over the workers that ran them.
    const double lanes = static_cast<double>(
        std::min<size_t>(kEngineThreads, batch.per_query.size()));
    engine_self_ms.push_back((batch_s - service_s / lanes) * 1e3);
    busy_seconds += service_s;
    batch_seconds += batch_s;
    cache_hits += batch.cache_hits;
    cache_misses += batch.cache_misses;
    order_hits += batch.order_cache_hits;
    order_misses += batch.order_cache_misses;
  }
};

/// Serves the first pass again with spans, replaying every distinct query
/// through filter -> order -> enumerate (and, for parallel workloads, a
/// serial enumerate too), and checks the engine against the replay.
void TracedPass(const WorkloadSpec& spec, Setup* setup, const Served& served,
                Tracer* tracer, LayerTotals* totals, Accounting* accounting,
                Gate* gate) {
  const bool parallel = spec.parallel_threads > 0;
  const Sequence& seq = setup->sequence;
  Replayer replayer(spec, *setup, parallel);
  setup->engine->ClearCache();
  for (uint32_t r = 0; r < seq.requests.size(); ++r) {
    const std::vector<Graph> request = seq.Request(r);
    const uint32_t root = tracer->Begin(r, kSpanRequest, kNoParent);
    const uint32_t mb = tracer->Begin(r, kSpanMatchBatch, root);
    const Result<BatchResult> result = setup->engine->MatchBatch(request);
    tracer->End(mb);
    const double batch_s =
        static_cast<double>(tracer->span(mb).duration()) * 1e-9;
    totals->match_batch_ms += batch_s * 1e3;
    const std::vector<Outcome> outcomes =
        accounting->Add(request.size(), result);
    if (result.ok()) totals->AddBatch(*result, batch_s);

    const auto replayed = replayer.Request(r, tracer, root);
    for (const auto& [q, replay] : replayed) {
      totals->AddReplay(replay);
      if (parallel) {
        gate->Compare("parallel vs serial enumerate", r, q, replay.outcome,
                      replay.serial);
      }
    }
    for (size_t i = 0; i < request.size(); ++i) {
      gate->Compare("engine vs replay", r, i, outcomes[i],
                    replayed.at(seq.requests[r][i]).outcome);
      gate->Compare("traced vs untraced engine", r, i, outcomes[i],
                    served.reference[r][i]);
    }
    tracer->End(root);
  }
}

// ---------------------------------------------------------------------------
// Host fingerprint, environment guard, output

std::string HostFingerprint() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "nproc=%u simd=%s kernel=%s build=%s compiler=%s",
                std::thread::hardware_concurrency(),
                rlqvo::IntersectKernelName(rlqvo::AutoSimdKernel()),
                rlqvo::IntersectKernelName(rlqvo::GetIntersectKernel()),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  return buf;
}

/// A debug build, a forced kernel, an armed failpoint or a memory budget
/// measures a different program than the one users run.
std::string EnvironmentRefusal() {
#ifndef NDEBUG
  return "NDEBUG is off (assertions compiled in); build Release";
#else
  for (const char* var : {"RLQVO_INTERSECT_KERNEL", "RLQVO_FAILPOINTS",
                          "RLQVO_MEMORY_BUDGET"}) {
    if (std::getenv(var) != nullptr) return std::string(var) + " is set";
  }
  return "";
#endif
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
    std::fprintf(stderr, "  %-32s %14.6g %s\n", metrics[i].name.c_str(),
                 metrics[i].value, metrics[i].unit.c_str());
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out = ".";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Die("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Die("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !have_seed || args.seconds <= 0.0 ||
      args.trace < 0) {
    Die("usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--out <dir>]");
  }
  return args;
}

std::vector<Metric> EndToEndMetrics(const Served& served,
                                    const std::vector<double>& setup_s) {
  const Accounting& acc = served.accounting;
  return {
      {"latency_p50_ms", Median(served.window_p50_ms), "ms"},
      {"latency_tail_ms", Median(served.window_tail_ms), "ms"},
      {"throughput_qps", Median(served.window_qps), "1/s"},
      {"solved_share",
       Ratio(static_cast<double>(acc.solved),
             static_cast<double>(acc.attempted)),
       "ratio"},
      {"enum_calls_per_query", MeanEnumerations(served), "count"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
}

std::vector<Metric> LayerMetrics(const Setup& setup,
                                 const std::vector<double>& graph_s,
                                 const std::vector<double>& train_s,
                                 uint64_t digest, const Tracer& tracer,
                                 const LayerTotals& t, uint64_t fallbacks,
                                 const EngineCounters& before,
                                 const EngineCounters& after,
                                 double untraced_pass_ms) {
  const double q = static_cast<double>(t.queries);
  auto per_query = [q](uint64_t n) { return Ratio(static_cast<double>(n), q); };
  auto share = [](uint64_t part, uint64_t whole) {
    return Ratio(static_cast<double>(part), static_cast<double>(whole));
  };
  return {
      {"graph.build_s", Median(graph_s), "s"},
      {"graph.memory_mib",
       static_cast<double>(setup.data->MemoryFootprintBytes()) / 1048576.0,
       "MiB"},
      {"rl.train_s", Median(train_s), "s"},
      {"rl.order_digest", static_cast<double>(digest), "hash"},
      {"filter.ms_p50", Median(tracer.SelfMs(kSpanFilter)), "ms"},
      {"filter.candidates_per_vertex", share(t.candidates, t.query_vertices),
       "count"},
      {"order.ms_p50", Median(tracer.SelfMs(kSpanOrder)), "ms"},
      {"order.ms_p50_q32", Median(tracer.SelfMs(kSpanOrder, 32)), "ms"},
      {"order.fallbacks", static_cast<double>(fallbacks), "count"},
      {"enumerate.ms_p50", Median(tracer.SelfMs(kSpanEnumerate)), "ms"},
      {"enumerate.calls", per_query(t.enumerations), "count"},
      {"enumerate.match_yield", share(t.matches, t.enumerations), "ratio"},
      {"intersect.count", per_query(t.intersections), "count"},
      {"intersect.probe_comparisons", per_query(t.probe_comparisons),
       "count"},
      {"intersect.simd_share", share(t.simd, t.intersections), "ratio"},
      {"intersect.bitmap_share", share(t.bitmap, t.intersections), "ratio"},
      {"intersect.avg_local_candidates",
       share(t.local_candidates, t.local_candidate_sets), "count"},
      {"sched.steals", per_query(t.steals), "count"},
      {"sched.splits", per_query(t.splits), "count"},
      {"sched.work_spread", share(t.max_worker_work, t.min_worker_work),
       "ratio"},
      {"sched.speedup", share(t.serial_ns, t.parallel_ns), "ratio"},
      {"cache.candidate_hit_ratio",
       share(t.cache_hits, t.cache_hits + t.cache_misses), "ratio"},
      {"cache.order_hit_ratio",
       share(t.order_hits, t.order_hits + t.order_misses), "ratio"},
      {"cache.evictions",
       static_cast<double>(after.cache.evictions - before.cache.evictions +
                           after.order_cache.evictions -
                           before.order_cache.evictions),
       "count"},
      {"cache.put_rejects",
       static_cast<double>(after.cache.put_rejects - before.cache.put_rejects +
                           after.order_cache.put_rejects -
                           before.order_cache.put_rejects),
       "count"},
      {"engine.self_ms", Median(t.engine_self_ms), "ms"},
      {"engine.busy_share",
       Ratio(t.busy_seconds, kEngineThreads * t.batch_seconds), "ratio"},
      {"trace.overhead_share", Ratio(t.match_batch_ms, untraced_pass_ms) - 1.0,
       "ratio"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const std::string refusal = EnvironmentRefusal();
  if (!refusal.empty()) Die("refusing to measure: " + refusal);
  const std::string host = HostFingerprint();
  std::fprintf(stderr, "host: %s\n", host.c_str());

  const std::vector<WorkloadSpec> workloads = Workloads();
  auto spec_it = std::find_if(
      workloads.begin(), workloads.end(),
      [&](const WorkloadSpec& w) { return w.name == args.workload; });
  if (spec_it == workloads.end()) Die("unknown workload " + args.workload);
  const WorkloadSpec& spec = *spec_it;

  // Set-up, repeated; every repeat must yield the same orders.
  std::vector<double> setup_s, graph_s, train_s;
  Setup setup;
  uint64_t digest = 0;
  bool deterministic = true;
  for (int k = 0; k < spec.setup_repeats; ++k) {
    setup = Setup{};  // release the previous engine before building anew
#ifdef __GLIBC__
    // Hand the freed set-up back to the OS, so that every repeat starts
    // from the heap a process that sets up once would have: without this,
    // a repeat's leftovers raised peak_rss_mib by ~10 MiB on some runs.
    malloc_trim(0);
#endif
    setup = BuildSetup(spec, args.seed);
    setup_s.push_back(setup.total_s);
    graph_s.push_back(setup.graph_build_s);
    train_s.push_back(setup.train_s);
    const uint64_t d = OrderDigest(spec, args.seed, setup);
    if (k > 0 && d != digest) deterministic = false;
    digest = d;
    std::fprintf(stderr, "setup %d: %.4f s\n", k, setup.total_s);
  }
  std::fprintf(stderr, "order digest %012llx%s\n",
               static_cast<unsigned long long>(digest),
               deterministic ? "" : " (DIFFERS between set-ups)");
  const std::vector<Graph>& queries = setup.sequence.queries;
  std::fprintf(stderr, "sequence: %zu distinct queries, %zu with a cycle\n",
               queries.size(),
               static_cast<size_t>(std::count_if(
                   queries.begin(), queries.end(), [](const Graph& q) {
                     return q.num_edges() >= q.num_vertices();
                   })));

  const double window =
      args.trace == 1 ? args.seconds * kTracedWindowShare : args.seconds;
  const Served served = Serve(spec, &setup, window);
  Gate gate = served.gate;
  std::vector<Metric> metrics;
  Accounting accounting = served.accounting;
  if (args.trace == 0) {
    CheckReference(spec, setup, served, &gate);
    metrics = EndToEndMetrics(served, setup_s);
  } else {
    const auto* rl =
        dynamic_cast<const rlqvo::RLQVOOrdering*>(setup.ordering.get());
    const uint64_t fallbacks_before = rl != nullptr ? rl->fallback_count() : 0;
    const EngineCounters before = setup.engine->counters();
    Tracer tracer;
    LayerTotals totals;
    Accounting traced;
    TracedPass(spec, &setup, served, &tracer, &totals, &traced, &gate);
    traced.Print("traced pass");
    accounting.Merge(traced);
    const uint64_t fallbacks =
        rl != nullptr ? rl->fallback_count() - fallbacks_before : 0;
    metrics = LayerMetrics(setup, graph_s, train_s, digest, tracer, totals,
                           fallbacks, before, setup.engine->counters(),
                           Median(served.pass_ms));
    const std::string path = args.out + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".spans.csv";
    if (!tracer.Write(path, "# " + host + "\n")) Die("cannot write " + path);
    std::fprintf(stderr, "spans: %zu written to %s\n", tracer.size(),
                 path.c_str());
  }
  served.accounting.Print("untraced");
  std::fprintf(stderr,
               "requests=%llu complete passes=%zu of %u requests; timing "
               "metrics are medians over %zu windows of %u requests; "
               "latency_tail_ms is p%.4g (10 beyond); compared=%llu "
               "mismatches=%llu\n",
               static_cast<unsigned long long>(served.requests),
               served.pass_ms.size(), spec.pass_requests,
               served.window_p50_ms.size(), spec.window, spec.tail_pct(),
               static_cast<unsigned long long>(gate.compared),
               static_cast<unsigned long long>(gate.mismatches));
  // A deadline miss is a failure of the measured run (failed, solved_share),
  // not a wrong answer: only a mismatch, a non-OK status or a set-up that
  // does not repeat itself fails the gate.
  const bool correct =
      deterministic && gate.mismatches == 0 && accounting.not_ok() == 0;
  PrintResult(correct, accounting.attempted, accounting.failed(), metrics);
  return correct ? 0 : 1;
}
