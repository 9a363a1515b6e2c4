// One benchmark episode: generates a workload's inputs from a seed, runs
// its recurring query window by window through RedoopDriver::RunRecurrence,
// prints a digest of every window's output, then explains the run from its
// journal alone. Between every two timed steps it times a fixed host-speed
// probe, and each set-up, window and explain stage carries the mean probe
// time around it (probe_s, <stage>_probe_s). Everything it measures is
// printed to stdout as one JSON object per line; run.py aggregates episodes
// into metrics.
//
//   perfbench_episode --workload=agg-budget --seed=7 --windows=16
//       [--traced --spans-out=FILE] [--corrupt-window=K] [--explain-repeats=N]
//   perfbench_episode --workload=agg-budget --seed=7 --windows=16 --reference
//
// --reference performs the same set-up (several times, each one timed) but,
// instead of running the driver, computes each window's expected output
// with an independent oracle and prints its digest; run.py matches the
// episodes' digests against it. The oracle runs in its own process so that
// every timed episode executes the identical window loop. --corrupt-window
// alters one output row before it is digested (the self-test's planted
// failure). --explain-repeats times the explain stage N times.
//
// Exit codes: 0 done, 2 bad arguments, 3 a driver call returned an error
// (the windows not reported by then count as failed).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/config.h"
#include "common/status.h"
#include "core/batch_feed.h"
#include "core/redoop_driver.h"
#include "mapreduce/kv.h"
#include "mapreduce/mapper.h"
#include "mapreduce/reducer.h"
#include "obs/analysis/analysis.h"
#include "obs/event_journal.h"
#include "obs/observability.h"
#include "obs/slo/slo_tracker.h"
#include "obs/trace/span_builder.h"
#include "queries/aggregation_query.h"
#include "queries/join_query.h"
#include "workload/ffg_generator.h"
#include "workload/rate_profile.h"
#include "workload/synthetic_feed.h"
#include "workload/wcc_generator.h"

namespace redoop::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// --- Workload shapes ------------------------------------------------------

// The fig6/fig7 harness shape: 30 nodes, 16 reducers, 5 h windows sliding
// by 30 min (overlap 0.9), inputs delivered as 10-minute batch files.
constexpr int32_t kNodes = 30;
constexpr int32_t kReducers = 16;
constexpr Timestamp kWin = 18000;
constexpr Timestamp kSlide = 1800;
constexpr Timestamp kBatchInterval = 600;
// Engine threads: at most 2 on a 4-core host, leaving cores to the rest of
// the machine.
constexpr int32_t kThreads = 2;

struct Shape {
  std::string name;
  bool join = false;
  double rps = 0.0;  // Records per second per source.
  int32_t record_bytes = 0;
  int64_t budget_bytes = 0;  // 0 = unbounded cache.
};

bool ShapeFor(std::string_view name, Shape* out) {
  Shape s;
  s.name = std::string(name);
  if (name == "agg-budget") {
    // 10% of this shape's unbounded CacheStore peak (18.87e9 bytes; budget
    // enforcement runs at recurrence boundaries, so the budgeted run's own
    // core.cache.peak_gb still reaches it).
    s.rps = 2.0;
    s.record_bytes = 2 * 1024 * 1024;
    s.budget_bytes = 1887000000;
  } else if (name == "join-pairs") {
    s.join = true;
    s.rps = 2.5;
    s.record_bytes = 512 * 1024;
  } else {
    return false;
  }
  *out = s;
  return true;
}

// --- Span recording (traced mode) ----------------------------------------

enum Layer : int32_t { kFeed = 0, kMap, kReduce, kCombine, kNumLayers };
constexpr const char* kLayerNames[kNumLayers] = {"feed", "map", "reduce",
                                                 "combine"};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer, on the thread that made it.
struct Interval {
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  int32_t layer = 0;
  int32_t units = 0;  // Layer-specific work count (reduce: values).
  bool off_main = false;
};

/// Collects call intervals from every thread that runs a decorated layer.
/// Each thread appends to its own log without locking; the main thread
/// drains all logs between recurrences, when the engine's workers are idle
/// (every payload has re-joined the event loop before RunRecurrence
/// returns).
class Recorder {
 public:
  static Recorder& Get() {
    static Recorder recorder;
    return recorder;
  }

  void SetMainThread() { main_ = std::this_thread::get_id(); }

  void Record(Layer layer, int64_t begin_ns, int64_t end_ns, int64_t units) {
    Log* log = Local();
    log->intervals.push_back(Interval{begin_ns, end_ns, layer,
                                      static_cast<int32_t>(units),
                                      log->id != main_});
  }

  std::vector<Interval> Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Interval> all;
    for (auto& log : logs_) {
      all.insert(all.end(), log->intervals.begin(), log->intervals.end());
      log->intervals.clear();
    }
    return all;
  }

 private:
  struct Log {
    std::thread::id id;
    std::vector<Interval> intervals;
  };

  Log* Local() {
    thread_local Log* log = nullptr;
    if (log == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      logs_.push_back(std::make_unique<Log>());
      logs_.back()->id = std::this_thread::get_id();
      log = logs_.back().get();
    }
    return log;
  }

  std::thread::id main_;
  std::mutex mu_;  // Guards logs_ (registration and draining).
  std::vector<std::unique_ptr<Log>> logs_;
};

class TimedMapper : public Mapper {
 public:
  explicit TimedMapper(std::shared_ptr<const Mapper> inner)
      : inner_(std::move(inner)) {}
  void Map(const Record& record, MapContext* context) const override {
    const int64_t begin = NowNs();
    inner_->Map(record, context);
    Recorder::Get().Record(kMap, begin, NowNs(), 1);
  }

 private:
  std::shared_ptr<const Mapper> inner_;
};

class TimedReducer : public Reducer {
 public:
  TimedReducer(std::shared_ptr<const Reducer> inner, Layer layer)
      : inner_(std::move(inner)), layer_(layer) {}
  void Reduce(const std::string& key, std::span<const KeyValue> values,
              ReduceContext* context) const override {
    const int64_t begin = NowNs();
    inner_->Reduce(key, values, context);
    Recorder::Get().Record(layer_, begin, NowNs(),
                           static_cast<int64_t>(values.size()));
  }
  bool PrefersFlatInput() const override {
    return inner_->PrefersFlatInput();
  }
  void ReduceFlat(std::string_view key, const KvRange& values,
                  ReduceContext* context) const override {
    const int64_t begin = NowNs();
    inner_->ReduceFlat(key, values, context);
    Recorder::Get().Record(layer_, begin, NowNs(),
                           static_cast<int64_t>(values.size()));
  }

 private:
  std::shared_ptr<const Reducer> inner_;
  Layer layer_;
};

// --- Replay feed ----------------------------------------------------------

/// Serves batches generated up front, so window timings measure the engine
/// rather than the generator. Requests must align to the batch grid and
/// stay inside the generated horizon.
class ReplayFeed : public BatchFeed {
 public:
  void Add(SourceId source, std::vector<RecordBatch> batches) {
    batches_[source] = std::move(batches);
  }

  const std::vector<RecordBatch>& Batches(SourceId source) const {
    return batches_.at(source);
  }

  std::vector<RecordBatch> BatchesFor(SourceId source, Timestamp begin,
                                      Timestamp end) override {
    const int64_t first = begin / kBatchInterval;
    const int64_t last = end / kBatchInterval;
    const std::vector<RecordBatch>& all = batches_.at(source);
    if (begin % kBatchInterval != 0 || end % kBatchInterval != 0 ||
        first < 0 || last > static_cast<int64_t>(all.size())) {
      std::fprintf(stderr, "replay feed: [%ld,%ld) outside the horizon\n",
                   static_cast<long>(begin), static_cast<long>(end));
      std::exit(3);
    }
    return std::vector<RecordBatch>(all.begin() + first, all.begin() + last);
  }

  bool HasSource(SourceId source) const override {
    return batches_.count(source) > 0;
  }

 private:
  std::map<SourceId, std::vector<RecordBatch>> batches_;
};

class TimedFeed : public BatchFeed {
 public:
  explicit TimedFeed(BatchFeed* inner) : inner_(inner) {}
  std::vector<RecordBatch> BatchesFor(SourceId source, Timestamp begin,
                                      Timestamp end) override {
    const int64_t t0 = NowNs();
    std::vector<RecordBatch> out = inner_->BatchesFor(source, begin, end);
    Recorder::Get().Record(kFeed, t0, NowNs(), 1);
    return out;
  }
  bool HasSource(SourceId source) const override {
    return inner_->HasSource(source);
  }

 private:
  BatchFeed* inner_;
};

// --- Host-speed probe -----------------------------------------------------

/// A fixed piece of work of the kinds the engine spends its host time on:
/// copying and sorting strings, ordered-map inserts, and a vector grown by
/// repeated reserve(). The shared host this benchmark runs on changes speed
/// by up to half over minutes (a package-wide turbo budget, shared cache and
/// memory bandwidth), so the episode times this probe between every two
/// timed steps, and run.py expresses each host time at a fixed reference
/// probe time. The probe runs only standard-library code on its own data,
/// on the main thread while the engine's workers are idle, so a change to
/// the engine does not change it.
class SpeedProbe {
 public:
  SpeedProbe() {
    uint64_t x = 88172645463325252ULL;  // xorshift64
    words_.reserve(kWords);
    for (int i = 0; i < kWords; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      words_.push_back("k" + std::to_string(x % 1000003) + "_" +
                       std::to_string(x >> 40));
    }
  }

  /// Runs the probe once; returns its wall time in nanoseconds.
  int64_t RunNs() const {
    const int64_t begin = NowNs();
    std::vector<std::string> sorted = words_;
    std::sort(sorted.begin(), sorted.end());
    std::map<std::string, int64_t> counts;
    for (size_t i = 0; i < sorted.size(); i += 3) {
      counts[sorted[i]] += static_cast<int64_t>(i);
    }
    std::vector<std::string> grown;
    for (size_t i = 0; i + kGrowStep <= words_.size() / 2; i += kGrowStep) {
      grown.reserve(grown.size() + kGrowStep);
      grown.insert(grown.end(), words_.begin() + static_cast<int64_t>(i),
                   words_.begin() + static_cast<int64_t>(i + kGrowStep));
    }
    sink_ = counts.size() + grown.size();
    return NowNs() - begin;
  }

 private:
  static constexpr int kWords = 40000;
  static constexpr size_t kGrowStep = 150;
  std::vector<std::string> words_;
  mutable volatile size_t sink_ = 0;
};

// --- Reference oracle -----------------------------------------------------

/// Groups pairs by key (keys ascending, each group in input order) and
/// runs `reducer` over each group.
std::vector<KeyValue> GroupReduce(std::vector<const KeyValue*> pairs,
                                  const Reducer& reducer) {
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const KeyValue* a, const KeyValue* b) {
                     return a->key < b->key;
                   });
  ReduceContext context;
  std::vector<KeyValue> group;
  for (size_t i = 0; i < pairs.size();) {
    group.clear();
    const std::string& key = pairs[i]->key;
    for (; i < pairs.size() && pairs[i]->key == key; ++i) {
      group.push_back(*pairs[i]);
    }
    reducer.Reduce(key, group, &context);
  }
  return context.output();
}

/// Expected window outputs computed straight from the generated records
/// the way a single plain MapReduce job over the whole window would: the
/// query's own map, group by key and reduce — no panes, caches, simulator
/// or scheduler. (Both benchmark queries leave `finalizer` unset: the
/// aggregation reducer is its own finalizer and the join's is a union.)
/// Mapped pairs are memoized per pane, since consecutive windows share all
/// but one.
class Oracle {
 public:
  Oracle(const RecurringQuery& query, const ReplayFeed& feed)
      : query_(query), feed_(feed) {}

  std::vector<KeyValue> Window(int64_t recurrence) {
    const Timestamp begin = recurrence * kSlide;
    const Timestamp end = begin + kWin;
    std::vector<const KeyValue*> mapped;
    for (const QuerySource& qs : query_.sources) {
      for (Timestamp p = begin; p < end; p += kSlide) {
        for (const KeyValue& kv : PaneMapped(qs.id, p)) mapped.push_back(&kv);
      }
    }
    std::vector<KeyValue> out =
        GroupReduce(std::move(mapped), *query_.config.reducer);
    std::sort(out.begin(), out.end(), KeyValueLess());
    // Panes left of this window are never read again.
    for (auto it = mapped_.begin(); it != mapped_.end();) {
      it = it->first.second < begin ? mapped_.erase(it) : std::next(it);
    }
    return out;
  }

 private:
  const std::vector<KeyValue>& PaneMapped(SourceId source, Timestamp pane) {
    auto it = mapped_.find({source, pane});
    if (it != mapped_.end()) return it->second;
    const Mapper& mapper = *query_.MapperFor(source);
    MapContext context;
    for (const RecordBatch& batch : feed_.Batches(source)) {
      if (batch.start < pane || batch.start >= pane + kSlide) continue;
      for (const Record& record : batch.records) mapper.Map(record, &context);
    }
    return mapped_.emplace(std::make_pair(source, pane), context.output())
        .first->second;
  }

  const RecurringQuery& query_;
  const ReplayFeed& feed_;
  std::map<std::pair<SourceId, Timestamp>, std::vector<KeyValue>> mapped_;
};

uint64_t Digest(const std::vector<KeyValue>& rows) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a 64.
  auto mix = [&h](std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
  };
  for (const KeyValue& kv : rows) {
    mix(kv.key);
    mix(kv.value);
  }
  return h;
}

std::string HexDigest(const std::vector<KeyValue>& rows) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Digest(rows)));
  return buf;
}

// --- Per-window trace summary --------------------------------------------

struct LayerSpan {
  int64_t calls = 0;
  int64_t units = 0;
  int64_t busy_ns = 0;     // Sum of call durations.
  int64_t covered_ns = 0;  // Union of call intervals.
  int64_t off_main_ns = 0;
  int64_t first_ns = 0;
  int64_t last_ns = 0;
};

int64_t UnionNs(std::vector<std::pair<int64_t, int64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  int64_t covered = 0;
  int64_t cur_begin = 0;
  int64_t cur_end = -1;
  bool open = false;
  for (const auto& [b, e] : spans) {
    if (open && b <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) covered += cur_end - cur_begin;
    cur_begin = b;
    cur_end = e;
    open = true;
  }
  if (open) covered += cur_end - cur_begin;
  return covered;
}

struct WindowTrace {
  LayerSpan layers[kNumLayers];
  int64_t children_ns = 0;  // Union of every child interval.
  int64_t self_ns = 0;
  bool contained = true;
};

WindowTrace SummarizeWindow(const std::vector<Interval>& intervals,
                            int64_t win_begin, int64_t win_end) {
  WindowTrace t;
  std::vector<std::pair<int64_t, int64_t>> all;
  std::vector<std::pair<int64_t, int64_t>> per_layer[kNumLayers];
  for (const Interval& iv : intervals) {
    if (iv.begin_ns < win_begin || iv.end_ns > win_end ||
        iv.end_ns < iv.begin_ns) {
      t.contained = false;
    }
    LayerSpan& l = t.layers[iv.layer];
    const int64_t d = iv.end_ns - iv.begin_ns;
    if (l.calls == 0 || iv.begin_ns < l.first_ns) l.first_ns = iv.begin_ns;
    if (l.calls == 0 || iv.end_ns > l.last_ns) l.last_ns = iv.end_ns;
    ++l.calls;
    l.units += iv.units;
    l.busy_ns += d;
    if (iv.off_main) l.off_main_ns += d;
    all.emplace_back(iv.begin_ns, iv.end_ns);
    per_layer[iv.layer].emplace_back(iv.begin_ns, iv.end_ns);
  }
  for (int32_t i = 0; i < kNumLayers; ++i) {
    t.layers[i].covered_ns = UnionNs(std::move(per_layer[i]));
  }
  t.children_ns = UnionNs(std::move(all));
  t.self_ns = (win_end - win_begin) - t.children_ns;
  return t;
}

// --- Output helpers -------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Int(int64_t v) { return std::to_string(v); }

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int64_t windows = 0;
  bool traced = false;
  std::string spans_out;
  int64_t corrupt_window = -1;
  int64_t explain_repeats = 1;
  bool reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* flag) -> const char* {
      const size_t n = std::char_traits<char>::length(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--windows=")) {
      args->windows = std::strtoll(v, nullptr, 10);
    } else if (a == "--reference") {
      args->reference = true;
    } else if (a == "--traced") {
      args->traced = true;
    } else if (const char* v = value("--spans-out=")) {
      args->spans_out = v;
    } else if (const char* v = value("--corrupt-window=")) {
      args->corrupt_window = std::strtoll(v, nullptr, 10);
    } else if (const char* v = value("--explain-repeats=")) {
      args->explain_repeats = std::strtoll(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  return !args->workload.empty() && args->windows >= 2 &&
         args->explain_repeats >= 1;
}

/// Everything an episode builds before its first window: the inputs
/// generated from the seed, the replay feed over them, the cluster and the
/// driver. Kept on the heap, since the driver points into it.
struct SetUp {
  ReplayFeed replay;
  TimedFeed timed_feed{&replay};
  RecurringQuery query;
  obs::ObservabilityContext ctx;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<RedoopDriver> driver;
  int64_t records = 0;
  int64_t gen_ns = 0;
  int64_t total_ns = 0;
};

std::unique_ptr<SetUp> BuildSetUp(const Shape& shape, const Args& args) {
  auto s = std::make_unique<SetUp>();
  const int64_t begin = NowNs();
  const Timestamp horizon = (args.windows - 1) * kSlide + kWin;
  {
    SyntheticFeed generator(kBatchInterval);
    auto rate = std::make_shared<ConstantRate>(shape.rps);
    if (shape.join) {
      FfgGeneratorOptions options;
      options.seed = args.seed;
      options.grid_cells_x = 180;
      options.grid_cells_y = 180;
      options.record_logical_bytes = shape.record_bytes;
      generator.AddSource(1, std::make_shared<FfgGenerator>(rate, options));
      generator.AddSource(2, std::make_shared<FfgGenerator>(rate, options));
    } else {
      WccGeneratorOptions options;
      options.seed = args.seed;
      options.record_logical_bytes = shape.record_bytes;
      generator.AddSource(1, std::make_shared<WccGenerator>(rate, options));
    }
    for (SourceId source : shape.join ? std::vector<SourceId>{1, 2}
                                      : std::vector<SourceId>{1}) {
      std::vector<RecordBatch> batches =
          generator.BatchesFor(source, 0, horizon);
      for (const RecordBatch& b : batches) {
        s->records += static_cast<int64_t>(b.records.size());
      }
      s->replay.Add(source, std::move(batches));
    }
  }
  s->gen_ns = NowNs() - begin;

  s->query =
      shape.join ? MakeJoinQuery(2, "join-pairs", 1, 2, kWin, kSlide, kReducers)
                 : MakeAggregationQuery(1, shape.name, 1, kWin, kSlide,
                                        kReducers);
  RecurringQuery run_query = s->query;
  BatchFeed* feed = &s->replay;
  if (args.traced) {
    feed = &s->timed_feed;
    run_query.config.mapper =
        std::make_shared<TimedMapper>(s->query.config.mapper);
    for (auto& [source, mapper] : run_query.source_mappers) {
      mapper = std::make_shared<TimedMapper>(mapper);
    }
    run_query.config.reducer =
        std::make_shared<TimedReducer>(s->query.config.reducer, kReduce);
    if (s->query.config.combiner != nullptr) {
      run_query.config.combiner =
          std::make_shared<TimedReducer>(s->query.config.combiner, kCombine);
    }
  }
  s->ctx.journal().SetCommonField("system", "redoop");
  s->cluster = std::make_unique<Cluster>(kNodes, Config());
  RedoopDriverOptions options = RedoopDriverOptions::Builder()
                                    .Threads(kThreads)
                                    .CacheBudgetBytes(shape.budget_bytes)
                                    .Observability(&s->ctx)
                                    .Build();
  s->driver = std::make_unique<RedoopDriver>(s->cluster.get(), feed,
                                             run_query, options);
  s->total_ns = NowNs() - begin;
  return s;
}

/// Times the speed probe between timed steps: Bracket() runs it once more
/// and returns the mean of the probe times just before and just after the
/// step that ended since the previous call, in seconds.
class ProbeChain {
 public:
  // The first run warms the allocator and caches; it is not used.
  ProbeChain() : before_ns_((probe_.RunNs(), probe_.RunNs())) {}
  double Bracket() {
    const int64_t after_ns = probe_.RunNs();
    const double mean = Seconds(before_ns_ + after_ns) / 2.0;
    before_ns_ = after_ns;
    return mean;
  }

 private:
  SpeedProbe probe_;
  int64_t before_ns_;
};

void PrintSetUp(const SetUp& s, const Args& args, double probe_s) {
  std::printf(
      "{\"type\":\"setup\",\"setup_s\":%s,\"gen_s\":%s,\"records\":%s,"
      "\"windows\":%s,\"probe_s\":%s}\n",
      Num(Seconds(s.total_ns)).c_str(), Num(Seconds(s.gen_ns)).c_str(),
      Int(s.records).c_str(), Int(args.windows).c_str(),
      Num(probe_s).c_str());
  std::fflush(stdout);
}

// The reference process sets up this many times, so that a run times its
// set-up more often than it starts processes.
constexpr int kReferenceSetUps = 5;

int Run(const Args& args) {
  Shape shape;
  if (!ShapeFor(args.workload, &shape)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  Recorder::Get().SetMainThread();
  const int64_t origin_ns = NowNs();
  auto rel = [origin_ns](int64_t ns) { return Seconds(ns - origin_ns); };

  ProbeChain probes;
  std::unique_ptr<SetUp> setup = BuildSetUp(shape, args);
  PrintSetUp(*setup, args, probes.Bracket());
  if (args.reference) {
    for (int i = 1; i < kReferenceSetUps; ++i) {
      setup.reset();
      probes.Bracket();
      setup = BuildSetUp(shape, args);
      PrintSetUp(*setup, args, probes.Bracket());
    }
    Oracle oracle(setup->query, setup->replay);
    for (int64_t r = 0; r < args.windows; ++r) {
      const std::vector<KeyValue> expected = oracle.Window(r);
      // The digest must tell a single altered row apart.
      std::vector<KeyValue> tampered = expected;
      if (!tampered.empty()) tampered[tampered.size() / 2].value += "#";
      std::printf("{\"type\":\"reference\",\"window\":%s,\"digest\":\"%s\","
                  "\"rows\":%s,\"digest_sound\":%s}\n",
                  Int(r).c_str(), HexDigest(expected).c_str(),
                  Int(static_cast<int64_t>(expected.size())).c_str(),
                  HexDigest(tampered) != HexDigest(expected) ? "true"
                                                             : "false");
    }
    return 0;
  }
  const RecurringQuery& query = setup->query;
  const ReplayFeed& replay = setup->replay;
  obs::ObservabilityContext& ctx = setup->ctx;
  RedoopDriver& driver = *setup->driver;

  std::vector<std::string> span_lines;
  std::map<std::string, int64_t> seen_jobs;
  int64_t rebuild_jobs = 0;
  obs::MetricsSnapshot after_cold;

  for (int64_t r = 0; r < args.windows; ++r) {
    const size_t journal_before = ctx.journal().size();
    const int64_t t0 = NowNs();
    StatusOr<WindowReport> report = driver.RunRecurrence(r);
    const int64_t t1 = NowNs();
    const double probe_s = probes.Bracket();
    if (!report.ok()) {
      std::string status = report.status().ToString();
      std::replace(status.begin(), status.end(), '"', '\'');
      std::printf("{\"type\":\"error\",\"window\":%s,\"status\":\"%s\"}\n",
                  Int(r).c_str(), status.c_str());
      std::fflush(stdout);
      return 3;
    }
    WindowReport& w = report.value();

    // Everything below is outside the timed call.
    bool pair_path = false;
    int64_t jobs = 0;
    const auto& events = ctx.journal().events();
    for (size_t i = journal_before; i < events.size(); ++i) {
      if (events[i].type() != obs::event::kJobStart) continue;
      ++jobs;
      const std::string name = events[i].StrOr("job", "");
      if (name.find("-pane-pairs") != std::string::npos) pair_path = true;
      if (name.find("-roc-rebuild-") != std::string::npos) ++rebuild_jobs;
      if (name.find("-pane-S") != std::string::npos && seen_jobs[name]++ > 0) {
        ++rebuild_jobs;
      }
    }
    int64_t fresh_records = 0;
    const Timestamp fresh_begin = r == 0 ? 0 : (r - 1) * kSlide + kWin;
    const Timestamp fresh_end = r * kSlide + kWin;
    for (const QuerySource& qs : query.sources) {
      for (const RecordBatch& b : replay.Batches(qs.id)) {
        if (b.start >= fresh_begin && b.start < fresh_end) {
          fresh_records += static_cast<int64_t>(b.records.size());
        }
      }
    }
    if (r == args.corrupt_window && !w.output.empty()) {
      w.output[w.output.size() / 2].value += "#";
    }

    std::string line = "{\"type\":\"window\",\"window\":" + Int(r) +
                       ",\"host_s\":" + Num(Seconds(t1 - t0)) +
                       ",\"probe_s\":" + Num(probe_s) +
                       ",\"sim_response_s\":" + Num(w.response_time) +
                       ",\"sim_shuffle_s\":" + Num(w.shuffle_time) +
                       ",\"sim_reduce_s\":" + Num(w.reduce_time) +
                       ",\"fresh_records\":" + Int(fresh_records) +
                       ",\"rows\":" +
                       Int(static_cast<int64_t>(w.output.size())) +
                       ",\"digest\":\"" + HexDigest(w.output) + "\"" +
                       ",\"pair_path\":" + (pair_path ? "true" : "false") +
                       ",\"jobs\":" + Int(jobs) + ",\"events\":" +
                       Int(static_cast<int64_t>(events.size() -
                                                journal_before));
    if (args.traced) {
      const WindowTrace t = SummarizeWindow(Recorder::Get().Drain(), t0, t1);
      const std::string wid = "w" + Int(r);
      span_lines.push_back("{\"span\":\"" + wid + "\",\"name\":\"window\"" +
                           ",\"parent\":null,\"window\":" + Int(r) +
                           ",\"start\":" + Num(rel(t0)) +
                           ",\"end\":" + Num(rel(t1)) +
                           ",\"self_s\":" + Num(Seconds(t.self_ns)) +
                           ",\"children_s\":" + Num(Seconds(t.children_ns)) +
                           "}");
      int64_t busy = 0;
      int64_t off_main = 0;
      for (int32_t i = 0; i < kNumLayers; ++i) {
        const LayerSpan& l = t.layers[i];
        busy += l.busy_ns;
        off_main += l.off_main_ns;
        line += std::string(",\"") + kLayerNames[i] + "_s\":" +
                Num(Seconds(l.busy_ns)) + ",\"" + kLayerNames[i] +
                "_calls\":" + Int(l.calls) + ",\"" + kLayerNames[i] +
                "_units\":" + Int(l.units);
        if (l.calls == 0) continue;
        span_lines.push_back(
            "{\"span\":\"" + wid + "/" + kLayerNames[i] + "\",\"name\":\"" +
            kLayerNames[i] + "\",\"parent\":\"" + wid +
            "\",\"window\":" + Int(r) + ",\"start\":" + Num(rel(l.first_ns)) +
            ",\"end\":" + Num(rel(l.last_ns)) +
            ",\"busy_s\":" + Num(Seconds(l.busy_ns)) +
            ",\"covered_s\":" + Num(Seconds(l.covered_ns)) +
            ",\"calls\":" + Int(l.calls) + ",\"units\":" + Int(l.units) + "}");
      }
      // Self time is the rest of the span, so children plus self equal it
      // only if every child interval lies inside the window span.
      line += ",\"self_s\":" + Num(Seconds(t.self_ns)) +
              ",\"children_s\":" + Num(Seconds(t.children_ns)) +
              ",\"offload_s\":" + Num(Seconds(off_main)) +
              ",\"payload_s\":" + Num(Seconds(busy)) +
              ",\"spans_contained\":" + (t.contained ? "true" : "false");
    }
    line += "}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    if (r == 0) after_cold = ctx.Snapshot();
  }

  // --- Explain the run from its journal alone. ---------------------------
  // Repeated --explain-repeats times, one "explain" line each, so that a run
  // of few episodes still times the stages often.
  const obs::MetricsSnapshot end = ctx.Snapshot();
  int64_t journal_bytes = 0;
  int64_t trace_spans = 0;
  for (int64_t k = 0; k < args.explain_repeats; ++k) {
    // Each stage is timed on its own and followed by the speed probe, so
    // that run.py scales it by the host's speed around that stage alone.
    struct Stage {
      const char* name;
      int64_t begin_ns;
      int64_t end_ns;
      double probe_s;
    };
    std::vector<Stage> stages;
    auto timed = [&](const char* name, auto&& stage) {
      const int64_t begin = NowNs();
      stage();
      const int64_t stage_end = NowNs();
      stages.push_back(Stage{name, begin, stage_end, probes.Bracket()});
    };
    std::string jsonl;
    obs::EventJournal parsed;
    Status parse_status;
    obs::analysis::AnalysisOptions analysis_options;
    analysis_options.group_by_query = true;
    obs::analysis::RunAnalysis analysis;
    Status analysis_status;
    obs::trace::Trace trace;
    Status trace_status;
    obs::slo::SloReport slo;
    timed("serialize", [&] { jsonl = ctx.journal().ToJsonl(); });
    timed("parse", [&] {
      parse_status = obs::EventJournal::Parse(jsonl, &parsed);
    });
    timed("analysis", [&] {
      analysis_status =
          obs::analysis::AnalyzeJournal(parsed, analysis_options, &analysis);
    });
    timed("trace_build", [&] {
      trace_status = obs::trace::BuildTrace(parsed, &trace);
    });
    timed("slo", [&] { slo = obs::slo::ComputeSlo(analysis); });
    const bool explained = parse_status.ok() && analysis_status.ok() &&
                           trace_status.ok() &&
                           parsed.size() == ctx.journal().size() &&
                           !slo.queries.empty() && !trace.spans.empty();
    journal_bytes = static_cast<int64_t>(jsonl.size());
    trace_spans = static_cast<int64_t>(trace.spans.size());
    int64_t explain_ns = 0;
    std::string line = "{\"type\":\"explain\"";
    for (const Stage& st : stages) {
      explain_ns += st.end_ns - st.begin_ns;
      line += std::string(",\"") + st.name + "_s\":" +
              Num(Seconds(st.end_ns - st.begin_ns)) + ",\"" + st.name +
              "_probe_s\":" + Num(st.probe_s);
    }
    line += ",\"explain_s\":" + Num(Seconds(explain_ns)) +
            ",\"explained\":" + (explained ? "true" : "false") + "}";
    std::printf("%s\n", line.c_str());
    if (!args.traced) continue;
    // The parent span also covers the probes between its stages.
    const std::string id = "explain" + Int(k);
    span_lines.push_back("{\"span\":\"" + id + "\",\"name\":\"explain\","
                         "\"parent\":null,\"start\":" +
                         Num(rel(stages.front().begin_ns)) +
                         ",\"end\":" + Num(rel(stages.back().end_ns)) + "}");
    for (const Stage& st : stages) {
      span_lines.push_back("{\"span\":\"" + id + "/" + st.name +
                           "\",\"name\":\"" + st.name + "\",\"parent\":\"" +
                           id + "\",\"start\":" + Num(rel(st.begin_ns)) +
                           ",\"end\":" + Num(rel(st.end_ns)) + "}");
    }
  }

  auto steady = [&](const char* name) {
    return end.Counter(name) - after_cold.Counter(name);
  };
  const CacheStore& store = driver.store();
  std::string summary =
      "{\"type\":\"summary\""
      ",\"journal_events\":" + Int(static_cast<int64_t>(ctx.journal().size())) +
      ",\"journal_bytes\":" + Int(journal_bytes) +
      ",\"windows_completed\":" +
      Int(static_cast<int64_t>(
          ctx.journal().CountType(obs::event::kWindowComplete))) +
      ",\"trace_spans\":" + Int(trace_spans) +
      ",\"pane_hits\":" + Int(steady(obs::metric::kCachePaneHits)) +
      ",\"pane_misses\":" + Int(steady(obs::metric::kCachePaneMisses)) +
      ",\"pair_hits\":" + Int(steady(obs::metric::kCachePairHits)) +
      ",\"pair_misses\":" + Int(steady(obs::metric::kCachePairMisses)) +
      ",\"evictions\":" + Int(store.evicted_entries()) +
      ",\"evicted_bytes\":" + Int(store.evicted_bytes()) +
      ",\"peak_bytes\":" + Int(store.peak_bytes()) +
      ",\"rebuilds\":" +
      Int(rebuild_jobs + end.Counter(obs::metric::kCacheRebuilds)) +
      ",\"map_local\":" + Int(end.Counter(obs::metric::kSchedMapLocal)) +
      ",\"map_remote\":" + Int(end.Counter(obs::metric::kSchedMapRemote)) +
      ",\"jobs\":" + Int(end.Counter(obs::metric::kJobs)) +
      ",\"tasks\":" +
      Int(end.Counter(obs::metric::kTasksMap) +
          end.Counter(obs::metric::kTasksReduce)) +
      ",\"task_failures\":" + Int(end.Counter(obs::metric::kTaskFailures)) +
      ",\"dfs_read_bytes\":" +
      Int(end.Counter(obs::metric::kDfsReadLocalBytes) +
          end.Counter(obs::metric::kDfsReadRemoteBytes)) +
      "}";
  std::printf("%s\n", summary.c_str());
  std::fflush(stdout);

  if (args.traced && !args.spans_out.empty()) {
    std::FILE* f = std::fopen(args.spans_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.spans_out.c_str());
      return 2;
    }
    for (const std::string& s : span_lines) std::fprintf(f, "%s\n", s.c_str());
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace redoop::perfbench

int main(int argc, char** argv) {
  redoop::perfbench::Args args;
  if (!redoop::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_episode --workload=NAME --seed=N "
                 "--windows=N [--reference | --traced --spans-out=FILE] "
                 "[--corrupt-window=K] [--explain-repeats=N]\n");
    return 2;
  }
  return redoop::perfbench::Run(args);
}
