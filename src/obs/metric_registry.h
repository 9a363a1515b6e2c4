#ifndef REDOOP_OBS_METRIC_REGISTRY_H_
#define REDOOP_OBS_METRIC_REGISTRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace redoop {
namespace obs {

/// Low-cardinality dimensional labels for one metric series or journal
/// event. Unset dimensions ("" / -1) are omitted from the encoded form.
///
/// Cardinality contract (DESIGN §13): `query`, `node`, and `phase` may
/// label long-lived metric series — their value sets are bounded by the
/// workload definition and cluster size. `window` is unbounded over a
/// recurring run and must only ride on journal events, never on metric
/// series; it is part of LabelSet so event attribution and series
/// attribution share one vocabulary.
///
/// Label values must not contain '{', '}', ',', '=', '"', or newlines
/// (checked at intern time) so encoded names stay parseable.
struct LabelSet {
  std::string query;   ///< Recurring-query name; "" = unattributed.
  int64_t window = -1; ///< Recurrence index; -1 = none.
  int32_t node = -1;   ///< Cluster node id; -1 = none.
  std::string phase;   ///< e.g. "map" / "reduce"; "" = none.

  bool empty() const {
    return query.empty() && window < 0 && node < 0 && phase.empty();
  }
  bool operator==(const LabelSet& o) const {
    return query == o.query && window == o.window && node == o.node &&
           phase == o.phase;
  }
  bool operator<(const LabelSet& o) const;

  /// Canonical encoded suffix, e.g. "{query=wcc,node=3}". Dimensions
  /// appear in the fixed order query, window, node, phase, so encoded
  /// names sort deterministically. Empty set encodes to "".
  std::string Encode() const;
};

/// Interned handle for a LabelSet within one MetricRegistry. Id 0 is
/// always the empty set; handles are only meaningful against the registry
/// that interned them.
using LabelId = int32_t;
inline constexpr LabelId kNoLabels = 0;

/// `name` + the canonical encoded suffix of `labels` — the key under
/// which a labeled series appears in a MetricsSnapshot.
std::string LabeledName(std::string_view name, const LabelSet& labels);

/// Immutable view of one log-bucketed histogram (see Histogram below for
/// the bucket layout). Snapshots of the same histogram name merge exactly:
/// bucket counts add, min/max/count combine losslessly.
///
/// MergeFrom is associative and commutative in count, min, max, and the
/// bucket counts (integer adds and min/max folds), with the empty snapshot
/// as identity — so per-shard or per-phase snapshots fold to the same
/// result no matter how the folds are grouped. `sum` is a double and is
/// only reproducible for a fixed fold order; every exporter in this repo
/// folds in registry (name-sorted) order, which keeps serialized output
/// deterministic.
struct HistogramSnapshot {
  int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< Exact smallest recorded value (0 when empty).
  double max = 0.0;  ///< Exact largest recorded value (0 when empty).
  /// Sparse bucket counts keyed by bucket index; only non-empty buckets
  /// are stored, so wide dynamic ranges stay cheap.
  std::map<int32_t, int64_t> buckets;

  double Mean() const { return count > 0 ? sum / count : 0.0; }

  /// Approximate quantile for q in [0, 1]. The answer is the geometric
  /// midpoint of the bucket containing the rank, clamped to [min, max],
  /// so the relative error is bounded by half a bucket width (~4.5% with
  /// the default 2^(1/8) growth). Exact at q=0 (min) and q=1 (max).
  double Quantile(double q) const;
  double P50() const { return Quantile(0.50); }
  double P95() const { return Quantile(0.95); }
  double P99() const { return Quantile(0.99); }

  void MergeFrom(const HistogramSnapshot& other);
};

/// Point-in-time copy of a whole registry. Ordered maps make every
/// exporter deterministic: identical runs serialize byte-identically.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value, or 0 when the counter was never touched.
  int64_t Counter(std::string_view name) const;
  /// Gauge value, or 0.0 when absent.
  double Gauge(std::string_view name) const;

  /// hits / (hits + misses), or 0.0 when neither counter fired. The
  /// standard shape for cache hit-rate assertions in benches.
  double HitRate(std::string_view hits, std::string_view misses) const;

  /// Counters add, histograms merge bucket-wise, and gauges ADD. A merge
  /// folds disjoint books (per-shard registries, per-query sub-runs),
  /// where levels are additive across the shards being combined; the seed
  /// took `other`'s value (last writer wins), which made multi-shard
  /// folds fold-order-sensitive. Addition is commutative, and for the
  /// integer-valued levels this repo exports (bytes, entries) it is also
  /// exact in double, so any fold order yields the same snapshot. For
  /// fractional gauges the usual double-rounding caveat applies, matching
  /// HistogramSnapshot::sum: exporters fold in registry (name-sorted)
  /// order, which keeps serialized output deterministic.
  void MergeFrom(const MetricsSnapshot& other);

  /// Human-readable table, one metric per line.
  std::string ToText() const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  /// Histograms export count/sum/min/max/mean/p50/p95/p99.
  std::string ToJson() const;
  /// CSV with header kind,name,value,count,sum,min,max,p50,p95,p99.
  std::string ToCsv() const;
};

/// Monotonic counter. Thread-safe: increments land on one of kShards
/// cache-line-padded atomic cells (picked by thread identity, so worker
/// threads do not bounce one line), and value() folds the shards in fixed
/// index order — integer adds, so the total is exact and independent of
/// which thread incremented where. value() taken concurrently with
/// increments sees some linearization of them; quiesced reads are exact.
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Increment(int64_t delta = 1) {
    shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const {
    int64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<int64_t> value{0};
  };
  static size_t ShardIndex() {
    return std::hash<std::thread::id>{}(std::this_thread::get_id()) %
           kShards;
  }
  std::array<Shard, kShards> shards_{};
};

/// Instantaneous level (bytes cached, entries resident, ...). Atomic:
/// Set/Add/value are individually thread-safe; a level has no shard-able
/// structure, so concurrent Set calls linearize arbitrarily.
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed histogram over doubles. Buckets grow by
/// 2^(1/kSubBucketsPerOctave) (~9.05% wide), giving bounded relative
/// error for quantiles while storing only the non-empty buckets.
/// Values with |v| <= kMinTrackable collapse into bucket 0 (representative
/// 0.0); negative values mirror into negative bucket indexes, so bucket
/// index order is value order.
///
/// Record and Snapshot are serialized by a per-histogram mutex; recorded
/// values fold through the associative HistogramSnapshot merge, so the
/// observable state does not depend on which thread recorded what (the
/// double `sum` aside, see HistogramSnapshot).
class Histogram {
 public:
  static constexpr int kSubBucketsPerOctave = 8;
  static constexpr double kMinTrackable = 1e-9;

  void Record(double value);

  int64_t count() const;
  HistogramSnapshot Snapshot() const;

  /// Bucket index for a value (0 for |value| <= kMinTrackable, negative
  /// indexes for values below -kMinTrackable).
  static int32_t BucketIndex(double value);
  /// Representative of bucket `index`: 0.0 for bucket 0, the geometric
  /// midpoint (sign-mirrored for negative indexes) otherwise.
  static double BucketMidpoint(int32_t index);

 private:
  mutable std::mutex mu_;
  HistogramSnapshot snapshot_;
};

/// Named metric registry. Instance-based rather than a global singleton so
/// concurrent simulated systems (e.g. redoop vs. hadoop in one CLI run)
/// keep separate books and runs stay deterministic. Get* creates on first
/// use and returns a stable reference; a name keeps one kind for its
/// lifetime (checked).
///
/// Thread-safety contract: Get*, Increment, SetGauge, AddGauge, Record,
/// InternLabels, and Snapshot may be called concurrently from any thread
/// (the maps are mutex-guarded; metric instances are internally
/// synchronized, and the unique_ptr indirection keeps Get* references
/// stable across inserts).
/// Reset() is NOT safe concurrently with anything — it invalidates every
/// reference Get* handed out — and must only run when all writer threads
/// have quiesced. Snapshot holds the registry lock while copying, so do
/// not call registry methods from within a metric accessor (no such path
/// exists in this codebase; noted because the seed registry tolerated
/// reentrant Get* during iteration and this one deadlocks instead).
///
/// Labeled series: InternLabels dedups a LabelSet into a LabelId once
/// (the only point that allocates the encoded suffix); after that the
/// labeled Get*/one-shot overloads are a transparent name lookup plus an
/// integer map step under the same mutex — no per-call string building,
/// so the hot path stays allocation-free. Snapshot() exports a labeled
/// series under its encoded name (e.g. "cache.pane.hits{query=wcc}"),
/// which keeps MetricsSnapshot, its exporters, and MergeFrom label-
/// agnostic and deterministic (std::map name order). The shard-fold
/// order inside each Counter and the name-sorted snapshot iteration are
/// both fixed, so identical runs snapshot byte-identically regardless of
/// thread interleaving (the PR 4 determinism guarantee extends to
/// labeled series unchanged).
class MetricRegistry {
 public:
  MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Interns `labels`, returning a stable handle (kNoLabels for the empty
  /// set). Idempotent; checks the label-value charset rule.
  LabelId InternLabels(const LabelSet& labels);
  /// The LabelSet behind a handle previously returned by InternLabels.
  LabelSet label_set(LabelId id) const;

  /// Labeled series. `labels` must come from this registry's
  /// InternLabels; kNoLabels aliases the plain unlabeled series.
  Counter& GetCounter(std::string_view name, LabelId labels);
  Gauge& GetGauge(std::string_view name, LabelId labels);
  Histogram& GetHistogram(std::string_view name, LabelId labels);

  /// One-shot conveniences for call sites without a cached handle.
  void Increment(std::string_view name, int64_t delta = 1);
  void SetGauge(std::string_view name, double value);
  void AddGauge(std::string_view name, double delta);
  void Record(std::string_view name, double value);

  /// Labeled one-shots: bump ONLY the labeled series. TelemetryScope
  /// layers "global + labeled" on top of these.
  void Increment(std::string_view name, LabelId labels, int64_t delta);
  void SetGauge(std::string_view name, LabelId labels, double value);
  void AddGauge(std::string_view name, LabelId labels, double delta);
  void Record(std::string_view name, LabelId labels, double value);

  MetricsSnapshot Snapshot() const;
  void Reset();

 private:
  template <typename T>
  using LabeledMap =
      std::map<std::string, std::map<LabelId, std::unique_ptr<T>>,
               std::less<>>;

  struct LabelEntry {
    LabelSet labels;
    std::string suffix;  ///< Cached Encode() result.
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  LabeledMap<Counter> labeled_counters_;
  LabeledMap<Gauge> labeled_gauges_;
  LabeledMap<Histogram> labeled_histograms_;
  std::vector<LabelEntry> label_entries_;  ///< Index = LabelId; [0] empty.
  std::map<LabelSet, LabelId> label_ids_;
};

/// Deterministic double formatting shared by all obs exporters: %.6g for
/// general values, with "-0" normalized to "0" so snapshots never differ
/// by sign of zero. Rendered with std::to_chars, which prints the same
/// bytes as printf's %.6g in the C locale.
std::string FormatDouble(double value);
/// FormatDouble(value), appended to `out` without a temporary string.
void AppendFormattedDouble(double value, std::string* out);

}  // namespace obs
}  // namespace redoop

#endif  // REDOOP_OBS_METRIC_REGISTRY_H_
