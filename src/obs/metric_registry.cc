#include "obs/metric_registry.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/logging.h"
#include "common/string_utils.h"
#include "obs/event_journal.h"

namespace redoop {
namespace obs {

void AppendFormattedDouble(double value, std::string* out) {
  if (value == 0.0) {  // Collapses -0 as well.
    out->push_back('0');
    return;
  }
  char buf[32];  // The longest %.6g rendering is 13 bytes (-1.23457e-308).
  const auto r = std::to_chars(buf, buf + sizeof(buf), value,
                               std::chars_format::general, 6);
  out->append(buf, r.ptr);
}

std::string FormatDouble(double value) {
  std::string s;
  AppendFormattedDouble(value, &s);
  return s;
}

bool LabelSet::operator<(const LabelSet& o) const {
  if (query != o.query) return query < o.query;
  if (window != o.window) return window < o.window;
  if (node != o.node) return node < o.node;
  return phase < o.phase;
}

std::string LabelSet::Encode() const {
  if (empty()) return "";
  std::string out = "{";
  const char* sep = "";
  if (!query.empty()) {
    out += StringPrintf("%squery=%s", sep, query.c_str());
    sep = ",";
  }
  if (window >= 0) {
    out += StringPrintf("%swindow=%lld", sep, static_cast<long long>(window));
    sep = ",";
  }
  if (node >= 0) {
    out += StringPrintf("%snode=%d", sep, node);
    sep = ",";
  }
  if (!phase.empty()) {
    out += StringPrintf("%sphase=%s", sep, phase.c_str());
  }
  out += "}";
  return out;
}

std::string LabeledName(std::string_view name, const LabelSet& labels) {
  return std::string(name) + labels.Encode();
}

int32_t Histogram::BucketIndex(double value) {
  // log2(|value| / kMinTrackable) octaves above the floor, subdivided.
  // Negative values mirror into negative indexes so std::map iteration
  // order remains value order: most-negative bucket first, then the
  // near-zero bucket 0, then positives ascending.
  if (value > kMinTrackable) {
    const double octaves = std::log2(value / kMinTrackable);
    return 1 + static_cast<int32_t>(octaves * kSubBucketsPerOctave);
  }
  if (value < -kMinTrackable) {
    const double octaves = std::log2(-value / kMinTrackable);
    return -1 - static_cast<int32_t>(octaves * kSubBucketsPerOctave);
  }
  return 0;  // |value| <= kMinTrackable, including exact zero.
}

double Histogram::BucketMidpoint(int32_t index) {
  if (index == 0) return 0.0;
  if (index < 0) return -BucketMidpoint(-index);
  const double lower =
      kMinTrackable *
      std::exp2(static_cast<double>(index - 1) / kSubBucketsPerOctave);
  const double upper =
      kMinTrackable * std::exp2(static_cast<double>(index) / kSubBucketsPerOctave);
  return std::sqrt(lower * upper);
}

void Histogram::Record(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (snapshot_.count == 0) {
    snapshot_.min = value;
    snapshot_.max = value;
  } else {
    snapshot_.min = std::min(snapshot_.min, value);
    snapshot_.max = std::max(snapshot_.max, value);
  }
  ++snapshot_.count;
  snapshot_.sum += value;
  ++snapshot_.buckets[BucketIndex(value)];
}

int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_.count;
}

HistogramSnapshot Histogram::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count <= 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  // Nearest-rank on the bucketed distribution: find the bucket holding
  // the ceil(q * count)-th observation.
  const int64_t rank = std::max<int64_t>(1, static_cast<int64_t>(
                                                std::ceil(q * count)));
  int64_t seen = 0;
  for (const auto& [index, bucket_count] : buckets) {
    seen += bucket_count;
    if (seen >= rank) {
      return std::clamp(Histogram::BucketMidpoint(index), min, max);
    }
  }
  return max;
}

void HistogramSnapshot::MergeFrom(const HistogramSnapshot& other) {
  // The empty snapshot is the identity on BOTH sides: its min/max are the
  // 0.0 placeholders, not observations, and must never fold into a real
  // extremum (the seed keyed emptiness off `count` alone, which dropped
  // synthetic bucket-only snapshots and broke associativity for them).
  const bool other_empty = other.count == 0 && other.buckets.empty();
  if (other_empty) return;
  const bool self_empty = count == 0 && buckets.empty();
  if (self_empty) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  count += other.count;
  // Safe under self-merge: value updates on existing keys only, no
  // insertion happens mid-iteration.
  for (const auto& [index, bucket_count] : other.buckets) {
    buckets[index] += bucket_count;
  }
}

int64_t MetricsSnapshot::Counter(std::string_view name) const {
  auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::Gauge(std::string_view name) const {
  auto it = gauges.find(std::string(name));
  return it == gauges.end() ? 0.0 : it->second;
}

double MetricsSnapshot::HitRate(std::string_view hits,
                                std::string_view misses) const {
  const double h = static_cast<double>(Counter(hits));
  const double total = h + static_cast<double>(Counter(misses));
  return total > 0.0 ? h / total : 0.0;
}

void MetricsSnapshot::MergeFrom(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  // Gauges add (see header): merges fold disjoint books, where a level is
  // the sum of its shards. The seed's last-writer-wins made the result
  // depend on fold order.
  for (const auto& [name, value] : other.gauges) gauges[name] += value;
  for (const auto& [name, histogram] : other.histograms) {
    histograms[name].MergeFrom(histogram);
  }
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += StringPrintf("counter   %-44s %lld\n", name.c_str(),
                        static_cast<long long>(value));
  }
  for (const auto& [name, value] : gauges) {
    out += StringPrintf("gauge     %-44s %s\n", name.c_str(),
                        FormatDouble(value).c_str());
  }
  for (const auto& [name, h] : histograms) {
    out += StringPrintf(
        "histogram %-44s count=%lld mean=%s p50=%s p95=%s p99=%s max=%s\n",
        name.c_str(), static_cast<long long>(h.count),
        FormatDouble(h.Mean()).c_str(), FormatDouble(h.P50()).c_str(),
        FormatDouble(h.P95()).c_str(), FormatDouble(h.P99()).c_str(),
        FormatDouble(h.max).c_str());
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  // Opens one `"name": ` member of the current object.
  const auto member = [&out, &first](const std::string& name) {
    out += first ? "\n    \"" : ",\n    \"";
    AppendJsonEscaped(name, &out);
    out += "\": ";
    first = false;
  };
  for (const auto& [name, value] : counters) {
    member(name);
    out += std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    member(name);
    AppendFormattedDouble(value, &out);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    member(name);
    out += StringPrintf(
        "{\"count\": %lld, \"sum\": %s, \"min\": %s, \"max\": %s, "
        "\"mean\": %s, \"p50\": %s, \"p95\": %s, \"p99\": %s}",
        static_cast<long long>(h.count), FormatDouble(h.sum).c_str(),
        FormatDouble(h.min).c_str(), FormatDouble(h.max).c_str(),
        FormatDouble(h.Mean()).c_str(), FormatDouble(h.P50()).c_str(),
        FormatDouble(h.P95()).c_str(), FormatDouble(h.P99()).c_str());
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string MetricsSnapshot::ToCsv() const {
  std::string out = "kind,name,value,count,sum,min,max,p50,p95,p99\n";
  for (const auto& [name, value] : counters) {
    out += StringPrintf("counter,%s,%lld,,,,,,,\n", name.c_str(),
                        static_cast<long long>(value));
  }
  for (const auto& [name, value] : gauges) {
    out += StringPrintf("gauge,%s,%s,,,,,,,\n", name.c_str(),
                        FormatDouble(value).c_str());
  }
  for (const auto& [name, h] : histograms) {
    out += StringPrintf("histogram,%s,,%lld,%s,%s,%s,%s,%s,%s\n", name.c_str(),
                        static_cast<long long>(h.count),
                        FormatDouble(h.sum).c_str(), FormatDouble(h.min).c_str(),
                        FormatDouble(h.max).c_str(), FormatDouble(h.P50()).c_str(),
                        FormatDouble(h.P95()).c_str(),
                        FormatDouble(h.P99()).c_str());
  }
  return out;
}

MetricRegistry::MetricRegistry() {
  // LabelId 0 is always the empty set: label-agnostic call sites can pass
  // kNoLabels and land on the plain unlabeled series.
  label_entries_.push_back(LabelEntry{});
  label_ids_.emplace(LabelSet{}, kNoLabels);
}

namespace {

// Charset rule from the LabelSet contract: keep encoded names parseable.
void CheckLabelValue(const char* dim, const std::string& value) {
  for (char c : value) {
    REDOOP_CHECK(c != '{' && c != '}' && c != ',' && c != '=' && c != '"' &&
                 c != '\n' && c != '\r')
        << "label value for '" << dim << "' contains a reserved character: "
        << value;
  }
}

}  // namespace

LabelId MetricRegistry::InternLabels(const LabelSet& labels) {
  CheckLabelValue("query", labels.query);
  CheckLabelValue("phase", labels.phase);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = label_ids_.find(labels);
  if (it != label_ids_.end()) return it->second;
  const LabelId id = static_cast<LabelId>(label_entries_.size());
  label_entries_.push_back(LabelEntry{labels, labels.Encode()});
  label_ids_.emplace(labels, id);
  return id;
}

LabelSet MetricRegistry::label_set(LabelId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  REDOOP_CHECK(id >= 0 && static_cast<size_t>(id) < label_entries_.size())
      << "unknown LabelId " << id;
  return label_entries_[id].labels;
}

namespace {

// Shared lookup shape for the three labeled maps: find-or-create the
// per-name slot, then the per-label instance. Transparent string_view
// find on the outer map means no allocation after first use.
template <typename T, typename LabeledMapT>
T& GetLabeled(LabeledMapT& map, std::string_view name, LabelId labels) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     typename LabeledMapT::mapped_type())
             .first;
  }
  auto& per_label = it->second;
  auto lit = per_label.find(labels);
  if (lit == per_label.end()) {
    lit = per_label.emplace(labels, std::make_unique<T>()).first;
  }
  return *lit->second;
}

}  // namespace

Counter& MetricRegistry::GetCounter(std::string_view name, LabelId labels) {
  if (labels == kNoLabels) return GetCounter(name);
  std::lock_guard<std::mutex> lock(mu_);
  REDOOP_CHECK(static_cast<size_t>(labels) < label_entries_.size())
      << "unknown LabelId " << labels;
  return GetLabeled<Counter>(labeled_counters_, name, labels);
}

Gauge& MetricRegistry::GetGauge(std::string_view name, LabelId labels) {
  if (labels == kNoLabels) return GetGauge(name);
  std::lock_guard<std::mutex> lock(mu_);
  REDOOP_CHECK(static_cast<size_t>(labels) < label_entries_.size())
      << "unknown LabelId " << labels;
  return GetLabeled<Gauge>(labeled_gauges_, name, labels);
}

Histogram& MetricRegistry::GetHistogram(std::string_view name,
                                        LabelId labels) {
  if (labels == kNoLabels) return GetHistogram(name);
  std::lock_guard<std::mutex> lock(mu_);
  REDOOP_CHECK(static_cast<size_t>(labels) < label_entries_.size())
      << "unknown LabelId " << labels;
  return GetLabeled<Histogram>(labeled_histograms_, name, labels);
}

void MetricRegistry::Increment(std::string_view name, LabelId labels,
                               int64_t delta) {
  GetCounter(name, labels).Increment(delta);
}

void MetricRegistry::SetGauge(std::string_view name, LabelId labels,
                              double value) {
  GetGauge(name, labels).Set(value);
}

void MetricRegistry::AddGauge(std::string_view name, LabelId labels,
                              double delta) {
  GetGauge(name, labels).Add(delta);
}

void MetricRegistry::Record(std::string_view name, LabelId labels,
                            double value) {
  GetHistogram(name, labels).Record(value);
}

Counter& MetricRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricRegistry::Increment(std::string_view name, int64_t delta) {
  GetCounter(name).Increment(delta);
}

void MetricRegistry::SetGauge(std::string_view name, double value) {
  GetGauge(name).Set(value);
}

void MetricRegistry::AddGauge(std::string_view name, double delta) {
  GetGauge(name).Add(delta);
}

void MetricRegistry::Record(std::string_view name, double value) {
  GetHistogram(name).Record(value);
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  // Fold order is pinned here: plain series iterate name-sorted, labeled
  // series iterate name-sorted then LabelId-sorted, and each Counter folds
  // its shards in fixed index order — so two snapshots of identical
  // registry state are identical element-for-element, independent of
  // which threads wrote what.
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms[name] = histogram->Snapshot();
  }
  for (const auto& [name, per_label] : labeled_counters_) {
    for (const auto& [id, counter] : per_label) {
      snapshot.counters[name + label_entries_[id].suffix] = counter->value();
    }
  }
  for (const auto& [name, per_label] : labeled_gauges_) {
    for (const auto& [id, gauge] : per_label) {
      snapshot.gauges[name + label_entries_[id].suffix] = gauge->value();
    }
  }
  for (const auto& [name, per_label] : labeled_histograms_) {
    for (const auto& [id, histogram] : per_label) {
      snapshot.histograms[name + label_entries_[id].suffix] =
          histogram->Snapshot();
    }
  }
  return snapshot;
}

void MetricRegistry::Reset() {
  // Contract: callers quiesce all writers first — clearing destroys every
  // metric instance Get* handed out. Interned label ids survive: scopes
  // cache them for their lifetime, and the intern table is metadata, not
  // metric state.
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  labeled_counters_.clear();
  labeled_gauges_.clear();
  labeled_histograms_.clear();
}

}  // namespace obs
}  // namespace redoop
