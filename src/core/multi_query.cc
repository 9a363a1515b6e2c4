#include "core/multi_query.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/string_utils.h"
#include "obs/slo/slo_tracker.h"

namespace redoop {

MultiQueryCoordinator::MultiQueryCoordinator(Cluster* cluster, BatchFeed* feed,
                                             FleetOptions fleet)
    : cluster_(cluster),
      feed_(feed),
      fleet_options_(fleet),
      fleet_(std::make_unique<FleetContext>(fleet)) {
  REDOOP_CHECK(cluster_ != nullptr);
  REDOOP_CHECK(feed_ != nullptr);
  if (fleet_options_.shared_scans) {
    shared_feed_ = std::make_unique<SharedScanFeed>(feed_, &fleet_->stats());
  }
}

Status MultiQueryCoordinator::AddQuery(RecurringQuery query,
                                       RedoopDriverOptions options,
                                       double fair_weight) {
  if (started_) {
    return Status::FailedPrecondition("AddQuery after Run");
  }
  query.CheckValid();
  if (!(fair_weight > 0.0)) {
    return Status::InvalidArgument(
        StringPrintf("fair_weight must be positive, got %g", fair_weight));
  }
  if (query_index_.count(query.id) > 0) {
    return Status::AlreadyExists(
        StringPrintf("duplicate query id %d", static_cast<int>(query.id)));
  }
  query_index_[query.id] = entries_.size();
  for (const QuerySource& qs : query.sources) {
    source_constraints_[qs.id].push_back(qs.window);
  }
  ledger_.RegisterTenant(query.id, fair_weight);
  Entry entry;
  entry.query = std::move(query);
  entry.options = options;
  entry.fair_weight = fair_weight;
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Timestamp MultiQueryCoordinator::PaneSizeForSource(SourceId source) const {
  // GCD over every window constraint of every query consuming the source
  // (paper §3.1: the analyzer slices window states by the constraints of
  // individual data sources across the registered queries). The
  // constraints were indexed at AddQuery time, so this is one lookup
  // instead of a scan over all queries.
  auto it = source_constraints_.find(source);
  REDOOP_CHECK(it != source_constraints_.end() && !it->second.empty())
      << "no query consumes source " << source;
  return SemanticAnalyzer::PaneSizeFor(it->second);
}

void MultiQueryCoordinator::BuildDrivers() {
  for (Entry& entry : entries_) {
    // The query's grid must be common to all its sources (one geometry per
    // driver): take the GCD across its sources' coordinated pane sizes.
    std::vector<int64_t> panes;
    for (const QuerySource& qs : entry.query.sources) {
      panes.push_back(PaneSizeForSource(qs.id));
    }
    entry.options.adaptive.pane_size_override = GcdAll(panes);
    entry.options.file_namespace =
        StringPrintf("q%d/", entry.query.id);
    if (fleet_options_.cache_dedup) entry.options.fleet = fleet_.get();
    BatchFeed* feed = feed_;
    if (shared_feed_ != nullptr) {
      entry.view = std::make_unique<SharedScanView>(shared_feed_.get());
      feed = entry.view.get();
    }
    entry.driver = std::make_unique<RedoopDriver>(cluster_, feed,
                                                  entry.query, entry.options);
    if (entry.view != nullptr) {
      // Scan events carry the query label and live window attribution.
      entry.view->set_telemetry(entry.driver->telemetry());
    }
  }
}

Timestamp MultiQueryCoordinator::RetentionFloor(
    int64_t windows_per_query) const {
  Timestamp floor = std::numeric_limits<Timestamp>::max();
  for (const Entry& e : entries_) {
    if (e.next_recurrence >= windows_per_query) continue;
    floor = std::min(floor,
                     e.driver->geometry().WindowBegin(e.next_recurrence));
  }
  return floor;
}

StatusOr<std::vector<RunReport>> MultiQueryCoordinator::Run(
    int64_t windows_per_query) {
  if (started_) {
    return Status::FailedPrecondition(
        "MultiQueryCoordinator::Run may be called once");
  }
  if (entries_.empty()) {
    return Status::FailedPrecondition(
        "MultiQueryCoordinator::Run with no queries registered");
  }
  started_ = true;
  BuildDrivers();

  std::vector<RunReport> reports(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    reports[i].system = "redoop:" + entries_[i].query.name;
  }

  // Global trigger-order interleaving off a min-heap of (trigger,
  // registration index): O(log Q) per recurrence instead of an O(Q) scan.
  // TriggerTime is a static function of the recurrence, so each query's
  // next firing is known the moment the previous one is admitted.
  using HeapItem = std::pair<Timestamp, size_t>;
  std::priority_queue<HeapItem, std::vector<HeapItem>,
                      std::greater<HeapItem>> queue;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (windows_per_query > 0) {
      queue.push({entries_[i].driver->geometry().TriggerTime(0), i});
    }
  }

  const bool fleet_on = fleet_options_.AnyEnabled();
  Simulator& sim = cluster_->simulator();
  int64_t admissions_since_sweep = 0;
  while (!queue.empty()) {
    const int64_t queued_now = static_cast<int64_t>(queue.size());
    size_t best;
    Timestamp best_trigger;
    if (fleet_options_.fair_share) {
      // Pull every query firing within the horizon of the earliest
      // trigger and admit the least-served tenant among them. Horizon 0
      // still arbitrates simultaneous triggers by attained service.
      const Timestamp head = queue.top().first;
      std::vector<FairShareLedger::Candidate> candidates;
      while (!queue.empty() &&
             queue.top().first <= head + fleet_options_.fair_horizon_s) {
        const auto [trigger, index] = queue.top();
        queue.pop();
        candidates.push_back({entries_[index].query.id, trigger, index});
      }
      const size_t pick = ledger_.PickNext(candidates);
      best = candidates[pick].index;
      best_trigger = candidates[pick].trigger;
      for (size_t c = 0; c < candidates.size(); ++c) {
        if (c == pick) continue;
        queue.push({candidates[c].trigger, candidates[c].index});
      }
    } else {
      best = queue.top().second;
      best_trigger = queue.top().first;
      queue.pop();
    }

    Entry& e = entries_[best];
    if (fleet_on) {
      RedoopDriver::FleetAdmission note;
      note.wait_s = std::max(
          0.0, sim.Now() - static_cast<double>(best_trigger));
      note.queued = queued_now - 1;
      note.attained_s = ledger_.AttainedService(e.query.id);
      note.weight = e.fair_weight;
      e.driver->NoteFleetAdmission(note);
      FleetStats& stats = fleet_->stats();
      ++stats.admitted;
      stats.admission_wait_s += note.wait_s;
      stats.queue_peak = std::max(stats.queue_peak, queued_now);
    }
    StatusOr<WindowReport> window =
        e.driver->RunRecurrence(e.next_recurrence);
    REDOOP_RETURN_IF_ERROR(window.status());
    if (fleet_options_.fair_share) {
      ledger_.Charge(e.query.id, window.value().response_time);
    }
    reports[best].windows.push_back(std::move(window).value());
    ++e.next_recurrence;
    if (e.next_recurrence < windows_per_query) {
      queue.push(
          {e.driver->geometry().TriggerTime(e.next_recurrence), best});
    }
    // Bound fleet residency to the active window span: batches and dedup
    // images wholly below every unfinished query's next window can never
    // be read again. The O(Q) floor scan runs once per round of
    // admissions, keeping the steady-state loop at O(log Q).
    if (shared_feed_ != nullptr || fleet_options_.cache_dedup) {
      if (++admissions_since_sweep >= static_cast<int64_t>(entries_.size())) {
        admissions_since_sweep = 0;
        const Timestamp floor = RetentionFloor(windows_per_query);
        if (shared_feed_ != nullptr) shared_feed_->ReleaseBelow(floor);
        if (fleet_options_.cache_dedup) fleet_->dedup().RetireBelow(floor);
      }
    }
  }
  // Each query's report carries its own metrics + SLO rollup. With one
  // shared observability context the labeled series disambiguate queries;
  // ComputeSlo's per-query grouping does the same for the journal.
  for (size_t i = 0; i < entries_.size(); ++i) {
    obs::ObservabilityContext* obs = entries_[i].driver->observability();
    reports[i].observability = obs->metrics().Snapshot();
    obs::analysis::AnalysisOptions slo_options;
    slo_options.group_by_query = true;
    obs::slo::ExportTo(obs::slo::ComputeSlo(obs->journal(), slo_options),
                       &reports[i].observability);
  }
  return reports;
}

const RedoopDriver& MultiQueryCoordinator::driver(QueryId id) const {
  auto it = query_index_.find(id);
  if (it == query_index_.end()) REDOOP_LOG_FATAL << "unknown query " << id;
  const Entry& e = entries_[it->second];
  REDOOP_CHECK(e.driver != nullptr) << "Run() not started yet";
  return *e.driver;
}

}  // namespace redoop
