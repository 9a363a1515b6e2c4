#ifndef REDOOP_CORE_MULTI_QUERY_H_
#define REDOOP_CORE_MULTI_QUERY_H_

#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "core/batch_feed.h"
#include "core/cache_aware_scheduler.h"
#include "core/fleet.h"
#include "core/metrics.h"
#include "core/recurring_query.h"
#include "core/redoop_driver.h"
#include "core/semantic_analyzer.h"

namespace redoop {

/// Consolidates several recurring queries onto one cluster (the paper's
/// Semantic Analyzer "takes as input a sequence of recurring queries with
/// different window constraints", §3.1):
///
///  - every query touching a source is put on that source's common pane
///    grid — the GCD over all of their win/slide constraints — so their
///    pane boundaries align;
///  - recurrences execute in global trigger order: whichever query's next
///    window fires earliest runs next, so queries contend for the
///    cluster's slots exactly as co-running jobs would (a query that
///    overruns its slide delays whoever triggers behind it);
///  - each query keeps its own cache *names* (cache files are namespaced
///    per query), but with FleetOptions.cache_dedup queries whose
///    pipeline_signature proves identical upstream pipelines share one
///    physical cached pane image (DESIGN §17). Without a signature match,
///    sharing would be unsound and never happens.
///
/// Fleet serving (FleetOptions, all off by default) adds shared pane
/// scans, cross-query cache dedup, and weighted fair-share admission;
/// every feature leaves per-query window outputs byte-identical to the
/// private path.
class MultiQueryCoordinator {
 public:
  /// `cluster` and `feed` must outlive the coordinator.
  MultiQueryCoordinator(Cluster* cluster, BatchFeed* feed,
                        FleetOptions fleet = {});

  MultiQueryCoordinator(const MultiQueryCoordinator&) = delete;
  MultiQueryCoordinator& operator=(const MultiQueryCoordinator&) = delete;

  /// Registers a query. Must be called before Run(); query ids must be
  /// unique. `options.adaptive.pane_size_override` and `options.file_namespace`
  /// are set by the coordinator. `fair_weight` (> 0) is the query's
  /// fair-share weight: a weight-2 tenant is entitled to twice the
  /// service of a weight-1 tenant before it has to queue. Rejects, without
  /// registering anything, a call after Run (FailedPrecondition), a
  /// non-positive weight (InvalidArgument) and a duplicate query id
  /// (AlreadyExists).
  Status AddQuery(RecurringQuery query, RedoopDriverOptions options = {},
                  double fair_weight = 1.0);

  /// The pane size the coordinator will assign to `source`, given the
  /// queries registered so far.
  Timestamp PaneSizeForSource(SourceId source) const;

  /// Runs every query for `windows_per_query` recurrences, interleaved in
  /// global trigger order (fair-share may reorder within the configured
  /// horizon). Returns one RunReport per query, in registration order, or
  /// the first driver misconfiguration error (see
  /// RedoopDriver::RunRecurrence). FailedPrecondition when called twice
  /// or with no queries registered.
  StatusOr<std::vector<RunReport>> Run(int64_t windows_per_query);

  /// Driver access (valid after Run() started building them).
  const RedoopDriver& driver(QueryId id) const;
  size_t query_count() const { return entries_.size(); }

  /// Fleet counters (admissions, shared-scan hits, dedup savings); zeros
  /// when no fleet feature is enabled.
  const FleetStats& fleet_stats() const { return fleet_->stats(); }
  const FairShareLedger& fair_share() const { return ledger_; }

 private:
  struct Entry {
    RecurringQuery query;
    RedoopDriverOptions options;
    double fair_weight = 1.0;
    /// The driver's private feed handle when shared scans are on.
    std::unique_ptr<SharedScanView> view;
    std::unique_ptr<RedoopDriver> driver;
    int64_t next_recurrence = 0;
  };

  void BuildDrivers();
  /// Earliest window-begin still needed by any unfinished query — the
  /// retention floor for the shared scan cache and the dedup index.
  Timestamp RetentionFloor(int64_t windows_per_query) const;

  Cluster* cluster_;
  BatchFeed* feed_;
  FleetOptions fleet_options_;
  /// Fleet state lives above entries_ so drivers (which hold pointers into
  /// both) are destroyed first. Always constructed (stats stay readable
  /// with every feature off).
  std::unique_ptr<FleetContext> fleet_;
  std::unique_ptr<SharedScanFeed> shared_feed_;
  FairShareLedger ledger_;
  std::vector<Entry> entries_;
  /// QueryId -> entries_ index (duplicate detection, driver() lookup).
  std::map<QueryId, size_t> query_index_;
  /// Source -> window constraints of every query consuming it, built at
  /// AddQuery time so PaneSizeForSource is one map lookup.
  std::map<SourceId, std::vector<WindowSpec>> source_constraints_;
  bool started_ = false;
};

/// A BatchFeed decorator giving each consumer an independent read cursor
/// over a shared underlying feed. The coordinator hands one view per query
/// so that several drivers can pull the same source ranges independently
/// (the underlying feed must be a pure function of (source, range), which
/// SyntheticFeed guarantees). SharedScanView (core/fleet.h) is the
/// materializing variant: same shape, but each underlying batch is read
/// once and fanned out.
class SharedFeedView : public BatchFeed {
 public:
  explicit SharedFeedView(BatchFeed* inner) : inner_(inner) {}

  std::vector<RecordBatch> BatchesFor(SourceId source, Timestamp begin,
                                      Timestamp end) override {
    return inner_->BatchesFor(source, begin, end);
  }

  bool HasSource(SourceId source) const override {
    return inner_->HasSource(source);
  }

 private:
  BatchFeed* inner_;
};

}  // namespace redoop

#endif  // REDOOP_CORE_MULTI_QUERY_H_
