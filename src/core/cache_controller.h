#ifndef REDOOP_CORE_CACHE_CONTROLLER_H_
#define REDOOP_CORE_CACHE_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/ids.h"
#include "core/cache_key.h"
#include "core/cache_status_matrix.h"
#include "core/cache_types.h"
#include "core/recurring_query.h"
#include "core/window.h"
#include "obs/telemetry_scope.h"

namespace redoop {

/// An entry of the master's map task list (paper §4.3): a pane whose data
/// became available in HDFS (ready bit 1) and needs its map/caching pass —
/// or whose caches were lost and must be rebuilt.
struct PaneWorkItem {
  QueryId query = 0;
  SourceId source = 0;
  PaneId pane = kInvalidPane;
  /// HDFS pane/sub-pane files carrying this pane's records.
  std::vector<std::string> files;
  bool rebuild = false;
};

/// An entry of the reduce task list: a pane pair whose reduce-input caches
/// are both available (ready bit 2) and which lies within the panes'
/// lifespans (join queries).
struct PanePairWorkItem {
  QueryId query = 0;
  PaneId left = kInvalidPane;
  PaneId right = kInvalidPane;
};

/// A purge notification the master sends to a task node's local cache
/// registry once a cache's doneQueryMask is fully set (paper §4.2).
struct PurgeNotification {
  NodeId node = kInvalidNode;
  CacheKey key;
};

/// Why a cache disappeared. Every cause is observed — a failure, the
/// store's budget, a pane rebuild, a full local FS — never configured, and
/// it decides only the journal event and whether the rebuild is eager.
enum class CacheLoss {
  /// The node died or the file vanished (paper §5): cache.invalidate
  /// "lost", and a lost reduce-input cache queues an eager rebuild.
  kLost,
  /// The budget-bounded store evicted the entry, directly or through a
  /// fleet holder's fan-out. Silent: the store journals cache.pane.evict.
  kEvicted,
  /// Invalidated before a pane rebuild: cache.invalidate "dropped".
  kInvalidated,
  /// The node's local FS had no room even after on-demand purging (paper
  /// §4.1): cache.invalidate "disk_full".
  kDiskFull,
};

/// The Window-Aware Cache Controller (paper §4.2): master-side metadata for
/// every cache on any task node's local FS. Maintains cache signatures
/// (ready bits, doneQueryMask), per-join-query cache status matrices, the
/// map/reduce task lists that feed the scheduler, pane lifecycle state, and
/// the expiration/purge pipeline. All operations are metadata-only and
/// cheap (the micro-benchmarks verify the paper's "negligible overhead"
/// claim).
class WindowAwareCacheController {
 public:
  WindowAwareCacheController() = default;
  WindowAwareCacheController(const WindowAwareCacheController&) = delete;
  WindowAwareCacheController& operator=(const WindowAwareCacheController&) =
      delete;

  /// Registers a query; its bit position in every doneQueryMask is the
  /// returned index. `pane_size` fixes the pane grid of its sources.
  int32_t RegisterQuery(const RecurringQuery& query, Timestamp pane_size);

  int32_t query_count() const { return static_cast<int32_t>(queries_.size()); }

  // --- Pane lifecycle ---------------------------------------------------

  /// Pane data landed in HDFS (ready bit -> 1); the pane joins the map task
  /// list. Call again for additional files of the same pane (sub-panes);
  /// the files accumulate but the pane is listed once.
  void OnPaneInHdfs(QueryId query, SourceId source, PaneId pane,
                    const std::vector<std::string>& files);

  /// All reduce-input caches of the pane are materialized (ready bit -> 2).
  /// For join queries, newly runnable pane pairs (both cached, within
  /// lifespan, not yet done) enter the reduce task list.
  void OnPaneCached(QueryId query, SourceId source, PaneId pane);

  CacheReady PaneReady(QueryId query, SourceId source, PaneId pane) const;
  std::vector<std::string> PaneFiles(QueryId query, SourceId source,
                                     PaneId pane) const;

  // --- Cache signatures ---------------------------------------------------

  /// Registers a cache file created on a node. Bits of queries that never
  /// use the cache are pre-set (paper: set to 1 at initialization time).
  void AddSignature(CacheSignature signature, QueryId owner);

  const CacheSignature* Find(const std::string& name) const;
  /// All signatures for (source, pane) of the given type, partition order.
  std::vector<const CacheSignature*> CachesForPane(QueryId query,
                                                   SourceId source, PaneId pane,
                                                   CacheType type) const;
  size_t signature_count() const { return signatures_.size(); }

  // --- Join bookkeeping ---------------------------------------------------

  void MarkPanePairDone(QueryId query, PaneId left, PaneId right);
  bool IsPanePairDone(QueryId query, PaneId left, PaneId right) const;
  const CacheStatusMatrix* matrix(QueryId query) const;

  // --- Task lists ---------------------------------------------------------

  std::optional<PaneWorkItem> PopMapTask();
  std::optional<PanePairWorkItem> PopReduceTask();
  size_t map_task_list_size() const { return map_task_list_.size(); }
  size_t reduce_task_list_size() const { return reduce_task_list_.size(); }

  // --- Expiration / purging -----------------------------------------------

  /// Declares recurrence `recurrence` of `query` complete. Flips
  /// doneQueryMask bits of caches the query no longer needs, shifts the
  /// status matrix, and returns purge notifications for now-expired caches
  /// (their signatures are dropped here; local registries purge lazily).
  std::vector<PurgeNotification> FinishRecurrence(QueryId query,
                                                  int64_t recurrence);

  // --- Failure recovery (paper §5) ----------------------------------------

  /// The one cache-loss rollback. Drops the signature and its pane (or
  /// pair) index entry. A reduce-input cache's pane rolls its ready bit
  /// back to HDFS-available and loses its pending reduce pairs; a pair
  /// output's status-matrix cell flips back to not-done iff a future
  /// (unfinished) window still reads the pair — un-doing an expired cell
  /// would block Shift forever. Only kLost inserts the rebuild into the
  /// map task list (paper §5); every other cause recovers lazily, through
  /// the driver's window preparation (manifest checks and missing-pair
  /// scans), so a tight budget cannot thrash (evict, rebuild, evict
  /// again). Returns the dropped signature's node, or kInvalidNode when
  /// the cache is unknown. `key` must not refer into the signature, which
  /// this erases.
  NodeId RollBack(const CacheKey& key, CacheLoss cause);

  /// Journals cache lifecycle decisions (add/evict/invalidate/rebuild,
  /// pane readiness, matrix transitions) through an attribution scope:
  /// events carry the scope's query/window and counters land on the
  /// labeled per-query series too.
  void set_telemetry(obs::TelemetryScope scope) {
    scope_ = std::move(scope);
  }
  /// Unattributed convenience (standalone/test use); null disables
  /// emission.
  void set_observability(obs::ObservabilityContext* obs) {
    scope_ = obs::TelemetryScope(obs);
  }

 private:
  struct PaneState {
    CacheReady ready = CacheReady::kNotAvailable;
    std::vector<std::string> files;
    bool in_map_list = false;
  };

  struct QueryState {
    RecurringQuery query;  // Copy of the registration-time spec.
    int32_t mask_bit = 0;
    Timestamp pane_size = 0;
    std::unique_ptr<WindowGeometry> geometry;
    std::unique_ptr<CacheStatusMatrix> matrix;  // Join queries only.
    std::map<std::pair<SourceId, PaneId>, PaneState> panes;
    /// Names of caches owned by this query, keyed by (source, pane).
    std::multimap<std::pair<SourceId, PaneId>, std::string> caches_by_pane;
    /// Join-output caches keyed by (left, right).
    std::multimap<std::pair<PaneId, PaneId>, std::string> caches_by_pair;
    std::set<std::pair<PaneId, PaneId>> pairs_enqueued;
    /// Highest recurrence FinishRecurrence has sealed — the horizon that
    /// decides whether an evicted pane pair still has a future reader.
    int64_t last_finished_recurrence = -1;
  };

  QueryState* FindQuery(QueryId id);
  const QueryState* FindQuery(QueryId id) const;
  void EnqueueReadyPairs(QueryState* q, SourceId source, PaneId pane);
  void ExpireCache(const std::string& name, QueryState* q,
                   std::vector<PurgeNotification>* out);

  std::map<QueryId, std::unique_ptr<QueryState>> queries_;
  std::map<std::string, CacheSignature> signatures_;
  std::deque<PaneWorkItem> map_task_list_;
  std::deque<PanePairWorkItem> reduce_task_list_;
  obs::TelemetryScope scope_;
};

}  // namespace redoop

#endif  // REDOOP_CORE_CACHE_CONTROLLER_H_
