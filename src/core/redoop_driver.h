#ifndef REDOOP_CORE_REDOOP_DRIVER_H_
#define REDOOP_CORE_REDOOP_DRIVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/batch_feed.h"
#include "core/cache_aware_scheduler.h"
#include "core/cache_controller.h"
#include "core/cache_key.h"
#include "core/cache_store.h"
#include "core/eviction_policy.h"
#include "core/data_packer.h"
#include "core/execution_profiler.h"
#include "core/local_cache_registry.h"
#include "core/metrics.h"
#include "core/recurring_query.h"
#include "core/semantic_analyzer.h"
#include "core/window.h"
#include "mapreduce/job_runner.h"
#include "mapreduce/scheduler.h"
#include "obs/observability.h"

namespace redoop {

class FleetContext;  // core/fleet.h; held by pointer only.

/// Caching knobs (paper §4).
struct CacheOptions {
  /// Cache the shuffled, sorted reducer inputs per pane (paper §4).
  bool reduce_input = true;
  /// Cache per-pane (or per-pane-pair) reducer outputs.
  bool reduce_output = true;
  /// Join-window strategy optimizer: per recurrence, cost-estimate the
  /// pane-pair incremental path against re-joining the whole window from
  /// cached reducer inputs, and take the cheaper. Pane pairs win at high
  /// overlap (pair outputs are reused across many windows); the recompute
  /// path wins at low overlap, where per-pair execution would re-read each
  /// pane once per partner. Disable to force pane pairs always.
  bool hybrid_join_strategy = true;
  /// Local-registry purge period; < 0 means "one slide" (paper default).
  double purge_cycle_s = -1.0;
  /// Store cache payloads columnar-compressed (front-coded key column,
  /// varint value/offset columns), decoding lazily into a FlatKvBuffer on
  /// first access. Job outputs, counters, and simulated timings are
  /// byte-identical either way — only host memory and the compressed-bytes
  /// accounting change. Off = keep the row-ordered flat buffer as-is.
  bool columnar_payloads = true;
  /// Logical-byte budget of the driver's CacheStore; 0 = unbounded (keep
  /// every pane the lifespan math declares live, the paper's model). Under
  /// a budget, evicted panes flip back to recompute and are rebuilt lazily
  /// when a window reads them again — window outputs stay byte-identical
  /// to the unbounded run, only the work volume changes.
  int64_t budget_bytes = 0;
  /// Victim selection under the byte budget (ignored when unbounded).
  EvictionPolicyKind eviction_policy = EvictionPolicyKind::kLru;
};

/// Adaptive input partitioning + proactive execution (paper §3.3).
struct AdaptiveOptions {
  bool enabled = false;
  /// Proactive mode engages when the forecast execution time exceeds this
  /// fraction of the slide.
  double proactive_threshold = 0.8;
  int32_t max_subpanes = 6;
  /// Pane-grid override in seconds (0 = GCD(win, slide)). Must evenly
  /// divide both win and slide. The multi-query coordinator uses this to
  /// put every query sharing a source on one grid (GCD across all their
  /// windows).
  Timestamp pane_size_override = 0;
};

/// Holt smoothing parameters for the Execution Profiler (paper §3.3).
struct ProfilerOptions {
  double alpha = 0.5;
  double beta = 0.3;
};

/// Task-placement knobs (paper §5, Eq. 4).
struct SchedulerOptions {
  /// Window-aware cache-locality scheduling (Eq. 4) vs Hadoop's default.
  bool cache_aware = true;
  /// Weight (simulated seconds) of a node's queued-task load term against
  /// its cache-affinity term in the placement score.
  double load_weight_s = 30.0;
};

/// Causal-tracing knobs (DESIGN §14).
struct TraceOptions {
  /// Head sampling: stamp trace/span ids on every event of one window in
  /// `sample_period` (window `r` is sampled when r % period == 0). 1 =
  /// trace every window (default); 0 disables stamping entirely. A window
  /// that misses its SLO deadline is promoted to sampled retroactively
  /// regardless of the period (always-sample-on-SLO-violation).
  int64_t sample_period = 1;
};

struct RedoopDriverOptions {
  /// Caching behaviour (reduce-input/output caches, join strategy, purge).
  CacheOptions cache;
  /// Adaptive partitioning / proactive execution.
  AdaptiveOptions adaptive;
  /// Execution-profiler forecasting parameters.
  ProfilerOptions profiler;
  /// Task-placement policy.
  SchedulerOptions scheduler;
  /// Causal-trace sampling policy.
  TraceOptions trace;
  /// Prefix for the query's DFS pane files, so several drivers can consume
  /// the same source on one cluster without name collisions.
  std::string file_namespace;
  /// Engine-level knobs (task retries, straggler model, speculative
  /// execution — the latter off by default, as in the paper's setup —
  /// and the host worker-thread count).
  JobRunnerOptions runner;
  /// Metrics + decision-event sink shared by every Redoop component the
  /// driver wires up (controller, schedulers, profiler, registries, DFS,
  /// job runner). Must outlive the driver. When null the driver owns a
  /// private context, reachable via observability().
  obs::ObservabilityContext* obs = nullptr;
  /// Fleet-serving context shared across co-resident drivers (DESIGN §17):
  /// cross-query pane dedup and eviction fan-out. Set by the
  /// MultiQueryCoordinator; null (the default) for standalone drivers.
  /// Must outlive the driver; consulted on the coordinator thread only.
  FleetContext* fleet = nullptr;

  class Builder;
};

/// Fluent construction for RedoopDriverOptions. Group setters replace a
/// whole nested block; leaf setters flip the commonly toggled knobs:
///
///   auto options = RedoopDriverOptions::Builder()
///                      .CacheAwareScheduler(false)
///                      .Adaptive(true)
///                      .Threads(8)
///                      .Build();
class RedoopDriverOptions::Builder {
 public:
  Builder() = default;
  /// Starts from an existing options value (e.g. to derive a variant).
  explicit Builder(RedoopDriverOptions base) : opts_(std::move(base)) {}

  // -- Group setters -----------------------------------------------------
  Builder& Cache(CacheOptions v) { opts_.cache = v; return *this; }
  Builder& Adaptive(AdaptiveOptions v) { opts_.adaptive = v; return *this; }
  Builder& Profiler(ProfilerOptions v) { opts_.profiler = v; return *this; }
  Builder& Scheduler(SchedulerOptions v) { opts_.scheduler = v; return *this; }
  Builder& Trace(TraceOptions v) { opts_.trace = v; return *this; }
  Builder& Runner(JobRunnerOptions v) {
    opts_.runner = std::move(v);
    return *this;
  }

  // -- Leaf setters ------------------------------------------------------
  Builder& CacheReduceInput(bool v) { opts_.cache.reduce_input = v; return *this; }
  Builder& CacheReduceOutput(bool v) { opts_.cache.reduce_output = v; return *this; }
  Builder& HybridJoinStrategy(bool v) { opts_.cache.hybrid_join_strategy = v; return *this; }
  Builder& PurgeCycle(double seconds) { opts_.cache.purge_cycle_s = seconds; return *this; }
  Builder& ColumnarPayloads(bool v) { opts_.cache.columnar_payloads = v; return *this; }
  Builder& CacheBudgetBytes(int64_t v) { opts_.cache.budget_bytes = v; return *this; }
  Builder& CacheEvictionPolicy(EvictionPolicyKind v) { opts_.cache.eviction_policy = v; return *this; }
  Builder& Adaptive(bool v) { opts_.adaptive.enabled = v; return *this; }
  Builder& ProactiveThreshold(double v) { opts_.adaptive.proactive_threshold = v; return *this; }
  Builder& MaxSubpanes(int32_t v) { opts_.adaptive.max_subpanes = v; return *this; }
  Builder& PaneSizeOverride(Timestamp v) { opts_.adaptive.pane_size_override = v; return *this; }
  Builder& ProfilerSmoothing(double alpha, double beta) {
    opts_.profiler.alpha = alpha;
    opts_.profiler.beta = beta;
    return *this;
  }
  Builder& CacheAwareScheduler(bool v) { opts_.scheduler.cache_aware = v; return *this; }
  Builder& TraceSamplePeriod(int64_t v) { opts_.trace.sample_period = v; return *this; }
  Builder& SchedulerLoadWeight(double seconds) { opts_.scheduler.load_weight_s = seconds; return *this; }
  Builder& FileNamespace(std::string v) {
    opts_.file_namespace = std::move(v);
    return *this;
  }
  Builder& Threads(int32_t v) { opts_.runner.threads = v; return *this; }
  Builder& Seed(uint64_t v) { opts_.runner.seed = v; return *this; }
  Builder& Observability(obs::ObservabilityContext* ctx) {
    opts_.obs = ctx;
    return *this;
  }
  Builder& Fleet(FleetContext* ctx) {
    opts_.fleet = ctx;
    return *this;
  }

  RedoopDriverOptions Build() const { return opts_; }

 private:
  RedoopDriverOptions opts_;
};

/// The Redoop execution driver: the component that ties together the
/// Semantic Analyzer, Dynamic Data Packer, Execution Profiler, Window-Aware
/// Cache Controller, per-node Local Cache Registries, and the Cache-Aware
/// Task Scheduler to run a recurring query incrementally (paper §2.3
/// architecture). Window results are exactly equal to what the plain-Hadoop
/// driver produces on the same feed — caching must never change answers.
class RedoopDriver {
 public:
  /// `cluster` and `feed` must outlive the driver.
  RedoopDriver(Cluster* cluster, BatchFeed* feed, RecurringQuery query,
               RedoopDriverOptions options = {});
  ~RedoopDriver();

  RedoopDriver(const RedoopDriver&) = delete;
  RedoopDriver& operator=(const RedoopDriver&) = delete;

  /// Executes recurrence i (consecutive from 0) and reports. Returns a
  /// typed error instead of aborting when the driver was misconfigured
  /// (InvalidArgument: `adaptive.pane_size_override` does not divide the
  /// query's win/slide; NotFound: a query source is not registered with
  /// the feed) or when recurrences are requested out of order
  /// (FailedPrecondition).
  StatusOr<WindowReport> RunRecurrence(int64_t recurrence);

  /// Convenience: runs recurrences [0, n). Stops at the first error.
  StatusOr<RunReport> Run(int64_t n);

  /// Ad-hoc historical query (paper §2.1: "even ad-hoc queries can benefit
  /// from the caching of the intermediate data"): evaluates the query's
  /// map/reduce/finalize over an arbitrary time range [begin, end) within
  /// the retained pane horizon. Panes fully inside the range are served
  /// from their cached reducer outputs; partially covered edge panes are
  /// re-mapped from their pane files with a time filter. Aggregation
  /// (kPerPaneMerge) queries only. Returns the sorted result.
  StatusOr<std::vector<KeyValue>> RunAdHocQuery(Timestamp begin,
                                                Timestamp end);

  // --- Introspection (tests, benchmarks) --------------------------------
  const WindowGeometry& geometry() const { return geometry_; }
  const WindowAwareCacheController& controller() const { return controller_; }
  const CacheStore& store() const { return *store_; }
  const ExecutionProfiler& profiler() const { return profiler_; }
  const LocalCacheRegistry& registry(NodeId node) const;
  const DynamicDataPacker& packer(SourceId source) const;
  bool proactive_mode() const { return proactive_mode_; }
  int32_t current_subpanes() const { return current_plan_.subpanes_per_pane; }
  const RedoopDriverOptions& options() const { return options_; }
  /// Construction-time validation verdict; RunRecurrence/Run return this
  /// error without doing any work when it is not OK.
  const Status& init_status() const { return init_status_; }
  /// The active observability context (the caller-provided one, or the
  /// driver-owned fallback). Never null.
  obs::ObservabilityContext* observability() { return obs_; }
  /// The driver's query-attributed telemetry scope (carries the query
  /// label and the live recurrence window for event stamping).
  const obs::TelemetryScope& telemetry() const { return scope_; }

  /// What the coordinator's admission queue decided for the next
  /// recurrence; journaled as a fleet.admit event when the window opens.
  struct FleetAdmission {
    double wait_s = 0.0;    // Trigger-to-admission delay (simulated).
    int64_t queued = 0;     // Queue depth at admission time.
    double attained_s = 0.0;  // Tenant's attained weighted service.
    double weight = 1.0;
  };
  void NoteFleetAdmission(const FleetAdmission& note);

 private:
  struct FileSlice {
    std::string file_name;
    int64_t record_begin = 0;
    int64_t record_end = -1;
    int64_t bytes = 0;
  };

  struct PaneIngestState {
    std::vector<FileSlice> unprocessed;  // Slices awaiting a caching pass.
    std::vector<FileSlice> all_slices;   // Every slice (for rebuilds).
    bool complete = false;
    bool cached_reported = false;
    int32_t chunks_processed = 0;
    int64_t bytes = 0;
    /// Cache files materialized for this pane (manifest for loss and
    /// eviction checks).
    std::vector<CacheKey> ric_names;
    std::vector<CacheKey> roc_names;
  };

  using PaneKey = std::pair<SourceId, PaneId>;

  void IngestInterval(Timestamp from, Timestamp to);
  void HandlePaneFiles(SourceId source,
                       const std::vector<PaneFileInfo>& files);
  void DrainWorkLists();
  void RunPaneJob(const PaneWorkItem& item);
  /// Runs one map+cache pass over a pane's (sub-)file slices; a non-empty
  /// `active_partitions` limits the reduce/caching side to those
  /// partitions (partition-scoped cache rebuild).
  void RunPaneSlices(SourceId source, PaneId pane,
                     const std::vector<FileSlice>& slices,
                     std::vector<int32_t> active_partitions = {});
  /// Runs a batch of pane-pair join tasks as one job, skipping pairs with
  /// a pane that is not intact.
  void RunPanePairBatch(const std::vector<PanePairWorkItem>& batch);
  /// Invalidates the pane's *lost* caches and re-materializes just those:
  /// lost output caches with surviving input caches are re-reduced in
  /// place; anything else is replayed from the pane's HDFS files with the
  /// reduce side limited to the lost partitions.
  void RebuildPane(SourceId source, PaneId pane);
  /// Re-reduces the given partitions' output caches from their surviving
  /// reduce-input caches.
  void RebuildOutputsFromInputs(SourceId source, PaneId pane,
                                std::vector<int32_t> partitions);
  /// Registers a job's caches: store, node registry, heartbeat and
  /// signature. A cache that did not fit on its node's local FS enters the
  /// pane manifest and goes straight through DropCache. `rebuilt` marks
  /// reduce-output caches re-reduced from surviving inputs.
  void RegisterJobCaches(const JobResult& result, SourceId source_for_roc,
                         PaneId pane_for_roc, bool rebuilt = false);
  /// The key of a per-pane cache at the pane's current chunk; the job
  /// specs render their cache names from it.
  CacheKey PaneCacheKey(CacheKey::Kind kind, SourceId source, PaneId pane,
                        int32_t partition) const;
  /// Whether every cache in the pane's manifest is resident in the store
  /// (true for a pane with no manifest).
  bool PaneIntact(SourceId source, PaneId pane) const;
  /// PaneIntact over every in-window pane of every source.
  bool WindowPanesIntact(int64_t recurrence) const;
  /// The no-caching recompute: one job over every in-window pane file.
  /// Also answers any window that finds a cache it reads still absent
  /// after its one rebuild attempt (EnsureWindowPanes).
  std::vector<KeyValue> RecomputeWindow(int64_t recurrence);
  void AccumulateJobStats(const JobResult& result);
  WindowReport AssembleWindow(int64_t recurrence);
  /// Summed ingested bytes of every source's panes in the range.
  int64_t WindowInputBytes(const PaneRange& panes) const;
  /// Classifies every in-window pane as a cache hit (its caches predate
  /// this recurrence) or miss (built or still unbuilt this recurrence) and
  /// journals the verdicts. Called once per window, before assembly runs
  /// any job.
  void EmitPaneCacheStats(int64_t recurrence);
  void AfterRecurrence(int64_t recurrence, const WindowReport& report);
  void OnCacheLossEvent(NodeId node, const std::vector<std::string>& lost);
  /// The one way a cache leaves: drops its store entry, rolls the
  /// controller back (RollBack), deletes the node file and the registry
  /// row, and — for a budget eviction of a fleet-shared pane — fans the
  /// eviction out to the other holders.
  void DropCache(const CacheKey& key, CacheLoss cause);
  /// Appends the cache's payload as a reduce side input, pinning its store
  /// entry for the rest of the recurrence.
  void AppendSideInput(const CacheSignature& sig,
                       std::vector<ReduceSideInput>* out);
  /// Join windows: decides the execution strategy (pane pairs vs cached-
  /// input recompute), runs the needed work, and — on the recompute path —
  /// stashes the window output in `join_window_override_`.
  void PrepareJoinWindow(int64_t recurrence);
  /// In-window pairs that are undone or whose outputs are missing.
  std::vector<PanePairWorkItem> MissingWindowPairs(int64_t recurrence) const;
  /// Cost estimates (simulated seconds of I/O+CPU work) for the two join
  /// window strategies.
  double EstimatePairPathCost(
      const std::vector<PanePairWorkItem>& pairs) const;
  double EstimateRecomputePathCost(int64_t recurrence) const;
  /// Re-joins the whole window from cached reducer inputs in one job.
  void RunJoinWindowRecompute(int64_t recurrence);
  /// Builds the paper's folded window job (Fig. 5): map only the panes not
  /// yet cached, feed previously cached panes to the reducers as side
  /// inputs, and keep the new panes' merged reducer inputs as caches.
  JobSpec BuildFoldedWindowSpec(int64_t recurrence);
  /// Completes the caching pass for every in-window pane that still has
  /// unprocessed slices (pair path prerequisite).
  void EnsureWindowPanesCached(int64_t recurrence);
  /// Marks the panes whose slices `spec` mapped as cached after the fold
  /// job ran.
  void FinishFoldedPanes(int64_t recurrence);
  /// Ensures every in-window pane's manifest caches are still present.
  void EnsureWindowPanes(int64_t recurrence);
  JobConfig BaseJobConfig(const std::string& suffix) const;
  TaskScheduler* scheduler();

  // --- Fleet serving (DESIGN §17) ---------------------------------------
  /// Whether this caching pass may share images across queries: the
  /// initial full-pane build (chunk 0, every slice, no partition scope,
  /// empty manifests) of a dedup-opted query under a fleet context.
  bool FleetDedupEligible(SourceId source, PaneId pane,
                          const std::vector<FileSlice>& slices,
                          const std::vector<int32_t>& active_partitions) const;
  std::string FleetContentKey(SourceId source, PaneId pane) const;
  /// Adopts another query's published images for this pane (payloads
  /// shared, zero simulated work); false when no image is published.
  bool TryAdoptPane(SourceId source, PaneId pane);
  /// Publishes this pane's just-built images for later queries to adopt.
  void PublishFleetPane(SourceId source, PaneId pane,
                        const std::vector<MaterializedCache>& caches);
  /// Rollback fan-out target: another holder's budget evicted the shared
  /// physical image, so this query's copies are dropped too (manifests
  /// stay, EnsureWindowPanes rebuilds lazily).
  void EvictFleetPane(SourceId source, PaneId pane);

  Cluster* cluster_;
  BatchFeed* feed_;
  RecurringQuery query_;
  RedoopDriverOptions options_;
  WindowGeometry geometry_;
  /// First misconfiguration found at construction (OK when none).
  Status init_status_;
  /// Owned fallback when options.obs is null; obs_ is the active context.
  std::unique_ptr<obs::ObservabilityContext> owned_obs_;
  obs::ObservabilityContext* obs_ = nullptr;
  /// Current recurrence, read by telemetry scopes at emit time (-1 when no
  /// recurrence is active). Must outlive every scope copy handed out.
  int64_t telemetry_window_ = -1;
  /// Current window's trace context, read by telemetry scopes at emit time
  /// (inactive between recurrences). Same lifetime contract as the window
  /// cell: every scope copy points here.
  obs::trace::TraceContext trace_ctx_;
  /// Query-attributed scope shared (by copy) with every wired component.
  obs::TelemetryScope scope_;
  SemanticAnalyzer analyzer_;
  PartitionPlan base_plan_;
  PartitionPlan current_plan_;
  WindowAwareCacheController controller_;
  /// Built in the constructor body (its Options capture `this` for the
  /// eviction callback and need scope_ live first).
  std::unique_ptr<CacheStore> store_;
  /// Pins on every cache entry the current recurrence registered or read;
  /// cleared (then EnforceBudget) at the end of each recurrence. Must be
  /// declared after store_ so destruction releases the pins while the
  /// store is still alive.
  std::vector<CacheStore::Lease> recurrence_leases_;
  ExecutionProfiler profiler_;
  DefaultScheduler default_scheduler_;
  std::unique_ptr<CacheAwareScheduler> cache_aware_scheduler_;
  std::unique_ptr<JobRunner> runner_;
  std::map<SourceId, std::unique_ptr<DynamicDataPacker>> packers_;
  std::vector<std::unique_ptr<LocalCacheRegistry>> registries_;
  std::map<PaneKey, PaneIngestState> pane_states_;
  /// Panes whose caches were (re)built during the current recurrence —
  /// serving them is a cache miss, not a hit (cleared per recurrence).
  std::set<PaneKey> panes_built_this_recurrence_;
  /// Window each pane's caches were last (re)built in, for the pane-hit
  /// lineage stamp ("built_in"): the follows-from edge's producer window.
  std::map<PaneKey, int64_t> pane_built_window_;
  std::vector<Timestamp> ingested_until_;
  int64_t next_recurrence_ = 0;
  bool proactive_mode_ = false;
  int64_t pair_batch_counter_ = 0;
  /// Pairs popped from the controller's reduce task list but deferred to
  /// the window's strategy decision (non-proactive join mode).
  std::vector<PanePairWorkItem> deferred_pairs_;
  std::set<std::pair<PaneId, PaneId>> deferred_pair_keys_;
  /// Window output computed by the recompute join path (consumed by
  /// AssembleWindow instead of the pair-output union).
  std::optional<std::vector<KeyValue>> join_window_override_;
  /// Previous join window's output volume (recompute cost estimation).
  int64_t last_join_output_bytes_ = 0;
  /// Previous recurrence's result, kept when the query emits deltas.
  std::vector<KeyValue> previous_output_;
  /// Guards the cluster's cache-loss listener against driver teardown.
  std::shared_ptr<bool> alive_flag_;
  /// Fresh bytes per source in the current inter-trigger interval (rate
  /// statistics for the Semantic Analyzer).
  std::map<SourceId, int64_t> source_window_bytes_;
  /// Panes whose resident caches are physically shared through the fleet
  /// dedup index, by content key — consulted on eviction in either
  /// direction (this query's budget, or a fan-out from another holder).
  std::map<PaneKey, std::string> fleet_pane_keys_;
  /// Coordinator-set admission note, consumed by the next RunRecurrence.
  std::optional<FleetAdmission> pending_admission_;

  // Per-recurrence accumulators (proactive jobs count toward the next
  // recurrence's phase totals).
  SimDuration shuffle_accum_ = 0.0;
  SimDuration reduce_accum_ = 0.0;
  SimDuration map_phase_accum_ = 0.0;
  SimDuration work_accum_ = 0.0;  // Total job time, pre- and post-trigger.
  std::vector<TaskReport> task_reports_accum_;
  Counters counters_accum_;
  int64_t fresh_bytes_accum_ = 0;
};

}  // namespace redoop

#endif  // REDOOP_CORE_REDOOP_DRIVER_H_
