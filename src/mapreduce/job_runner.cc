#include "mapreduce/job_runner.h"

#include <algorithm>
#include <deque>
#include <set>
#include <span>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/string_utils.h"

namespace redoop {

namespace {

/// FNV-1a over key bytes — the hash-combine table hash. Any hash works:
/// group *iteration* order is first-occurrence order, never table order,
/// so the hash choice is unobservable in the output.
uint64_t HashKeyBytes(std::string_view key) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

/// Map-side combine over one partition's pairs (`idx`, in emission order)
/// without sorting the raw pairs first: an open-addressing hash table
/// groups equal keys, the combiner runs per group, and only the (smaller)
/// combined output pays a sort. Determinism does not depend on the hash:
/// groups are visited in first-occurrence order and each group's members
/// are ordered by (value, emission index) — exactly the sequence the old
/// sort-then-scan combine presented.
FlatKvBuffer CombinePartition(const FlatKvBuffer& flat,
                              const std::vector<uint32_t>& idx,
                              const Reducer* combiner) {
  if (idx.empty()) return FlatKvBuffer();
  // Table capacity: power of two, load factor <= 0.5.
  size_t cap = 16;
  while (cap < idx.size() * 2) cap <<= 1;
  std::vector<uint32_t> table(cap, kNoSlot);  // slot -> group id
  struct Group {
    uint64_t hash = 0;
    uint32_t head = 0;  // First position in idx (defines the group key).
    uint32_t tail = 0;
    uint32_t count = 0;
  };
  std::vector<Group> groups;
  // Intrusive chain threading each group's positions, in arrival order.
  std::vector<uint32_t> next(idx.size(), kNoSlot);
  for (uint32_t pos = 0; pos < static_cast<uint32_t>(idx.size()); ++pos) {
    const std::string_view key = flat.key(idx[pos]);
    const uint64_t h = HashKeyBytes(key);
    size_t slot = h & (cap - 1);
    while (true) {
      if (table[slot] == kNoSlot) {
        table[slot] = static_cast<uint32_t>(groups.size());
        Group g;
        g.hash = h;
        g.head = g.tail = pos;
        g.count = 1;
        groups.push_back(g);
        break;
      }
      Group& g = groups[table[slot]];
      if (g.hash == h && flat.key(idx[g.head]) == key) {
        next[g.tail] = pos;
        g.tail = pos;
        ++g.count;
        break;
      }
      slot = (slot + 1) & (cap - 1);
    }
  }
  ReduceContext combine_out;
  KvGroupScratch scratch;
  const bool flat_combine = combiner->PrefersFlatInput();
  std::vector<uint32_t> members;
  for (const Group& g : groups) {
    members.clear();
    members.reserve(g.count);
    for (uint32_t pos = g.head;; pos = next[pos]) {
      members.push_back(idx[pos]);
      if (pos == g.tail) break;
    }
    // Members share the key; order them by (value, emission index) so the
    // combiner sees the same sequence a sorted bucket scan would.
    std::sort(members.begin(), members.end(),
              [&flat](uint32_t a, uint32_t b) {
                const std::string_view va = flat.value(a);
                const std::string_view vb = flat.value(b);
                if (va != vb) return va < vb;
                return a < b;
              });
    const std::string_view key = flat.key(members.front());
    if (flat_combine) {
      combiner->ReduceFlat(key, KvRange(flat, members), &combine_out);
    } else {
      combiner->Reduce(scratch.KeyFor(key),
                       scratch.Fill(KvRange(flat, members)), &combine_out);
    }
  }
  // One sorted materialization of the (combined, smaller) output.
  FlatKvBuffer combined = combine_out.TakeFlat();
  return combined.SortedCopy();
}

}  // namespace

// ---------------------------------------------------------------------------
// Internal task/run state
// ---------------------------------------------------------------------------

struct JobRunner::MapTaskState {
  TaskId id = 0;
  int64_t index = 0;  // Position in RunState::maps.
  // Input slice.
  const DfsFile* file = nullptr;
  int64_t record_begin = 0;
  int64_t record_end = 0;
  int64_t input_bytes = 0;
  std::vector<NodeId> replica_nodes;
  SourceId source = 0;
  PaneId pane = kInvalidPane;

  TaskState state = TaskState::kPending;
  NodeId node = kInvalidNode;
  int32_t attempt = 0;
  /// When this attempt became schedulable (job startup done, or re-queue).
  SimTime ready_at = 0.0;
  TaskTiming timing;
  /// Speculative backup attempt, if launched (kInvalidNode = none).
  NodeId backup_node = kInvalidNode;
  TaskId backup_id = 0;
  SimDuration nominal_duration = 0.0;
  /// Straggler draw for the current attempt, consumed at Start (before any
  /// offload) so the RNG stream is thread-count invariant.
  double straggler_factor = 1.0;
  /// Partitioned, sorted map output: one flat bucket per reduce partition.
  /// Published once per attempt as an immutable shared payload — in-flight
  /// reduce closures hold their own reference, so a failure-triggered
  /// re-run can never mutate data a worker thread is still merging.
  std::shared_ptr<const std::vector<FlatKvBuffer>> buckets;
  std::vector<int64_t> bucket_bytes;
  int64_t output_records = 0;
  int64_t output_bytes = 0;
};

/// Everything a map payload produces: computed off the simulator thread
/// (or inline at threads=1) from immutable inputs only.
struct JobRunner::MapPayloadResult {
  std::shared_ptr<const std::vector<FlatKvBuffer>> buckets;
  std::vector<int64_t> bucket_bytes;
  int64_t output_records = 0;  // Pre-combine, sizing the sort charge.
  int64_t output_bytes = 0;    // Pre-combine.
};

/// Everything a reduce payload produces. Pane merges come out in
/// runs_by_pane (source, pane) map order — deterministic — with empty
/// merges already skipped, mirroring the seed's inline loop.
struct JobRunner::ReducePayloadResult {
  std::shared_ptr<const FlatKvBuffer> output;
  int64_t output_bytes = 0;
  struct PaneMerge {
    SourceId source = 0;
    PaneId pane = kInvalidPane;
    std::shared_ptr<const FlatKvBuffer> payload;
    int64_t bytes = 0;
    int64_t records = 0;
  };
  std::vector<PaneMerge> pane_merges;
};

struct JobRunner::ReduceTaskState {
  TaskId id = 0;
  int32_t partition = 0;
  std::vector<ReduceSideInput> side_inputs;
  NodeId preferred_node = kInvalidNode;
  /// Explicit-task fields (pane-pair jobs): skip the shuffle, use a
  /// per-task output cache name, carry pane labels.
  bool is_explicit = false;
  std::string output_cache_name;
  PaneId label_left = kInvalidPane;
  PaneId label_right = kInvalidPane;

  TaskState state = TaskState::kPending;
  NodeId node = kInvalidNode;
  int32_t attempt = 0;
  /// When this attempt became schedulable (map barrier lift, or re-queue).
  SimTime ready_at = 0.0;
  TaskTiming timing;
  /// Speculative backup attempt, if launched (kInvalidNode = none).
  NodeId backup_node = kInvalidNode;
  TaskId backup_id = 0;
  SimDuration nominal_duration = 0.0;
  /// Straggler draw for the current attempt (see MapTaskState).
  double straggler_factor = 1.0;
  /// Shared so output caches and the job result alias it instead of
  /// deep-copying every pair.
  std::shared_ptr<const FlatKvBuffer> output;
  std::vector<MaterializedCache> caches;
};

struct JobRunner::RunState {
  const JobSpec* spec = nullptr;
  std::shared_ptr<const Partitioner> partitioner;
  JobResult result;
  std::vector<std::unique_ptr<MapTaskState>> maps;
  std::vector<std::unique_ptr<ReduceTaskState>> reduces;
  int64_t maps_completed = 0;
  int64_t reduces_completed = 0;
  /// Per-reduce-partition total of completed map bucket bytes, maintained
  /// incrementally as maps finish (and rolled back when a completed map's
  /// output is lost to a node failure). Replaces the O(maps × reduces)
  /// rescan the scheduling loop used to pay per placement decision.
  std::vector<int64_t> partition_shuffle_bytes;
  bool reduces_unlocked = false;  // Set once all maps are done.
  bool finished = false;
  Status failure;  // First fatal error.
  SimTime first_map_start = -1.0;
  SimTime last_map_finish = 0.0;
  /// (node, cache name) pairs already read during this job: repeat reads on
  /// the same node hit the OS page cache and are charged only latency.
  std::set<std::pair<NodeId, std::string>> warm_reads;
  /// Weak self-reference so scheduled events can keep the state alive past
  /// the Run() call (stale completions are then safely ignored).
  std::weak_ptr<RunState> self;
  /// One waiter per offloaded payload. Run() drains these before
  /// returning so no worker thread still references the spec, the DFS, or
  /// the user functions once the caller regains control — including
  /// payloads whose join event went stale (failed/re-issued attempts).
  std::vector<std::function<void()>> pending_payloads;
};

// ---------------------------------------------------------------------------
// Construction / failure listener
// ---------------------------------------------------------------------------

JobRunner::JobRunner(Cluster* cluster, TaskScheduler* scheduler,
                     JobRunnerOptions options)
    : cluster_(cluster),
      scheduler_(scheduler),
      options_(options),
      scope_(options.telemetry != nullptr ? *options.telemetry
                                          : obs::TelemetryScope(options.obs)),
      random_(options.seed) {
  REDOOP_CHECK(cluster_ != nullptr);
  REDOOP_CHECK(scheduler_ != nullptr);
  if (options_.executor != nullptr) {
    executor_ = options_.executor;
  } else {
    const int32_t threads = options_.threads == 0
                                ? exec::TaskExecutor::DefaultThreadCount()
                                : options_.threads;
    if (threads > 1) {
      owned_executor_ = std::make_unique<exec::TaskExecutor>(threads);
      executor_ = owned_executor_.get();
    }
  }
  cluster_->AddFailureListener(
      [this](NodeId node, const std::vector<std::string>& lost) {
        (void)lost;
        OnNodeFailure(node);
      });
}

JobRunner::~JobRunner() = default;

// ---------------------------------------------------------------------------
// Task construction
// ---------------------------------------------------------------------------

void JobRunner::BuildMapTasks(const JobSpec& spec, RunState* run) {
  for (const MapInput& input : spec.map_inputs) {
    auto file_or = cluster_->dfs().GetFile(input.file_name);
    if (!file_or.ok()) {
      run->failure = file_or.status();
      return;
    }
    const DfsFile* file = *file_or;
    const int64_t file_records = file->record_count();
    const int64_t begin = std::max<int64_t>(0, input.record_begin);
    const int64_t end = input.record_end < 0
                            ? file_records
                            : std::min(input.record_end, file_records);
    if (begin >= end) continue;  // Empty slice: nothing to map.
    // One map task per HDFS block overlapping the requested slice
    // (Hadoop: one map per input split).
    for (const Block& block : file->blocks) {
      const int64_t slice_begin = std::max(begin, block.record_begin);
      const int64_t slice_end = std::min(end, block.record_end);
      if (slice_begin >= slice_end) continue;
      auto task = std::make_unique<MapTaskState>();
      task->id = next_task_id_++;
      task->index = static_cast<int64_t>(run->maps.size());
      task->file = file;
      task->record_begin = slice_begin;
      task->record_end = slice_end;
      const std::vector<Record>& rows = file->rows();
      for (int64_t r = slice_begin; r < slice_end; ++r) {
        task->input_bytes += rows[static_cast<size_t>(r)].logical_bytes;
      }
      task->replica_nodes = block.replicas;
      task->source = input.source;
      task->pane = input.pane;
      bool any_replica_alive = false;
      for (NodeId n : task->replica_nodes) {
        if (cluster_->node(n).alive()) any_replica_alive = true;
      }
      if (!any_replica_alive) {
        run->failure = Status::Unavailable(StringPrintf(
            "block %ld of %s has no live replica", block.id,
            file->name.c_str()));
        return;
      }
      run->maps.push_back(std::move(task));
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduling loop
// ---------------------------------------------------------------------------

void JobRunner::TryScheduleTasks(RunState* run) {
  if (run->finished) return;
  // Maps first (FIFO over pending tasks).
  for (auto& task : run->maps) {
    if (task->state != TaskState::kPending) continue;
    MapPlacementRequest request;
    request.replica_nodes = task->replica_nodes;
    request.source = task->source;
    request.pane = task->pane;
    request.input_bytes = task->input_bytes;
    const NodeId node = scheduler_->SelectNodeForMap(request, *cluster_);
    if (node == kInvalidNode) break;  // No free map slots anywhere.
    StartMapTask(run, task.get(), node);
  }
  // Reduces once the map barrier lifted.
  if (!run->reduces_unlocked) return;
  for (auto& task : run->reduces) {
    if (task->state != TaskState::kPending) continue;
    ReducePlacementRequest request;
    request.partition = task->partition;
    request.side_inputs = task->side_inputs;
    request.preferred_node = task->preferred_node;
    request.shuffle_bytes =
        run->partition_shuffle_bytes[static_cast<size_t>(task->partition)];
    const NodeId node = scheduler_->SelectNodeForReduce(request, *cluster_);
    if (node == kInvalidNode) break;  // No free reduce slots anywhere.
    StartReduceTask(run, task.get(), node);
  }
}

// ---------------------------------------------------------------------------
// Map execution
// ---------------------------------------------------------------------------

void JobRunner::StartMapTask(RunState* run, MapTaskState* task, NodeId node) {
  TaskNode& n = cluster_->node(node);
  REDOOP_CHECK(n.AcquireMapSlot()) << "scheduler chose node without slot";
  task->state = TaskState::kRunning;
  task->node = node;
  task->timing = TaskTiming();
  task->timing.ready_at = task->ready_at;
  task->timing.scheduled_at = cluster_->simulator().Now();
  if (run->first_map_start < 0) {
    run->first_map_start = task->timing.scheduled_at;
  }
  if (scope_.active()) {
    obs::Event& e =
        scope_.EmitAt(task->timing.scheduled_at, obs::event::kTaskStart)
            .With("kind", "map")
            .With("task", task->id)
            .With("node", node)
            .With("source", task->source)
            .With("pane", task->pane)
            .With("attempt", task->attempt)
            .With("wait", task->timing.SlotWait());
    StampTaskContext(task->id, task->attempt, &e);
  }

  const CostModel& cost = cluster_->cost_model();
  const JobSpec& spec = *run->spec;

  // Per-source mapper override first (e.g. join-side tagging).
  const Mapper* mapper = spec.config.mapper.get();
  auto override_it = spec.per_source_mappers.find(task->source);
  if (override_it != spec.per_source_mappers.end()) {
    mapper = override_it->second.get();
  }
  const int32_t num_partitions = spec.config.num_reducers;

  // Everything start-known is charged and journaled now, before the
  // payload runs: locality, the DFS read, the input-sized phases, and the
  // straggler draw. Result-dependent phases land in InstallMapResult.
  const bool local = std::find(task->replica_nodes.begin(),
                               task->replica_nodes.end(),
                               node) != task->replica_nodes.end();
  if (scope_.active()) {
    scope_.Increment(
        local ? obs::metric::kDfsReadLocalBytes
              : obs::metric::kDfsReadRemoteBytes,
        task->input_bytes);
    scope_.EmitAt(cluster_->simulator().Now(), obs::event::kDfsRead)
        .With("file", task->file->name)
        .With("node", node)
        .With("task", task->id)
        .With("bytes", task->input_bytes)
        .With("source", task->source)
        .With("pane", task->pane)
        .With("locality", local ? "local" : "remote");
  }
  task->timing.startup = cost.TaskStartupTime();
  task->timing.read = local ? cost.LocalReadTime(task->input_bytes)
                            : cost.RemoteReadTime(task->input_bytes);
  task->straggler_factor = DrawStragglerFactor();

  // The payload closure is pure: it captures only immutable inputs (DFS
  // records, stateless user functions) and returns fresh data. Which
  // thread runs it — and when, in host time — is unobservable.
  auto payload = [file = task->file, begin = task->record_begin,
                  end = task->record_end, mapper,
                  combiner = spec.config.combiner,
                  partitioner = run->partitioner, num_partitions] {
    return ExecuteMapPayload(file, begin, end, mapper, combiner.get(),
                             partitioner.get(), num_partitions);
  };
  if (executor_ == nullptr) {
    InstallMapResult(run, task, payload());
    return;
  }
  auto future = executor_->Submit(std::move(payload));
  run->pending_payloads.push_back([future]() mutable { future.Wait(); });
  // Join point: installs at the same virtual instant, in submission
  // order, after every event already queued for this instant — exactly
  // where the inline result would have been consumed.
  const TaskId id = task->id;
  std::shared_ptr<RunState> keepalive = run->self.lock();
  cluster_->simulator().ScheduleJoin([this, keepalive, task, id,
                                      future]() mutable {
    RunState* run = keepalive.get();
    if (run->finished || run != active_run_ ||
        task->state != TaskState::kRunning || task->id != id) {
      return;  // Attempt failed/re-issued before the join fired.
    }
    InstallMapResult(run, task, future.Take());
  });
}

JobRunner::MapPayloadResult JobRunner::ExecuteMapPayload(
    const DfsFile* file, int64_t record_begin, int64_t record_end,
    const Mapper* mapper, const Reducer* combiner,
    const Partitioner* partitioner, int32_t num_partitions) {
  MapPayloadResult out;
  MapContext context;
  // Most mappers emit about one pair per record. The final buckets are
  // exact-size copies, so nothing over-reserved here outlives the task.
  context.Reserve(static_cast<size_t>(record_end - record_begin));
  const std::vector<Record>& rows = file->rows();  // Decoded once, memoized.
  for (int64_t r = record_begin; r < record_end; ++r) {
    mapper->Map(rows[static_cast<size_t>(r)], &context);
  }
  // Partition by slice, straight off the arena: the key never leaves the
  // flat buffer, each partition collects pair indices, and the bytes are
  // copied exactly once — into their sorted (or combined) bucket.
  const FlatKvBuffer& output = context.flat();
  out.output_records = static_cast<int64_t>(output.size());
  out.output_bytes = output.total_logical_bytes();
  std::vector<uint32_t> pair_partition(output.size());
  std::vector<size_t> partition_counts(static_cast<size_t>(num_partitions), 0);
  for (size_t i = 0; i < output.size(); ++i) {
    const int32_t p = partitioner->Partition(output.key(i), num_partitions);
    pair_partition[i] = static_cast<uint32_t>(p);
    ++partition_counts[static_cast<size_t>(p)];
  }
  std::vector<std::vector<uint32_t>> partition_indices(
      static_cast<size_t>(num_partitions));
  for (size_t p = 0; p < partition_indices.size(); ++p) {
    partition_indices[p].reserve(partition_counts[p]);
  }
  for (size_t i = 0; i < output.size(); ++i) {
    partition_indices[pair_partition[i]].push_back(static_cast<uint32_t>(i));
  }

  std::vector<FlatKvBuffer> buckets(static_cast<size_t>(num_partitions));
  out.bucket_bytes.assign(static_cast<size_t>(num_partitions), 0);
  for (size_t p = 0; p < buckets.size(); ++p) {
    std::vector<uint32_t>& idx = partition_indices[p];
    if (combiner != nullptr) {
      // Map-side combine: key groups collapse before the spill/shuffle via
      // a hash table over the raw pairs — only the combined output is
      // sorted. The sort is charged on the pre-combine volume; everything
      // downstream (spill, shuffle, reduce) sees the combined one.
      buckets[p] = CombinePartition(output, idx, combiner);
    } else {
      SortSliceIndices(output, &idx);
      size_t bytes = 0;
      for (uint32_t i : idx) {
        bytes += output.key(i).size() + output.value(i).size();
      }
      FlatKvBuffer bucket;
      bucket.Reserve(idx.size());
      bucket.ReserveBytes(bytes);
      for (uint32_t i : idx) bucket.AppendFrom(output, i);
      buckets[p] = std::move(bucket);
    }
    out.bucket_bytes[p] = buckets[p].total_logical_bytes();
  }
  out.buckets =
      std::make_shared<const std::vector<FlatKvBuffer>>(std::move(buckets));
  return out;
}

void JobRunner::InstallMapResult(RunState* run, MapTaskState* task,
                                 MapPayloadResult result) {
  const CostModel& cost = cluster_->cost_model();
  const JobSpec& spec = *run->spec;
  task->buckets = std::move(result.buckets);
  task->bucket_bytes = std::move(result.bucket_bytes);
  task->output_records = result.output_records;
  task->output_bytes = result.output_bytes;

  int64_t spilled_bytes = 0;
  for (int64_t b : task->bucket_bytes) spilled_bytes += b;
  task->timing.compute = cost.MapComputeTime(task->input_bytes);
  if (spec.config.combiner != nullptr) {
    // The combiner scans the full pre-combine output once.
    task->timing.compute += cost.ReduceComputeTime(task->output_bytes);
  }
  task->timing.sort = cost.SortTime(task->output_bytes, task->output_records);
  task->timing.write = cost.LocalWriteTime(spilled_bytes);
  const SimDuration duration =
      ArmAttempt(run, task, task->timing.Total(), /*is_map=*/true);

  // Capture the run state by shared_ptr: a stale completion event (for an
  // attempt that was failed and re-issued) may fire after the job returned.
  const TaskId id = task->id;
  std::shared_ptr<RunState> keepalive = run->self.lock();
  cluster_->simulator().Schedule(duration, [this, keepalive, task, id] {
    RunState* run = keepalive.get();
    if (run->finished || run != active_run_ ||
        task->state != TaskState::kRunning || task->id != id) {
      return;
    }
    FinishMapTask(run, task, task->node);
  });
}

void JobRunner::FinishMapTask(RunState* run, MapTaskState* task,
                              NodeId winner_node) {
  task->state = TaskState::kCompleted;
  task->timing.finished_at = cluster_->simulator().Now();
  // Release the primary's slot and kill the speculative backup, if any
  // (whichever of the two finished first is the winner).
  if (cluster_->node(task->node).alive()) {
    cluster_->node(task->node).ReleaseMapSlot();
  }
  if (task->backup_node != kInvalidNode) {
    if (cluster_->node(task->backup_node).alive()) {
      cluster_->node(task->backup_node).ReleaseMapSlot();
    }
    task->backup_node = kInvalidNode;
    task->backup_id = 0;
  }
  task->node = winner_node;  // Map outputs live with the winner.
  run->last_map_finish =
      std::max(run->last_map_finish, task->timing.finished_at);
  ++run->maps_completed;
  for (size_t p = 0; p < task->bucket_bytes.size(); ++p) {
    run->partition_shuffle_bytes[p] += task->bucket_bytes[p];
  }

  TaskReport report;
  report.id = task->id;
  report.type = TaskType::kMap;
  report.node = task->node;
  report.source = task->source;
  report.pane = task->pane;
  report.attempt = task->attempt;
  report.timing = task->timing;
  run->result.task_reports.push_back(report);

  Counters& c = run->result.counters;
  c.Increment(counter::kMapTasks);
  c.Increment(counter::kMapInputRecords, task->record_end - task->record_begin);
  c.Increment(counter::kMapInputBytes, task->input_bytes);
  c.Increment(counter::kMapOutputRecords, task->output_records);
  c.Increment(counter::kMapOutputBytes, task->output_bytes);
  c.Increment(counter::kHdfsReadBytes, task->input_bytes);

  if (scope_.active()) {
    scope_.Increment(obs::metric::kTasksMap);
    scope_.Record(
        obs::metric::kTaskMapDuration,
        report.timing.finished_at - report.timing.scheduled_at);
    scope_.EmitAt(report.timing.finished_at, obs::event::kTaskFinish)
        .With("kind", "map")
        .With("task", report.id)
        .With("node", report.node)
        .With("source", report.source)
        .With("pane", report.pane)
        .With("attempt", report.attempt)
        .With("start", report.timing.scheduled_at)
        .With("duration", report.timing.finished_at -
                              report.timing.scheduled_at)
        .With("bytes", task->input_bytes)
        .With("wait", report.timing.SlotWait())
        .With("startup", report.timing.startup)
        .With("read", report.timing.read)
        .With("sort", report.timing.sort)
        .With("compute", report.timing.compute)
        .With("write", report.timing.write);
  }

  if (AllMapsDone(*run) && !run->reduces_unlocked) {
    run->reduces_unlocked = true;
    // The barrier lifted: every pending reduce becomes schedulable now.
    for (auto& reduce : run->reduces) {
      if (reduce->state == TaskState::kPending) {
        reduce->ready_at = cluster_->simulator().Now();
      }
    }
  }
  TryScheduleTasks(run);
  MaybeFinishJob(run);
}

bool JobRunner::AllMapsDone(const RunState& run) const {
  return run.maps_completed == static_cast<int64_t>(run.maps.size());
}

// ---------------------------------------------------------------------------
// Reduce execution
// ---------------------------------------------------------------------------

void JobRunner::StartReduceTask(RunState* run, ReduceTaskState* task,
                                NodeId node) {
  TaskNode& n = cluster_->node(node);
  REDOOP_CHECK(n.AcquireReduceSlot()) << "scheduler chose node without slot";
  task->state = TaskState::kRunning;
  task->node = node;
  task->timing = TaskTiming();
  task->timing.ready_at = task->ready_at;
  task->timing.scheduled_at = cluster_->simulator().Now();
  task->output.reset();
  task->caches.clear();
  if (scope_.active()) {
    obs::Event& e =
        scope_.EmitAt(task->timing.scheduled_at, obs::event::kTaskStart)
            .With("kind", "reduce")
            .With("task", task->id)
            .With("node", node)
            .With("partition", task->partition)
            .With("attempt", task->attempt)
            .With("wait", task->timing.SlotWait());
    StampTaskContext(task->id, task->attempt, &e);
  }

  const CostModel& cost = cluster_->cost_model();
  const JobSpec& spec = *run->spec;
  Counters& counters = run->result.counters;
  const int32_t partition = task->partition;

  task->timing.startup = cost.TaskStartupTime();

  // ---- Shuffle: view this partition's sorted bucket from every map
  // output. The buckets are collected as zero-copy runs for the k-way
  // merge below; nothing is concatenated or re-sorted. ----
  int64_t new_bytes = 0;
  int64_t new_records = 0;
  std::vector<const FlatKvBuffer*> runs;
  // (source, pane) -> this partition's sorted bucket runs, for
  // reduce-input caching.
  std::map<std::pair<SourceId, PaneId>, std::vector<const FlatKvBuffer*>>
      runs_by_pane;
  for (const auto& map : run->maps) {
    REDOOP_CHECK(map->state == TaskState::kCompleted);
    const FlatKvBuffer& bucket = (*map->buckets)[static_cast<size_t>(partition)];
    if (bucket.empty()) continue;
    const int64_t bytes = map->bucket_bytes[static_cast<size_t>(partition)];
    new_bytes += bytes;
    new_records += static_cast<int64_t>(bucket.size());
    if (map->node == node) {
      task->timing.shuffle += cost.LocalReadTime(bytes);
      counters.Increment(counter::kShuffleLocalBytes, bytes);
    } else {
      task->timing.shuffle += cost.LocalReadTime(bytes) + cost.TransferTime(bytes);
      counters.Increment(counter::kShuffleRemoteBytes, bytes);
    }
    runs.push_back(&bucket);
    if (spec.cache.cache_reduce_input) {
      runs_by_pane[{map->source, map->pane}].push_back(&bucket);
    }
  }

  // ---- Cached side inputs (reduce input caches from prior recurrences). --
  // A cache already read on this node during this job (e.g. a new pane
  // joined against many partners by co-located pane-pair tasks) stays in
  // the OS page cache; repeat reads pay only the access latency. This is
  // optimistic for tasks running concurrently with the first reader, but
  // the savings shape is right.
  int64_t cached_bytes = 0;
  int64_t cached_records = 0;
  // Cached payloads are materialized sorted (they are merge outputs), so
  // they join the merge as runs directly. The sorted-copy fallback guards
  // against exotic caches (e.g. a multi-emission reducer's output cache
  // fed back as a side input); the deque keeps earlier pointers stable.
  std::deque<FlatKvBuffer> resort_scratch;
  for (const ReduceSideInput& side : task->side_inputs) {
    REDOOP_CHECK(side.partition == partition);
    REDOOP_CHECK(side.payload != nullptr);
    const bool warm = !run->warm_reads.insert({node, side.cache_name}).second;
    if (warm) {
      task->timing.read += cost.options().disk_seek_s;
    } else if (side.location == node) {
      task->timing.read += cost.LocalReadTime(side.bytes);
      counters.Increment(counter::kCacheReadLocalBytes, side.bytes);
      if (scope_.active()) {
        scope_.Increment(obs::metric::kCacheReadLocalBytes,
                                          side.bytes);
      }
    } else {
      task->timing.read += cost.RemoteReadTime(side.bytes);
      counters.Increment(counter::kCacheReadRemoteBytes, side.bytes);
      if (scope_.active()) {
        scope_.Increment(obs::metric::kCacheReadRemoteBytes,
                                          side.bytes);
      }
    }
    cached_bytes += side.bytes;
    cached_records += side.records;
    if (side.payload->IsSorted()) {
      runs.push_back(side.payload.get());
    } else {
      resort_scratch.push_back(side.payload->SortedCopy());
      runs.push_back(&resort_scratch.back());
    }
  }

  // ---- Sort / merge charges. The *simulated* charge is start-known:
  // newly shuffled data pays a full sort plus the merge spill to local
  // disk (Hadoop reducers materialize their merged input before reducing);
  // cached runs are already sorted per pane and only pay a linear merge
  // pass. The *host* does what the charge models — one k-way merge of the
  // sorted runs instead of a concat + full re-sort — inside the payload
  // below. ----
  task->timing.sort = cost.SortTime(new_bytes, new_records) +
                      cost.options().sort_factor *
                          static_cast<double>(cached_bytes);
  const SimDuration merge_spill = cost.LocalWriteTime(new_bytes);
  const int64_t total_input_bytes = new_bytes + cached_bytes;
  task->timing.compute = cost.ReduceComputeTime(total_input_bytes);
  counters.Increment(counter::kReduceInputRecords,
                     new_records + cached_records);
  counters.Increment(counter::kReduceInputBytes, total_input_bytes);
  task->straggler_factor = DrawStragglerFactor();

  // Keep every run's backing storage alive (and immutable) for the
  // payload's lifetime: map buckets are publish-once shared payloads (a
  // failure-triggered re-run installs a fresh vector, never mutates this
  // one), side inputs are shared cache payloads, and the resort scratch
  // moves into the closure (deque moves preserve element addresses, so
  // the pointers stay valid).
  std::vector<std::shared_ptr<const std::vector<FlatKvBuffer>>> bucket_refs;
  bucket_refs.reserve(run->maps.size());
  for (const auto& map : run->maps) bucket_refs.push_back(map->buckets);
  std::vector<std::shared_ptr<const FlatKvBuffer>> side_refs;
  side_refs.reserve(task->side_inputs.size());
  for (const ReduceSideInput& side : task->side_inputs) {
    side_refs.push_back(side.payload);
  }

  // The payload is pure: merge, group, user reduce, per-pane cache merges.
  // All shared-state accounting (counters, warm reads, journal) already
  // happened above; naming the caches and charging write costs happens at
  // install, on the simulator thread.
  auto payload = [runs = std::move(runs),
                  runs_by_pane = std::move(runs_by_pane),
                  scratch = std::move(resort_scratch),
                  bucket_refs = std::move(bucket_refs),
                  side_refs = std::move(side_refs),
                  reducer = spec.config.reducer] {
    ReducePayloadResult out;
    const FlatKvBuffer input = MergeFlatRuns(runs);
    // Grouping + user reduce calls: each key group is a zero-copy view
    // into the merged flat input. Reducers that opt into the flat surface
    // never see a per-pair string; the classic interface gets its groups
    // materialized into reusable scratch.
    ReduceContext context;
    KvGroupScratch group_scratch;
    const bool flat_reduce = reducer->PrefersFlatInput();
    size_t i = 0;
    while (i < input.size()) {
      const std::string_view group_key = input.key(i);
      size_t j = i;
      while (j < input.size() && input.key(j) == group_key) ++j;
      if (flat_reduce) {
        reducer->ReduceFlat(group_key, KvRange(input, i, j), &context);
      } else {
        reducer->Reduce(group_scratch.KeyFor(group_key),
                        group_scratch.Fill(KvRange(input, i, j)), &context);
      }
      i = j;
    }
    out.output = std::make_shared<const FlatKvBuffer>(context.TakeFlat());
    out.output_bytes = out.output->total_logical_bytes();
    for (const auto& [key, pane_runs] : runs_by_pane) {
      // Each pane's cache is the merge of that pane's sorted map buckets —
      // the same k-way kernel, never a re-sort.
      FlatKvBuffer pairs = MergeFlatRuns(pane_runs);
      if (pairs.empty()) continue;
      ReducePayloadResult::PaneMerge merge;
      merge.source = key.first;
      merge.pane = key.second;
      merge.bytes = pairs.total_logical_bytes();
      merge.records = static_cast<int64_t>(pairs.size());
      merge.payload =
          std::make_shared<const FlatKvBuffer>(std::move(pairs));
      out.pane_merges.push_back(std::move(merge));
    }
    return out;
  };
  if (executor_ == nullptr) {
    InstallReduceResult(run, task, merge_spill, payload());
    return;
  }
  auto future = executor_->Submit(std::move(payload));
  run->pending_payloads.push_back([future]() mutable { future.Wait(); });
  const TaskId id = task->id;
  std::shared_ptr<RunState> keepalive = run->self.lock();
  cluster_->simulator().ScheduleJoin([this, keepalive, task, id, merge_spill,
                                      future]() mutable {
    RunState* run = keepalive.get();
    if (run->finished || run != active_run_ ||
        task->state != TaskState::kRunning || task->id != id) {
      return;  // Attempt failed/re-issued before the join fired.
    }
    InstallReduceResult(run, task, merge_spill, future.Take());
  });
}

void JobRunner::InstallReduceResult(RunState* run, ReduceTaskState* task,
                                    SimDuration merge_spill,
                                    ReducePayloadResult result) {
  const CostModel& cost = cluster_->cost_model();
  const JobSpec& spec = *run->spec;
  Counters& counters = run->result.counters;
  const int32_t partition = task->partition;
  const NodeId node = task->node;

  task->output = std::move(result.output);
  const int64_t output_bytes = result.output_bytes;

  // ---- Writes: reduce-output cache and HDFS output. Reduce-input caches
  // are the merge spill *kept* instead of deleted (paper §4: caching the
  // shuffled, sorted reducer input), so they add no write cost beyond the
  // spill already charged at start. ----
  int64_t write_bytes = output_bytes;  // Plain local materialization.
  if (spec.cache.cache_reduce_input) {
    REDOOP_CHECK(spec.cache.input_cache_name != nullptr);
    for (ReducePayloadResult::PaneMerge& merge : result.pane_merges) {
      MaterializedCache cache;
      cache.name =
          spec.cache.input_cache_name(merge.source, merge.pane, partition);
      cache.node = node;
      cache.partition = partition;
      cache.source = merge.source;
      cache.pane = merge.pane;
      cache.is_reduce_output = false;
      cache.bytes = merge.bytes;
      cache.records = merge.records;
      cache.payload = std::move(merge.payload);
      counters.Increment(counter::kCacheWriteBytes, cache.bytes);
      task->caches.push_back(std::move(cache));
    }
  }
  if (task->is_explicit && !task->output_cache_name.empty()) {
    // Explicit (pane-pair) tasks materialize their output cache even when
    // empty, so "pair done with empty result" is distinguishable from
    // "pair output lost" during window assembly.
    MaterializedCache cache;
    cache.name = task->output_cache_name;
    cache.node = node;
    cache.partition = partition;
    cache.pane = task->label_left;
    cache.pane_right = task->label_right;
    cache.is_reduce_output = true;
    cache.bytes = output_bytes;
    cache.records = static_cast<int64_t>(task->output->size());
    cache.payload = task->output;  // Shared with the job result, not copied.
    write_bytes += cache.bytes;
    counters.Increment(counter::kCacheWriteBytes, cache.bytes);
    task->caches.push_back(std::move(cache));
  } else if (spec.cache.cache_reduce_output && !task->output->empty()) {
    REDOOP_CHECK(spec.cache.output_cache_name != nullptr);
    MaterializedCache cache;
    cache.name = spec.cache.output_cache_name(partition);
    cache.node = node;
    cache.partition = partition;
    cache.is_reduce_output = true;
    cache.bytes = output_bytes;
    cache.records = static_cast<int64_t>(task->output->size());
    cache.payload = task->output;  // Shared with the job result, not copied.
    write_bytes += cache.bytes;
    counters.Increment(counter::kCacheWriteBytes, cache.bytes);
    task->caches.push_back(std::move(cache));
  }
  task->timing.write = merge_spill + cost.LocalWriteTime(write_bytes);
  if (!spec.output_prefix.empty()) {
    task->timing.write += cost.HdfsWriteTime(output_bytes);
    counters.Increment(counter::kHdfsWriteBytes, output_bytes);
  }

  counters.Increment(counter::kReduceOutputRecords,
                     static_cast<int64_t>(task->output->size()));
  counters.Increment(counter::kReduceOutputBytes, output_bytes);

  const SimDuration duration =
      ArmAttempt(run, task, task->timing.Total(), /*is_map=*/false);
  const TaskId id = task->id;
  std::shared_ptr<RunState> keepalive = run->self.lock();
  cluster_->simulator().Schedule(duration, [this, keepalive, task, id] {
    RunState* run = keepalive.get();
    if (run->finished || run != active_run_ ||
        task->state != TaskState::kRunning || task->id != id) {
      return;
    }
    FinishReduceTask(run, task, task->node);
  });
}

void JobRunner::FinishReduceTask(RunState* run, ReduceTaskState* task,
                                 NodeId winner_node) {
  task->state = TaskState::kCompleted;
  task->timing.finished_at = cluster_->simulator().Now();
  if (cluster_->node(task->node).alive()) {
    cluster_->node(task->node).ReleaseReduceSlot();
  }
  if (task->backup_node != kInvalidNode) {
    if (cluster_->node(task->backup_node).alive()) {
      cluster_->node(task->backup_node).ReleaseReduceSlot();
    }
    task->backup_node = kInvalidNode;
    task->backup_id = 0;
  }
  task->node = winner_node;  // Caches/outputs live with the winner.
  ++run->reduces_completed;

  // Register cache files on the node's local FS so capacity/locality and
  // later failure injection see them. A full disk triggers on-demand
  // purging (paper §4.1); a cache that still does not fit is reported as
  // such, for the Redoop layer to roll back.
  for (MaterializedCache& cache : task->caches) {
    cache.node = task->node;
    TaskNode& n = cluster_->node(task->node);
    bool stored = n.PutLocalFile(cache.name, cache.bytes);
    if (!stored && disk_full_handler_ != nullptr) {
      disk_full_handler_(task->node, cache.bytes);
      stored = n.PutLocalFile(cache.name, cache.bytes);
    }
    cache.local_fs_full = !stored;
  }

  TaskReport report;
  report.id = task->id;
  report.type = TaskType::kReduce;
  report.node = task->node;
  report.partition = task->partition;
  report.attempt = task->attempt;
  report.timing = task->timing;
  run->result.task_reports.push_back(report);
  run->result.counters.Increment(counter::kReduceTasks);

  if (scope_.active()) {
    scope_.Increment(obs::metric::kTasksReduce);
    scope_.Record(
        obs::metric::kTaskReduceDuration,
        report.timing.finished_at - report.timing.scheduled_at);
    scope_.EmitAt(report.timing.finished_at, obs::event::kTaskFinish)
        .With("kind", "reduce")
        .With("task", report.id)
        .With("node", report.node)
        .With("partition", report.partition)
        .With("attempt", report.attempt)
        .With("start", report.timing.scheduled_at)
        .With("duration",
              report.timing.finished_at - report.timing.scheduled_at)
        .With("side_inputs",
              static_cast<int64_t>(task->side_inputs.size()))
        .With("wait", report.timing.SlotWait())
        .With("startup", report.timing.startup)
        .With("read", report.timing.read)
        .With("shuffle", report.timing.shuffle)
        .With("sort", report.timing.sort)
        .With("compute", report.timing.compute)
        .With("write", report.timing.write);
  }

  TryScheduleTasks(run);
  MaybeFinishJob(run);
}

// ---------------------------------------------------------------------------
// Stragglers & speculative execution
// ---------------------------------------------------------------------------

double JobRunner::DrawStragglerFactor() {
  if (options_.straggler_probability > 0.0 &&
      random_.Bernoulli(options_.straggler_probability)) {
    return options_.straggler_slowdown;
  }
  return 1.0;
}

template <typename TaskStateT>
SimDuration JobRunner::ArmAttempt(RunState* run, TaskStateT* task,
                                  SimDuration nominal_duration, bool is_map) {
  task->nominal_duration = nominal_duration;
  task->backup_node = kInvalidNode;
  task->backup_id = 0;

  // The Bernoulli draw happened at Start (DrawStragglerFactor), before any
  // payload offload: a same-instant failure can kill an attempt between
  // its start and its join, and the RNG stream must not depend on whether
  // that join still applies the factor.
  const SimDuration actual = nominal_duration * task->straggler_factor;
  if (!options_.speculative_execution) return actual;

  // Speculation check: if the attempt is still running well past its
  // nominal duration, launch a backup on any free slot; the first finisher
  // wins (Hadoop's speculative execution).
  const TaskId primary_id = task->id;
  std::shared_ptr<RunState> keepalive = run->self.lock();
  cluster_->simulator().Schedule(
      nominal_duration * options_.speculation_factor,
      [this, keepalive, task, primary_id, nominal_duration, is_map] {
        RunState* run = keepalive.get();
        if (run->finished || run != active_run_) return;
        if (task->state != TaskState::kRunning || task->id != primary_id) {
          return;  // Finished (or re-issued) before the check fired.
        }
        if (task->backup_id != 0) return;  // Already speculating.
        const NodeId node =
            scheduler_internal::LeastLoadedWithFreeSlot(*cluster_, is_map);
        if (node == kInvalidNode) return;  // No spare capacity.
        TaskNode& n = cluster_->node(node);
        const bool acquired =
            is_map ? n.AcquireMapSlot() : n.AcquireReduceSlot();
        if (!acquired) return;
        task->backup_node = node;
        task->backup_id = next_task_id_++;
        const TaskId backup_id = task->backup_id;
        if (scope_.active()) {
          scope_.Increment(obs::metric::kTaskSpeculations);
          scope_.EmitAt(cluster_->simulator().Now(),
                       obs::event::kTaskSpeculate)
              .With("kind", is_map ? "map" : "reduce")
              .With("task", primary_id)
              .With("backup_task", backup_id)
              .With("node", node);
        }
        // The backup gets a fresh straggler draw (it is most likely fast —
        // that is the whole point).
        SimDuration backup_duration = nominal_duration;
        if (options_.straggler_probability > 0.0 &&
            random_.Bernoulli(options_.straggler_probability)) {
          backup_duration = nominal_duration * options_.straggler_slowdown;
        }
        auto keepalive2 = keepalive;
        cluster_->simulator().Schedule(
            backup_duration,
            [this, keepalive2, task, primary_id, backup_id, is_map] {
              RunState* run = keepalive2.get();
              if (run->finished || run != active_run_) return;
              if (task->state != TaskState::kRunning ||
                  task->id != primary_id || task->backup_id != backup_id) {
                return;  // Primary won or attempt was re-issued.
              }
              const NodeId winner = task->backup_node;
              if constexpr (std::is_same_v<TaskStateT, MapTaskState>) {
                (void)is_map;
                FinishMapTask(run, task, winner);
              } else {
                FinishReduceTask(run, task, winner);
              }
            });
      });
  return actual;
}

// ---------------------------------------------------------------------------
// Failure handling
// ---------------------------------------------------------------------------

void JobRunner::OnNodeFailure(NodeId node) {
  RunState* run = active_run_;
  if (run == nullptr || run->finished) return;

  // Running tasks on the dead node fail and are re-queued; speculative
  // backups on the dead node simply vanish (their slot died with it).
  for (auto& task : run->maps) {
    if (task->state != TaskState::kRunning) continue;
    if (task->node == node) {
      FailTaskAttempt(run, TaskType::kMap, task->index);
    } else if (task->backup_node == node) {
      task->backup_node = kInvalidNode;
      task->backup_id = 0;
    }
  }
  for (size_t i = 0; i < run->reduces.size(); ++i) {
    auto& task = run->reduces[i];
    if (task->state != TaskState::kRunning) continue;
    if (task->node == node) {
      FailTaskAttempt(run, TaskType::kReduce, static_cast<int64_t>(i));
    } else if (task->backup_node == node) {
      task->backup_node = kInvalidNode;
      task->backup_id = 0;
    }
  }
  // Completed map outputs stored on the dead node are lost; if any reduce
  // still needs them, those maps must re-run (paper §2.2 fault tolerance:
  // "a failure of a reduce task entails retrieving the corresponding map
  // outputs again").
  const bool reduces_outstanding =
      run->reduces_completed < static_cast<int64_t>(run->reduces.size());
  if (reduces_outstanding) {
    for (auto& task : run->maps) {
      if (task->state == TaskState::kCompleted && task->node == node) {
        // The lost output's contribution to the per-partition shuffle
        // totals rolls back; the re-run adds it again on completion.
        for (size_t p = 0; p < task->bucket_bytes.size(); ++p) {
          run->partition_shuffle_bytes[p] -= task->bucket_bytes[p];
        }
        task->state = TaskState::kPending;
        task->id = next_task_id_++;
        ++task->attempt;
        task->ready_at = cluster_->simulator().Now();
        --run->maps_completed;
        run->reduces_unlocked = false;
        run->result.counters.Increment(counter::kMapTaskRetries);
      }
    }
  }
  // Input blocks may have lost replicas; if a pending map's block is now
  // completely unreadable the job fails.
  for (auto& task : run->maps) {
    if (task->state != TaskState::kPending) continue;
    bool any = false;
    for (NodeId r : task->replica_nodes) {
      if (cluster_->node(r).alive()) any = true;
    }
    if (!any) {
      run->failure = Status::Unavailable(
          StringPrintf("map input lost all replicas after node %d died", node));
      run->finished = true;
      return;
    }
  }
  TryScheduleTasks(run);
}

void JobRunner::StampTaskContext(int64_t task, int64_t attempt,
                                 obs::Event* e) const {
  const obs::trace::TraceContext* tc = scope_.trace();
  if (tc == nullptr || !tc->active() || !tc->sampled) return;
  e->With("ctx",
          tc->Child(obs::trace::TaskSpanId(tc->trace_id, task, attempt))
              .Serialize());
}

void JobRunner::FailTaskAttempt(RunState* run, TaskType type, int64_t index) {
  if (scope_.active()) {
    const bool is_map = type == TaskType::kMap;
    const auto* map_task =
        is_map ? run->maps[static_cast<size_t>(index)].get() : nullptr;
    const auto* reduce_task =
        is_map ? nullptr : run->reduces[static_cast<size_t>(index)].get();
    scope_.Increment(obs::metric::kTaskFailures);
    // The work identity (source/pane or partition) lets the trace link the
    // re-issued attempt — which gets a fresh task id — back to this
    // failure with a follows-from edge.
    obs::Event& e =
        scope_.EmitAt(cluster_->simulator().Now(), obs::event::kTaskFail)
            .With("kind", is_map ? "map" : "reduce")
            .With("task", is_map ? map_task->id : reduce_task->id)
            .With("node", is_map ? map_task->node : reduce_task->node)
            .With("attempt",
                  is_map ? map_task->attempt : reduce_task->attempt);
    if (is_map) {
      e.With("source", map_task->source).With("pane", map_task->pane);
    } else {
      e.With("partition", reduce_task->partition);
    }
  }
  if (type == TaskType::kMap) {
    MapTaskState* task = run->maps[static_cast<size_t>(index)].get();
    // Slot was already reclaimed by TaskNode::Fail(); just re-queue. A
    // live speculative backup is abandoned and its slot returned.
    if (task->backup_node != kInvalidNode) {
      if (cluster_->node(task->backup_node).alive()) {
        cluster_->node(task->backup_node).ReleaseMapSlot();
      }
      task->backup_node = kInvalidNode;
      task->backup_id = 0;
    }
    task->state = TaskState::kPending;
    task->id = next_task_id_++;
    ++task->attempt;
    task->ready_at = cluster_->simulator().Now();
    run->result.counters.Increment(counter::kMapTaskRetries);
    if (task->attempt >= options_.max_task_attempts) {
      run->failure = Status::Aborted(
          StringPrintf("map task %ld exceeded max attempts", index));
      run->finished = true;
    }
  } else {
    ReduceTaskState* task = run->reduces[static_cast<size_t>(index)].get();
    if (task->backup_node != kInvalidNode) {
      if (cluster_->node(task->backup_node).alive()) {
        cluster_->node(task->backup_node).ReleaseReduceSlot();
      }
      task->backup_node = kInvalidNode;
      task->backup_id = 0;
    }
    task->state = TaskState::kPending;
    task->id = next_task_id_++;
    ++task->attempt;
    task->ready_at = cluster_->simulator().Now();
    run->result.counters.Increment(counter::kReduceTaskRetries);
    if (task->attempt >= options_.max_task_attempts) {
      run->failure = Status::Aborted(
          StringPrintf("reduce task %ld exceeded max attempts", index));
      run->finished = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Completion
// ---------------------------------------------------------------------------

void JobRunner::MaybeFinishJob(RunState* run) {
  if (run->finished) return;
  if (!AllMapsDone(*run)) return;
  if (run->reduces_completed < static_cast<int64_t>(run->reduces.size()))
    return;
  run->finished = true;
}

JobResult JobRunner::Run(const JobSpec& spec) {
  REDOOP_CHECK(active_run_ == nullptr) << "JobRunner is not reentrant";
  REDOOP_CHECK(spec.config.num_reducers > 0);
  REDOOP_CHECK(spec.config.reducer != nullptr);
  REDOOP_CHECK(spec.map_inputs.empty() || spec.config.mapper != nullptr);

  auto run_owner = std::make_shared<RunState>();
  RunState& run = *run_owner;
  run.self = run_owner;
  run.spec = &spec;
  run.partition_shuffle_bytes.assign(
      static_cast<size_t>(spec.config.num_reducers), 0);
  run.partitioner = spec.config.partitioner
                        ? spec.config.partitioner
                        : std::make_shared<const HashPartitioner>();
  run.result.submitted_at = cluster_->simulator().Now();
  active_run_ = &run;

  BuildMapTasks(spec, &run);
  if (!run.failure.ok()) {
    active_run_ = nullptr;
    run.result.status = run.failure;
    run.result.finished_at = cluster_->simulator().Now();
    return std::move(run.result);
  }

  // Build reduce tasks: either the standard one-per-partition phase or the
  // explicit task list (pane-pair jobs).
  if (!spec.explicit_reduce_tasks.empty()) {
    REDOOP_CHECK(spec.map_inputs.empty())
        << "explicit reduce tasks cannot be combined with map inputs";
    REDOOP_CHECK(spec.side_inputs.empty())
        << "explicit reduce tasks carry their own side inputs";
    for (const ExplicitReduceTask& explicit_task :
         spec.explicit_reduce_tasks) {
      auto task = std::make_unique<ReduceTaskState>();
      task->id = next_task_id_++;
      task->partition = explicit_task.partition;
      task->side_inputs = explicit_task.side_inputs;
      task->is_explicit = true;
      task->output_cache_name = explicit_task.output_cache_name;
      task->label_left = explicit_task.label_left;
      task->label_right = explicit_task.label_right;
      task->preferred_node = explicit_task.preferred_node;
      run.reduces.push_back(std::move(task));
    }
  } else {
    for (int32_t p = 0; p < spec.config.num_reducers; ++p) {
      if (!spec.active_partitions.empty() &&
          std::find(spec.active_partitions.begin(),
                    spec.active_partitions.end(),
                    p) == spec.active_partitions.end()) {
        continue;  // Partition filtered out (cache-rebuild job).
      }
      auto task = std::make_unique<ReduceTaskState>();
      task->id = next_task_id_++;
      task->partition = p;
      for (const ReduceSideInput& side : spec.side_inputs) {
        if (side.partition == p) task->side_inputs.push_back(side);
      }
      if (p < static_cast<int32_t>(spec.preferred_reduce_nodes.size())) {
        task->preferred_node =
            spec.preferred_reduce_nodes[static_cast<size_t>(p)];
      }
      run.reduces.push_back(std::move(task));
    }
  }

  if (scope_.active()) {
    scope_.Increment(obs::metric::kJobs);
    scope_.EmitAt(run.result.submitted_at, obs::event::kJobStart)
        .With("job", spec.config.name)
        .With("maps", static_cast<int64_t>(run.maps.size()))
        .With("reduces", static_cast<int64_t>(run.reduces.size()));
  }

  // Job startup, then the scheduling loop drives everything.
  cluster_->simulator().Schedule(
      cluster_->cost_model().JobStartupTime(), [this, run_owner] {
        RunState* run = run_owner.get();
        if (run->finished || run != active_run_) return;
        const SimTime now = cluster_->simulator().Now();
        for (auto& map : run->maps) map->ready_at = now;
        if (run->maps.empty()) {
          run->reduces_unlocked = true;
          for (auto& reduce : run->reduces) reduce->ready_at = now;
        }
        TryScheduleTasks(run);
        MaybeFinishJob(run);
      });

  // Drive the simulation until the job finishes. The guard catches
  // deadlocks (e.g. every node dead) instead of spinning forever.
  while (!run.finished) {
    if (!cluster_->simulator().Step()) {
      run.failure = Status::Internal(
          "simulation ran out of events before job completion "
          "(no schedulable nodes?)");
      break;
    }
  }
  active_run_ = nullptr;
  // Drain every offloaded payload — including those whose join event went
  // stale (failed/re-issued attempts) or will never fire (job aborted with
  // events still queued). After this loop no worker thread references the
  // spec, the DFS, or the user functions.
  for (auto& wait : run.pending_payloads) wait();
  run.pending_payloads.clear();

  JobResult& result = run.result;
  result.status = run.failure;
  result.finished_at = cluster_->simulator().Now();
  if (run.first_map_start >= 0) {
    result.map_phase_time = run.last_map_finish - run.first_map_start;
  }

  if (scope_.active()) {
    scope_.EmitAt(result.finished_at, obs::event::kJobFinish)
        .With("job", spec.config.name)
        .With("status", result.status.ok()
                            ? "ok"
                            : StatusCodeToString(result.status.code()))
        .With("elapsed", result.finished_at - result.submitted_at);
  }

  if (result.status.ok()) {
    // Assemble output and caches in deterministic partition order.
    std::vector<const FlatKvBuffer*> outputs;
    for (auto& task : run.reduces) {
      result.shuffle_time_total += task->timing.shuffle;
      result.reduce_time_total += task->timing.read + task->timing.sort +
                                  task->timing.compute + task->timing.write;
      if (task->output != nullptr) outputs.push_back(task->output.get());
      for (MaterializedCache& cache : task->caches) {
        result.caches.push_back(std::move(cache));
      }
    }
    result.output = ConcatToKeyValues(outputs);
    // Write the job output to DFS when requested.
    if (!spec.output_prefix.empty()) {
      std::vector<Record> out_records;
      out_records.reserve(result.output.size());
      for (const KeyValue& kv : result.output) {
        out_records.emplace_back(0, kv.key, kv.value, kv.logical_bytes);
      }
      const std::string out_name = spec.output_prefix + "/part-all";
      if (cluster_->dfs().Exists(out_name)) {
        REDOOP_CHECK_OK(cluster_->dfs().DeleteFile(out_name));
      }
      auto created = cluster_->dfs().CreateFile(out_name,
                                                std::move(out_records), 0, 0);
      REDOOP_CHECK(created.ok()) << created.status().ToString();
    }
  }
  return std::move(result);
}

}  // namespace redoop
