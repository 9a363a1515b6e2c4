#ifndef REDOOP_MAPREDUCE_TASK_H_
#define REDOOP_MAPREDUCE_TASK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "mapreduce/kv.h"
#include "mapreduce/kv_arena.h"

namespace redoop {

enum class TaskType { kMap, kReduce };

enum class TaskState { kPending, kRunning, kCompleted, kFailed };

/// Per-task timing breakdown (seconds of simulated time).
struct TaskTiming {
  /// When the task became eligible to run: maps after job startup, reduces
  /// when the map barrier lifted. scheduled_at - ready_at is the time the
  /// attempt spent queued for a free slot.
  SimTime ready_at = 0.0;
  SimTime scheduled_at = 0.0;
  SimTime finished_at = 0.0;
  SimDuration startup = 0.0;
  SimDuration read = 0.0;     // Input read (HDFS / local spill / cache).
  SimDuration shuffle = 0.0;  // Reduce only: copying map outputs.
  SimDuration sort = 0.0;     // Sort/merge phase.
  SimDuration compute = 0.0;  // User function CPU.
  SimDuration write = 0.0;    // Spill / cache / HDFS output writes.

  SimDuration Total() const {
    return startup + read + shuffle + sort + compute + write;
  }

  /// Slot-wait: time spent schedulable but queued behind busy slots.
  SimDuration SlotWait() const { return scheduled_at - ready_at; }
};

/// Completion report for one task attempt that ran to completion (the
/// successful attempt; earlier failed attempts bump `attempt`).
struct TaskReport {
  TaskId id = 0;
  TaskType type = TaskType::kMap;
  NodeId node = kInvalidNode;
  int32_t partition = -1;  // Reduce tasks only.
  SourceId source = 0;     // Map tasks: input source.
  PaneId pane = kInvalidPane;  // Map tasks: input pane.
  int32_t attempt = 0;
  TaskTiming timing;
};

/// A cache file materialized by a job (reduce input or reduce output),
/// reported back so the Redoop layer can register it.
struct MaterializedCache {
  std::string name;
  NodeId node = kInvalidNode;
  int32_t partition = 0;
  SourceId source = 0;        // Reduce-input caches only.
  PaneId pane = kInvalidPane; // Reduce-input caches; left pane for pairs.
  PaneId pane_right = kInvalidPane;  // Pane-pair output caches only.
  bool is_reduce_output = false;
  int64_t bytes = 0;
  int64_t records = 0;
  /// The node's local FS had no room even after on-demand purging (paper
  /// §4.1): the cache was computed but never stored, and the Redoop layer
  /// rolls it back.
  bool local_fs_full = false;
  /// The cached pairs as an immutable flat buffer, shared (not copied)
  /// into the cache store and any aliasing side inputs.
  std::shared_ptr<const FlatKvBuffer> payload;
};

}  // namespace redoop

#endif  // REDOOP_MAPREDUCE_TASK_H_
