// Verifies the paper's §4.2 claim that the window-aware cache controller's
// metadata maintenance is negligible: cache-status-matrix operations
// (init, update, lifespan expiration check, shift) and controller
// signature/book-keeping operations, measured in real (wall-clock) time —
// these micro-benchmarks run the actual data structures, not the cluster
// simulation.

#include <benchmark/benchmark.h>

#include "core/cache_controller.h"
#include "core/cache_status_matrix.h"
#include "core/pane_naming.h"
#include "queries/join_query.h"

namespace redoop {
namespace {

WindowGeometry Geometry(int64_t panes_per_window) {
  // slide = 1 pane; win = panes_per_window panes.
  return WindowGeometry(WindowSpec{panes_per_window * 60, 60}, 60);
}

void BM_MatrixMarkDone(benchmark::State& state) {
  const int64_t w = state.range(0);
  CacheStatusMatrix matrix(Geometry(w));
  PaneId p = 0;
  for (auto _ : state) {
    matrix.MarkDone(p % (2 * w), (p + 1) % (2 * w));
    ++p;
  }
}
BENCHMARK(BM_MatrixMarkDone)->Arg(10)->Arg(100);

void BM_MatrixIsDone(benchmark::State& state) {
  const int64_t w = state.range(0);
  CacheStatusMatrix matrix(Geometry(w));
  for (PaneId l = 0; l < 2 * w; ++l) {
    for (PaneId r = 0; r < 2 * w; ++r) matrix.MarkDone(l, r);
  }
  PaneId p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.IsDone(p % (2 * w), (p + 7) % (2 * w)));
    ++p;
  }
}
BENCHMARK(BM_MatrixIsDone)->Arg(10)->Arg(100);

void BM_MatrixLifespanComplete(benchmark::State& state) {
  const int64_t w = state.range(0);
  CacheStatusMatrix matrix(Geometry(w));
  for (PaneId l = 0; l < 2 * w; ++l) {
    for (PaneId r = 0; r < 2 * w; ++r) matrix.MarkDone(l, r);
  }
  PaneId p = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(matrix.LifespanComplete(true, p % (2 * w)));
    ++p;
  }
}
BENCHMARK(BM_MatrixLifespanComplete)->Arg(10)->Arg(100);

void BM_MatrixShift(benchmark::State& state) {
  const int64_t w = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    CacheStatusMatrix matrix(Geometry(w));
    for (PaneId l = 0; l < 3 * w; ++l) {
      for (PaneId r = 0; r < 3 * w; ++r) matrix.MarkDone(l, r);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(matrix.Shift(/*completed_recurrence=*/2 * w));
  }
}
BENCHMARK(BM_MatrixShift)->Arg(10)->Arg(100);

void BM_ControllerAddSignature(benchmark::State& state) {
  WindowAwareCacheController controller;
  RecurringQuery query = MakeJoinQuery(1, "micro", 1, 2, 600, 60, 4);
  controller.RegisterQuery(query, 60);
  int64_t i = 0;
  for (auto _ : state) {
    CacheSignature sig;
    sig.key = CacheKey::ReduceInput(1, 1, i, static_cast<int32_t>(i % 4));
    sig.type = CacheType::kReduceInput;
    sig.ready = CacheReady::kCacheAvailable;
    sig.node = static_cast<NodeId>(i % 30);
    sig.bytes = 1 << 20;
    controller.AddSignature(std::move(sig), 1);
    ++i;
  }
}
BENCHMARK(BM_ControllerAddSignature);

void BM_ControllerFinishRecurrence(benchmark::State& state) {
  // One full pane lifecycle + recurrence retirement per iteration.
  WindowAwareCacheController controller;
  RecurringQuery query = MakeJoinQuery(1, "micro", 1, 2, 600, 60, 4);
  controller.RegisterQuery(query, 60);
  int64_t rec = 0;
  for (auto _ : state) {
    const PaneId pane = rec + 9;  // Newest pane of window `rec`.
    for (SourceId s : {1, 2}) {
      controller.OnPaneInHdfs(1, s, pane, {PaneFileName(s, pane)});
      CacheSignature sig;
      sig.key = CacheKey::ReduceInput(1, s, pane, 0);
      sig.type = CacheType::kReduceInput;
      sig.ready = CacheReady::kCacheAvailable;
      sig.node = static_cast<NodeId>(pane % 30);
      controller.AddSignature(std::move(sig), 1);
      controller.OnPaneCached(1, s, pane);
    }
    while (controller.PopMapTask().has_value()) {
    }
    while (auto pair = controller.PopReduceTask()) {
      controller.MarkPanePairDone(1, pair->left, pair->right);
    }
    benchmark::DoNotOptimize(controller.FinishRecurrence(1, rec));
    ++rec;
  }
}
BENCHMARK(BM_ControllerFinishRecurrence);

}  // namespace
}  // namespace redoop

BENCHMARK_MAIN();
