// Extension experiment: cluster-size scalability at fixed workload
// (aggregation, overlap 0.9). Expected: both systems speed up with more
// nodes (Hadoop's map/reduce waves shrink), and Redoop's relative
// advantage persists across cluster sizes — the caching savings are
// data-proportional, not slot-proportional. With very large clusters the
// gap narrows as fixed per-job overheads start to dominate Redoop's small
// incremental jobs.
//
// Fleet mode (DESIGN §17): `--fleet` (full scale) or `--smoke` runs the
// multi-tenant serving sweep instead — N identical-pipeline queries on
// one coordinator, private caches vs shared scans + cross-query dedup +
// fair share, sweeping the query count 10→500 and the cluster size
// 30→1000. Emits a BENCH JSON document of flat dotted metrics:
//
//   {"bench": "redoop_scalability", "schema": 1, "config": "smoke",
//    "metrics": {"fleet.q4.speedup": ..., ...}}
//
// All fleet metrics are simulated-time quantities, byte-identical across
// runs and thread counts, so the smoke document is a cmp-able CI baseline
// (bench/baselines/scalability_smoke.json).
//
// Flags (fleet mode):
//   --fleet       fleet sweep at full paper scale
//   --smoke       fleet sweep at CI scale
//   --out=FILE    write the BENCH JSON there (default
//                 BENCH_scalability.json)
//   --threads=N   host worker threads (wall-clock only)
//
// Exit is nonzero if any fleet run's window outputs diverge from its
// private-cache baseline — sharing must never change answers, only work.
// Without fleet flags, the google-benchmark suite below runs as before.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_util.h"
#include "bench/fleet_sweep.h"
#include "common/string_utils.h"
#include "core/multi_query.h"
#include "obs/observability.h"

namespace redoop::bench {
namespace {

void BM_Scalability_Aggregation(benchmark::State& state) {
  const int32_t nodes = static_cast<int32_t>(state.range(0));
  ExperimentSpec spec;
  spec.overlap = 0.9;
  spec.rps = 8.0;

  RecurringQuery query =
      MakeAggregationQuery(11, "scale-agg", /*source=*/1, kWin,
                           SlideForOverlap(0.9), kNumReducers);

  RunReport hadoop;
  RunReport redoop;
  for (auto _ : state) {
    {
      Cluster cluster(nodes, Config());
      auto feed = MakeWccFeed(spec, 1);
      HadoopRecurringDriver driver(&cluster, feed.get(), query);
      hadoop = driver.Run(kNumWindows);
    }
    {
      Cluster cluster(nodes, Config());
      auto feed = MakeWccFeed(spec, 1);
      RedoopDriver driver(&cluster, feed.get(), query);
      redoop = Unwrap(driver.Run(kNumWindows));
    }
  }
  if (!ResultsMatch(hadoop, redoop)) {
    state.SkipWithError("results diverged");
    return;
  }
  std::printf("%3d nodes: hadoop %9.1f s  redoop %8.1f s  warm speedup %5.2fx\n",
              nodes, hadoop.TotalResponseTime(), redoop.TotalResponseTime(),
              WarmSpeedup(hadoop, redoop));
  state.counters["warm_speedup"] = WarmSpeedup(hadoop, redoop);
  state.counters["hadoop_total_s"] = hadoop.TotalResponseTime();
  state.counters["redoop_total_s"] = redoop.TotalResponseTime();
}

BENCHMARK(BM_Scalability_Aggregation)
    ->Arg(10)
    ->Arg(20)
    ->Arg(30)
    ->Arg(45)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_MultiQueryConsolidation(benchmark::State& state) {
  // Two aggregation queries with different windows sharing one source,
  // co-run on one 30-node cluster via the coordinator, vs each running
  // alone on its own cluster. Reports the consolidation overhead.
  ExperimentSpec spec;
  spec.overlap = 0.9;
  spec.rps = 8.0;
  RecurringQuery q1 = MakeAggregationQuery(21, "mq-a", 1, kWin,
                                           SlideForOverlap(0.9), kNumReducers);
  RecurringQuery q2 = MakeAggregationQuery(22, "mq-b", 1, kWin,
                                           SlideForOverlap(0.8), kNumReducers);

  double isolated_total = 0.0;
  double consolidated_total = 0.0;
  for (auto _ : state) {
    isolated_total = 0.0;
    for (const RecurringQuery& q : {q1, q2}) {
      Cluster cluster(kClusterNodes, Config());
      auto feed = MakeWccFeed(spec, 1);
      RedoopDriver driver(&cluster, feed.get(), q);
      isolated_total += Unwrap(driver.Run(6)).TotalResponseTime();
    }
    {
      Cluster cluster(kClusterNodes, Config());
      auto feed = MakeWccFeed(spec, 1);
      MultiQueryCoordinator coordinator(&cluster, feed.get());
      REDOOP_CHECK_OK(coordinator.AddQuery(q1));
      REDOOP_CHECK_OK(coordinator.AddQuery(q2));
      consolidated_total = 0.0;
      const std::vector<RunReport> consolidated =
          coordinator.Run(6).value();
      for (const RunReport& r : consolidated) {
        consolidated_total += r.TotalResponseTime();
      }
    }
  }
  std::printf("multi-query: isolated clusters %9.1f s, consolidated %9.1f s "
              "(overhead %.1f%%)\n",
              isolated_total, consolidated_total,
              100.0 * (consolidated_total / isolated_total - 1.0));
  state.counters["isolated_s"] = isolated_total;
  state.counters["consolidated_s"] = consolidated_total;
}

BENCHMARK(BM_MultiQueryConsolidation)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Stragglers(benchmark::State& state) {
  // Extension: a straggler-prone cluster (15% of attempts run 6x slower),
  // with and without Hadoop-style speculative execution, for both systems
  // at overlap 0.9. Expected: stragglers hurt Hadoop more in absolute
  // terms (it runs far more tasks per window); speculation claws much of
  // it back for both; Redoop keeps its relative advantage throughout.
  const bool speculate = state.range(0) != 0;
  ExperimentSpec spec;
  spec.overlap = 0.9;
  spec.rps = 8.0;
  RecurringQuery query = MakeAggregationQuery(
      13, "straggle-agg", 1, kWin, SlideForOverlap(0.9), kNumReducers);

  JobRunnerOptions runner;
  runner.straggler_probability = 0.15;
  runner.straggler_slowdown = 6.0;
  runner.speculative_execution = speculate;
  runner.seed = 41;

  RunReport hadoop;
  RunReport redoop;
  for (auto _ : state) {
    {
      Cluster cluster(kClusterNodes, Config());
      auto feed = MakeWccFeed(spec, 1);
      HadoopRecurringDriver driver(&cluster, feed.get(), query, runner);
      hadoop = driver.Run(kNumWindows);
    }
    {
      Cluster cluster(kClusterNodes, Config());
      auto feed = MakeWccFeed(spec, 1);
      RedoopDriverOptions options;
      options.runner = runner;
      RedoopDriver driver(&cluster, feed.get(), query, options);
      redoop = Unwrap(driver.Run(kNumWindows));
    }
  }
  if (!ResultsMatch(hadoop, redoop)) {
    state.SkipWithError("results diverged under stragglers");
    return;
  }
  std::printf("stragglers speculation=%-3s: hadoop %9.1f s  redoop %8.1f s  "
              "warm speedup %5.2fx\n",
              speculate ? "on" : "off", hadoop.TotalResponseTime(),
              redoop.TotalResponseTime(), WarmSpeedup(hadoop, redoop));
  state.counters["hadoop_total_s"] = hadoop.TotalResponseTime();
  state.counters["redoop_total_s"] = redoop.TotalResponseTime();
  state.counters["warm_speedup"] = WarmSpeedup(hadoop, redoop);
}

BENCHMARK(BM_Stragglers)
    ->Arg(0)
    ->Arg(1)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

int FleetMain(const FleetSweepScale& scale, const char* config,
              const std::string& out_path) {
  std::printf("running fleet sweep (%s scale, %d threads)...\n", config,
              scale.threads);
  std::fflush(stdout);
  const FleetSweepResult result = RunFleetSweep(scale);

  std::printf("%-6s %5s %6s %14s %14s %8s %10s %10s %6s\n", "cell", "Q",
              "nodes", "private_s", "fleet_s", "speedup", "scan_save",
              "adoptions", "ident");
  for (const FleetCell& c : result.cells) {
    std::printf("%-6s %5d %6d %14.1f %14.1f %7.2fx %9.1f%% %10lld %6s\n",
                c.label.c_str(), c.queries, c.nodes, c.private_total_s,
                c.fleet_total_s, c.speedup, 100.0 * c.scan_savings,
                static_cast<long long>(c.adoptions),
                c.identical ? "yes" : "NO");
  }

  std::string json = StringPrintf(
      "{\"bench\": \"redoop_scalability\", \"schema\": 1, "
      "\"config\": \"%s\", \"metrics\": {\n",
      config);
  const auto metrics = FleetMetrics(result);
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += StringPrintf("\"%s\": %s%s\n", metrics[i].first.c_str(),
                         obs::FormatDouble(metrics[i].second).c_str(),
                         i + 1 < metrics.size() ? "," : "");
  }
  json += "}}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 4;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("BENCH JSON written to %s\n", out_path.c_str());

  if (!result.all_identical) {
    std::fprintf(stderr,
                 "FAILURE: a fleet run diverged from its private-cache "
                 "baseline\n");
    return 5;
  }
  return 0;
}

}  // namespace
}  // namespace redoop::bench

int main(int argc, char** argv) {
  using redoop::bench::FleetFullScale;
  using redoop::bench::FleetSmokeScale;
  using redoop::bench::FleetSweepScale;

  bool fleet = false;
  FleetSweepScale scale;
  const char* config = "full";
  std::string out_path = "BENCH_scalability.json";
  int32_t threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fleet") {
      fleet = true;
      scale = FleetFullScale();
    } else if (arg == "--smoke") {
      fleet = true;
      scale = FleetSmokeScale();
      config = "smoke";
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = static_cast<int32_t>(std::atoi(arg.c_str() + 10));
    }
  }
  if (fleet) {
    scale.threads = threads;
    return redoop::bench::FleetMain(scale, config, out_path);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
