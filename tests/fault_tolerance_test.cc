// Failure-injection tests at the driver level (paper §5 / §6.4): cache
// loss, node loss, and mid-run failures must never change query answers,
// and the caching metadata must recover (ready-bit rollback, rebuild,
// re-registration).

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "baseline/hadoop_driver.h"
#include "core/pane_naming.h"
#include "core/redoop_driver.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeFfgFeed;
using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SameOutput;
using ::redoop::testing::SmallClusterConfig;

constexpr int32_t kNodes = 8;
/// Node local FS capacity for the full-disk cases (512 KiB): reduce-input,
/// reduce-output and pane-pair caches all overflow it.
constexpr int64_t kFullLocalFsBytes = 512 * 1024;

// Removes every cache file present on `node`, via the injection API.
void WipeNodeCaches(Cluster* cluster, NodeId node) {
  for (const std::string& file : cluster->node(node).LocalFileNames()) {
    cluster->InjectCacheLoss(node, file);
  }
}

TEST(FaultToleranceTest, AggregationSurvivesCacheWipes) {
  RecurringQuery query = MakeAggregationQuery(1, "agg", 1, 200, 40, 4);

  Cluster hadoop_cluster(kNodes, SmallClusterConfig());
  auto hadoop_feed = MakeWccFeed(1, 30, 20);
  HadoopRecurringDriver hadoop(&hadoop_cluster, hadoop_feed.get(), query);

  Cluster redoop_cluster(kNodes, SmallClusterConfig());
  auto redoop_feed = MakeWccFeed(1, 30, 20);
  RedoopDriver redoop(&redoop_cluster, redoop_feed.get(), query);

  for (int64_t i = 0; i < 5; ++i) {
    if (i >= 1) WipeNodeCaches(&redoop_cluster, static_cast<NodeId>(i % kNodes));
    WindowReport h = hadoop.RunRecurrence(i);
    WindowReport r = redoop.RunRecurrence(i).value();
    ASSERT_TRUE(SameOutput(h.output, r.output)) << "window " << i;
  }
}

TEST(FaultToleranceTest, JoinSurvivesCacheWipes) {
  RecurringQuery query = MakeJoinQuery(2, "join", 1, 2, 120, 40, 4);

  Cluster hadoop_cluster(kNodes, SmallClusterConfig());
  auto hadoop_feed = MakeFfgFeed(1, 2, 4, 20);
  HadoopRecurringDriver hadoop(&hadoop_cluster, hadoop_feed.get(), query);

  Cluster redoop_cluster(kNodes, SmallClusterConfig());
  auto redoop_feed = MakeFfgFeed(1, 2, 4, 20);
  RedoopDriverOptions options;
  options.cache.hybrid_join_strategy = false;  // Exercise the pane-pair machinery.
  RedoopDriver redoop(&redoop_cluster, redoop_feed.get(), query, options);

  for (int64_t i = 0; i < 5; ++i) {
    if (i >= 1) WipeNodeCaches(&redoop_cluster, static_cast<NodeId>(i % kNodes));
    WindowReport h = hadoop.RunRecurrence(i);
    WindowReport r = redoop.RunRecurrence(i).value();
    ASSERT_TRUE(SameOutput(h.output, r.output)) << "window " << i;
  }
}

TEST(FaultToleranceTest, JoinSurvivesNodeDeathBetweenWindows) {
  RecurringQuery query = MakeJoinQuery(2, "join", 1, 2, 120, 40, 4);

  Cluster hadoop_cluster(kNodes, SmallClusterConfig());
  auto hadoop_feed = MakeFfgFeed(1, 2, 4, 20);
  HadoopRecurringDriver hadoop(&hadoop_cluster, hadoop_feed.get(), query);

  Cluster redoop_cluster(kNodes, SmallClusterConfig());
  auto redoop_feed = MakeFfgFeed(1, 2, 4, 20);
  RedoopDriver redoop(&redoop_cluster, redoop_feed.get(), query);

  for (int64_t i = 0; i < 5; ++i) {
    if (i == 2) {
      // A node dies between recurrences, taking its caches and DFS
      // replicas; it comes back (empty) one window later.
      redoop_cluster.FailNode(3);
    }
    if (i == 3) {
      redoop_cluster.RecoverNode(3);
      redoop_cluster.dfs().ReplicateMissing();
    }
    WindowReport h = hadoop.RunRecurrence(i);
    WindowReport r = redoop.RunRecurrence(i).value();
    ASSERT_TRUE(SameOutput(h.output, r.output)) << "window " << i;
  }
}

TEST(FaultToleranceTest, AggregationSurvivesMidWindowNodeFailure) {
  RecurringQuery query = MakeAggregationQuery(1, "agg", 1, 200, 40, 4);

  Cluster hadoop_cluster(kNodes, SmallClusterConfig());
  auto hadoop_feed = MakeWccFeed(1, 30, 20);
  HadoopRecurringDriver hadoop(&hadoop_cluster, hadoop_feed.get(), query);

  Cluster redoop_cluster(kNodes, SmallClusterConfig());
  auto redoop_feed = MakeWccFeed(1, 30, 20);
  RedoopDriver redoop(&redoop_cluster, redoop_feed.get(), query);

  for (int64_t i = 0; i < 4; ++i) {
    if (i == 2) {
      // Node 5 dies one simulated second after the trigger — mid-job.
      const SimTime when = static_cast<SimTime>(
          std::max<Timestamp>(redoop.geometry().TriggerTime(i),
                              static_cast<Timestamp>(
                                  redoop_cluster.simulator().Now()))) +
          1.0;
      redoop_cluster.simulator().ScheduleAt(
          when, [&redoop_cluster] { redoop_cluster.FailNode(5); });
    }
    WindowReport h = hadoop.RunRecurrence(i);
    WindowReport r = redoop.RunRecurrence(i).value();
    ASSERT_TRUE(SameOutput(h.output, r.output)) << "window " << i;
  }
}

TEST(FaultToleranceTest, LostCachesAreReRegistered) {
  RecurringQuery query = MakeAggregationQuery(1, "agg", 1, 200, 40, 4);
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriver redoop(&cluster, feed.get(), query);

  ASSERT_GT(redoop.RunRecurrence(0).value().output.size(), 0u);
  const size_t signatures_before = redoop.controller().signature_count();
  ASSERT_GT(signatures_before, 0u);

  WipeNodeCaches(&cluster, 2);
  ASSERT_GT(redoop.RunRecurrence(1).value().output.size(), 0u);
  // The surviving + rebuilt metadata again covers the live window; sizes
  // match the steady-state progression (one pane retired, one added).
  EXPECT_GT(redoop.controller().signature_count(), 0u);
  EXPECT_GT(redoop.store().size(), 0u);
  // Node 2 carries no stale registry entries for vanished files.
  for (const LocalCacheEntry& entry : redoop.registry(2).Entries()) {
    EXPECT_TRUE(cluster.node(2).HasLocalFile(entry.name))
        << "registry entry without a backing local file: " << entry.name;
  }
}

TEST(FaultToleranceTest, CacheLossRollsBackPaneReadyBit) {
  RecurringQuery query = MakeJoinQuery(2, "join", 1, 2, 120, 40, 4);
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeFfgFeed(1, 2, 4, 20);
  RedoopDriverOptions options;
  options.cache.hybrid_join_strategy = false;
  RedoopDriver redoop(&cluster, feed.get(), query, options);
  ASSERT_TRUE(redoop.RunRecurrence(0).ok());

  // Find some reduce-input cache and lose it.
  std::string victim_name;
  NodeId victim_node = kInvalidNode;
  PaneId victim_pane = kInvalidPane;
  SourceId victim_source = 0;
  // Pick a pane that recurrence 2's window will still need (pane >= 2),
  // so it cannot expire before we assert on its recovered state.
  for (NodeId n = 0; n < kNodes && victim_name.empty(); ++n) {
    for (const std::string& file : cluster.node(n).LocalFileNames()) {
      const CacheSignature* sig = redoop.controller().Find(file);
      if (sig != nullptr && sig->type == CacheType::kReduceInput &&
          sig->key.pane() >= 2) {
        victim_name = file;
        victim_node = n;
        victim_pane = sig->key.pane();
        victim_source = sig->key.source();
        break;
      }
    }
  }
  ASSERT_FALSE(victim_name.empty());
  ASSERT_EQ(redoop.controller().PaneReady(2, victim_source, victim_pane),
            CacheReady::kCacheAvailable);

  cluster.InjectCacheLoss(victim_node, victim_name);
  EXPECT_EQ(redoop.controller().PaneReady(2, victim_source, victim_pane),
            CacheReady::kHdfsAvailable)
      << "ready bit must roll back to HDFS-available (paper §5)";
  EXPECT_EQ(redoop.controller().Find(victim_name), nullptr);
  EXPECT_FALSE(redoop.store().Has(CacheKey::FromName(victim_name)));

  // The next recurrence heals everything and stays correct.
  EXPECT_GT(redoop.RunRecurrence(1).value().output.size(), 0u);
  EXPECT_EQ(redoop.controller().PaneReady(2, victim_source, victim_pane),
            CacheReady::kCacheAvailable);
}

// --- A full local FS (paper §4.1) ------------------------------------------

/// Caches journaled as dropped because their node's local FS had no room.
int64_t DiskFullDrops(RedoopDriver* redoop) {
  int64_t drops = 0;
  for (const obs::Event& e : redoop->observability()->journal().events()) {
    if (e.type() != obs::event::kCacheInvalidate) continue;
    const obs::EventField* reason = e.Find("reason");
    if (reason != nullptr && reason->str == "disk_full") ++drops;
  }
  return drops;
}

struct FullLocalFsCase {
  const char* name;
  bool join;
  /// Join only: the hybrid optimizer, or pane pairs always.
  bool hybrid;
  /// Off: windows are folded jobs over the reduce-input caches.
  bool reduce_output;
  int32_t threads;
};

// Test names carry the printed parameter: print the label, not the bytes
// (which hold a pointer).
std::ostream& operator<<(std::ostream& os, const FullLocalFsCase& c) {
  return os << c.name;
}

class FullLocalFsTest : public ::testing::TestWithParam<FullLocalFsCase> {};

// Node local FSs far smaller than the live caches: caches overflow, go
// through the one rollback, and every window must still equal Hadoop's —
// rebuilt from caches where they fit, recomputed without them where they
// do not.
TEST_P(FullLocalFsTest, MatchesHadoopWindowByWindow) {
  const FullLocalFsCase& c = GetParam();
  RecurringQuery query =
      c.join ? MakeJoinQuery(2, "join", 1, 2, 120, 40, 4)
             : MakeAggregationQuery(1, "agg", 1, 200, 40, 4);
  Config small_fs = SmallClusterConfig();
  small_fs.SetInt("node.local_capacity", kFullLocalFsBytes);

  Cluster hadoop_cluster(kNodes, SmallClusterConfig());
  auto hadoop_feed = c.join ? MakeFfgFeed(1, 2, 4, 20) : MakeWccFeed(1, 30, 20);
  HadoopRecurringDriver hadoop(&hadoop_cluster, hadoop_feed.get(), query);

  Cluster redoop_cluster(kNodes, small_fs);
  auto redoop_feed = c.join ? MakeFfgFeed(1, 2, 4, 20) : MakeWccFeed(1, 30, 20);
  RedoopDriverOptions options;
  options.cache.hybrid_join_strategy = c.hybrid;
  options.cache.reduce_output = c.reduce_output;
  options.runner.threads = c.threads;
  RedoopDriver redoop(&redoop_cluster, redoop_feed.get(), query, options);

  for (int64_t i = 0; i < 5; ++i) {
    WindowReport h = hadoop.RunRecurrence(i);
    StatusOr<WindowReport> r = redoop.RunRecurrence(i);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(SameOutput(h.output, r->output)) << "window " << i;
  }
  EXPECT_GT(DiskFullDrops(&redoop), 0) << "the local FS must overflow";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FullLocalFsTest,
    ::testing::Values(
        FullLocalFsCase{"agg_t1", false, false, true, 1},
        FullLocalFsCase{"agg_t8", false, false, true, 8},
        FullLocalFsCase{"agg_input_cache_only_t1", false, false, false, 1},
        FullLocalFsCase{"join_pairs_t1", true, false, true, 1},
        FullLocalFsCase{"join_pairs_t8", true, false, true, 8},
        FullLocalFsCase{"join_hybrid_t1", true, true, true, 1},
        FullLocalFsCase{"join_hybrid_t8", true, true, true, 8},
        FullLocalFsCase{"join_input_cache_only_t1", true, false, false, 1}),
    [](const ::testing::TestParamInfo<FullLocalFsCase>& info) {
      return std::string(info.param.name);
    });

// Node 0's local FS fills up for one window, then drains. A pair job run
// against a pane that lost a cache to it would under-read, and its wrong
// pair output would be reused once every other cache is back.
TEST(FaultToleranceTest, JoinPairsSurviveATransientlyFullNode) {
  RecurringQuery query = MakeJoinQuery(2, "join", 1, 2, 120, 40, 4);
  Cluster hadoop_cluster(kNodes, SmallClusterConfig());
  auto hadoop_feed = MakeFfgFeed(1, 2, 4, 20);
  HadoopRecurringDriver hadoop(&hadoop_cluster, hadoop_feed.get(), query);

  Cluster redoop_cluster(kNodes, SmallClusterConfig());
  auto redoop_feed = MakeFfgFeed(1, 2, 4, 20);
  RedoopDriverOptions options;
  options.cache.hybrid_join_strategy = false;
  RedoopDriver redoop(&redoop_cluster, redoop_feed.get(), query, options);

  TaskNode& node = redoop_cluster.node(0);
  for (int64_t i = 0; i < 6; ++i) {
    if (i == 1) {
      ASSERT_TRUE(node.PutLocalFile(
          "filler", node.local_capacity_bytes() - node.local_bytes_used()));
    }
    if (i == 2) node.DeleteLocalFile("filler");
    WindowReport h = hadoop.RunRecurrence(i);
    StatusOr<WindowReport> r = redoop.RunRecurrence(i);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(SameOutput(h.output, r->output)) << "window " << i;
  }
  EXPECT_GT(DiskFullDrops(&redoop), 0) << "node 0's local FS must overflow";
}

}  // namespace
}  // namespace redoop
