// Unit tests for the Window-Aware Cache Controller (paper §4.2): pane
// lifecycle, cache signatures with doneQueryMask, the map/reduce task
// lists, expiration/purge notifications, and failure rollback.

#include <gtest/gtest.h>

#include "core/cache_controller.h"
#include "core/pane_naming.h"
#include "core/redoop_driver.h"
#include "queries/aggregation_query.h"
#include "queries/join_query.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

// win = 4 panes, slide = 1 pane, pane = 100 s.
constexpr Timestamp kPane = 100;

RecurringQuery AggQuery(QueryId id = 1) {
  return MakeAggregationQuery(id, "agg", /*source=*/1, 400, 100, 4);
}

RecurringQuery JoinQuery(QueryId id = 2) {
  return MakeJoinQuery(id, "join", /*left=*/1, /*right=*/2, 400, 100, 4);
}

CacheSignature InputSig(QueryId q, SourceId s, PaneId p, int32_t r,
                        NodeId node) {
  CacheSignature sig;
  sig.key = CacheKey::ReduceInput(q, s, p, r);
  sig.type = CacheType::kReduceInput;
  sig.ready = CacheReady::kCacheAvailable;
  sig.node = node;
  sig.bytes = 1000;
  sig.records = 10;
  return sig;
}

TEST(CacheControllerTest, PaneLifecycleAndMapTaskList) {
  WindowAwareCacheController controller;
  RecurringQuery query = AggQuery();
  controller.RegisterQuery(query, kPane);

  EXPECT_EQ(controller.PaneReady(1, 1, 0), CacheReady::kNotAvailable);
  controller.OnPaneInHdfs(1, 1, 0, {"S1P0"});
  EXPECT_EQ(controller.PaneReady(1, 1, 0), CacheReady::kHdfsAvailable);
  EXPECT_EQ(controller.map_task_list_size(), 1u);

  // More files for the same pane refresh the queued item, no duplicate.
  controller.OnPaneInHdfs(1, 1, 0, {"S1P0.1"});
  EXPECT_EQ(controller.map_task_list_size(), 1u);

  auto item = controller.PopMapTask();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->pane, 0);
  EXPECT_EQ(item->files.size(), 2u);
  EXPECT_FALSE(item->rebuild);
  EXPECT_FALSE(controller.PopMapTask().has_value());

  controller.OnPaneCached(1, 1, 0);
  EXPECT_EQ(controller.PaneReady(1, 1, 0), CacheReady::kCacheAvailable);
  EXPECT_EQ(controller.PaneFiles(1, 1, 0).size(), 2u);
}

TEST(CacheControllerTest, SignaturesIndexedByPane) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(AggQuery(), kPane);
  controller.AddSignature(InputSig(1, 1, 3, 0, 5), 1);
  controller.AddSignature(InputSig(1, 1, 3, 2, 6), 1);
  controller.AddSignature(InputSig(1, 1, 4, 0, 7), 1);

  EXPECT_EQ(controller.signature_count(), 3u);
  const CacheSignature* sig =
      controller.Find(ReduceInputCacheName(1, 1, 3, 2));
  ASSERT_NE(sig, nullptr);
  EXPECT_EQ(sig->node, 6);
  EXPECT_FALSE(sig->Expired());

  auto caches =
      controller.CachesForPane(1, 1, 3, CacheType::kReduceInput);
  ASSERT_EQ(caches.size(), 2u);
  EXPECT_EQ(caches[0]->key.partition(), 0) << "sorted by partition";
  EXPECT_EQ(caches[1]->key.partition(), 2);
}

TEST(CacheControllerTest, ReRegistrationDoesNotDuplicateIndex) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(AggQuery(), kPane);
  controller.AddSignature(InputSig(1, 1, 3, 0, 5), 1);
  controller.AddSignature(InputSig(1, 1, 3, 0, 9), 1);  // Re-registered.
  EXPECT_EQ(controller.signature_count(), 1u);
  auto caches = controller.CachesForPane(1, 1, 3, CacheType::kReduceInput);
  ASSERT_EQ(caches.size(), 1u);
  EXPECT_EQ(caches[0]->node, 9);
}

TEST(CacheControllerTest, JoinPairsEnqueueWithinLifespan) {
  WindowAwareCacheController controller;
  RecurringQuery query = JoinQuery();
  controller.RegisterQuery(query, kPane);

  // Cache left pane 0 first: no partner available yet.
  controller.OnPaneInHdfs(2, 1, 0, {"S1P0"});
  controller.OnPaneCached(2, 1, 0);
  EXPECT_EQ(controller.reduce_task_list_size(), 0u);

  // Right pane 0 arrives: pair (0, 0) becomes runnable.
  controller.OnPaneInHdfs(2, 2, 0, {"S2P0"});
  controller.OnPaneCached(2, 2, 0);
  ASSERT_EQ(controller.reduce_task_list_size(), 1u);
  auto pair = controller.PopReduceTask();
  ASSERT_TRUE(pair.has_value());
  EXPECT_EQ(pair->left, 0);
  EXPECT_EQ(pair->right, 0);

  // Right pane 1: pair (0, 1) within pane 0's lifespan.
  controller.OnPaneInHdfs(2, 2, 1, {"S2P1"});
  controller.OnPaneCached(2, 2, 1);
  EXPECT_EQ(controller.reduce_task_list_size(), 1u);

  // Re-caching an already-cached pane must not duplicate pending pairs.
  controller.OnPaneCached(2, 2, 1);
  EXPECT_EQ(controller.reduce_task_list_size(), 1u);

  // Done pairs are not re-enqueued.
  auto p01 = controller.PopReduceTask();
  controller.MarkPanePairDone(2, p01->left, p01->right);
  controller.OnPaneCached(2, 2, 1);
  EXPECT_EQ(controller.reduce_task_list_size(), 0u);
}

TEST(CacheControllerTest, PairBeyondLifespanNotEnqueued) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(JoinQuery(), kPane);
  // Lifespan of pane 0 (win = 4 panes, slide = 1) is panes 0..3.
  for (PaneId p : {0, 5}) {
    controller.OnPaneInHdfs(2, 1, p, {PaneFileName(1, p)});
    controller.OnPaneCached(2, 1, p);
    controller.OnPaneInHdfs(2, 2, p, {PaneFileName(2, p)});
    controller.OnPaneCached(2, 2, p);
  }
  // Pairs (0,0) and (5,5) yes; (0,5)/(5,0) are outside each other's
  // lifespan.
  std::set<std::pair<PaneId, PaneId>> pairs;
  while (auto p = controller.PopReduceTask()) {
    pairs.insert({p->left, p->right});
  }
  EXPECT_TRUE(pairs.count({0, 0}));
  EXPECT_TRUE(pairs.count({5, 5}));
  EXPECT_FALSE(pairs.count({0, 5}));
  EXPECT_FALSE(pairs.count({5, 0}));
}

TEST(CacheControllerTest, FinishRecurrenceExpiresAggPanes) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(AggQuery(), kPane);
  for (PaneId p = 0; p < 5; ++p) {
    controller.OnPaneInHdfs(1, 1, p, {PaneFileName(1, p)});
    controller.AddSignature(InputSig(1, 1, p, 0, static_cast<NodeId>(p)), 1);
    controller.OnPaneCached(1, 1, p);
  }
  // After recurrence 0 (window = panes 0..3), nothing expires: pane 0's
  // last window IS recurrence 0... it expires right after it completes.
  auto notes = controller.FinishRecurrence(1, 0);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].key, CacheKey::ReduceInput(1, 1, 0, 0));
  EXPECT_EQ(notes[0].node, 0);
  EXPECT_EQ(controller.Find(notes[0].key.name()), nullptr)
      << "expired signature dropped";
  // Recurrence 1 retires pane 1.
  notes = controller.FinishRecurrence(1, 1);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].key, CacheKey::ReduceInput(1, 1, 1, 0));
}

TEST(CacheControllerTest, JoinExpirationRequiresLifespanCompletion) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(JoinQuery(), kPane);
  controller.OnPaneInHdfs(2, 1, 0, {PaneFileName(1, 0)});
  controller.AddSignature(InputSig(2, 1, 0, 0, 3), 2);
  controller.OnPaneCached(2, 1, 0);

  // Pane 0's lifespan (panes 0..3 of S2) not done -> no expiration.
  auto notes = controller.FinishRecurrence(2, 0);
  EXPECT_TRUE(notes.empty());

  for (PaneId q = 0; q < 4; ++q) controller.MarkPanePairDone(2, 0, q);
  notes = controller.FinishRecurrence(2, 0);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].key, CacheKey::ReduceInput(2, 1, 0, 0));
}

TEST(CacheControllerTest, PairOutputExpiresWithLastSharedWindow) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(JoinQuery(), kPane);
  CacheSignature joc;
  joc.key = CacheKey::JoinOutput(2, 1, 3, 0);
  joc.type = CacheType::kReduceOutput;
  joc.node = 4;
  controller.AddSignature(joc, 2);

  // Pair (1, 3): last window containing pane 1 is recurrence 1.
  EXPECT_TRUE(controller.FinishRecurrence(2, 0).empty());
  auto notes = controller.FinishRecurrence(2, 1);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].key, joc.key);
}

TEST(CacheControllerTest, CacheLossRollsBackReadyBit) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(JoinQuery(), kPane);
  controller.OnPaneInHdfs(2, 1, 0, {"S1P0"});
  controller.AddSignature(InputSig(2, 1, 0, 0, 3), 2);
  controller.AddSignature(InputSig(2, 1, 0, 1, 4), 2);
  controller.OnPaneCached(2, 1, 0);
  controller.OnPaneInHdfs(2, 2, 0, {"S2P0"});
  controller.OnPaneCached(2, 2, 0);
  ASSERT_EQ(controller.reduce_task_list_size(), 1u) << "pair (0,0) pending";
  // Drain the initial map-task items so only the rebuild remains later.
  while (controller.PopMapTask().has_value()) {
  }

  EXPECT_EQ(controller.RollBack(CacheKey::ReduceInput(2, 1, 0, 0),
                                CacheLoss::kLost),
            3);
  EXPECT_EQ(controller.PaneReady(2, 1, 0), CacheReady::kHdfsAvailable)
      << "ready bit rolled back to HDFS-available (paper §5)";
  EXPECT_EQ(controller.reduce_task_list_size(), 0u)
      << "pending pairs using the pane evicted";
  auto rebuild = controller.PopMapTask();
  ASSERT_TRUE(rebuild.has_value())
      << "rebuild task inserted into the map task list";
  EXPECT_TRUE(rebuild->rebuild);
  EXPECT_EQ(rebuild->pane, 0);
  // The lost cache's signature dropped; the sibling partition survives.
  EXPECT_EQ(controller.Find(ReduceInputCacheName(2, 1, 0, 0)), nullptr);
  EXPECT_NE(controller.Find(ReduceInputCacheName(2, 1, 0, 1)), nullptr);
}

TEST(CacheControllerTest, OnlyLostCachesRebuildEagerly) {
  for (CacheLoss cause :
       {CacheLoss::kEvicted, CacheLoss::kInvalidated, CacheLoss::kDiskFull}) {
    WindowAwareCacheController controller;
    controller.RegisterQuery(JoinQuery(), kPane);
    controller.OnPaneInHdfs(2, 1, 0, {"S1P0"});
    controller.AddSignature(InputSig(2, 1, 0, 0, 3), 2);
    controller.OnPaneCached(2, 1, 0);
    while (controller.PopMapTask().has_value()) {
    }
    EXPECT_EQ(controller.RollBack(CacheKey::ReduceInput(2, 1, 0, 0), cause),
              3);
    EXPECT_EQ(controller.PaneReady(2, 1, 0), CacheReady::kHdfsAvailable);
    EXPECT_EQ(controller.map_task_list_size(), 0u)
        << "lazy: the next window that reads the pane rebuilds it";
  }
}

TEST(CacheControllerTest, LostPairPartitionLeavesSiblingsToExpire) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(JoinQuery(), kPane);
  for (int32_t r = 0; r < 2; ++r) {
    CacheSignature joc;
    joc.key = CacheKey::JoinOutput(2, 1, 3, r);
    joc.type = CacheType::kReduceOutput;
    joc.node = 4;
    controller.AddSignature(joc, 2);
  }
  EXPECT_EQ(controller.RollBack(CacheKey::JoinOutput(2, 1, 3, 0),
                                CacheLoss::kLost),
            4);
  EXPECT_EQ(controller.signature_count(), 1u);
  // Pair (1, 3)'s last window is recurrence 1; past it, the surviving
  // partition expires like any other pair output.
  controller.FinishRecurrence(2, 50);
  EXPECT_EQ(controller.signature_count(), 0u);
}

TEST(CacheControllerTest, CacheLossWithWrongNodeIsStale) {
  // Loss reports reach the controller through the driver's cluster
  // listener; one naming a cache registered on a different node is stale.
  RecurringQuery query = MakeJoinQuery(2, "join", 1, 2, 120, 40, 4);
  Cluster cluster(8, testing::SmallClusterConfig());
  auto feed = testing::MakeFfgFeed(1, 2, 4, 20);
  RedoopDriver redoop(&cluster, feed.get(), query);
  ASSERT_TRUE(redoop.RunRecurrence(0).ok());
  std::string victim;
  NodeId home = kInvalidNode;
  for (NodeId n = 0; n < 8 && victim.empty(); ++n) {
    for (const std::string& file : cluster.node(n).LocalFileNames()) {
      if (redoop.controller().Find(file) != nullptr) {
        victim = file;
        home = n;
        break;
      }
    }
  }
  ASSERT_FALSE(victim.empty());
  const NodeId other = (home + 1) % 8;
  ASSERT_TRUE(cluster.node(other).PutLocalFile(victim, 1));
  cluster.InjectCacheLoss(other, victim);
  const CacheSignature* sig = redoop.controller().Find(victim);
  ASSERT_NE(sig, nullptr);
  EXPECT_EQ(sig->node, home);
  EXPECT_TRUE(redoop.store().Has(sig->key));
}

TEST(CacheControllerTest, OnNodeLostSweepsAllItsCaches) {
  // A dead node reports every file it held; each goes through RollBack.
  WindowAwareCacheController controller;
  controller.RegisterQuery(JoinQuery(), kPane);
  controller.OnPaneInHdfs(2, 1, 0, {"S1P0"});
  controller.AddSignature(InputSig(2, 1, 0, 0, 3), 2);
  controller.AddSignature(InputSig(2, 1, 1, 0, 3), 2);
  controller.AddSignature(InputSig(2, 1, 2, 0, 4), 2);
  controller.OnPaneCached(2, 1, 0);

  for (PaneId p : {0, 1}) {
    EXPECT_EQ(controller.RollBack(CacheKey::ReduceInput(2, 1, p, 0),
                                  CacheLoss::kLost),
              3);
  }
  EXPECT_EQ(controller.signature_count(), 1u);
  EXPECT_EQ(controller.Find(ReduceInputCacheName(2, 1, 2, 0))->node, 4)
      << "other nodes' caches untouched";
}

TEST(CacheControllerTest, DoneQueryMaskSpansRegisteredQueries) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(AggQuery(1), kPane);
  RecurringQuery other = AggQuery(5);
  controller.RegisterQuery(other, kPane);

  controller.AddSignature(InputSig(1, 1, 0, 0, 2), 1);
  const CacheSignature* sig =
      controller.Find(ReduceInputCacheName(1, 1, 0, 0));
  ASSERT_NE(sig, nullptr);
  ASSERT_EQ(sig->done_query_mask.size(), 2u);
  // Owner bit unset, non-user query pre-set (paper §4.2).
  EXPECT_FALSE(sig->done_query_mask[0]);
  EXPECT_TRUE(sig->done_query_mask[1]);
}

TEST(CacheControllerTest, DropSignatureReturnsNode) {
  WindowAwareCacheController controller;
  controller.RegisterQuery(AggQuery(), kPane);
  controller.AddSignature(InputSig(1, 1, 0, 0, 7), 1);
  const CacheKey key = CacheKey::ReduceInput(1, 1, 0, 0);
  EXPECT_EQ(controller.RollBack(key, CacheLoss::kInvalidated), 7);
  EXPECT_EQ(controller.Find(key.name()), nullptr);
  EXPECT_EQ(controller.RollBack(key, CacheLoss::kInvalidated), kInvalidNode)
      << "unknown caches roll back to nothing";
}

}  // namespace
}  // namespace redoop
