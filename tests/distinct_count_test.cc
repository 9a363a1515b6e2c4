// Tests for the exact distinct-count recurring query (set-union partials,
// a third aggregation shape on kPerPaneMerge).

#include <gtest/gtest.h>

#include <set>

#include "baseline/hadoop_driver.h"
#include "core/redoop_driver.h"
#include "queries/distinct_count_query.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SameOutput;
using ::redoop::testing::SmallClusterConfig;

constexpr int32_t kNodes = 6;

TEST(DistinctSetReducerTest, UnionsAndSorts) {
  DistinctSetReducer reducer;
  ReduceContext context;
  reducer.Reduce("k",
                 std::vector<KeyValue>{{"k", "b|c", 8}, {"k", "a", 8}, {"k", "c|d", 8}},
                 &context);
  ASSERT_EQ(context.output().size(), 1u);
  EXPECT_EQ(context.output()[0].value, "a|b|c|d");
}

TEST(DistinctCountFinalizerTest, CountsUnion) {
  DistinctCountFinalizer finalizer;
  ReduceContext context;
  finalizer.Reduce("k", std::vector<KeyValue>{{"k", "a|b", 8}, {"k", "b|c", 8}}, &context);
  ASSERT_EQ(context.output().size(), 1u);
  EXPECT_EQ(context.output()[0].value, "3");
}

TEST(DistinctCountTest, MatchesBruteForceOracle) {
  RecurringQuery query =
      MakeDistinctCountQuery(1, "dc", 1, /*win=*/200, /*slide=*/40, 4);
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriver driver(&cluster, feed.get(), query);

  for (int64_t i = 0; i < 3; ++i) {
    WindowReport w = driver.RunRecurrence(i).value();
    // Oracle: distinct first-value-field per key from the raw feed.
    auto oracle_feed = MakeWccFeed(1, 30, 20);
    const Timestamp begin = driver.geometry().WindowBegin(i);
    const Timestamp end = driver.geometry().WindowEnd(i);
    std::map<std::string, std::set<std::string>> oracle;
    for (const RecordBatch& batch : oracle_feed->BatchesFor(1, 0, end)) {
      for (const Record& r : batch.records) {
        if (r.timestamp < begin || r.timestamp >= end) continue;
        oracle[r.key].insert(r.value.substr(0, r.value.find(',')));
      }
    }
    ASSERT_EQ(w.output.size(), oracle.size()) << "window " << i;
    for (const KeyValue& kv : w.output) {
      ASSERT_TRUE(oracle.count(kv.key)) << kv.key;
      EXPECT_EQ(kv.value, std::to_string(oracle[kv.key].size()))
          << kv.key << " in window " << i;
    }
  }
}

TEST(DistinctCountTest, RedoopMatchesHadoop) {
  RecurringQuery query = MakeDistinctCountQuery(1, "dc", 1, 200, 40, 4);

  Cluster hadoop_cluster(kNodes, SmallClusterConfig());
  auto hadoop_feed = MakeWccFeed(1, 30, 20);
  HadoopRecurringDriver hadoop(&hadoop_cluster, hadoop_feed.get(), query);

  Cluster redoop_cluster(kNodes, SmallClusterConfig());
  auto redoop_feed = MakeWccFeed(1, 30, 20);
  RedoopDriver redoop(&redoop_cluster, redoop_feed.get(), query);

  // Without caches every window is one recompute job, which must apply the
  // count finalizer to the whole window's distinct set.
  Cluster nocache_cluster(kNodes, SmallClusterConfig());
  auto nocache_feed = MakeWccFeed(1, 30, 20);
  RedoopDriverOptions nocache;
  nocache.cache.reduce_input = false;
  nocache.cache.reduce_output = false;
  RedoopDriver redoop_nocache(&nocache_cluster, nocache_feed.get(), query,
                              nocache);

  for (int64_t i = 0; i < 4; ++i) {
    WindowReport h = hadoop.RunRecurrence(i);
    WindowReport r = redoop.RunRecurrence(i).value();
    ASSERT_TRUE(SameOutput(h.output, r.output)) << "window " << i;
    WindowReport n = redoop_nocache.RunRecurrence(i).value();
    ASSERT_TRUE(SameOutput(h.output, n.output)) << "no caches, window " << i;
  }
}

}  // namespace
}  // namespace redoop
