// Tests for multi-query consolidation: shared-source pane grids (GCD over
// every query's window constraints), trigger-order interleaving on one
// cluster, and correctness of every co-running query against isolated
// plain-Hadoop runs.

#include <gtest/gtest.h>

#include "baseline/hadoop_driver.h"
#include "core/multi_query.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SameOutput;
using ::redoop::testing::SmallClusterConfig;

constexpr int32_t kNodes = 8;

TEST(MultiQueryTest, SharedSourceGetsGcdPaneGrid) {
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 20, 20);
  MultiQueryCoordinator coordinator(&cluster, feed.get());
  // Query 1: win 200 / slide 40 (own GCD 40); query 2: win 300 / slide 60
  // (own GCD 60). Shared source 1 -> common grid GCD(200,40,300,60) = 20.
  ASSERT_TRUE(
      coordinator.AddQuery(MakeAggregationQuery(1, "q1", 1, 200, 40, 4)).ok());
  ASSERT_TRUE(
      coordinator.AddQuery(MakeAggregationQuery(2, "q2", 1, 300, 60, 4)).ok());
  EXPECT_EQ(coordinator.PaneSizeForSource(1), 20);
}

TEST(MultiQueryTest, CoRunningQueriesMatchIsolatedHadoop) {
  RecurringQuery q1 = MakeAggregationQuery(1, "q1", 1, 200, 40, 4);
  RecurringQuery q2 = MakeAggregationQuery(2, "q2", 1, 300, 60, 4);
  constexpr int64_t kWindows = 3;

  // Ground truth: each query alone against plain Hadoop.
  std::vector<RunReport> truth;
  for (const RecurringQuery& q : {q1, q2}) {
    Cluster cluster(kNodes, SmallClusterConfig());
    auto feed = MakeWccFeed(1, 20, 20);
    HadoopRecurringDriver hadoop(&cluster, feed.get(), q);
    truth.push_back(hadoop.Run(kWindows));
  }

  // Both queries co-running on one Redoop cluster, sharing the source.
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 20, 20);
  MultiQueryCoordinator coordinator(&cluster, feed.get());
  ASSERT_TRUE(coordinator.AddQuery(q1).ok());
  ASSERT_TRUE(coordinator.AddQuery(q2).ok());
  const std::vector<RunReport> reports = coordinator.Run(kWindows).value();

  ASSERT_EQ(reports.size(), 2u);
  for (size_t qi = 0; qi < 2; ++qi) {
    ASSERT_EQ(reports[qi].windows.size(), static_cast<size_t>(kWindows));
    for (int64_t w = 0; w < kWindows; ++w) {
      EXPECT_TRUE(SameOutput(truth[qi].windows[static_cast<size_t>(w)].output,
                             reports[qi].windows[static_cast<size_t>(w)].output))
          << "query " << qi + 1 << " window " << w;
    }
  }
}

TEST(MultiQueryTest, InterleavesInTriggerOrder) {
  RecurringQuery q1 = MakeAggregationQuery(1, "fast", 1, 200, 40, 4);
  RecurringQuery q2 = MakeAggregationQuery(2, "slow", 1, 300, 60, 4);

  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 20, 20);
  MultiQueryCoordinator coordinator(&cluster, feed.get());
  ASSERT_TRUE(coordinator.AddQuery(q1).ok());
  ASSERT_TRUE(coordinator.AddQuery(q2).ok());
  const std::vector<RunReport> reports = coordinator.Run(3).value();

  // Triggers: q1 at 200, 240, 280; q2 at 300, 360, 420. Each query's
  // windows must finish in its own trigger order, and q1's first window
  // must complete before q2's first (it triggers 100 s earlier).
  EXPECT_LT(reports[0].windows[0].finished_at,
            reports[1].windows[0].finished_at);
  for (const RunReport& report : reports) {
    for (size_t w = 1; w < report.windows.size(); ++w) {
      EXPECT_GT(report.windows[w].finished_at,
                report.windows[w - 1].finished_at);
    }
  }
}

TEST(MultiQueryTest, QueriesOnDistinctSources) {
  RecurringQuery q1 = MakeAggregationQuery(1, "a", 1, 200, 40, 4);
  RecurringQuery q2 = MakeAggregationQuery(2, "b", 2, 200, 100, 4);

  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = std::make_unique<SyntheticFeed>(20);
  WccGeneratorOptions options;
  options.num_clients = 200;
  feed->AddSource(1, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(20.0), options));
  feed->AddSource(2, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(10.0), options));

  MultiQueryCoordinator coordinator(&cluster, feed.get());
  ASSERT_TRUE(coordinator.AddQuery(q1).ok());
  ASSERT_TRUE(coordinator.AddQuery(q2).ok());
  EXPECT_EQ(coordinator.PaneSizeForSource(1), 40);
  EXPECT_EQ(coordinator.PaneSizeForSource(2), 100);
  const std::vector<RunReport> reports = coordinator.Run(2).value();
  EXPECT_EQ(reports[0].windows.size(), 2u);
  EXPECT_EQ(reports[1].windows.size(), 2u);
  for (const RunReport& r : reports) {
    for (const WindowReport& w : r.windows) {
      EXPECT_GT(w.output_records, 0);
    }
  }
}

TEST(MultiQueryTest, RunWithNoQueriesIsFailedPrecondition) {
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 20, 20);
  MultiQueryCoordinator coordinator(&cluster, feed.get());
  const StatusOr<std::vector<RunReport>> result = coordinator.Run(2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MultiQueryTest, SecondRunIsFailedPrecondition) {
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 20, 20);
  MultiQueryCoordinator coordinator(&cluster, feed.get());
  ASSERT_TRUE(
      coordinator.AddQuery(MakeAggregationQuery(1, "once", 1, 200, 40, 4)).ok());
  ASSERT_TRUE(coordinator.Run(2).ok());
  const StatusOr<std::vector<RunReport>> again = coordinator.Run(2);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MultiQueryTest, DuplicateQueryIdIsAlreadyExists) {
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 20, 20);
  MultiQueryCoordinator coordinator(&cluster, feed.get());
  ASSERT_TRUE(
      coordinator.AddQuery(MakeAggregationQuery(1, "a", 1, 200, 40, 4)).ok());
  const Status dup =
      coordinator.AddQuery(MakeAggregationQuery(1, "b", 1, 200, 40, 4));
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(dup.message().find("duplicate"), std::string::npos);
  // The rejected query left nothing behind: the coordinator still runs.
  EXPECT_TRUE(coordinator.Run(1).ok());
}

TEST(MultiQueryTest, NonPositiveFairWeightIsInvalidArgument) {
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 20, 20);
  MultiQueryCoordinator coordinator(&cluster, feed.get());
  for (double weight : {0.0, -1.0}) {
    EXPECT_EQ(coordinator
                  .AddQuery(MakeAggregationQuery(1, "w", 1, 200, 40, 4), {},
                            weight)
                  .code(),
              StatusCode::kInvalidArgument);
  }
  // Nothing was registered, so the same id is still free.
  EXPECT_TRUE(
      coordinator.AddQuery(MakeAggregationQuery(1, "w", 1, 200, 40, 4)).ok());
}

TEST(MultiQueryTest, AddQueryAfterRunIsFailedPrecondition) {
  Cluster cluster(kNodes, SmallClusterConfig());
  auto feed = MakeWccFeed(1, 20, 20);
  MultiQueryCoordinator coordinator(&cluster, feed.get());
  ASSERT_TRUE(
      coordinator.AddQuery(MakeAggregationQuery(1, "a", 1, 200, 40, 4)).ok());
  ASSERT_TRUE(coordinator.Run(1).ok());
  EXPECT_EQ(
      coordinator.AddQuery(MakeAggregationQuery(2, "late", 1, 200, 40, 4))
          .code(),
      StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace redoop
