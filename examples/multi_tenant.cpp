// Multi-tenant consolidation: two recurring analytics with different
// window constraints share one clickstream source on one cluster (the
// paper's Semantic Analyzer takes "a sequence of recurring queries",
// §3.1). The coordinator puts both on the common GCD pane grid and
// interleaves their recurrences in trigger order; each query keeps its
// own caches and stays exactly correct.

#include <cstdio>

#include "common/logging.h"
#include "common/string_utils.h"
#include "core/multi_query.h"
#include "queries/aggregation_query.h"
#include "workload/wcc_generator.h"

using namespace redoop;

int main() {
  // Tenant A: every 30 min over the last 5 h. Tenant B: every hour over
  // the last 6 h. Shared source -> pane grid GCD(18000,1800,21600,3600).
  RecurringQuery tenant_a = MakeAggregationQuery(
      /*id=*/1, "tenant-a", /*source=*/1, /*win=*/18000, /*slide=*/1800, 8);
  RecurringQuery tenant_b = MakeAggregationQuery(
      /*id=*/2, "tenant-b", /*source=*/1, /*win=*/21600, /*slide=*/3600, 8);

  Cluster cluster(16, Config());
  auto feed = std::make_unique<SyntheticFeed>(/*batch_interval=*/600);
  WccGeneratorOptions options;
  options.record_logical_bytes = 2 * kBytesPerMB;
  feed->AddSource(1, std::make_shared<WccGenerator>(
                         std::make_shared<ConstantRate>(5.0), options));

  MultiQueryCoordinator coordinator(&cluster, feed.get());
  REDOOP_CHECK_OK(coordinator.AddQuery(tenant_a));
  REDOOP_CHECK_OK(coordinator.AddQuery(tenant_b));
  std::printf("Shared pane grid for source 1: %ld s\n\n",
              coordinator.PaneSizeForSource(1));

  const std::vector<RunReport> reports = coordinator.Run(/*windows=*/5).value();

  for (const RunReport& report : reports) {
    std::printf("%s\n%-8s %12s %14s %12s\n", report.system.c_str(), "window",
                "trigger", "response (s)", "rows");
    for (const WindowReport& w : report.windows) {
      std::printf("%-8ld %12s %14.1f %12ld\n", w.recurrence + 1,
                  HumanDuration(static_cast<double>(w.trigger_time)).c_str(),
                  w.response_time, w.output_records);
    }
    std::printf("\n");
  }

  std::printf("Both tenants' caches live side by side: %zu signatures on "
              "tenant A's controller, %zu on tenant B's.\n",
              coordinator.driver(1).controller().signature_count(),
              coordinator.driver(2).controller().signature_count());
  return 0;
}
