// Causal-tracing suite: span reconstruction (parent/child integrity,
// deterministic IDs at every thread count), cross-window follows-from
// lineage on an overlapping workload, node-death recovery linkage, the
// TraceContext propagation token, head-sampling policy, and the
// flight-recorder's atomic span eviction.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "common/string_utils.h"
#include "core/redoop_driver.h"
#include "obs/event_journal.h"
#include "obs/trace/span_builder.h"
#include "obs/trace/trace_context.h"
#include "queries/aggregation_query.h"
#include "tests/test_util.h"

namespace redoop {
namespace {

using ::redoop::testing::MakeWccFeed;
using ::redoop::testing::SmallClusterConfig;
using obs::EventJournal;
using obs::trace::BuildTrace;
using obs::trace::FollowsFrom;
using obs::trace::Span;
using obs::trace::SpanKind;
using obs::trace::Trace;
using obs::trace::TraceContext;

// ---------------------------------------------------------------------------
// TraceContext: the serializable propagation token.
// ---------------------------------------------------------------------------

TEST(TraceContextTest, SerializeParseRoundTrip) {
  TraceContext ctx;
  ctx.trace_id = obs::trace::TraceIdFor("redoop", "agg");
  ctx.span_id = obs::trace::WindowSpanId(ctx.trace_id, 7);
  ctx.window = 7;
  ctx.sampled = true;

  TraceContext back;
  ASSERT_TRUE(TraceContext::Parse(ctx.Serialize(), &back));
  EXPECT_EQ(back.trace_id, ctx.trace_id);
  EXPECT_EQ(back.span_id, ctx.span_id);
  EXPECT_EQ(back.window, ctx.window);
  EXPECT_EQ(back.sampled, ctx.sampled);

  ctx.sampled = false;
  ASSERT_TRUE(TraceContext::Parse(ctx.Serialize(), &back));
  EXPECT_FALSE(back.sampled);

  const TraceContext child = ctx.Child(obs::trace::TaskSpanId(ctx.trace_id,
                                                              42, 1));
  EXPECT_EQ(child.trace_id, ctx.trace_id);
  EXPECT_EQ(child.window, ctx.window);
  EXPECT_NE(child.span_id, ctx.span_id);
}

TEST(TraceContextTest, ParseRejectsMalformedTokens) {
  TraceContext out;
  EXPECT_FALSE(TraceContext::Parse("", &out));
  EXPECT_FALSE(TraceContext::Parse("redoop-trace/", &out));
  EXPECT_FALSE(TraceContext::Parse("redoop-trace/abcd/efgh/0/s", &out));
  EXPECT_FALSE(TraceContext::Parse(
      "other-prefix/0123456789abcdef/0123456789abcdef/0/s", &out));
  EXPECT_FALSE(TraceContext::Parse(
      "redoop-trace/0123456789abcdef/0123456789abcdef/0/x", &out));
  EXPECT_TRUE(TraceContext::Parse(
      "redoop-trace/0123456789abcdef/fedcba9876543210/3/u", &out));
  EXPECT_EQ(out.window, 3);
  EXPECT_FALSE(out.sampled);
}

// The streamed id derivation against the canonical strings the scheme was
// defined with, rendered by printf as the oracle.
TEST(TraceContextTest, StreamedIdsMatchPrintfCanonicalStrings) {
  using obs::trace::DeriveId;
  const auto hex = [](uint64_t id) {
    return StringPrintf("%016llx", static_cast<unsigned long long>(id));
  };
  const int64_t ints[] = {0,  1,  -1, 7, -42, 1000000007,
                          std::numeric_limits<int64_t>::min(),
                          std::numeric_limits<int64_t>::max()};
  const uint64_t parents[] = {0, 1, 0xcbf29ce484222325ull,
                              0xffffffffffffffffull,
                              obs::trace::TraceIdFor("redoop", "agg")};
  const std::string texts[] = {"", "agg-job", "a:b#c", "map",
                               std::string("nul\0tail", 8)};
  for (const uint64_t p : parents) {
    EXPECT_EQ(obs::trace::IdHex(p), hex(p));
    for (const int64_t a : ints) {
      EXPECT_EQ(obs::trace::WindowSpanId(p, a),
                DeriveId(StringPrintf("window:%s:%lld", hex(p).c_str(),
                                      static_cast<long long>(a))));
      for (const int64_t b : ints) {
        EXPECT_EQ(obs::trace::TaskSpanId(p, a, b),
                  DeriveId(StringPrintf("task:%s:%lld:%lld", hex(p).c_str(),
                                        static_cast<long long>(a),
                                        static_cast<long long>(b))));
        EXPECT_EQ(obs::trace::FailureSpanId(p, a, b),
                  DeriveId(StringPrintf("failure:%s:N%lld#%lld",
                                        hex(p).c_str(),
                                        static_cast<long long>(a),
                                        static_cast<long long>(b))));
        EXPECT_EQ(obs::trace::PaneSpanId(p, a, b, a ^ b),
                  DeriveId(StringPrintf("pane:%s:S%lld:P%lld:W%lld",
                                        hex(p).c_str(),
                                        static_cast<long long>(a),
                                        static_cast<long long>(b),
                                        static_cast<long long>(a ^ b))));
      }
      for (const std::string& x : texts) {
        for (const std::string& y : texts) {
          EXPECT_EQ(obs::trace::PhaseSpanId(p, x, a, y),
                    DeriveId(StringPrintf(
                        "phase:%s:%.*s#%lld:%.*s", hex(p).c_str(),
                        static_cast<int>(x.size()), x.data(),
                        static_cast<long long>(a),
                        static_cast<int>(y.size()), y.data())));
          EXPECT_EQ(obs::trace::CacheOpSpanId(p, x, y, a),
                    DeriveId(StringPrintf(
                        "cacheop:%s:%.*s:%.*s#%lld", hex(p).c_str(),
                        static_cast<int>(x.size()), x.data(),
                        static_cast<int>(y.size()), y.data(),
                        static_cast<long long>(a))));
        }
      }
      TraceContext ctx;
      ctx.trace_id = p;
      ctx.span_id = ~p;
      ctx.window = a;
      ctx.sampled = (a & 1) != 0;
      EXPECT_EQ(ctx.Serialize(),
                StringPrintf("redoop-trace/%s/%s/%lld/%c", hex(p).c_str(),
                             hex(~p).c_str(), static_cast<long long>(a),
                             ctx.sampled ? 's' : 'u'));
    }
  }
  for (const std::string& x : texts) {
    EXPECT_EQ(obs::trace::TraceIdFor(x, "q"), DeriveId("trace:" + x + "/q"));
  }
}

// ---------------------------------------------------------------------------
// Span reconstruction on a real overlapping run. win=200 slide=40 gives 5
// panes per window with 4 shared between consecutive windows, so from
// window 1 on every recurrence reuses cached panes — the cross-window
// lineage the tracer exists to expose.
// ---------------------------------------------------------------------------

std::string RunOverlapJournal(int32_t threads, int64_t recurrences = 4) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(1, "trace-agg", 1, 200, 40, 4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriverOptions options;
  options.runner.threads = threads;
  RedoopDriver driver(&cluster, feed.get(), query, options);
  EXPECT_TRUE(driver.Run(recurrences).ok());
  return driver.observability()->journal().ToJsonl();
}

Trace TraceFromJsonl(const std::string& jsonl) {
  EventJournal journal;
  EXPECT_TRUE(EventJournal::Parse(jsonl, &journal).ok());
  Trace trace;
  EXPECT_TRUE(BuildTrace(journal, &trace).ok());
  return trace;
}

TEST(TraceSpanTest, ParentChildIntegrity) {
  const Trace trace = TraceFromJsonl(RunOverlapJournal(1));
  ASSERT_FALSE(trace.spans.empty());
  EXPECT_TRUE(trace.stamp_mismatches.empty())
      << trace.stamp_mismatches.front();

  std::map<obs::trace::SpanId, const Span*> by_id;
  for (const Span& s : trace.spans) {
    EXPECT_EQ(by_id.count(s.id), 0u) << "duplicate span id " << s.id;
    by_id[s.id] = &s;
  }
  for (const Span& s : trace.spans) {
    if (s.parent == 0) {
      // Only windows and system-scoped failure spans are roots.
      EXPECT_TRUE(s.kind == SpanKind::kWindow || s.kind == SpanKind::kFailure)
          << s.label;
      continue;
    }
    auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << "dangling parent of " << s.label;
    const Span* parent = it->second;
    EXPECT_EQ(parent->trace, s.trace) << s.label;
    switch (s.kind) {
      case SpanKind::kPhase:
        EXPECT_EQ(parent->kind, SpanKind::kWindow) << s.label;
        break;
      case SpanKind::kTask:
        EXPECT_EQ(parent->kind, SpanKind::kPhase) << s.label;
        break;
      case SpanKind::kCacheOp:
      case SpanKind::kPane:
      case SpanKind::kFailure:
        EXPECT_TRUE(parent->kind == SpanKind::kTask ||
                    parent->kind == SpanKind::kWindow ||
                    parent->kind == SpanKind::kCacheOp)
            << s.label << " under " << parent->label;
        break;
      case SpanKind::kWindow:
        ADD_FAILURE() << "window span with a parent: " << s.label;
        break;
    }
  }
  EXPECT_GT(trace.CountKind(SpanKind::kWindow), 0u);
  EXPECT_GT(trace.CountKind(SpanKind::kPhase), 0u);
  EXPECT_GT(trace.CountKind(SpanKind::kTask), 0u);
  EXPECT_GT(trace.CountKind(SpanKind::kCacheOp), 0u);
  EXPECT_GT(trace.CountKind(SpanKind::kPane), 0u);
}

TEST(TraceSpanTest, SpanIdsAreByteIdenticalAtEveryThreadCount) {
  const std::string base_jsonl = RunOverlapJournal(1);
  const Trace base = TraceFromJsonl(base_jsonl);
  ASSERT_FALSE(base.spans.empty());
  for (int32_t threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string jsonl = RunOverlapJournal(threads);
    EXPECT_EQ(base_jsonl, jsonl);
    const Trace other = TraceFromJsonl(jsonl);
    ASSERT_EQ(base.spans.size(), other.spans.size());
    for (size_t i = 0; i < base.spans.size(); ++i) {
      EXPECT_EQ(base.spans[i].id, other.spans[i].id) << "span " << i;
      EXPECT_EQ(base.spans[i].parent, other.spans[i].parent) << "span " << i;
    }
    ASSERT_EQ(base.follows.size(), other.follows.size());
    for (size_t i = 0; i < base.follows.size(); ++i) {
      EXPECT_EQ(base.follows[i].from, other.follows[i].from) << "edge " << i;
      EXPECT_EQ(base.follows[i].to, other.follows[i].to) << "edge " << i;
    }
  }
}

TEST(TraceSpanTest, CrossWindowPaneReuseEdges) {
  const Trace trace = TraceFromJsonl(RunOverlapJournal(1));
  std::vector<const FollowsFrom*> reuse;
  for (const FollowsFrom& edge : trace.follows) {
    if (edge.kind == "pane_reuse") reuse.push_back(&edge);
  }
  // Overlap 4/5: windows 1..3 each reuse cached panes from earlier windows.
  ASSERT_FALSE(reuse.empty());
  std::set<int64_t> consuming_windows;
  for (const FollowsFrom* edge : reuse) {
    EXPECT_LT(edge->window_from, edge->window_to);
    consuming_windows.insert(edge->window_to);
    const Span* from = trace.Find(edge->from);
    ASSERT_NE(from, nullptr);
    EXPECT_EQ(from->kind, SpanKind::kPane);
    EXPECT_EQ(from->source, edge->source);
    EXPECT_EQ(from->pane, edge->pane);
    EXPECT_EQ(from->window, edge->window_from);
    const Span* to = trace.Find(edge->to);
    ASSERT_NE(to, nullptr);
    EXPECT_EQ(to->kind, SpanKind::kWindow);
    EXPECT_EQ(to->window, edge->window_to);
  }
  for (int64_t w : {1, 2, 3}) {
    EXPECT_EQ(consuming_windows.count(w), 1u) << "window " << w
                                              << " reused nothing";
  }
}

TEST(TraceSpanTest, NodeDeathLinksRecoveryToFailure) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(1, "trace-ft", 1, 200, 40, 4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriver driver(&cluster, feed.get(), query);
  for (int64_t i = 0; i < 4; ++i) {
    if (i == 2) {
      cluster.FailNode(3);  // Takes its caches and DFS replicas.
    }
    if (i == 3) {
      cluster.RecoverNode(3);
      cluster.dfs().ReplicateMissing();
    }
    ASSERT_TRUE(driver.RunRecurrence(i).ok()) << "window " << i;
  }

  Trace trace;
  ASSERT_TRUE(
      BuildTrace(driver.observability()->journal(), &trace).ok());
  std::vector<const FollowsFrom*> recovery;
  for (const FollowsFrom& edge : trace.follows) {
    if (edge.kind == "recovery") recovery.push_back(&edge);
  }
  ASSERT_FALSE(recovery.empty())
      << "node death produced no recovery follows-from edges";
  for (const FollowsFrom* edge : recovery) {
    const Span* from = trace.Find(edge->from);
    ASSERT_NE(from, nullptr);
    // The cause is the failure event itself (dfs.node.failed) or, on
    // journals without DFS attribution, the lost-cache invalidation.
    EXPECT_TRUE(from->kind == SpanKind::kFailure ||
                from->kind == SpanKind::kCacheOp)
        << from->label;
    const Span* to = trace.Find(edge->to);
    ASSERT_NE(to, nullptr);
    EXPECT_GE(to->end, from->start) << "recovery precedes its failure";
  }
}

// ---------------------------------------------------------------------------
// Head sampling: unsampled windows carry no stamped trace fields, but the
// offline reconstruction is unchanged (IDs are content-derived).
// ---------------------------------------------------------------------------

TEST(TraceSpanTest, SamplePeriodControlsStampsNotReconstruction) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(1, "trace-sampled", 1, 200, 40,
                                              4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 30, 20);
  const RedoopDriverOptions options =
      RedoopDriverOptions::Builder().TraceSamplePeriod(2).Build();
  RedoopDriver driver(&cluster, feed.get(), query, options);
  ASSERT_TRUE(driver.Run(4).ok());

  const EventJournal& journal = driver.observability()->journal();
  bool saw_stamped = false;
  for (const obs::Event& e : journal.events()) {
    const obs::EventField* trace_field = e.Find("trace");
    const int64_t window = e.IntOr("window", -1);
    if (window < 0) continue;
    if (window % 2 == 0) {
      saw_stamped = saw_stamped || trace_field != nullptr;
    } else {
      EXPECT_EQ(trace_field, nullptr)
          << "unsampled window " << window << " stamped " << e.type();
    }
  }
  EXPECT_TRUE(saw_stamped);

  Trace trace;
  ASSERT_TRUE(BuildTrace(journal, &trace).ok());
  EXPECT_TRUE(trace.stamp_mismatches.empty());
  EXPECT_EQ(trace.CountKind(SpanKind::kWindow), 4u);
}

// ---------------------------------------------------------------------------
// Flight recorder: retention eviction drops whole spans atomically — a
// surviving end event always has its begin, the drop is disclosed in the
// truncation counters, and the invariant round-trips through JSONL.
// ---------------------------------------------------------------------------

void ExpectNoOrphanSpanEvents(const EventJournal& journal) {
  std::set<std::string> begun;
  for (const obs::Event& e : journal.events()) {
    const std::string& type = e.type();
    if (type == obs::event::kTaskStart) {
      begun.insert("task/" + std::to_string(e.IntOr("task", -1)));
    } else if (type == obs::event::kTaskFinish ||
               type == obs::event::kTaskFail) {
      EXPECT_EQ(begun.count("task/" + std::to_string(e.IntOr("task", -1))),
                1u)
          << type << " without its task.start (task "
          << e.IntOr("task", -1) << ")";
    } else if (type == obs::event::kJobStart) {
      begun.insert("job/" + e.StrOr("query", "") + "/" + e.StrOr("job", ""));
    } else if (type == obs::event::kJobFinish) {
      EXPECT_EQ(begun.count("job/" + e.StrOr("query", "") + "/" +
                            e.StrOr("job", "")),
                1u)
          << "job.finish without its job.start";
    } else if (type == obs::event::kWindowOpen) {
      begun.insert("window/" + e.StrOr("query", "") + "/" +
                   std::to_string(e.IntOr("recurrence", -1)));
    } else if (type == obs::event::kWindowComplete) {
      EXPECT_EQ(begun.count("window/" + e.StrOr("query", "") + "/" +
                            std::to_string(e.IntOr("recurrence", -1))),
                1u)
          << "window.complete without its window.open";
    }
  }
}

TEST(FlightRecorderSpanTest, EvictionDropsWholeSpans) {
  EventJournal journal;
  journal.SetCommonField("system", "redoop");
  journal.SetRetentionBudget(4 * 1024);
  double now = 0.0;
  for (int64_t task = 0; task < 200; ++task) {
    journal.Append(now, obs::event::kTaskStart)
        .With("task", task)
        .With("attempt", static_cast<int64_t>(0))
        .With("kind", "map");
    now += 0.25;
    journal.Append(now, obs::event::kTaskFinish)
        .With("task", task)
        .With("attempt", static_cast<int64_t>(0))
        .With("duration", 0.25);
    now += 0.25;
  }
  ASSERT_GT(journal.dropped_events(), 0);
  ASSERT_GT(journal.dropped_bytes(), 0);
  ExpectNoOrphanSpanEvents(journal);

  // The invariant survives serialization, and the disclosed counters
  // round-trip with it.
  EventJournal parsed;
  ASSERT_TRUE(EventJournal::Parse(journal.ToJsonl(), &parsed).ok());
  EXPECT_EQ(parsed.dropped_events(), journal.dropped_events());
  EXPECT_EQ(parsed.dropped_bytes(), journal.dropped_bytes());
  ExpectNoOrphanSpanEvents(parsed);
}

TEST(FlightRecorderSpanTest, InterleavedSpansEvictAtomically) {
  // Begin/end pairs that interleave (task 1 starts before task 0 ends)
  // exercise the sealed-region scan: evicting task 0's start must also
  // drop its finish even though other events sit between them.
  EventJournal journal;
  journal.SetCommonField("system", "redoop");
  journal.SetRetentionBudget(2 * 1024);
  double now = 0.0;
  for (int64_t wave = 0; wave < 50; ++wave) {
    const int64_t a = wave * 2;
    const int64_t b = wave * 2 + 1;
    journal.Append(now += 0.1, obs::event::kTaskStart).With("task", a);
    journal.Append(now += 0.1, obs::event::kTaskStart).With("task", b);
    journal.Append(now += 0.1, obs::event::kTaskFinish).With("task", a);
    journal.Append(now += 0.1, obs::event::kTaskFinish).With("task", b);
  }
  ASSERT_GT(journal.dropped_events(), 0);
  ExpectNoOrphanSpanEvents(journal);
}

TEST(FlightRecorderSpanTest, TruncatedJournalStillBuildsValidTrace) {
  Config config = SmallClusterConfig();
  config.SetInt("dfs.placement_seed", 7);
  RecurringQuery query = MakeAggregationQuery(1, "trace-fr", 1, 200, 40, 4);
  Cluster cluster(8, config);
  auto feed = MakeWccFeed(1, 30, 20);
  RedoopDriver driver(&cluster, feed.get(), query);
  driver.observability()->journal().SetRetentionBudget(48 * 1024);
  ASSERT_TRUE(driver.Run(4).ok());

  const EventJournal& journal = driver.observability()->journal();
  ASSERT_GT(journal.dropped_events(), 0);
  ExpectNoOrphanSpanEvents(journal);
  Trace trace;
  ASSERT_TRUE(BuildTrace(journal, &trace).ok());
  EXPECT_TRUE(trace.stamp_mismatches.empty());
  // Whatever survived still forms a well-parented DAG.
  std::set<obs::trace::SpanId> ids;
  for (const Span& s : trace.spans) ids.insert(s.id);
  for (const Span& s : trace.spans) {
    if (s.parent != 0) EXPECT_EQ(ids.count(s.parent), 1u) << s.label;
  }
}

}  // namespace
}  // namespace redoop
