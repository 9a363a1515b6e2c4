#include "core/cache_controller.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace redoop {

int32_t WindowAwareCacheController::RegisterQuery(const RecurringQuery& query,
                                                  Timestamp pane_size) {
  query.CheckValid();
  REDOOP_CHECK(queries_.count(query.id) == 0)
      << "query " << query.id << " already registered";
  auto state = std::make_unique<QueryState>();
  state->query = query;
  state->mask_bit = static_cast<int32_t>(queries_.size());
  state->pane_size = pane_size;
  state->geometry =
      std::make_unique<WindowGeometry>(query.window(), pane_size);
  if (query.pattern == IncrementalPattern::kPanePairJoin) {
    state->matrix = std::make_unique<CacheStatusMatrix>(*state->geometry);
  }
  const int32_t bit = state->mask_bit;
  queries_[query.id] = std::move(state);
  return bit;
}

WindowAwareCacheController::QueryState* WindowAwareCacheController::FindQuery(
    QueryId id) {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : it->second.get();
}

const WindowAwareCacheController::QueryState*
WindowAwareCacheController::FindQuery(QueryId id) const {
  auto it = queries_.find(id);
  return it == queries_.end() ? nullptr : it->second.get();
}

// ---------------------------------------------------------------------------
// Pane lifecycle
// ---------------------------------------------------------------------------

void WindowAwareCacheController::OnPaneInHdfs(
    QueryId query, SourceId source, PaneId pane,
    const std::vector<std::string>& files) {
  QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr) << "unregistered query " << query;
  PaneState& state = q->panes[{source, pane}];
  for (const std::string& f : files) {
    if (std::find(state.files.begin(), state.files.end(), f) ==
        state.files.end()) {
      state.files.push_back(f);
    }
  }
  if (state.ready == CacheReady::kNotAvailable) {
    state.ready = CacheReady::kHdfsAvailable;
    if (scope_.active()) {
      scope_.Emit(obs::event::kPaneReady)
          .With("query", query)
          .With("source", source)
          .With("pane", pane)
          .With("ready", static_cast<int32_t>(CacheReady::kHdfsAvailable));
    }
  }
  if (!state.in_map_list && state.ready == CacheReady::kHdfsAvailable) {
    state.in_map_list = true;
    map_task_list_.push_back(PaneWorkItem{query, source, pane, state.files,
                                          /*rebuild=*/false});
  } else if (state.in_map_list) {
    // Refresh the queued item's file list (more sub-panes arrived).
    for (PaneWorkItem& item : map_task_list_) {
      if (item.query == query && item.source == source && item.pane == pane) {
        item.files = state.files;
      }
    }
  }
}

void WindowAwareCacheController::OnPaneCached(QueryId query, SourceId source,
                                              PaneId pane) {
  QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  PaneState& state = q->panes[{source, pane}];
  state.ready = CacheReady::kCacheAvailable;
  state.in_map_list = false;
  if (scope_.active()) {
    scope_.Emit(obs::event::kPaneReady)
        .With("query", query)
        .With("source", source)
        .With("pane", pane)
        .With("ready", static_cast<int32_t>(CacheReady::kCacheAvailable));
  }
  if (q->matrix != nullptr) EnqueueReadyPairs(q, source, pane);
}

CacheReady WindowAwareCacheController::PaneReady(QueryId query,
                                                 SourceId source,
                                                 PaneId pane) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  auto it = q->panes.find({source, pane});
  return it == q->panes.end() ? CacheReady::kNotAvailable : it->second.ready;
}

std::vector<std::string> WindowAwareCacheController::PaneFiles(
    QueryId query, SourceId source, PaneId pane) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  auto it = q->panes.find({source, pane});
  return it == q->panes.end() ? std::vector<std::string>() : it->second.files;
}

// ---------------------------------------------------------------------------
// Signatures
// ---------------------------------------------------------------------------

void WindowAwareCacheController::AddSignature(CacheSignature signature,
                                              QueryId owner) {
  QueryState* q = FindQuery(owner);
  REDOOP_CHECK(q != nullptr);
  // doneQueryMask: one bit per registered query; queries that never touch
  // this cache start at 1 (paper §4.2), so only the owner's bit gates
  // expiration.
  signature.done_query_mask.assign(queries_.size(), true);
  signature.done_query_mask[static_cast<size_t>(q->mask_bit)] = false;

  // Index by pane (or pane pair), avoiding duplicate index entries when a
  // cache is re-registered after loss + rebuild.
  const CacheKey& key = signature.key;
  const std::string& name = key.name();
  auto index = [&name](auto* by, const auto& at) {
    auto [begin, end] = by->equal_range(at);
    const bool indexed =
        std::any_of(begin, end, [&](const auto& e) { return e.second == name; });
    if (!indexed) by->insert({at, name});
  };
  if (key.kind() == CacheKey::Kind::kJoinOutput) {
    index(&q->caches_by_pair, std::pair{key.pane(), key.pane_right()});
  } else {
    index(&q->caches_by_pane, std::pair{key.source(), key.pane()});
  }
  if (scope_.active()) {
    scope_.Increment(obs::metric::kCacheAdds);
    scope_.Increment(obs::metric::kCacheAddBytes, signature.bytes);
    scope_.Emit(obs::event::kCacheAdd)
        .With("name", name)
        .With("node", signature.node)
        .With("kind", CacheTypeName(signature.type))
        .With("source", key.source())
        .With("pane", key.pane())
        .With("pane_right", key.pane_right())
        .With("partition", key.partition())
        .With("bytes", signature.bytes)
        .With("records", signature.records);
  }
  signatures_[name] = std::move(signature);
}

const CacheSignature* WindowAwareCacheController::Find(
    const std::string& name) const {
  auto it = signatures_.find(name);
  return it == signatures_.end() ? nullptr : &it->second;
}

std::vector<const CacheSignature*> WindowAwareCacheController::CachesForPane(
    QueryId query, SourceId source, PaneId pane, CacheType type) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  std::vector<const CacheSignature*> out;
  auto [begin, end] = q->caches_by_pane.equal_range({source, pane});
  for (auto it = begin; it != end; ++it) {
    const CacheSignature* sig = Find(it->second);
    if (sig != nullptr && sig->type == type) out.push_back(sig);
  }
  std::sort(out.begin(), out.end(),
            [](const CacheSignature* a, const CacheSignature* b) {
              return a->key.partition() < b->key.partition();
            });
  return out;
}

// ---------------------------------------------------------------------------
// Join bookkeeping
// ---------------------------------------------------------------------------

void WindowAwareCacheController::MarkPanePairDone(QueryId query, PaneId left,
                                                  PaneId right) {
  QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr && q->matrix != nullptr);
  q->matrix->MarkDone(left, right);
  if (scope_.active()) {
    scope_.Emit(obs::event::kMatrixDone)
        .With("query", query)
        .With("left", left)
        .With("right", right);
  }
}

bool WindowAwareCacheController::IsPanePairDone(QueryId query, PaneId left,
                                                PaneId right) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr && q->matrix != nullptr);
  return q->matrix->IsDone(left, right);
}

const CacheStatusMatrix* WindowAwareCacheController::matrix(
    QueryId query) const {
  const QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  return q->matrix.get();
}

void WindowAwareCacheController::EnqueueReadyPairs(QueryState* q,
                                                   SourceId source,
                                                   PaneId pane) {
  REDOOP_CHECK(q->query.sources.size() == 2);
  const SourceId left_source = q->query.sources[0].id;
  const SourceId right_source = q->query.sources[1].id;
  const bool is_left = source == left_source;
  const SourceId partner_source = is_left ? right_source : left_source;

  // Pair `pane` with every partner pane within its lifespan whose caches
  // are also available (paper §4.3: "whenever the ready bit turns 2, it
  // will be matched up with the other panes based on its lifespan").
  const PaneRange lifespan = JoinLifespan(*q->geometry, pane);
  for (PaneId partner = lifespan.first; partner < lifespan.last; ++partner) {
    auto it = q->panes.find({partner_source, partner});
    if (it == q->panes.end() ||
        it->second.ready != CacheReady::kCacheAvailable) {
      continue;
    }
    const PaneId left = is_left ? pane : partner;
    const PaneId right = is_left ? partner : pane;
    if (q->matrix->IsDone(left, right)) continue;
    if (!q->pairs_enqueued.insert({left, right}).second) continue;
    reduce_task_list_.push_back(PanePairWorkItem{q->query.id, left, right});
  }
}

// ---------------------------------------------------------------------------
// Task lists
// ---------------------------------------------------------------------------

std::optional<PaneWorkItem> WindowAwareCacheController::PopMapTask() {
  if (map_task_list_.empty()) return std::nullopt;
  PaneWorkItem item = std::move(map_task_list_.front());
  map_task_list_.pop_front();
  QueryState* q = FindQuery(item.query);
  if (q != nullptr) {
    auto it = q->panes.find({item.source, item.pane});
    if (it != q->panes.end()) it->second.in_map_list = false;
  }
  return item;
}

std::optional<PanePairWorkItem> WindowAwareCacheController::PopReduceTask() {
  if (reduce_task_list_.empty()) return std::nullopt;
  PanePairWorkItem item = reduce_task_list_.front();
  reduce_task_list_.pop_front();
  QueryState* q = FindQuery(item.query);
  if (q != nullptr) q->pairs_enqueued.erase({item.left, item.right});
  return item;
}

// ---------------------------------------------------------------------------
// Expiration
// ---------------------------------------------------------------------------

void WindowAwareCacheController::ExpireCache(
    const std::string& name, QueryState* q,
    std::vector<PurgeNotification>* out) {
  auto it = signatures_.find(name);
  if (it == signatures_.end()) return;
  CacheSignature& sig = it->second;
  sig.done_query_mask[static_cast<size_t>(q->mask_bit)] = true;
  if (!sig.Expired()) return;
  if (scope_.active()) {
    scope_.Increment(obs::metric::kCacheEvictions);
    scope_.Emit(obs::event::kCacheEvict)
        .With("name", name)
        .With("node", sig.node)
        .With("reason", "expired")
        .With("bytes", sig.bytes);
  }
  out->push_back(PurgeNotification{sig.node, sig.key});
  signatures_.erase(it);
}

std::vector<PurgeNotification> WindowAwareCacheController::FinishRecurrence(
    QueryId query, int64_t recurrence) {
  QueryState* q = FindQuery(query);
  REDOOP_CHECK(q != nullptr);
  q->last_finished_recurrence = std::max(q->last_finished_recurrence,
                                         recurrence);
  std::vector<PurgeNotification> notifications;

  if (q->matrix != nullptr) {
    // Join: the matrix shift decides which panes retire; their reduce-input
    // caches expire with them. A pane-pair output cache expires once the
    // last window containing both panes has completed.
    auto [left_purged, right_purged] = q->matrix->Shift(recurrence);
    if (scope_.active()) {
      scope_.Emit(obs::event::kMatrixShift)
          .With("query", query)
          .With("recurrence", recurrence)
          .With("purged_left", static_cast<int64_t>(left_purged.size()))
          .With("purged_right", static_cast<int64_t>(right_purged.size()))
          .With("cells", q->matrix->CellCount());
    }
    const SourceId left_source = q->query.sources[0].id;
    const SourceId right_source = q->query.sources[1].id;
    auto expire_pane = [&](SourceId source, PaneId pane) {
      auto [begin, end] = q->caches_by_pane.equal_range({source, pane});
      std::vector<std::string> names;
      for (auto it = begin; it != end; ++it) names.push_back(it->second);
      for (const std::string& name : names) {
        ExpireCache(name, q, &notifications);
      }
      q->caches_by_pane.erase({source, pane});
      q->panes.erase({source, pane});
    };
    for (PaneId p : left_purged) expire_pane(left_source, p);
    for (PaneId p : right_purged) expire_pane(right_source, p);

    // Pair outputs.
    for (auto it = q->caches_by_pair.begin(); it != q->caches_by_pair.end();) {
      const auto [left, right] = it->first;
      const int64_t last_needed =
          std::min(q->geometry->LastRecurrenceUsingPane(left),
                   q->geometry->LastRecurrenceUsingPane(right));
      if (last_needed <= recurrence) {
        ExpireCache(it->second, q, &notifications);
        it = q->caches_by_pair.erase(it);
      } else {
        ++it;
      }
    }
  } else {
    // Aggregation: a pane expires once it is outside every future window.
    for (auto it = q->caches_by_pane.begin(); it != q->caches_by_pane.end();) {
      const PaneId pane = it->first.second;
      if (q->geometry->PaneExpiredAfter(pane, recurrence)) {
        ExpireCache(it->second, q, &notifications);
        it = q->caches_by_pane.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = q->panes.begin(); it != q->panes.end();) {
      if (q->geometry->PaneExpiredAfter(it->first.second, recurrence)) {
        it = q->panes.erase(it);
      } else {
        ++it;
      }
    }
  }
  return notifications;
}

// ---------------------------------------------------------------------------
// Failure recovery
// ---------------------------------------------------------------------------

namespace {
const char* InvalidateReason(CacheLoss cause) {
  switch (cause) {
    case CacheLoss::kLost:
      return "lost";
    case CacheLoss::kInvalidated:
      return "dropped";
    case CacheLoss::kDiskFull:
      return "disk_full";
    case CacheLoss::kEvicted:
      break;
  }
  return nullptr;  // Evictions are journaled by the store.
}
}  // namespace

NodeId WindowAwareCacheController::RollBack(const CacheKey& key,
                                            CacheLoss cause) {
  auto it = signatures_.find(key.name());
  if (it == signatures_.end()) return kInvalidNode;
  const NodeId node = it->second.node;
  const char* reason = InvalidateReason(cause);
  if (reason != nullptr && scope_.active()) {
    scope_.Increment(obs::metric::kCacheInvalidations);
    scope_.Emit(obs::event::kCacheInvalidate)
        .With("name", key.name())
        .With("node", node)
        .With("reason", reason)
        .With("bytes", it->second.bytes);
  }
  const CacheType type = it->second.type;
  signatures_.erase(it);
  QueryState* q = FindQuery(key.query());
  if (q == nullptr) return node;

  if (key.kind() == CacheKey::Kind::kJoinOutput) {
    // Drop only this partition's index entry; the pair's sibling
    // partitions keep theirs and expire on their own.
    auto [begin, end] =
        q->caches_by_pair.equal_range({key.pane(), key.pane_right()});
    for (auto e = begin; e != end; ++e) {
      if (e->second == key.name()) {
        q->caches_by_pair.erase(e);
        break;
      }
    }
    const int64_t last_needed =
        std::min(q->geometry->LastRecurrenceUsingPane(key.pane()),
                 q->geometry->LastRecurrenceUsingPane(key.pane_right()));
    if (q->matrix != nullptr && last_needed > q->last_finished_recurrence) {
      q->matrix->MarkUndone(key.pane(), key.pane_right());
    }
    return node;
  }
  // Sibling partition caches of the pane survive: recovery is partition-
  // scoped (paper §6.4 — pane/partition-grained caching loses only part of
  // the cache on a failure).
  auto pane_it = q->panes.find({key.source(), key.pane()});
  if (type != CacheType::kReduceInput || pane_it == q->panes.end() ||
      pane_it->second.ready != CacheReady::kCacheAvailable) {
    return node;
  }
  PaneState& state = pane_it->second;
  state.ready = CacheReady::kHdfsAvailable;
  reduce_task_list_.erase(
      std::remove_if(reduce_task_list_.begin(), reduce_task_list_.end(),
                     [&](const PanePairWorkItem& item) {
                       if (item.query != q->query.id) return false;
                       const bool uses =
                           item.left == key.pane() || item.right == key.pane();
                       if (uses) {
                         q->pairs_enqueued.erase({item.left, item.right});
                       }
                       return uses;
                     }),
      reduce_task_list_.end());
  if (cause == CacheLoss::kLost && !state.in_map_list) {
    state.in_map_list = true;
    map_task_list_.push_back(PaneWorkItem{q->query.id, key.source(),
                                          key.pane(), state.files,
                                          /*rebuild=*/true});
    if (scope_.active()) {
      scope_.Increment(obs::metric::kCacheRebuilds);
      scope_.Emit(obs::event::kCacheRebuild)
          .With("query", q->query.id)
          .With("source", key.source())
          .With("pane", key.pane())
          .With("partition", key.partition())
          .With("node", node);
    }
  }
  return node;
}

}  // namespace redoop
