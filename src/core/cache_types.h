#ifndef REDOOP_CORE_CACHE_TYPES_H_
#define REDOOP_CORE_CACHE_TYPES_H_

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "core/cache_key.h"

namespace redoop {

/// What a cache file holds (paper §4.1: the `type` field of the local cache
/// registry; 0 is "not available").
enum class CacheType : int32_t {
  kNone = 0,
  kReduceInput = 1,
  kReduceOutput = 2,
};

/// Availability of a pane/cache (paper §4.2: the `ready` column; 0 = not
/// available, 1 = in HDFS, 2 = cached on a task node's local FS).
enum class CacheReady : int32_t {
  kNotAvailable = 0,
  kHdfsAvailable = 1,
  kCacheAvailable = 2,
};

const char* CacheTypeName(CacheType type);
const char* CacheReadyName(CacheReady ready);

/// The master-side summary of one cached file (paper §4.2 "cache
/// signature"): identity, location, availability, and which queries are
/// done with it. The key carries the query, source, pane (pair) and
/// partition.
struct CacheSignature {
  CacheKey key;
  CacheType type = CacheType::kNone;
  CacheReady ready = CacheReady::kNotAvailable;
  NodeId node = kInvalidNode;
  int64_t bytes = 0;
  int64_t records = 0;
  /// donequerymask: bit q set once registered query q no longer needs this
  /// cache. All-set == expired.
  std::vector<bool> done_query_mask;

  bool Expired() const {
    for (bool b : done_query_mask) {
      if (!b) return false;
    }
    return !done_query_mask.empty();
  }
};

}  // namespace redoop

#endif  // REDOOP_CORE_CACHE_TYPES_H_
