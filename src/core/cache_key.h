#ifndef REDOOP_CORE_CACHE_KEY_H_
#define REDOOP_CORE_CACHE_KEY_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/ids.h"

namespace redoop {

/// Typed identity of a cache entry, wrapping the pane_naming scheme
/// (paper §3.2). A CacheKey is always well-formed: it is built either from
/// components via the factory functions or by parsing a canonical name, so
/// a malformed pane name fails loudly at construction instead of silently
/// missing the cache at lookup time.
///
/// Grammar (the driver's chunk/rebuild suffixes included):
///   "RIC_Q<q>_S<s>P<p>_R<r>[_c<n>][_rb]"   reduce input cache
///   "ROC_Q<q>_S<s>P<p>_R<r>[_c<n>][_rb]"   per-pane reduce output cache
///   "JOC_Q<q>_P<l>x<r>_R<r>"               pane-pair join output cache
class CacheKey {
 public:
  enum class Kind { kInvalid, kReduceInput, kReduceOutput, kJoinOutput };

  /// An invalid (empty) key; usable as a map value placeholder. All other
  /// constructions produce valid keys.
  CacheKey() = default;

  static CacheKey ReduceInput(QueryId query, SourceId source, PaneId pane,
                              int32_t partition);
  static CacheKey ReduceOutput(QueryId query, SourceId source, PaneId pane,
                               int32_t partition);
  static CacheKey JoinOutput(QueryId query, PaneId left, PaneId right,
                             int32_t partition);

  /// Parses a canonical cache name; nullopt when malformed (wrong prefix,
  /// negative components, trailing garbage).
  static std::optional<CacheKey> Parse(const std::string& name);
  /// Like Parse but CHECK-fails on malformed input — for names that are
  /// structurally guaranteed valid (signatures, manifests).
  static CacheKey FromName(const std::string& name);

  /// Derived keys for the driver's multi-chunk and rebuild materializations.
  /// Chunk applies once, rebuild applies once, in that order.
  CacheKey WithChunk(int32_t chunk) const;
  CacheKey Rebuilt() const;

  /// Content-addressed dedup key for one pane's cached images (DESIGN
  /// §17): two queries map to the same key exactly when their cached
  /// bytes for the pane are provably identical — same pipeline signature
  /// (mapper / combiner / partitioner / reducer count), same execution
  /// mode (which cache kinds the driver materializes), same source, same
  /// pane grid, same pane. Deliberately query-id-free; this is the name
  /// space physical sharing happens in.
  static std::string ContentKey(const std::string& pipeline_signature,
                                int32_t execution_mode, SourceId source,
                                int64_t pane_size, PaneId pane);

  bool valid() const { return kind_ != Kind::kInvalid; }
  Kind kind() const { return kind_; }
  QueryId query() const { return query_; }
  SourceId source() const { return source_; }    // RIC/ROC only.
  PaneId pane() const { return pane_; }          // Left pane for JOC.
  /// Right pane of a JOC; kInvalidPane for RIC/ROC.
  PaneId pane_right() const { return pane_right_; }
  int32_t partition() const { return partition_; }
  int32_t chunk() const { return chunk_; }  // -1 when no chunk suffix.
  bool rebuilt() const { return rebuilt_; }
  const std::string& name() const { return name_; }

  friend bool operator==(const CacheKey& a, const CacheKey& b) {
    return a.name_ == b.name_;
  }
  friend bool operator!=(const CacheKey& a, const CacheKey& b) {
    return !(a == b);
  }
  friend bool operator<(const CacheKey& a, const CacheKey& b) {
    return a.name_ < b.name_;
  }

 private:
  Kind kind_ = Kind::kInvalid;
  QueryId query_ = 0;
  SourceId source_ = 0;
  PaneId pane_ = 0;
  PaneId pane_right_ = kInvalidPane;
  int32_t partition_ = 0;
  int32_t chunk_ = -1;
  bool rebuilt_ = false;
  std::string name_;
};

}  // namespace redoop

#endif  // REDOOP_CORE_CACHE_KEY_H_
