// Unit tests for the flat KV arena: slice layout, the normalized-prefix
// sort, flat merge, KvRange views, and the scratch materialization the
// string Reduce adapter relies on.
#include "mapreduce/kv_arena.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "gtest/gtest.h"
#include "mapreduce/kv.h"

namespace redoop {
namespace {

TEST(FlatKvBufferTest, AppendAndRead) {
  FlatKvBuffer buf;
  buf.Append("alpha", "1", 14);
  buf.Append("", "empty-key", 17);
  buf.Append("beta", "", 12);
  ASSERT_EQ(buf.size(), 3u);
  EXPECT_EQ(buf.key(0), "alpha");
  EXPECT_EQ(buf.value(0), "1");
  EXPECT_EQ(buf.logical_bytes(0), 14);
  EXPECT_EQ(buf.key(1), "");
  EXPECT_EQ(buf.value(1), "empty-key");
  EXPECT_EQ(buf.key(2), "beta");
  EXPECT_EQ(buf.value(2), "");
  EXPECT_EQ(buf.total_logical_bytes(), 14 + 17 + 12);
}

TEST(FlatKvBufferTest, FramingAppendMatchesKeyValueDefault) {
  FlatKvBuffer buf;
  buf.Append("key", "value");
  const KeyValue kv("key", "value");
  EXPECT_EQ(buf.logical_bytes(0), kv.logical_bytes);
}

TEST(FlatKvBufferTest, RoundTripsThroughKeyValues) {
  std::vector<KeyValue> kvs = {
      {"b", "2", 10}, {"a", "1", 9}, {"a", "0", 9}, {"c", "", 8}};
  FlatKvBuffer buf = FlatKvBuffer::FromKeyValues(kvs);
  EXPECT_EQ(buf.ToKeyValues(), kvs);
}

// The window union appends thousands of small payloads into one vector.
// AppendToKeyValues must leave growth geometric: an exact reserve per call
// reallocates (and moves every row) on every append, which is quadratic.
TEST(FlatKvBufferTest, RepeatedAppendsGrowGeometrically) {
  constexpr int kBuffers = 2000;
  std::vector<FlatKvBuffer> buffers(kBuffers);
  std::vector<KeyValue> expected;
  for (int i = 0; i < kBuffers; ++i) {
    const std::string key = "client-" + std::to_string(i % 97);
    const std::string value = std::to_string(i);
    buffers[i].Append(key, value, 20 + i % 5);
    expected.emplace_back(key, value, 20 + i % 5);
  }
  std::vector<KeyValue> out;
  int capacity_changes = 0;
  for (const FlatKvBuffer& buf : buffers) {
    const size_t before = out.capacity();
    buf.AppendToKeyValues(&out);
    if (out.capacity() != before) ++capacity_changes;
  }
  // ~log2(2000) = 11 doublings; twice that leaves room for any growth
  // factor above ~1.4 and still rejects one reallocation per append.
  EXPECT_LE(capacity_changes, 22);
  EXPECT_EQ(out, expected);

  // The engine's union reserves the exact total once.
  std::vector<const FlatKvBuffer*> parts;
  for (const FlatKvBuffer& buf : buffers) parts.push_back(&buf);
  const std::vector<KeyValue> concat = ConcatToKeyValues(parts);
  EXPECT_EQ(concat.capacity(), concat.size());
  EXPECT_EQ(concat, expected);
}

TEST(FlatKvBufferTest, PairLargerThanChunkGetsOwnChunk) {
  FlatKvBuffer buf;
  const std::string big(1 << 20, 'x');  // 1 MiB > 256 KiB chunk.
  buf.Append("small", "pair", 8);
  buf.Append("big", big, 4);
  buf.Append("after", "big", 8);
  EXPECT_EQ(buf.value(1), big);
  EXPECT_EQ(buf.key(2), "after");
}

TEST(FlatKvBufferTest, ViewsStableAcrossAppends) {
  FlatKvBuffer buf;
  buf.Append("first", "v", 8);
  const std::string_view key0 = buf.key(0);
  // Force several chunk rollovers.
  const std::string filler(100 * 1024, 'f');
  for (int i = 0; i < 16; ++i) buf.Append("k", filler, 8);
  EXPECT_EQ(key0, "first") << "chunk storage must never relocate";
}

// Arena footprint: small buffers pin a 4 KiB first chunk, chunks double up
// to 256 KiB, and buffers whose bytes are known up front get one exact
// chunk.
constexpr size_t kFirstChunk = 4 * 1024;
constexpr size_t kMaxChunk = 256 * 1024;

TEST(FlatKvBufferTest, OnePairPinsOnlyTheFirstChunk) {
  FlatKvBuffer buf;
  buf.Append("key", "value", 16);
  EXPECT_LE(buf.HostBytes(),
            static_cast<int64_t>(kFirstChunk + sizeof(KvSlice)));
  EXPECT_EQ(buf.ArenaBytes(), 8u);
}

TEST(FlatKvBufferTest, MixedAppendsKeepCapacityWithinTwiceUsed) {
  Random random(11);
  FlatKvBuffer buf;
  std::vector<KeyValue> expected;
  size_t bytes = 0;
  for (int i = 0; i < 10'000; ++i) {
    std::string key(1 + random.Uniform(8), static_cast<char>('a' + i % 26));
    std::string value(random.Uniform(13), static_cast<char>('0' + i % 10));
    bytes += key.size() + value.size();
    buf.Append(key, value, 8);
    expected.emplace_back(std::move(key), std::move(value), 8);
  }
  EXPECT_EQ(buf.ArenaBytes(), bytes);
  EXPECT_LE(buf.ArenaCapacity(), 2 * bytes + kFirstChunk);
  EXPECT_EQ(buf.ToKeyValues(), expected);
}

TEST(FlatKvBufferTest, PairLargerThanMaxChunkGetsExactChunk) {
  FlatKvBuffer buf;
  buf.Append("small", "pair", 8);
  const std::string big(kMaxChunk + 1, 'x');
  buf.Append("big", big, 4);
  EXPECT_EQ(buf.ArenaCapacity(), kFirstChunk + 3 + big.size());
  buf.Append("after", "big", 8);  // Growth after it stays capped.
  EXPECT_EQ(buf.ArenaCapacity(), kFirstChunk + 3 + big.size() + kMaxChunk);
  EXPECT_EQ(buf.value(1), big);
  EXPECT_EQ(buf.key(2), "after");
}

TEST(FlatKvBufferTest, ViewsStableAcrossGeometricGrowth) {
  FlatKvBuffer buf;
  std::vector<std::string_view> keys;
  std::vector<std::string> expected;
  int capacity_changes = 0;
  while (buf.ArenaBytes() < 60 * 1024) {
    const size_t before = buf.ArenaCapacity();
    std::string key = "key-" + std::to_string(keys.size());
    buf.Append(key, "value-bytes", 8);
    if (buf.ArenaCapacity() != before) ++capacity_changes;
    keys.push_back(buf.key(buf.size() - 1));
    expected.push_back(std::move(key));
  }
  // 4 + 8 + 16 + 32 + 64 KiB: five chunks hold the first 60 KiB.
  EXPECT_EQ(capacity_changes, 5);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(keys[i], expected[i]) << "chunk storage must never relocate";
  }
}

TEST(FlatKvBufferTest, KnownSizeBuffersGetOneExactChunk) {
  Random random(5);
  std::vector<KeyValue> kvs;
  FlatKvBuffer a;
  FlatKvBuffer b;
  for (int i = 0; i < 3000; ++i) {
    std::string key = "k" + std::to_string(random.Uniform(500));
    std::string value = std::to_string(i);
    (i % 2 == 0 ? a : b).Append(key, value, 8);
    kvs.emplace_back(std::move(key), std::move(value), 8);
  }
  const FlatKvBuffer from = FlatKvBuffer::FromKeyValues(kvs);
  EXPECT_EQ(from.ArenaCapacity(), from.ArenaBytes());
  const FlatKvBuffer sorted_a = a.SortedCopy();
  const FlatKvBuffer sorted_b = b.SortedCopy();
  EXPECT_EQ(sorted_a.ArenaCapacity(), a.ArenaBytes());
  EXPECT_EQ(sorted_b.ArenaCapacity(), b.ArenaBytes());
  const std::vector<const FlatKvBuffer*> runs = {&sorted_a, &sorted_b};
  const FlatKvBuffer merged = MergeFlatRuns(runs);
  EXPECT_EQ(merged.ArenaCapacity(), a.ArenaBytes() + b.ArenaBytes());
  EXPECT_EQ(merged.ArenaCapacity(), merged.ArenaBytes());
  EXPECT_TRUE(merged.IsSorted());
  EXPECT_EQ(merged.size(), kvs.size());
}

TEST(FlatKvBufferTest, NormalizedPrefixOrdersLikeBytes) {
  // Integer order of prefixes must equal lexicographic order of the first
  // 8 bytes, including empty keys, proper prefixes, and high bytes.
  const std::vector<std::string> keys = {
      "", "a", std::string("a\0", 2), "aa", "ab", "abcdefgh", "abcdefghZ",
      "b", std::string("\xff\xfe", 2), std::string("\x01", 1)};
  for (const std::string& a : keys) {
    for (const std::string& b : keys) {
      const std::string a8 = a.substr(0, 8);
      const std::string b8 = b.substr(0, 8);
      const uint64_t pa = FlatKvBuffer::NormalizedPrefix(a);
      const uint64_t pb = FlatKvBuffer::NormalizedPrefix(b);
      if (a8 < b8) {
        EXPECT_LE(pa, pb) << a << " vs " << b;
      } else if (b8 < a8) {
        EXPECT_LE(pb, pa) << a << " vs " << b;
      } else {
        EXPECT_EQ(pa, pb) << a << " vs " << b;
      }
    }
  }
}

TEST(FlatKvBufferTest, SortedOrderMatchesKeyValueLess) {
  Random random(7);
  FlatKvBuffer buf;
  std::vector<KeyValue> kvs;
  for (int i = 0; i < 500; ++i) {
    // Shared prefixes longer than 8 bytes force the tie fallback.
    std::string key = "shared-prefix-";
    key += static_cast<char>('a' + random.Uniform(4));
    if (random.Uniform(4) == 0) key = "";
    if (random.Uniform(5) == 0) key += '\0';
    std::string value = std::to_string(random.Uniform(10));
    buf.Append(key, value, 8);
    kvs.emplace_back(std::move(key), std::move(value), 8);
  }
  FlatKvBuffer sorted = buf.SortedCopy();
  std::stable_sort(kvs.begin(), kvs.end(), KeyValueLess{});
  EXPECT_TRUE(sorted.IsSorted());
  EXPECT_EQ(sorted.ToKeyValues(), kvs)
      << "prefix sort must equal stable (key, value) sort";
}

TEST(MergeFlatRunsTest, MergesSortedRunsStably) {
  FlatKvBuffer a;
  a.Append("a", "1", 8);
  a.Append("c", "runA", 8);
  FlatKvBuffer b;
  b.Append("b", "2", 8);
  b.Append("c", "runA", 8);  // Equal (key, value) as run a's pair.
  FlatKvBuffer c;  // Empty run.
  const std::vector<const FlatKvBuffer*> runs = {&a, &b, &c};
  FlatKvBuffer merged = MergeFlatRuns(runs);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_TRUE(merged.IsSorted());
  EXPECT_EQ(merged.key(0), "a");
  EXPECT_EQ(merged.key(1), "b");
  EXPECT_EQ(merged.key(2), "c");
  EXPECT_EQ(merged.key(3), "c");
}

TEST(MergeFlatRunsTest, SingleAndEmptyRuns) {
  FlatKvBuffer only;
  only.Append("x", "1", 8);
  const std::vector<const FlatKvBuffer*> single = {&only};
  EXPECT_EQ(MergeFlatRuns(single).size(), 1u);
  const std::vector<const FlatKvBuffer*> none = {};
  EXPECT_TRUE(MergeFlatRuns(none).empty());
}

TEST(KvRangeTest, ContiguousAndIndexViews) {
  FlatKvBuffer buf;
  buf.Append("k", "a", 8);
  buf.Append("k", "b", 8);
  buf.Append("k", "c", 8);
  const KvRange contiguous(buf, 1, 3);
  ASSERT_EQ(contiguous.size(), 2u);
  EXPECT_EQ(contiguous.value(0), "b");
  EXPECT_EQ(contiguous.value(1), "c");
  const std::vector<uint32_t> indices = {2, 0};
  const KvRange subset(buf, indices);
  ASSERT_EQ(subset.size(), 2u);
  EXPECT_EQ(subset.value(0), "c");
  EXPECT_EQ(subset.value(1), "a");
}

TEST(KvGroupScratchTest, MaterializesAndRecyclesStorage) {
  FlatKvBuffer buf;
  buf.Append("key", "long-value-one", 8);
  buf.Append("key", "two", 9);
  KvGroupScratch scratch;
  std::span<const KeyValue> group = scratch.Fill(KvRange(buf, 0, 2));
  ASSERT_EQ(group.size(), 2u);
  EXPECT_EQ(group[0].value, "long-value-one");
  EXPECT_EQ(group[1].logical_bytes, 9);
  // Refill with a shorter group: contents replaced, size honored.
  FlatKvBuffer other;
  other.Append("x", "y", 4);
  group = scratch.Fill(KvRange(other, 0, 1));
  ASSERT_EQ(group.size(), 1u);
  EXPECT_EQ(group[0].key, "x");
}

TEST(SortSliceIndicesTest, SortsSubsetOnly) {
  FlatKvBuffer buf;
  buf.Append("c", "1", 8);
  buf.Append("a", "1", 8);
  buf.Append("b", "1", 8);
  std::vector<uint32_t> idx = {0, 2};  // "c", "b" — skip "a".
  SortSliceIndices(buf, &idx);
  EXPECT_EQ(idx, (std::vector<uint32_t>{2, 0}));
}

}  // namespace
}  // namespace redoop
