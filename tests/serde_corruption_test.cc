// Corrupt-input serde suite: every mutation of a serialized sketch either
// round-trips to a healthy, queryable sketch or throws a std:: exception --
// never undefined behavior (no wild allocation, no out-of-bounds read, no
// empty-optional dereference). Exhaustive single-bit flips and truncations
// plus randomized multi-byte corruption, for the plain ReqSketch serde, the
// windowed serde built on top of it, and the sharded metric's SHRQ layout
// (which recovery parses from disk).
#include "core/req_serde.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/req_sketch.h"
#include "service/sketch_registry.h"
#include "util/random.h"
#include "util/serde.h"
#include "window/windowed_req_sketch.h"
#include "workload/distributions.h"

namespace req {
namespace {

ReqConfig MakeConfig() {
  ReqConfig config;
  config.k_base = 16;
  config.seed = 9;
  return config;
}

// Deserializes, and if that succeeds, exercises the full query surface.
// Returns true if the bytes were accepted. Anything other than a clean
// accept or a std:: exception escapes and fails the test.
template <typename Sketch, typename Deser>
bool AcceptAndQuery(const std::vector<uint8_t>& bytes, Deser deserialize) {
  try {
    Sketch restored = deserialize(bytes);
    if (!restored.is_empty()) {
      (void)restored.GetRank(1.0);
      (void)restored.GetQuantile(0.0);
      (void)restored.GetQuantile(0.5);
      (void)restored.GetQuantile(1.0);
      (void)restored.GetCDF({0.5, 1.5});
      (void)restored.MinItem();
      (void)restored.MaxItem();
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<uint8_t> SerializedFixture() {
  ReqSketch<double> sketch(MakeConfig());
  const auto values = workload::GenerateLognormal(2000, 4);
  sketch.Update(values);
  return SerializeSketch(sketch);
}

const auto kDeserializePlain = [](const std::vector<uint8_t>& b) {
  return DeserializeSketch<double>(b);
};

TEST(SerdeCorruptionTest, EverySingleBitFlipIsSafe) {
  const std::vector<uint8_t> bytes = SerializedFixture();
  size_t accepted = 0, rejected = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = bytes;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      if (AcceptAndQuery<ReqSketch<double>>(mutated, kDeserializePlain)) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
  }
  // The headline property is "no UB", asserted by getting here alive.
  // Both outcomes must occur: header/count/extreme flips are caught by
  // CheckData (rejected), while e.g. a low mantissa bit of a mid-range
  // item yields a different-but-healthy sketch (accepted).
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
}

TEST(SerdeCorruptionTest, EveryTruncationIsRejected) {
  const std::vector<uint8_t> bytes = SerializedFixture();
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(
        AcceptAndQuery<ReqSketch<double>>(truncated, kDeserializePlain))
        << "truncation to " << len << " bytes was accepted";
  }
}

TEST(SerdeCorruptionTest, RandomMultiByteCorruptionIsSafe) {
  const std::vector<uint8_t> bytes = SerializedFixture();
  util::Xoshiro256 rng(1234);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<uint8_t> mutated = bytes;
    const size_t mutations = 1 + rng.NextBounded(8);
    for (size_t m = 0; m < mutations; ++m) {
      mutated[rng.NextBounded(mutated.size())] =
          static_cast<uint8_t>(rng.NextBounded(256));
    }
    (void)AcceptAndQuery<ReqSketch<double>>(mutated, kDeserializePlain);
  }
}

TEST(SerdeCorruptionTest, TrailingBytesAreRejected) {
  // The payload length is fully determined by the declared counts; extra
  // bytes mean some count was corrupted downward (silent data loss).
  auto bytes = SerializedFixture();
  bytes.push_back(0);
  EXPECT_THROW(DeserializeSketch<double>(bytes), std::runtime_error);
}

TEST(SerdeCorruptionTest, CraftedMinMaxAbsenceIsRejected) {
  // n > 0 with the min/max presence flags zeroed: previously this
  // deserialized fine and GetQuantile(0.0) dereferenced an empty optional.
  ReqSketch<double> sketch(MakeConfig());
  sketch.Update(1.0);
  auto bytes = SerializeSketch(sketch);
  // Offsets: magic u32 | version u8 | 3 enum u8 | k_base u32 | n u64 |
  // n_bound u64 | n_hint u64 | seed u64 | fixed_n u8 | has_min u8 ...
  const size_t has_min_offset = 4 + 1 + 3 + 4 + 8 + 8 + 8 + 8 + 1;
  ASSERT_EQ(bytes[has_min_offset], 1);
  // Zeroing just has_min shifts the layout (min value follows the flag);
  // rebuild the stream without min: flag byte 0, drop the 8 value bytes.
  std::vector<uint8_t> crafted(bytes.begin(),
                               bytes.begin() + has_min_offset);
  crafted.push_back(0);  // has_min = 0, no min value
  crafted.insert(crafted.end(),
                 bytes.begin() + has_min_offset + 1 + sizeof(double),
                 bytes.end());
  EXPECT_THROW(DeserializeSketch<double>(crafted), std::runtime_error);
}

TEST(SerdeCorruptionTest, CraftedOversizedLevelCountIsRejected) {
  // A level that declares more items than the remaining payload (or than
  // its capacity) must be rejected before the allocation happens. The
  // last 8 bytes before the final level's items are its count; blow it up.
  ReqSketch<double> sketch(MakeConfig());
  for (int i = 0; i < 100; ++i) sketch.Update(static_cast<double>(i));
  auto bytes = SerializeSketch(sketch);
  // Single level, items just before the trailing 4x u64 rng state (v2):
  // count is 8 bytes, at end - 32 - 8 * items - 8. Find it by reading the
  // sketch's retained count.
  const size_t retained = sketch.RetainedItems();
  const size_t count_offset =
      bytes.size() - 4 * sizeof(uint64_t) - retained * sizeof(double) - 8;
  auto crafted = bytes;
  crafted[count_offset + 6] = 0xff;  // count ~ 2^55: would be a 256 PiB
  EXPECT_THROW(DeserializeSketch<double>(crafted), std::runtime_error);
}

TEST(SerdeCorruptionTest, WindowedBitFlipsAndTruncationsAreSafe) {
  window::WindowedReqConfig config;
  config.num_buckets = 4;
  config.bucket_items = 300;
  config.base.k_base = 16;
  config.base.seed = 21;
  window::WindowedReqSketch<double> w(config);
  const auto values = workload::GenerateLognormal(1500, 8);
  w.Update(values);
  const auto bytes = w.Serialize();
  const auto deserialize = [](const std::vector<uint8_t>& b) {
    return window::WindowedReqSketch<double>::Deserialize(b);
  };
  size_t accepted = 0, rejected = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = bytes;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      if (AcceptAndQuery<window::WindowedReqSketch<double>>(mutated,
                                                            deserialize)) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(AcceptAndQuery<window::WindowedReqSketch<double>>(
        truncated, deserialize))
        << "truncation to " << len << " bytes was accepted";
  }
}

// --- SHRQ: the sharded metric's snapshot layout ------------------------------

// Three shards of a sharded metric (shard i seeded ShardConfig(base, i)),
// fed uneven slices of one stream.
std::vector<ReqSketch<double>> ShardFixture() {
  const auto values = workload::GenerateLognormal(1500, 6);
  std::vector<ReqSketch<double>> shards;
  for (size_t i = 0; i < 3; ++i) {
    shards.emplace_back(service::detail::ShardConfig(MakeConfig(), i));
  }
  shards[0].Update(values.data(), 700);
  shards[1].Update(values.data() + 700, 500);
  shards[2].Update(values.data() + 1200, 300);
  return shards;
}

std::vector<const ReqSketch<double>*> Pointers(
    const std::vector<ReqSketch<double>>& shards) {
  std::vector<const ReqSketch<double>*> pointers;
  for (const auto& shard : shards) pointers.push_back(&shard);
  return pointers;
}

std::vector<uint8_t> SerializeShardFixture(
    const std::vector<ReqSketch<double>>& shards) {
  return service::detail::SerializeShards(Pointers(shards), 4096);
}

std::vector<ReqSketch<double>> ParseShards(const std::vector<uint8_t>& b) {
  uint64_t buffer_capacity = 0;
  return service::detail::DeserializeShards<double>(b, &buffer_capacity);
}

// The view a sharded metric answers from: MergeShards over the parsed
// shards, on shard 0's config.
const auto kDeserializeShardsMerged = [](const std::vector<uint8_t>& b) {
  const std::vector<ReqSketch<double>> shards = ParseShards(b);
  return MergeShards(shards.front().config(), Pointers(shards));
};

// A corrupt SHRQ blob is rejected by the parse itself, with the
// data-corruption exception -- never later, by the merge or a query.
bool ShardsAcceptAndQuery(const std::vector<uint8_t>& bytes) {
  if (AcceptAndQuery<ReqSketch<double>>(bytes, kDeserializeShardsMerged)) {
    return true;
  }
  EXPECT_THROW(ParseShards(bytes), std::runtime_error);
  return false;
}

TEST(SerdeCorruptionTest, ShardsBitFlipsAndTruncationsAreSafe) {
  const std::vector<uint8_t> bytes = SerializeShardFixture(ShardFixture());
  ASSERT_TRUE(ShardsAcceptAndQuery(bytes));
  size_t accepted = 0, rejected = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> mutated = bytes;
      mutated[i] ^= static_cast<uint8_t>(1u << bit);
      if (ShardsAcceptAndQuery(mutated)) {
        ++accepted;
      } else {
        ++rejected;
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(accepted, 0u);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(ShardsAcceptAndQuery(truncated))
        << "truncation to " << len << " bytes was accepted";
  }
}

// One crafted blob per check DeserializeShards makes. Layout:
//   u32 magic | u8 version | u32 num_shards | u64 buffer_capacity |
//   per shard: u64 byte count | ReqSerde payload.
TEST(SerdeCorruptionTest, CraftedShardsHeadersAreRejected) {
  const std::vector<ReqSketch<double>> shards = ShardFixture();
  const auto craft = [&](uint32_t magic, uint8_t version, uint32_t num_shards,
                         uint64_t buffer_capacity) {
    util::BinaryWriter writer;
    writer.Write<uint32_t>(magic);
    writer.Write<uint8_t>(version);
    writer.Write<uint32_t>(num_shards);
    writer.Write<uint64_t>(buffer_capacity);
    for (const auto& shard : shards) {
      writer.WriteVector<uint8_t>(SerializeSketch(shard));
    }
    return writer.Release();
  };
  const uint32_t magic = service::detail::kShardedSerdeMagic;
  const uint8_t version = service::detail::kShardedSerdeVersion;
  ASSERT_EQ(craft(magic, version, 3, 4096), SerializeShardFixture(shards));
  EXPECT_EQ(ParseShards(craft(magic, version, 3, 4096)).size(), 3u);

  EXPECT_THROW(ParseShards(craft(magic ^ 1, version, 3, 4096)),
               std::runtime_error);
  EXPECT_THROW(ParseShards(craft(magic, version + 1, 3, 4096)),
               std::runtime_error);
  EXPECT_THROW(ParseShards(craft(magic, version, 0, 4096)), std::runtime_error);
  EXPECT_THROW(ParseShards(craft(magic, version, (1u << 16) + 1, 4096)),
               std::runtime_error);
  EXPECT_THROW(ParseShards(craft(magic, version, 3, 0)), std::runtime_error);

  // Shards that disagree on k_base could not be merged.
  ReqConfig other = MakeConfig();
  other.k_base = 32;
  ReqSketch<double> odd_one(other);
  odd_one.Update(1.0);
  util::BinaryWriter writer;
  writer.Write<uint32_t>(magic);
  writer.Write<uint8_t>(version);
  writer.Write<uint32_t>(2);
  writer.Write<uint64_t>(4096);
  writer.WriteVector<uint8_t>(SerializeSketch(shards[0]));
  writer.WriteVector<uint8_t>(SerializeSketch(odd_one));
  EXPECT_THROW(ParseShards(writer.Release()), std::runtime_error);

  // A shard count corrupted downward leaves the last payload unread.
  EXPECT_THROW(ParseShards(craft(magic, version, 2, 4096)), std::runtime_error);
  std::vector<uint8_t> trailing = SerializeShardFixture(shards);
  trailing.push_back(0);
  EXPECT_THROW(ParseShards(trailing), std::runtime_error);
}

TEST(SerdeCorruptionTest, ValidRoundTripStillAccepted) {
  // The guard rails must not reject healthy streams: round-trip a range of
  // sketch shapes (empty, tiny, grown, LRA, float).
  {
    ReqSketch<double> empty(MakeConfig());
    EXPECT_TRUE(AcceptAndQuery<ReqSketch<double>>(SerializeSketch(empty),
                                                  kDeserializePlain));
  }
  {
    ReqSketch<double> tiny(MakeConfig());
    tiny.Update(3.25);
    EXPECT_TRUE(AcceptAndQuery<ReqSketch<double>>(SerializeSketch(tiny),
                                                  kDeserializePlain));
  }
  {
    ReqConfig config = MakeConfig();
    config.accuracy = RankAccuracy::kLowRanks;
    ReqSketch<double> grown(config);
    const auto values = workload::GenerateLognormal(100000, 12);
    grown.Update(values);
    EXPECT_TRUE(AcceptAndQuery<ReqSketch<double>>(SerializeSketch(grown),
                                                  kDeserializePlain));
  }
  {
    ReqSketch<float> f(MakeConfig());
    for (int i = 0; i < 5000; ++i) f.Update(static_cast<float>(i) * 0.5f);
    const auto bytes = ReqSerde<float, std::less<float>>::Serialize(f);
    auto restored = ReqSerde<float, std::less<float>>::Deserialize(bytes);
    EXPECT_EQ(restored.n(), f.n());
  }
}

}  // namespace
}  // namespace req
