// Property-based wire-format tests: randomly generated messages round-trip
// exactly, and random mutations of valid encodings never crash a decoder —
// they parse (possibly to different values) or throw WireError. Decoders
// run on bytes received from the network, so "no undefined behavior on any
// input" is a hard requirement.
#include <gtest/gtest.h>

#include <tuple>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "chaos/schedule.h"
#include "common/rng.h"
#include "wire/messages.h"

namespace pahoehoe::wire {
namespace {

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}

  uint8_t u8() { return static_cast<uint8_t>(rng_.next_u64()); }
  uint16_t u16() { return static_cast<uint16_t>(rng_.next_u64()); }
  uint32_t u32() { return static_cast<uint32_t>(rng_.next_u64()); }
  bool coin() { return rng_.chance(0.5); }
  size_t index(size_t bound) {
    return static_cast<size_t>(rng_.uniform_int(0, static_cast<int64_t>(bound) - 1));
  }

  Key key() {
    std::string s;
    const int len = static_cast<int>(rng_.uniform_int(0, 40));
    for (int i = 0; i < len; ++i) s.push_back(static_cast<char>(u8()));
    return Key{s};
  }

  Timestamp timestamp() {
    return Timestamp{rng_.uniform_int(0, 1'000'000'000'000LL), u32()};
  }

  ObjectVersionId ov() { return ObjectVersionId{key(), timestamp()}; }

  Policy policy() {
    Policy p;
    p.k = static_cast<uint8_t>(rng_.uniform_int(1, 20));
    p.n = static_cast<uint8_t>(rng_.uniform_int(p.k, 40));
    p.max_frags_per_fs = static_cast<uint8_t>(rng_.uniform_int(1, 4));
    p.max_frags_per_dc = static_cast<uint8_t>(rng_.uniform_int(1, 20));
    p.data_frags_one_dc = coin();
    p.min_frags_for_success = static_cast<uint8_t>(rng_.uniform_int(0, p.n));
    return p;
  }

  Metadata metadata() {
    Metadata meta{policy(), rng_.next_u64() % (1 << 20)};
    for (auto& loc : meta.locs) {
      if (coin()) loc = Location{NodeId{u32()}, u8()};
    }
    return meta;
  }

  Bytes bytes(size_t max = 200) {
    Bytes out(index(max + 1));
    for (auto& b : out) b = u8();
    return out;
  }

  Sha256::Digest digest() {
    Sha256::Digest d;
    for (auto& b : d) b = u8();
    return d;
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

/// Every protocol message struct, one of each.
using Messages =
    std::tuple<DecideLocsReq, DecideLocsRep, StoreMetadataReq,
               StoreMetadataRep, StoreFragmentReq, StoreFragmentRep,
               AmrIndication, RetrieveTsReq, RetrieveTsRep, RetrieveFragReq,
               RetrieveFragRep, KlsConvergeReq, KlsConvergeRep, FsConvergeReq,
               FsConvergeRep, SiblingStoreReq, SiblingStoreRep, KlsLocsNotify>;

/// A random instance of every message, every field drawn from `gen`.
Messages random_messages(Gen& gen) {
  auto status = [&gen] {
    return gen.coin() ? Status::kSuccess : Status::kFailure;
  };
  RetrieveTsRep ts_rep{gen.key(), {}, gen.coin()};
  for (size_t e = gen.index(5); e > 0; --e) {
    ts_rep.entries.push_back({gen.timestamp(), gen.metadata()});
  }
  FsConvergeRep fs_rep{gen.ov(), gen.coin(), {}, gen.coin()};
  for (size_t e = gen.index(6); e > 0; --e) {
    fs_rep.needed_fragments.push_back(gen.u16());
  }
  return {
      DecideLocsReq{gen.ov(), gen.policy(), gen.rng().next_u64(), gen.coin()},
      DecideLocsRep{gen.ov(), gen.metadata(), DataCenterId{gen.u8()}},
      StoreMetadataReq{gen.ov(), gen.metadata()},
      StoreMetadataRep{gen.ov(), status(), gen.u16()},
      StoreFragmentReq{gen.ov(), gen.metadata(), gen.u16(), gen.bytes(1000),
                       gen.digest()},
      StoreFragmentRep{gen.ov(), gen.u16(), status()},
      AmrIndication{gen.ov()},
      RetrieveTsReq{gen.key(), gen.timestamp(), gen.u16()},
      std::move(ts_rep),
      RetrieveFragReq{gen.ov(), gen.u16()},
      RetrieveFragRep{gen.ov(), gen.u16(), gen.coin(), gen.bytes()},
      KlsConvergeReq{gen.ov(), gen.metadata()},
      KlsConvergeRep{gen.ov(), gen.coin()},
      FsConvergeReq{gen.ov(), gen.metadata(), gen.coin()},
      std::move(fs_rep),
      SiblingStoreReq{gen.ov(), gen.metadata(), gen.u16(), gen.bytes(1000),
                      gen.digest()},
      SiblingStoreRep{gen.ov(), gen.u16(), status()},
      KlsLocsNotify{gen.ov(), gen.metadata()},
  };
}

class WireFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzzTest, RandomMessagesRoundTripExactly) {
  Gen gen(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    std::apply(
        [](const auto&... msg) {
          auto round_trip = [](const auto& m) {
            using M = std::decay_t<decltype(m)>;
            const Bytes bytes = encode(m);
            EXPECT_EQ(encode(decode<M>(bytes)), bytes) << typeid(M).name();
          };
          (round_trip(msg), ...);
        },
        random_messages(gen));
  }
}

TEST_P(WireFuzzTest, MutatedEncodingsNeverCrashDecoders) {
  Gen gen(GetParam() ^ 0x5eed);
  // A pool of valid encodings of every message type.
  std::vector<Bytes> pool;
  for (int i = 0; i < 10; ++i) {
    std::apply(
        [&pool](const auto&... msg) { (pool.push_back(encode(msg)), ...); },
        random_messages(gen));
  }

  auto try_all_decoders = [](const Bytes& payload) {
    // Every decoder must either parse or throw WireError on ANY input.
    std::apply(
        [&payload](const auto&... type_tag) {
          auto try_decode = [&payload](const auto& tag) {
            try {
              (void)decode<std::decay_t<decltype(tag)>>(payload);
            } catch (const WireError&) {
            }
          };
          (try_decode(type_tag), ...);
        },
        Messages{});
  };

  for (int iter = 0; iter < 400; ++iter) {
    Bytes mutated = pool[gen.index(pool.size())];
    const int mutations = 1 + static_cast<int>(gen.index(4));
    for (int m = 0; m < mutations && !mutated.empty(); ++m) {
      switch (gen.index(3)) {
        case 0:  // flip a byte
          mutated[gen.index(mutated.size())] ^= gen.u8();
          break;
        case 1:  // truncate
          mutated.resize(gen.index(mutated.size() + 1));
          break;
        case 2:  // append garbage
          for (size_t j = gen.index(8) + 1; j > 0; --j) {
            mutated.push_back(gen.u8());
          }
          break;
      }
    }
    try_all_decoders(mutated);
  }
}

// Fault schedules travel through the same wire machinery (the shrinker's
// repro files), so they get the same treatment: random schedules round-trip
// exactly, and mutated encodings parse or throw — never crash.
TEST_P(WireFuzzTest, FaultSchedulesRoundTripExactly) {
  const core::ClusterTopology topology;
  for (uint64_t s = 0; s < 20; ++s) {
    chaos::ScheduleOptions options;
    options.intensity = 0.5 + static_cast<double>(s % 5);
    const auto schedule =
        chaos::generate_schedule(GetParam() * 100 + s, topology, options);
    const auto back = chaos::decode_schedule(chaos::encode_schedule(schedule));
    EXPECT_EQ(back, schedule);
  }
}

TEST_P(WireFuzzTest, MutatedScheduleEncodingsNeverCrashDecoder) {
  Gen gen(GetParam() ^ 0xfa17);
  const core::ClusterTopology topology;
  std::vector<Bytes> pool;
  for (uint64_t s = 0; s < 8; ++s) {
    pool.push_back(chaos::encode_schedule(
        chaos::generate_schedule(GetParam() * 31 + s, topology, {})));
  }
  pool.push_back(chaos::encode_schedule({}));

  for (int iter = 0; iter < 400; ++iter) {
    Bytes mutated = pool[gen.index(pool.size())];
    const int mutations = 1 + static_cast<int>(gen.index(4));
    for (int m = 0; m < mutations && !mutated.empty(); ++m) {
      switch (gen.index(3)) {
        case 0:
          mutated[gen.index(mutated.size())] ^= gen.u8();
          break;
        case 1:
          mutated.resize(gen.index(mutated.size() + 1));
          break;
        case 2:
          for (size_t j = gen.index(8) + 1; j > 0; --j) {
            mutated.push_back(gen.u8());
          }
          break;
      }
    }
    try {
      (void)chaos::decode_schedule(mutated);
    } catch (const WireError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace pahoehoe::wire
