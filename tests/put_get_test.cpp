// Put and get protocol tests (paper Figures 2–3, §3.2–§3.3).
#include <gtest/gtest.h>

#include "test_util.h"

namespace pahoehoe {
namespace {

using core::ConvergenceOptions;
using core::VersionStatus;
using testing::SimCluster;
using testing::minutes;
using testing::seconds;

TEST(PutTest, FailureFreePutSucceeds) {
  SimCluster tc;
  const Bytes value = tc.make_value(100 * 1024);
  const auto result = tc.put(Key{"k"}, value);
  EXPECT_TRUE(result.success);
  EXPECT_GE(result.frag_acks, Policy{}.min_frags_for_success);
}

TEST(PutTest, FailureFreePutReachesAmrWithoutConvergence) {
  SimCluster tc(ConvergenceOptions::all_opts());
  const auto result = tc.put(Key{"k"}, tc.make_value(4096));
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(result.ov), VersionStatus::kAmr);
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
  // Put AMR indications suppressed every convergence message.
  EXPECT_EQ(tc.net.stats().of(wire::MessageType::kKlsConvergeReq).sent_count,
            0u);
  EXPECT_EQ(tc.net.stats().of(wire::MessageType::kFsConvergeReq).sent_count,
            0u);
}

TEST(PutTest, FragmentsArePlacedPerPolicy) {
  SimCluster tc;
  const auto result = tc.put(Key{"k"}, tc.make_value(4096));
  tc.run_to_quiescence();
  // Union metadata from a KLS; check per-FS and per-DC limits.
  const Metadata* meta = tc.cluster.kls(0).meta_store().find(result.ov);
  ASSERT_NE(meta, nullptr);
  ASSERT_TRUE(meta->complete());
  std::map<uint32_t, int> per_fs;
  std::map<int, int> per_dc;
  for (const auto& loc : meta->locs) {
    per_fs[loc->fs.value] += 1;
    per_dc[tc.cluster.view()->dc_of(loc->fs).value] += 1;
  }
  for (const auto& [fs, count] : per_fs) {
    (void)fs;
    EXPECT_LE(count, 2);
  }
  EXPECT_EQ(per_dc[0], 6);
  EXPECT_EQ(per_dc[1], 6);
  // Data fragments (slots 0..3) all live in DC 0.
  for (int slot = 0; slot < 4; ++slot) {
    EXPECT_EQ(
        tc.cluster.view()->dc_of(meta->locs[static_cast<size_t>(slot)]->fs),
        DataCenterId{0});
  }
}

TEST(PutTest, EveryFragmentStoredIntactOnItsFs) {
  SimCluster tc;
  const auto result = tc.put(Key{"k"}, tc.make_value(64 * 1024));
  tc.run_to_quiescence();
  const Metadata* meta = tc.cluster.kls(0).meta_store().find(result.ov);
  ASSERT_TRUE(meta != nullptr && meta->complete());
  for (size_t slot = 0; slot < meta->locs.size(); ++slot) {
    const NodeId owner = meta->locs[slot]->fs;
    bool found = false;
    for (int i = 0; i < tc.cluster.num_fs(); ++i) {
      if (tc.cluster.fs(i).id() == owner) {
        EXPECT_NE(tc.cluster.fs(i).frag_store().fragment_if_intact(
                      result.ov, static_cast<int>(slot)),
                  nullptr)
            << "slot " << slot;
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(PutTest, TimestampsAreUniqueAndMonotonic) {
  SimCluster tc;
  const auto r1 = tc.put(Key{"k"}, tc.make_value(100));
  const auto r2 = tc.put(Key{"k"}, tc.make_value(100));
  const auto r3 = tc.put(Key{"k2"}, tc.make_value(100));
  EXPECT_LT(r1.ov.ts, r2.ov.ts);
  EXPECT_LT(r2.ov.ts, r3.ov.ts);
}

TEST(PutTest, ProxyClockSkewShiftsTimestamps) {
  core::ProxyOptions proxy;
  proxy.clock_skew = seconds(5);
  SimCluster tc({}, {}, 42, proxy);
  const auto r = tc.put(Key{"k"}, tc.make_value(10));
  EXPECT_GE(r.ov.ts.wall_micros, seconds(5));
}

TEST(PutTest, FailsWhenTooFewFragmentServersReachable) {
  SimCluster tc;
  // Black out 5 of 6 FSs for the whole test: at most 2 fragment acks, below
  // min_frags_for_success=8.
  for (int dc = 0; dc < 2; ++dc) {
    for (int i = 0; i < 3; ++i) {
      if (dc == 0 && i == 0) continue;
      tc.blackout_fs(dc, i, 0, minutes(60));
    }
  }
  const auto result = tc.put(Key{"k"}, tc.make_value(4096));
  EXPECT_FALSE(result.success);
  EXPECT_LE(result.frag_acks, 2);
}

TEST(PutTest, SucceedsDespiteOneFsDown) {
  SimCluster tc;
  tc.blackout_fs(0, 0, 0, minutes(60));
  // 10 of 12 fragments can be stored; threshold is 8.
  const auto result = tc.put(Key{"k"}, tc.make_value(4096));
  EXPECT_TRUE(result.success);
}

TEST(PutTest, SucceedsDespiteOneKlsPerDcDown) {
  SimCluster tc;
  tc.blackout_kls(0, 0, 0, minutes(60));
  tc.blackout_kls(1, 0, 0, minutes(60));
  const auto result = tc.put(Key{"k"}, tc.make_value(4096));
  EXPECT_TRUE(result.success);
}

TEST(PutTest, WanPartitionStoresLocalFragmentsOnly) {
  SimCluster tc;
  // Isolate DC 1 entirely (proxy lives in DC 0).
  const std::vector<NodeId> dc1 =
      tc.cluster.view()->nodes_in_dc(DataCenterId{1});
  std::unordered_set<NodeId> group(dc1.begin(), dc1.end());
  tc.net.add_fault(
      std::make_shared<net::Partition>(group, 0, minutes(60)));
  const auto result = tc.put(Key{"k"}, tc.make_value(4096));
  // Only 6 fragments storable; below the 8-ack success threshold, so the
  // put times out and reports failure — but the version is durable (6 ≥ k).
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.frag_acks, 6);
  EXPECT_NE(tc.cluster.classify(result.ov), VersionStatus::kNonDurable);
}

TEST(GetTest, RoundTripsValue) {
  SimCluster tc;
  const Bytes value = tc.make_value(100 * 1024);
  tc.put(Key{"k"}, value);
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, value);
}

TEST(GetTest, EmptyishAndOddSizes) {
  SimCluster tc;
  for (size_t size : {size_t{1}, size_t{3}, size_t{4097}, size_t{100001}}) {
    const Key key = testing::numbered_key(size);
    const Bytes value = tc.make_value(size, static_cast<uint8_t>(size));
    tc.put(key, value);
    const auto got = tc.get(key);
    EXPECT_TRUE(got.success);
    EXPECT_EQ(got.value, value) << size;
  }
}

TEST(GetTest, MissingKeyFails) {
  SimCluster tc;
  tc.put(Key{"other"}, tc.make_value(100));
  const auto got = tc.get(Key{"nope"});
  EXPECT_FALSE(got.success);
}

TEST(GetTest, ReturnsLatestVersion) {
  SimCluster tc;
  const Bytes v1 = tc.make_value(1000, 1);
  const Bytes v2 = tc.make_value(1000, 2);
  tc.put(Key{"k"}, v1);
  const auto r2 = tc.put(Key{"k"}, v2);
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, v2);
  EXPECT_EQ(got.ts, r2.ov.ts);
}

TEST(GetTest, SucceedsWithUpToMFragmentServersSilent) {
  // Any k=4 fragments decode; with ≤2 fragments per FS, losing two whole
  // FSs (4 fragments) still leaves 8.
  SimCluster tc;
  const Bytes value = tc.make_value(50000);
  tc.put(Key{"k"}, value);
  tc.blackout_fs(0, 0, 0, minutes(60));
  tc.blackout_fs(1, 0, 0, minutes(60));
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, value);
}

TEST(GetTest, SucceedsWithOnlyDataDcAlive) {
  SimCluster tc;
  const Bytes value = tc.make_value(9999);
  tc.put(Key{"k"}, value);
  // Isolate DC 1; DC 0 holds the 4 data fragments + 2 parity.
  const std::vector<NodeId> dc1 =
      tc.cluster.view()->nodes_in_dc(DataCenterId{1});
  std::unordered_set<NodeId> group(dc1.begin(), dc1.end());
  tc.net.add_fault(std::make_shared<net::Partition>(group, 0, minutes(60)));
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, value);
}

TEST(GetTest, FallsBackToEarlierVersionWhenLatestUnrecoverable) {
  // Make the latest version non-AMR and unrecoverable (fragments lost),
  // then verify the get returns the previous AMR version.
  core::ConvergenceOptions conv;  // naive — no convergence interference:
  conv.min_age = 0;
  SimCluster tc(conv);
  const Bytes v1 = tc.make_value(5000, 1);
  tc.put(Key{"k"}, v1);

  // Second put while 5 of 6 FSs are down: fragments land only on fs(0,0),
  // i.e. at most 2 distinct fragments — non-durable forever.
  for (int dc = 0; dc < 2; ++dc) {
    for (int i = 0; i < 3; ++i) {
      if (dc == 0 && i == 0) continue;
      tc.blackout_fs(dc, i, 0, seconds(30));
    }
  }
  const Bytes v2 = tc.make_value(5000, 2);
  const auto r2 = tc.put(Key{"k"}, v2);
  EXPECT_FALSE(r2.success);

  tc.run_for(seconds(40));  // heal
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, v1) << "must fall back to the earlier AMR version";
}

TEST(GetTest, NeverReturnsVersionOlderThanLatestAmr) {
  // Two AMR versions; the get must return the later one even under
  // substantial server unavailability.
  SimCluster tc(ConvergenceOptions::all_opts());
  const Bytes v1 = tc.make_value(2000, 1);
  const Bytes v2 = tc.make_value(2000, 2);
  tc.put(Key{"k"}, v1);
  const auto r2 = tc.put(Key{"k"}, v2);
  tc.run_to_quiescence();
  ASSERT_EQ(tc.cluster.classify(r2.ov), VersionStatus::kAmr);

  // Take down two FSs; the latest AMR version must still be returned.
  tc.blackout_fs(0, 1, 0, minutes(60));
  tc.blackout_fs(1, 2, 0, minutes(60));
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success);
  EXPECT_EQ(got.value, v2);
}

TEST(GetTest, ConcurrentGetsDifferentKeys) {
  SimCluster tc;
  const Bytes va = tc.make_value(3000, 1);
  const Bytes vb = tc.make_value(3000, 2);
  tc.put(Key{"a"}, va);
  tc.put(Key{"b"}, vb);
  std::optional<core::GetResult> ra, rb;
  tc.cluster.proxy(0).get(Key{"a"}, [&](const core::GetResult& r) { ra = r; });
  tc.cluster.proxy(0).get(Key{"b"}, [&](const core::GetResult& r) { rb = r; });
  tc.run_to_quiescence();
  ASSERT_TRUE(ra.has_value() && rb.has_value());
  EXPECT_EQ(ra->value, va);
  EXPECT_EQ(rb->value, vb);
}

TEST(GetTest, AllKlssDownTimesOut) {
  SimCluster tc;
  tc.put(Key{"k"}, tc.make_value(100));
  for (int dc = 0; dc < 2; ++dc) {
    for (int i = 0; i < 2; ++i) tc.blackout_kls(dc, i, 0, minutes(60));
  }
  const auto got = tc.get(Key{"k"});
  EXPECT_FALSE(got.success);
}

TEST(ProxyTest, CountersTrackOperations) {
  SimCluster tc;
  tc.put(Key{"a"}, tc.make_value(10));
  tc.put(Key{"b"}, tc.make_value(10));
  tc.get(Key{"a"});
  const NodeId proxy = tc.cluster.proxy(0).id();
  EXPECT_EQ(tc.node_counter("proxy_puts_total", proxy, {{"result", "acked"}}),
            2u);
  EXPECT_EQ(tc.node_counter("proxy_puts_total", proxy, {{"result", "failed"}}),
            0u);
  EXPECT_EQ(tc.node_counter("proxy_gets_total", proxy, {{"result", "ok"}}),
            1u);
  EXPECT_EQ(tc.node_counter("proxy_gets_total", proxy, {{"result", "failed"}}),
            0u);
}

TEST(ProxyTest, CrashDropsInflightOperations) {
  SimCluster tc;
  bool fired = false;
  tc.cluster.proxy(0).put(Key{"k"}, tc.make_value(100), Policy{},
                          [&](const core::PutResult&) { fired = true; });
  tc.cluster.proxy(0).crash();
  tc.run_to_quiescence();
  EXPECT_FALSE(fired);  // the client's own timeout handles this (§3.5)
  tc.cluster.proxy(0).recover();
  const auto result = tc.put(Key{"k2"}, tc.make_value(100));
  EXPECT_TRUE(result.success);
}

}  // namespace
}  // namespace pahoehoe
