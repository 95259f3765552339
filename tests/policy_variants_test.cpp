// End-to-end tests with non-default durability policies and topologies:
// the library is not hard-wired to the paper's (k=4, n=12) / 2-DC setup.
#include <gtest/gtest.h>

#include "test_util.h"

namespace pahoehoe {
namespace {

using core::ClusterTopology;
using core::ConvergenceOptions;
using core::VersionStatus;
using testing::SimCluster;
using testing::minutes;

struct Scenario {
  std::string name;
  Policy policy;
  ClusterTopology topology;
};

class PolicyVariantsTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(PolicyVariantsTest, PutGetAmrRoundTrip) {
  const Scenario& s = GetParam();
  SimCluster tc(ConvergenceOptions::all_opts(), s.topology);
  const Bytes value = tc.make_value(30'000);
  const auto r = tc.put(Key{"k"}, value, s.policy);
  EXPECT_TRUE(r.success) << s.name;
  tc.run_to_quiescence();
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr) << s.name;
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success) << s.name;
  EXPECT_EQ(got.value, value) << s.name;
}

TEST_P(PolicyVariantsTest, SurvivesOneFsBlackoutDuringPut) {
  const Scenario& s = GetParam();
  SimCluster tc(ConvergenceOptions::all_opts(), s.topology);
  tc.blackout_fs(0, 0, 0, minutes(10));
  const Bytes value = tc.make_value(10'000);
  const auto r = tc.put(Key{"k"}, value, s.policy);
  tc.run_to_quiescence();
  // Whether or not the client saw success, the version must converge
  // (the surviving FSs hold ≥ k fragments in every scenario below).
  EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr) << s.name;
  const auto got = tc.get(Key{"k"});
  EXPECT_TRUE(got.success) << s.name;
  EXPECT_EQ(got.value, value) << s.name;
}

Policy make_policy(int k, int n, int per_fs, int per_dc, int min_success) {
  Policy p;
  p.k = static_cast<uint8_t>(k);
  p.n = static_cast<uint8_t>(n);
  p.max_frags_per_fs = static_cast<uint8_t>(per_fs);
  p.max_frags_per_dc = static_cast<uint8_t>(per_dc);
  p.min_frags_for_success = static_cast<uint8_t>(min_success);
  return p;
}

ClusterTopology make_topology(int dcs, int kls, int fs, int disks) {
  ClusterTopology t;
  t.num_dcs = dcs;
  t.kls_per_dc = kls;
  t.fs_per_dc = fs;
  t.disks_per_fs = disks;
  return t;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, PolicyVariantsTest,
    ::testing::Values(
        // The paper's default, for reference.
        Scenario{"paper_default", Policy{}, ClusterTopology{}},
        // Plain replication (k=1): Pahoehoe supports replication too (§6).
        Scenario{"replication_3x", make_policy(1, 6, 1, 3, 3),
                 make_topology(2, 2, 3, 2)},
        // Wider code on bigger FSs.
        Scenario{"wide_8_of_16", make_policy(8, 16, 2, 8, 12),
                 make_topology(2, 2, 4, 2)},
        // Three data centers, code striped across them.
        Scenario{"three_dcs", make_policy(4, 12, 2, 4, 8),
                 make_topology(3, 2, 2, 2)},
        // Single data center (no WAN at all).
        Scenario{"single_dc", make_policy(4, 12, 2, 12, 8),
                 make_topology(1, 2, 6, 2)},
        // Minimal parity.
        Scenario{"raid5_like", make_policy(4, 6, 1, 3, 5),
                 make_topology(2, 1, 3, 2)}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return info.param.name;
    });

TEST(MultiProxyTest, ConcurrentPutsToSameKeyOrderByTimestamp) {
  ClusterTopology topology;
  topology.num_proxies = 2;
  SimCluster tc(ConvergenceOptions::all_opts(), topology);
  // Proxy clocks are loosely synchronized; ours share the simulated clock,
  // with the proxy id breaking ties (§3.1).
  const Bytes v0 = tc.make_value(1000, 1);
  const Bytes v1 = tc.make_value(1000, 2);
  std::optional<core::PutResult> r0, r1;
  tc.cluster.proxy(0).put(Key{"k"}, v0, Policy{},
                          [&](const core::PutResult& r) { r0 = r; });
  tc.cluster.proxy(1).put(Key{"k"}, v1, Policy{},
                          [&](const core::PutResult& r) { r1 = r; });
  tc.run_to_quiescence();
  ASSERT_TRUE(r0.has_value() && r1.has_value());
  EXPECT_TRUE(r0->success && r1->success);
  EXPECT_NE(r0->ov.ts, r1->ov.ts) << "timestamps must be unique";

  // The get returns whichever version has the higher timestamp.
  const auto got = tc.get(Key{"k"});
  ASSERT_TRUE(got.success);
  const Timestamp latest = std::max(r0->ov.ts, r1->ov.ts);
  EXPECT_EQ(got.ts, latest);
  EXPECT_EQ(got.value, latest == r0->ov.ts ? v0 : v1);
}

TEST(MultiProxyTest, SkewedClocksStillYieldUniqueOrderedVersions) {
  ClusterTopology topology;
  topology.num_proxies = 2;
  core::ProxyOptions proxy;
  proxy.clock_skew = 2 * kMicrosPerSecond;  // both proxies equally skewed
  SimCluster tc(ConvergenceOptions::all_opts(), topology, 42, proxy);
  std::set<Timestamp> seen;
  for (int i = 0; i < 6; ++i) {
    const auto r =
        tc.put(Key{"k"}, tc.make_value(500, static_cast<uint8_t>(i)),
               Policy{}, i % 2);
    EXPECT_TRUE(seen.insert(r.ov.ts).second) << "duplicate timestamp";
  }
}

TEST(TopologyTest, LargeClusterConverges) {
  // 4 DCs × (2 KLS + 4 FS) = 8 KLSs, 16 FSs; wide policy.
  ClusterTopology topology = make_topology(4, 2, 4, 2);
  Policy policy = make_policy(8, 16, 2, 4, 12);
  SimCluster tc(ConvergenceOptions::all_opts(), topology);
  tc.blackout_fs(2, 1, 0, minutes(10));
  std::vector<core::PutResult> results;
  for (int i = 0; i < 5; ++i) {
    results.push_back(tc.put(testing::numbered_key(i),
                             tc.make_value(8192, static_cast<uint8_t>(i)),
                             policy));
  }
  tc.run_to_quiescence();
  for (const auto& r : results) {
    EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  }
}

}  // namespace
}  // namespace pahoehoe
