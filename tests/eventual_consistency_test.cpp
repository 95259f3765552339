// Property-based tests of the paper's correctness claims (§3.6):
//
//  * Eventual consistency: every durable object version eventually reaches
//    AMR once failures heal ("all object versions that can achieve AMR do
//    so"), under randomized fault schedules.
//  * Regular semantics with aborts: a get returns a recent version, the
//    latest-AMR version, or aborts — never a version older than the latest
//    AMR version at get start.
//  * AMR stability: once AMR, forever AMR.
//
// Each parameterized instance runs a randomized scenario derived from the
// seed: random puts, random blackout windows, random loss rate, then checks
// the invariants at quiescence.
#include <gtest/gtest.h>

#include "core/harness.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using core::ConvergenceOptions;
using core::VersionStatus;
using testing::SimCluster;
using testing::minutes;
using testing::seconds;

class RandomFaultScheduleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomFaultScheduleTest, DurableVersionsAlwaysReachAmr) {
  const uint64_t seed = GetParam();
  Rng scenario(seed);

  // Random convergence option set (all combinations legal).
  ConvergenceOptions conv;
  conv.fs_amr_indication = scenario.chance(0.5);
  conv.unsync_rounds = scenario.chance(0.5);
  conv.put_amr_indication = scenario.chance(0.5);
  conv.sibling_recovery = scenario.chance(0.5);

  SimCluster tc(conv, {}, seed * 31 + 7);

  // Random blackouts: up to 3 servers, windows inside the first 15 minutes.
  const int blackouts = static_cast<int>(scenario.uniform_int(0, 3));
  for (int b = 0; b < blackouts; ++b) {
    const int dc = static_cast<int>(scenario.uniform_int(0, 1));
    const bool kls = scenario.chance(0.4);
    const SimTime start = seconds(scenario.uniform_int(0, 120));
    const SimTime len = seconds(scenario.uniform_int(30, 800));
    if (kls) {
      tc.blackout_kls(dc, static_cast<int>(scenario.uniform_int(0, 1)), start,
                      len);
    } else {
      tc.blackout_fs(dc, static_cast<int>(scenario.uniform_int(0, 2)), start,
                     len);
    }
  }
  // Sometimes a lossy network on top.
  if (scenario.chance(0.4)) {
    tc.net.add_fault(std::make_shared<net::UniformLoss>(
        scenario.uniform01() * 0.10));
  }

  // Random workload: 5–15 puts over ~1 minute, some keys repeated.
  const int puts = static_cast<int>(scenario.uniform_int(5, 15));
  std::vector<core::PutResult> results;
  for (int i = 0; i < puts; ++i) {
    const Key key{"key-" + std::to_string(scenario.uniform_int(0, 5))};
    std::optional<core::PutResult> r;
    tc.cluster.proxy(0).put(key, tc.make_value(2048, static_cast<uint8_t>(i)),
                            Policy{},
                            [&r](const core::PutResult& res) { r = res; });
    tc.run_for(seconds(scenario.uniform_int(1, 8)));
    while (!r.has_value() && tc.sim.step()) {
    }
    ASSERT_TRUE(r.has_value());
    results.push_back(*r);
  }

  // Heal everything and run to quiescence.
  tc.run_to_quiescence();

  for (const auto& r : results) {
    const VersionStatus status = tc.cluster.classify(r.ov);
    // The central eventual-consistency property: no durable version may be
    // left short of AMR once the system quiesces.
    EXPECT_NE(status, VersionStatus::kDurableNotAmr)
        << pahoehoe::to_string(r.ov) << " under " << core::describe(conv)
        << " seed " << seed;
    // A version the client saw acknowledged is durable by construction
    // (min_frags_for_success ≥ k), so it must be AMR.
    if (r.success) {
      EXPECT_EQ(status, VersionStatus::kAmr)
          << pahoehoe::to_string(r.ov) << " seed " << seed;
    }
  }
  EXPECT_TRUE(tc.cluster.converged_quiescent()) << "seed " << seed;
}

TEST_P(RandomFaultScheduleTest, GetNeverReturnsOlderThanLatestAmr) {
  const uint64_t seed = GetParam();
  Rng scenario(seed ^ 0xabcdef);

  SimCluster tc(ConvergenceOptions::all_opts(), {}, seed);
  const Key key{"k"};

  // A chain of versions; remember which are AMR at each get.
  std::map<Timestamp, Bytes> values;
  for (int i = 0; i < 4; ++i) {
    const Bytes value = tc.make_value(3000, static_cast<uint8_t>(i + 1));
    const auto r = tc.put(key, value);
    values[r.ov.ts] = value;
    tc.run_to_quiescence();
  }

  // Under random blackouts, issue gets and validate the regular-semantics
  // bound: the returned timestamp is ≥ the latest AMR timestamp.
  Timestamp latest_amr;
  for (const auto& [ts, value] : values) {
    (void)value;
    if (tc.cluster.classify({key, ts}) == VersionStatus::kAmr &&
        ts > latest_amr) {
      latest_amr = ts;
    }
  }
  ASSERT_TRUE(latest_amr.valid());

  for (int trial = 0; trial < 3; ++trial) {
    SimCluster probe(ConvergenceOptions::all_opts(), {},
                     seed + 1000 + static_cast<uint64_t>(trial));
    // Rebuild the same history in a fresh cluster (deterministic values).
    std::map<Timestamp, Bytes> vals;
    for (int i = 0; i < 4; ++i) {
      const Bytes value = probe.make_value(3000, static_cast<uint8_t>(i + 1));
      const auto r = probe.put(key, value);
      vals[r.ov.ts] = value;
    }
    probe.run_to_quiescence();
    Timestamp amr_ts;
    for (const auto& [ts, value] : vals) {
      (void)value;
      if (probe.cluster.classify({key, ts}) == VersionStatus::kAmr &&
          ts > amr_ts) {
        amr_ts = ts;
      }
    }
    ASSERT_TRUE(amr_ts.valid());

    // Random double blackout, then a get.
    const int f1 = static_cast<int>(scenario.uniform_int(0, 5));
    const int f2 = static_cast<int>(scenario.uniform_int(0, 5));
    probe.blackout_fs(f1 / 3, f1 % 3, 0, minutes(5));
    if (f2 != f1) probe.blackout_fs(f2 / 3, f2 % 3, 0, minutes(5));
    const auto got = probe.get(key);
    if (got.success) {
      EXPECT_GE(got.ts, amr_ts) << "seed " << seed << " trial " << trial;
      EXPECT_EQ(got.value, vals.at(got.ts));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFaultScheduleTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(AmrStabilityTest, AmrPersistsThroughSubsequentFailures) {
  SimCluster tc(ConvergenceOptions::all_opts());
  std::vector<core::PutResult> results;
  for (int i = 0; i < 5; ++i) {
    results.push_back(tc.put(testing::numbered_key(i),
                             tc.make_value(2048, static_cast<uint8_t>(i))));
  }
  tc.run_to_quiescence();
  for (const auto& r : results) {
    ASSERT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  }
  // Blackouts, crashes, recoveries — none of it may un-AMR anything
  // (crash-recovery keeps stable storage, and nothing deletes state).
  tc.blackout_fs(0, 0, 0, minutes(3));
  tc.cluster.fs(3).crash();
  tc.run_for(minutes(5));
  tc.cluster.fs(3).recover();
  tc.run_to_quiescence();
  for (const auto& r : results) {
    EXPECT_EQ(tc.cluster.classify(r.ov), VersionStatus::kAmr);
  }
}

TEST(EventualConsistencyTest, ConvergedStateServesReadsFromEitherDcAlone) {
  // After convergence, each data center holds ≥ k fragments of every
  // version, so a WAN partition cannot block reads in either side.
  SimCluster tc(ConvergenceOptions::all_opts(), {.num_proxies = 2});
  const Bytes value = tc.make_value(6000);
  tc.put(Key{"k"}, value);
  tc.run_to_quiescence();

  // Partition the data centers; proxy 0 is in DC 0, proxy 1 in DC 1.
  const std::vector<NodeId> dc1 =
      tc.cluster.view()->nodes_in_dc(DataCenterId{1});
  std::unordered_set<NodeId> group(dc1.begin(), dc1.end());
  tc.net.add_fault(std::make_shared<net::Partition>(
      group, tc.sim.now(), tc.sim.now() + minutes(30)));

  const auto got0 = tc.get(Key{"k"}, /*proxy_index=*/0);
  EXPECT_TRUE(got0.success);
  EXPECT_EQ(got0.value, value);
  const auto got1 = tc.get(Key{"k"}, /*proxy_index=*/1);
  EXPECT_TRUE(got1.success);
  EXPECT_EQ(got1.value, value);
}

}  // namespace
}  // namespace pahoehoe
