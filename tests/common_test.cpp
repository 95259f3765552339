#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"

namespace pahoehoe {
namespace {

// --- Timestamp --------------------------------------------------------------

TEST(TimestampTest, DefaultIsInvalid) {
  Timestamp ts;
  EXPECT_FALSE(ts.valid());
}

TEST(TimestampTest, OrderedByWallClockFirst) {
  Timestamp a{100, 9};
  Timestamp b{200, 1};
  EXPECT_LT(a, b);
}

TEST(TimestampTest, ProxyIdBreaksTies) {
  Timestamp a{100, 1};
  Timestamp b{100, 2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
}

TEST(TimestampTest, EqualityRequiresBothFields) {
  EXPECT_EQ((Timestamp{5, 7}), (Timestamp{5, 7}));
  EXPECT_NE((Timestamp{5, 7}), (Timestamp{5, 8}));
}

TEST(TimestampTest, UsableAsSetAndMapKey) {
  std::set<Timestamp> set;
  set.insert(Timestamp{3, 1});
  set.insert(Timestamp{1, 1});
  set.insert(Timestamp{2, 1});
  EXPECT_EQ(set.rbegin()->wall_micros, 3);
  std::unordered_set<Timestamp> uset(set.begin(), set.end());
  EXPECT_EQ(uset.size(), 3u);
}

// --- ObjectVersionId ----------------------------------------------------------

TEST(ObjectVersionIdTest, OrderedByKeyThenTimestamp) {
  ObjectVersionId a{Key{"a"}, Timestamp{10, 1}};
  ObjectVersionId b{Key{"a"}, Timestamp{20, 1}};
  ObjectVersionId c{Key{"b"}, Timestamp{5, 1}};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(ObjectVersionIdTest, HashDistinguishesVersions) {
  std::unordered_set<ObjectVersionId> set;
  set.insert({Key{"k"}, Timestamp{1, 1}});
  set.insert({Key{"k"}, Timestamp{1, 2}});
  set.insert({Key{"k2"}, Timestamp{1, 1}});
  EXPECT_EQ(set.size(), 3u);
}

// --- Policy -------------------------------------------------------------------

TEST(PolicyTest, DefaultMatchesPaper) {
  Policy p;
  EXPECT_EQ(p.k, 4);
  EXPECT_EQ(p.n, 12);
  EXPECT_EQ(p.m(), 8);
  EXPECT_EQ(p.max_frags_per_fs, 2);
  EXPECT_EQ(p.max_frags_per_dc, 6);
  EXPECT_TRUE(p.data_frags_one_dc);
  EXPECT_TRUE(p.valid());
}

TEST(PolicyTest, RejectsZeroK) {
  Policy p;
  p.k = 0;
  EXPECT_FALSE(p.valid());
}

TEST(PolicyTest, RejectsNSmallerThanK) {
  Policy p;
  p.k = 5;
  p.n = 4;
  EXPECT_FALSE(p.valid());
}

TEST(PolicyTest, RejectsSuccessThresholdAboveN) {
  Policy p;
  p.min_frags_for_success = 13;
  EXPECT_FALSE(p.valid());
}

// --- Metadata -------------------------------------------------------------------

TEST(MetadataTest, FreshMetadataHasUndecidedSlots) {
  Metadata meta{Policy{}};
  EXPECT_EQ(meta.locs.size(), 12u);
  EXPECT_EQ(meta.decided_count(), 0);
  EXPECT_FALSE(meta.complete());
}

TEST(MetadataTest, CompleteWhenAllSlotsDecided) {
  Metadata meta{Policy{}};
  for (size_t i = 0; i < meta.locs.size(); ++i) {
    meta.locs[i] = Location{NodeId{static_cast<uint32_t>(i)}, 0};
  }
  EXPECT_TRUE(meta.complete());
  EXPECT_EQ(meta.decided_count(), 12);
}

TEST(MetadataTest, FragmentsForReturnsAssignedSlots) {
  Metadata meta{Policy{}};
  meta.locs[2] = Location{NodeId{7}, 0};
  meta.locs[5] = Location{NodeId{7}, 1};
  meta.locs[6] = Location{NodeId{8}, 0};
  EXPECT_EQ(meta.fragments_for(NodeId{7}), (std::vector<int>{2, 5}));
  EXPECT_EQ(meta.fragments_for(NodeId{8}), (std::vector<int>{6}));
  EXPECT_TRUE(meta.fragments_for(NodeId{9}).empty());
}

TEST(MetadataTest, SiblingFsDeduplicatesInSlotOrder) {
  Metadata meta{Policy{}};
  meta.locs[0] = Location{NodeId{5}, 0};
  meta.locs[1] = Location{NodeId{6}, 0};
  meta.locs[2] = Location{NodeId{5}, 1};
  auto sibs = meta.sibling_fs();
  EXPECT_EQ(sibs, (std::vector<NodeId>{NodeId{5}, NodeId{6}}));
}

TEST(MetadataTest, MergeLocsUnionsAndExistingWins) {
  Metadata a{Policy{}};
  a.locs[0] = Location{NodeId{1}, 0};
  Metadata b{Policy{}};
  b.locs[0] = Location{NodeId{2}, 0};  // conflicts; a keeps its own
  b.locs[1] = Location{NodeId{3}, 0};
  EXPECT_TRUE(a.merge_locs(b));
  EXPECT_EQ(a.locs[0]->fs, NodeId{1});
  EXPECT_EQ(a.locs[1]->fs, NodeId{3});
}

TEST(MetadataTest, MergeLocsReportsNoChange) {
  Metadata a{Policy{}};
  a.locs[0] = Location{NodeId{1}, 0};
  Metadata b{Policy{}};
  EXPECT_FALSE(a.merge_locs(b));
}

// --- Rng ------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.uniform_int(10, 30);
    EXPECT_GE(v, 10);
    EXPECT_LE(v, 30);
  }
}

TEST(RngTest, UniformIntCoversSingletonRange) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(RngTest, ChanceRoughlyCalibrated) {
  Rng rng(99);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.15)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.15, 0.02);
}

// --- SampleStats -------------------------------------------------------------------

TEST(SampleStatsTest, MeanAndStddev) {
  SampleStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
}

TEST(SampleStatsTest, EmptyAndSingleton) {
  SampleStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(SampleStatsTest, Ci95ShrinksWithSamples) {
  SampleStats small, large;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) small.add(rng.uniform01());
  for (int i = 0; i < 1000; ++i) large.add(rng.uniform01());
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

TEST(SampleStatsTest, MinMax) {
  SampleStats s;
  s.add(3);
  s.add(-1);
  s.add(10);
  EXPECT_DOUBLE_EQ(s.min(), -1);
  EXPECT_DOUBLE_EQ(s.max(), 10);
}

}  // namespace
}  // namespace pahoehoe
