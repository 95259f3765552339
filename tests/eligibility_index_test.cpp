// Differential test of the FS round timer's eligibility index: the simulator
// is stepped one event at a time, and after every event each live FS's index
// minimum must equal a brute-force scan of its whole work-list (the value
// the round timer was armed from before the index existed). The scenarios
// reach every place a version's work-list membership, next_attempt or
// recovering flag changes: puts and convergence under an FS blackout,
// §4.2 collisions on the request and the reply path, crash and recovery,
// a scrub re-add, and a give-up past the horizon.
#include <gtest/gtest.h>

#include "common/sha256.h"
#include "erasure/reed_solomon.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using testing::SimCluster;
using testing::hours;
using testing::minutes;
using testing::seconds;

// Steps until the queue drains, `stop` holds, or simulated time passes
// `until`, checking the index of every up FS after each event. Returns the
// number of events run.
template <typename Stop>
size_t step_checked(SimCluster& tc, SimTime until, Stop stop) {
  size_t events = 0;
  while (tc.sim.now() <= until && !stop() && tc.sim.step()) {
    ++events;
    for (int i = 0; i < tc.cluster.num_fs(); ++i) {
      const core::FragmentServer& fs = tc.cluster.fs(i);
      if (fs.crashed()) continue;  // volatile state, index included, is gone
      const std::optional<SimTime> indexed = fs.indexed_earliest_for_test();
      const std::optional<SimTime> scanned = fs.scanned_earliest_for_test();
      if (indexed != scanned) {
        ADD_FAILURE() << "FS " << to_string(fs.id()) << " at t="
                      << tc.sim.now() << " after event " << events
                      << ": index says "
                      << (indexed ? std::to_string(*indexed) : "none")
                      << ", scan says "
                      << (scanned ? std::to_string(*scanned) : "none");
        return events;
      }
    }
  }
  return events;
}

size_t step_checked(SimCluster& tc, SimTime until) {
  return step_checked(tc, until, [] { return false; });
}

void start_puts(SimCluster& tc, int count, size_t size) {
  for (int i = 0; i < count; ++i) {
    tc.cluster.proxy(0).put(testing::numbered_key(static_cast<uint64_t>(i)),
                            tc.make_value(size, static_cast<uint8_t>(i)),
                            Policy{}, [](const core::PutResult&) {});
  }
}

// Many versions pending on every sibling of a blacked-out FS, both with the
// min-age term in the key (PutAMR) and without it (naive).
TEST(EligibilityIndex, FsBlackoutWithManyPendingVersions) {
  for (const core::ConvergenceOptions& conv :
       {core::ConvergenceOptions::all_opts(),
        core::ConvergenceOptions::naive()}) {
    SCOPED_TRACE(core::describe(conv));
    SimCluster tc(conv);
    tc.blackout_fs(0, 0, 0, minutes(10));
    start_puts(tc, 40, 4096);
    step_checked(tc, hours(12));
    EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
    EXPECT_GT(tc.counter_sum("fs_recoveries_total"), 0u);
  }
}

// FS crash → recover while work is pending and a recovery may be in flight:
// the crash drops the index with the rest of the volatile state, and the
// recovery rebuilds it from the persistent work-list.
TEST(EligibilityIndex, FsCrashAndRecover) {
  SimCluster tc(core::ConvergenceOptions::all_opts());
  tc.blackout_fs(0, 0, 0, minutes(6));
  start_puts(tc, 20, 4096);
  core::FragmentServer& sibling = tc.cluster.fs(0, 1);
  core::FragmentServer& missing = tc.cluster.fs(0, 0);
  tc.sim.schedule_at(seconds(20), [&] { sibling.crash(); });
  tc.sim.schedule_at(minutes(3), [&] { sibling.recover(); });
  tc.sim.schedule_at(minutes(7), [&] { missing.crash(); });
  tc.sim.schedule_at(minutes(9), [&] { missing.recover(); });
  step_checked(tc, hours(12));
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
}

// A corrupted fragment of an AMR version is re-added to the work-list by
// scrub and repaired.
TEST(EligibilityIndex, ScrubReaddAfterCorruption) {
  SimCluster tc(core::ConvergenceOptions::all_opts());
  start_puts(tc, 4, 4096);
  step_checked(tc, hours(1));
  ASSERT_EQ(tc.cluster.total_pending_versions(), 0u);
  core::FragmentServer& fs = tc.cluster.fs(0);
  const auto& [ov, entry] = *fs.frag_store().entries().begin();
  const std::vector<int> slots = entry.meta.fragments_for(fs.id());
  ASSERT_FALSE(slots.empty());
  ASSERT_TRUE(fs.corrupt_fragment(ov, slots.front()));
  EXPECT_EQ(fs.scrub(), 1u);
  step_checked(tc, tc.sim.now() + hours(1));
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
  EXPECT_EQ(tc.cluster.classify(ov), core::VersionStatus::kAmr);
}

// Versions that cannot verify AMR while an FS stays dark past a short
// horizon are given up (the work entry leaves the index with them).
TEST(EligibilityIndex, GiveUpPastTheHorizon) {
  core::ConvergenceOptions conv = core::ConvergenceOptions::all_opts();
  conv.giveup_age = minutes(30);
  SimCluster tc(conv);
  tc.blackout_fs(1, 2, 0, hours(3));
  start_puts(tc, 10, 4096);
  step_checked(tc, hours(2));
  EXPECT_GT(tc.counter_sum("fs_giveups_total"), 0u);
}

// §4.2 lower-id backoff, on the request path (a competing recovery intent
// from a higher id) and on the reply path (a higher-id sibling answering
// that it is recovering too). Synchronized rounds and one missing local
// fragment make the test FS start sibling recovery at a round; the higher
// id is a probe that injects the competing message.
class Probe : public net::MessageHandler {
 public:
  void handle(const wire::Envelope&) override {}
};

TEST(EligibilityIndex, SiblingRecoveryCollisionsOnBothPaths) {
  core::ConvergenceOptions conv = core::ConvergenceOptions::all_opts();
  conv.unsync_rounds = false;
  SimCluster tc(conv);
  core::FragmentServer& fs = tc.cluster.fs(0, 0);
  Probe probe;
  const NodeId higher{fs.id().value + 1000};
  tc.net.register_node(higher, &probe);

  // Fragment i lives on FS (i % 6); the test FS (0,0) owns slots 0 and 6
  // and is missing slot 6.
  erasure::ReedSolomon codec(4, 12);
  const Bytes value = tc.make_value(4096);
  const std::vector<Bytes> frags = codec.encode(value);
  Metadata meta{Policy{}, value.size()};
  for (size_t i = 0; i < meta.locs.size(); ++i) {
    meta.locs[i] = Location{tc.cluster.fs(static_cast<int>(i % 6)).id(),
                            static_cast<uint8_t>(i / 6)};
  }
  const ObjectVersionId ov{Key{"k"}, Timestamp{100, 1}};
  for (size_t slot = 0; slot < meta.locs.size(); ++slot) {
    if (slot == 6) continue;
    wire::StoreFragmentReq req{ov, meta, static_cast<uint16_t>(slot),
                               frags[slot], Sha256::hash(frags[slot])};
    net::send_message(tc.net, higher, meta.locs[slot]->fs, req);
  }

  auto started = [&] {
    return tc.node_counter("fs_sibling_recoveries_total", fs.id());
  };
  auto collisions = [&] {
    return tc.node_counter("fs_recovery_collisions_total", fs.id());
  };

  step_checked(tc, hours(1), [&] { return started() == 1; });
  ASSERT_EQ(started(), 1u);
  net::send_message(tc.net, higher, fs.id(),
                    wire::FsConvergeReq{ov, meta, /*intends_recovery=*/true});
  step_checked(tc, hours(1), [&] { return collisions() == 1; });
  ASSERT_EQ(collisions(), 1u) << "request-path stand-down";

  step_checked(tc, hours(1), [&] { return started() == 2; });
  ASSERT_EQ(started(), 2u);
  wire::FsConvergeRep rep;
  rep.ov = ov;
  rep.also_recovering = true;
  net::send_message(tc.net, higher, fs.id(), rep);
  step_checked(tc, hours(1), [&] { return collisions() == 2; });
  ASSERT_EQ(collisions(), 2u) << "reply-path stand-down";

  // The winner pushes the regenerated fragment: its arrival wakes the
  // backed-off version (unchanged metadata, so only the wake re-keys it).
  net::send_message(tc.net, higher, fs.id(),
                    wire::SiblingStoreReq{ov, meta, 6, frags[6],
                                          Sha256::hash(frags[6])});
  step_checked(tc, hours(12));
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
  EXPECT_EQ(started(), 2u) << "the pushed fragment made recovery unneeded";
}

// Recoveries that stall because their sources are dark are abandoned at
// the deadline and retried under backoff.
TEST(EligibilityIndex, RecoveryDeadlineWhileSourcesAreDark) {
  SimCluster tc(core::ConvergenceOptions::all_opts());
  tc.blackout_fs(0, 0, 0, minutes(6));
  for (int index = 1; index < 3; ++index) {
    tc.blackout_fs(0, index, minutes(6), minutes(40));
    tc.blackout_fs(1, index, minutes(6), minutes(40));
  }
  start_puts(tc, 10, 4096);
  step_checked(tc, hours(12));
  EXPECT_GT(tc.counter_sum("fs_recovery_backoffs_total"),
            tc.counter_sum("fs_recovery_collisions_total"));
  EXPECT_EQ(tc.cluster.total_pending_versions(), 0u);
}

}  // namespace
}  // namespace pahoehoe
