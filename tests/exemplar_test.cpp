// Determinism and pure-observer contract for tail-latency cohort
// attribution and its worst-K exemplars (DESIGN.md §13):
//  * worst-K is a total order with value-then-version-id tie-breaks, so
//    colliding latencies retain a unique, insertion-order-independent set;
//  * run_many renders attribution and worst-K byte-identically for
//    jobs ∈ {1, 2, 8};
//  * enabling exemplars leaves run digests unchanged (the prof_test
//    side-channel contract);
//  * every retained exemplar's integer components telescope exactly to its
//    AmrTracker latency.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/harness.h"
#include "obs/attribution.h"
#include "test_util.h"

namespace pahoehoe {
namespace {

using testing::digest;

struct SeededPath {
  obs::VersionCriticalPath path;
  uint64_t seed = 0;
};

SeededPath make_path(const std::string& key, SimTime ts_wall, uint64_t seed,
                     SimTime latency) {
  SeededPath p;
  p.path.ov = ObjectVersionId{Key{key}, Timestamp{ts_wall, 101}};
  // Telescoping components: all of it in recovery_backoff.
  p.path.components[static_cast<size_t>(
      obs::PathComponent::kRecoveryBackoff)] = latency;
  p.path.confirm_time = p.path.ack_time + latency;
  p.seed = seed;
  return p;
}

/// The harness's two passes: every path's latency into the sketch, then
/// every path through the builder in the given order.
obs::AttributionReport attribute(const std::vector<SeededPath>& paths) {
  QuantileSketch latency_s;
  for (const SeededPath& p : paths) {
    latency_s.add(static_cast<double>(p.path.total()) /
                  static_cast<double>(kMicrosPerSecond));
  }
  obs::AttributionBuilder builder(latency_s);
  for (const SeededPath& p : paths) builder.add(p.path, p.seed);
  return builder.finish();
}

TEST(Attribution, WorstKIsValueThenVersionIdOrdered) {
  // Nine versions, latencies 100..900 µs in scrambled order: K = 8 keeps
  // all but the 100 µs one, worst first.
  std::vector<SeededPath> paths;
  for (int i = 0; i < 9; ++i) {
    paths.push_back(make_path("obj-" + std::to_string(i),
                              i * kMicrosPerSecond, 7,
                              ((i * 5) % 9 + 1) * 100));
  }
  const obs::AttributionReport report = attribute(paths);

  ASSERT_EQ(report.top.size(), obs::AttributionReport::kWorstK);
  EXPECT_EQ(report.top.front().latency_micros, 900);
  EXPECT_EQ(report.top.back().latency_micros, 200);
  for (size_t i = 1; i < report.top.size(); ++i) {
    EXPECT_TRUE(obs::worse_than(report.top[i - 1], report.top[i]));
  }
  EXPECT_EQ(report.top.front().ov.key.value, "obj-7");  // (7*5)%9+1 = 9
  EXPECT_EQ(report.versions, 9u);  // every version still counted
}

TEST(Attribution, TieBreakIsStableWhenLatenciesCollide) {
  // Same latency everywhere: retention must fall back to (version id, seed)
  // and be independent of insertion order.
  std::vector<SeededPath> all;
  for (int i = 0; i < 9; ++i) {
    all.push_back(make_path("obj-" + std::to_string(i), i * kMicrosPerSecond,
                            /*seed=*/42, 1000));
  }
  all.push_back(make_path("obj-0", 0, /*seed=*/43, 1000));  // seed tie

  const obs::AttributionReport forward = attribute(all);
  const obs::AttributionReport backward =
      attribute(std::vector<SeededPath>(all.rbegin(), all.rend()));

  EXPECT_EQ(forward.to_text(), backward.to_text());
  EXPECT_EQ(forward.top, backward.top);
  ASSERT_EQ(forward.top.size(), obs::AttributionReport::kWorstK);
  // All latencies equal -> version id ascending, seed breaking the ov tie.
  EXPECT_EQ(forward.top[0].seed, 42u);
  EXPECT_EQ(forward.top[0].ov.key.value, "obj-0");
  EXPECT_EQ(forward.top[1].seed, 43u);
  EXPECT_EQ(forward.top[1].ov.key.value, "obj-0");
  EXPECT_EQ(forward.top[2].ov.key.value, "obj-1");
  EXPECT_EQ(forward.top.back().ov.key.value, "obj-6");
}

// --- attribution ------------------------------------------------------------

TEST(Attribution, SplitsCohortsAndRanksTheGap) {
  // 18 versions at 1 s, one at 10 s, one at 601 s. The p95 rank (18 of 20)
  // lands on the 10 s version, whose sketch bucket midpoint sits strictly
  // above 10 s, so the >= tail test keeps it in the body and only the 601 s
  // version crosses the threshold. (An all-equal body would clamp the
  // threshold onto the point mass and pull everything into the tail — the
  // >= is what guarantees the max-latency version is never dropped.)
  std::vector<SeededPath> paths;
  for (int i = 0; i < 20; ++i) {
    obs::VersionCriticalPath path;
    path.ov = ObjectVersionId{Key{"obj-" + std::to_string(i)},
                              Timestamp{i * kMicrosPerSecond, 101}};
    path.components[static_cast<size_t>(obs::PathComponent::kNetworkWait)] =
        i == 18 ? 10 * kMicrosPerSecond : kMicrosPerSecond;
    // The last version is the tail: +600 s of recovery_backoff.
    if (i == 19) {
      path.components[static_cast<size_t>(
          obs::PathComponent::kRecoveryBackoff)] = 600 * kMicrosPerSecond;
    }
    path.confirm_time = path.ack_time + path.total();
    paths.push_back({path, /*seed=*/1});
  }
  const obs::AttributionReport report = attribute(paths);

  EXPECT_EQ(report.versions, 20u);
  EXPECT_GT(report.tail_threshold_s, 9.0);
  EXPECT_LT(report.tail_threshold_s, 11.0);
  EXPECT_EQ(report.tail.versions, 1u);
  EXPECT_EQ(report.body.versions, 19u);
  // Exact integer accumulation per cohort: tail 1+600 s, body 18x1 + 10 s.
  EXPECT_EQ(report.tail.latency_micros,
            static_cast<uint64_t>(601 * kMicrosPerSecond));
  EXPECT_EQ(report.body.latency_micros,
            static_cast<uint64_t>(28 * kMicrosPerSecond));
  ASSERT_FALSE(report.ranked.empty());
  EXPECT_EQ(report.ranked.front().component,
            obs::PathComponent::kRecoveryBackoff);
  EXPECT_GT(report.ranked.front().gap_share, 0.99);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("recovery_backoff"), std::string::npos);
  EXPECT_NE(text.find("top exemplar key=obj-19"), std::string::npos);
}

TEST(Attribution, JsonRoundTripPreservesIntegersExactly) {
  std::vector<SeededPath> paths;
  for (int i = 0; i < 5; ++i) {
    obs::VersionCriticalPath path;
    path.ov = ObjectVersionId{Key{"obj-" + std::to_string(i)},
                              Timestamp{i * 10, 7}};
    path.components[0] = 123 + i;
    path.components[2] = i == 4 ? 987654321 : 17;
    path.confirm_time = path.total();
    paths.push_back({path, /*seed=*/55});
  }
  const obs::AttributionReport report = attribute(paths);

  obs::JsonWriter w;
  obs::attribution_to_json(w, report);
  const std::optional<obs::JsonValue> doc = obs::json_parse(w.str());
  ASSERT_TRUE(doc.has_value());
  const std::optional<obs::AttributionReport> parsed =
      obs::attribution_from_json(*doc);
  ASSERT_TRUE(parsed.has_value());

  EXPECT_EQ(parsed->versions, report.versions);
  EXPECT_EQ(parsed->tail.versions, report.tail.versions);
  EXPECT_EQ(parsed->tail.latency_micros, report.tail.latency_micros);
  EXPECT_EQ(parsed->body.component_micros, report.body.component_micros);
  ASSERT_EQ(parsed->top.size(), report.top.size());
  for (size_t i = 0; i < report.top.size(); ++i) {
    EXPECT_EQ(parsed->top[i], report.top[i]);
  }
  ASSERT_EQ(parsed->ranked.size(), report.ranked.size());
  EXPECT_EQ(parsed->ranked.front().component,
            report.ranked.front().component);
  // The diff of a report against itself is all-zero deltas.
  const std::string diff = obs::attribution_diff_text(*parsed, report);
  EXPECT_NE(diff.find("delta +0.0%"), std::string::npos);
}

TEST(Attribution, EmptySketchYieldsEmptyReport) {
  const QuantileSketch latency_s;
  obs::AttributionBuilder builder(latency_s);
  const obs::AttributionReport report = builder.finish();
  EXPECT_TRUE(report.empty());
  EXPECT_NE(report.to_text().find("no resolved versions"), std::string::npos);
}

// --- harness integration ----------------------------------------------------

core::RunConfig small_config() {
  core::RunConfig config = core::paper_default_config();
  config.convergence = core::ConvergenceOptions::all_opts();
  config.workload.num_puts = 8;
  config.workload.value_size = 8 * 1024;
  config.workload.get_fraction = 0.5;
  // A mid-run blackout so recovery/backoff phases produce a real tail.
  config.faults.push_back(core::FaultSpec::fs_blackout(
      0, 1, 30 * kMicrosPerSecond, 600 * kMicrosPerSecond));
  config.telemetry.exemplars = true;
  return config;
}

TEST(ExemplarHarness, ByteIdenticalForAnyJobs) {
  const core::RunConfig config = small_config();
  const core::AggregateResult serial = core::run_many(config, 4, 42, 1);
  const std::string attribution_text = serial.attribution.to_text();
  EXPECT_FALSE(serial.attribution.empty());
  EXPECT_FALSE(serial.attribution.top.empty());

  for (int jobs : {2, 8}) {
    const core::AggregateResult parallel = core::run_many(config, 4, 42, jobs);
    EXPECT_EQ(parallel.attribution.to_text(), attribution_text)
        << "jobs=" << jobs;
    EXPECT_EQ(parallel.attribution.top, serial.attribution.top)
        << "jobs=" << jobs;
  }
}

TEST(ExemplarHarness, PureObserverDigestIdenticalOnVsOff) {
  core::RunConfig config = small_config();
  config.telemetry.exemplars = false;
  config.telemetry.spans = true;  // hold spans fixed; toggle only exemplars
  const core::AggregateResult off = core::run_many(config, 4, 42, 2);
  EXPECT_TRUE(off.attribution.empty());

  config.telemetry.exemplars = true;
  const core::AggregateResult on = core::run_many(config, 4, 42, 2);
  EXPECT_FALSE(on.attribution.empty());
  EXPECT_EQ(digest(on), digest(off));
}

TEST(ExemplarHarness, ComponentsTelescopeToAmrLatencyForEveryExemplar) {
  const core::RunConfig config = small_config();
  const core::AggregateResult agg = core::run_many(config, 4, 42, 2);

  // The critical paths the attribution walks are exactly the
  // AmrTracker-resolved versions its latency sketch counts.
  EXPECT_EQ(agg.attribution.versions, agg.time_to_amr_s.count());
  ASSERT_FALSE(agg.attribution.top.empty());
  for (const obs::Exemplar& e : agg.attribution.top) {
    SimTime sum = 0;
    for (SimTime micros : e.components) sum += micros;
    EXPECT_EQ(sum, e.latency_micros) << obs::exemplar_to_text(e);
  }

  // Cohort integer totals partition the critical-path totals exactly.
  for (size_t c = 0; c < obs::kPathComponentCount; ++c) {
    const auto component = static_cast<obs::PathComponent>(c);
    EXPECT_EQ(agg.attribution.tail.component_micros[c] +
                  agg.attribution.body.component_micros[c],
              agg.critical_path.total_micros(component))
        << obs::to_string(component);
  }
  EXPECT_EQ(agg.attribution.versions, agg.critical_path.versions());
}

}  // namespace
}  // namespace pahoehoe
