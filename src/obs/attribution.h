// Cohort attribution: turn "p99 is high" into "these versions, this
// component".
//
// The engine reads the two records a run already keeps: the AmrTracker's
// put-ack → AMR latency sketch and the span tracer's per-version critical
// paths. It splits every resolved version (its VersionCriticalPath) into
// two cohorts around the sketch's p95 latency — tail (latency ≥ p95) vs.
// body — and compares the cohorts' critical-path component means. The
// per-component gap (tail mean − body mean) is ranked by its share of the
// total positive gap, which is exactly the "83% of the gap is
// recovery_backoff" sentence the report renders. Alongside, it keeps the
// worst-K versions as exemplars: concrete {version, latency, components,
// seed} witnesses that trace the percentile back to the versions behind it
// (Dapper-style histogram exemplars). A differential mode diffs two
// reports (fresh run vs. baseline) for trendcheck REGRESSION output.
//
// Determinism (DESIGN.md §13): the threshold comes from the *merged*
// latency sketch (bucket-wise exact, so identical for any --jobs); cohort
// accumulation is pure integer micros walked in seed order; worst-K is a
// total order, so its retained set is insertion-order independent; floats
// appear only at report time as derived quantities of those integers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "obs/critical_path.h"
#include "obs/json.h"

namespace pahoehoe::obs {

/// One retained witness: a resolved version's put-ack → AMR latency and its
/// critical-path components, which telescope exactly (sum(components) ==
/// latency_micros, the integer identity VersionCriticalPath guarantees).
struct Exemplar {
  ObjectVersionId ov;
  uint64_t seed = 0;
  SimTime latency_micros = 0;
  std::array<SimTime, kPathComponentCount> components{};

  friend bool operator==(const Exemplar&, const Exemplar&) = default;
};

/// Worst-first total order: latency desc, then version id asc, then seed
/// asc — the "value-then-version-id" tie-break that keeps worst-K stable
/// when latencies collide.
bool worse_than(const Exemplar& a, const Exemplar& b);

/// One-line render, no trailing newline:
///   key=obj-3 ts=1234/7 seed=5007 latency_us=610200000 nw=.. rs=.. rb=.. sp=..
std::string exemplar_to_text(const Exemplar& e);

/// Exact integer accumulation for one cohort. All micros; means are derived
/// at render time only.
struct CohortTotals {
  uint64_t versions = 0;
  uint64_t latency_micros = 0;
  std::array<uint64_t, kPathComponentCount> component_micros{};

  double mean_s() const;
  double component_mean_s(PathComponent c) const;
};

/// One component's contribution to the tail-vs-body gap.
struct ComponentGap {
  PathComponent component = PathComponent::kNetworkWait;
  double tail_mean_s = 0;
  double body_mean_s = 0;
  double gap_s = 0;      ///< tail_mean_s - body_mean_s (may be negative)
  double gap_share = 0;  ///< max(gap,0) / sum of positive gaps, in [0,1]
};

struct AttributionReport {
  static constexpr size_t kWorstK = 8;

  uint64_t versions = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  double max_s = 0;
  double tail_threshold_s = 0;  ///< p95 of the merged latency sketch
  CohortTotals tail;
  CohortTotals body;
  /// All components, ranked by gap_share desc (ties: component enum order).
  std::vector<ComponentGap> ranked;
  /// The kWorstK worst versions, worst first (worse_than order).
  std::vector<Exemplar> top;

  bool empty() const { return versions == 0; }

  /// Value-bearing multi-line render ("p99 is 7.9x p50; 83.2% of the gap is
  /// recovery_backoff; top exemplar ..."). Byte equality across --jobs is
  /// the determinism contract.
  std::string to_text() const;
};

/// Two-pass construction: the latency sketch (already merged across seeds)
/// fixes the p95 threshold, then every version's critical path is bucketed
/// against it and offered to the worst-K. add() is pure integer
/// accumulation; call in seed order.
class AttributionBuilder {
 public:
  explicit AttributionBuilder(const QuantileSketch& latency_s);

  /// `seed` is the run that traced `path`; it tags the path's exemplar.
  void add(const VersionCriticalPath& path, uint64_t seed);
  AttributionReport finish() const;

 private:
  AttributionReport report_;
};

/// Fresh-vs-baseline differential ("tail share moved recovery_backoff
/// 12.0% -> 83.2%"), for trendcheck REGRESSION context.
std::string attribution_diff_text(const AttributionReport& fresh,
                                  const AttributionReport& baseline);

/// Emit the report as one JSON object value (caller writes the key first).
void attribution_to_json(JsonWriter& w, const AttributionReport& report);

/// Reconstruct a report from attribution_to_json output; nullopt if the
/// value is missing required members. Doubles round-trip at the writer's
/// %.10g precision; integer micros round-trip exactly.
std::optional<AttributionReport> attribution_from_json(const JsonValue& v);

}  // namespace pahoehoe::obs
