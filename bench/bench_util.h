// Shared output formatting for the figure-reproduction benches.
//
// Each bench prints the same series the paper's figure shows: a per-message-
// type breakdown (the paper's stacked bars) and totals with 95% CIs, one
// column per experiment configuration — plus the single JSON emission path
// (obs::JsonWriter) every BENCH_*.json file goes through.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "core/harness.h"
#include "erasure/gf256.h"
#include "obs/json.h"
#include "obs/prof.h"

// Stamped by the build (bench/CMakeLists.txt, `git rev-parse`); "unknown"
// outside a git checkout or when git is unavailable.
#ifndef PAHOEHOE_GIT_SHA
#define PAHOEHOE_GIT_SHA "unknown"
#endif

namespace pahoehoe::bench {

/// Version of the common BENCH_*.json shape (the `meta` block and the
/// sections bench/trendcheck gates on). Bump on breaking layout changes so
/// stale baselines fail loudly instead of comparing garbage.
inline constexpr int64_t kBenchSchemaVersion = 1;

/// Keep `value` (and everything reachable from it) observable, so a timed
/// loop's result cannot be optimized away.
template <typename T>
inline void do_not_optimize(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

struct Column {
  std::string label;
  core::AggregateResult agg;
};

enum class Metric { kCount, kBytes };

inline double metric_of(const core::AggregateResult& agg, int type,
                        Metric metric) {
  return metric == Metric::kCount
             ? agg.count_by_type[static_cast<size_t>(type)].mean()
             : agg.bytes_by_type[static_cast<size_t>(type)].mean();
}

/// Scale factors matching the paper's axes: message counts in 10^3,
/// bytes in 2^20 (MiB).
inline double scale_for(Metric metric) {
  return metric == Metric::kCount ? 1e3 : 1024.0 * 1024.0;
}

inline void print_breakdown(const std::vector<Column>& columns,
                            Metric metric) {
  const char* unit = metric == Metric::kCount ? "10^3 msgs" : "MiB";
  std::printf("%-20s", "type");
  for (const auto& col : columns) std::printf(" %12s", col.label.c_str());
  std::printf("   [%s]\n", unit);

  for (int t = 0; t < wire::kMessageTypeCount; ++t) {
    bool any = false;
    for (const auto& col : columns) {
      if (metric_of(col.agg, t, metric) > 0) any = true;
    }
    if (!any) continue;
    std::printf("%-20s", wire::to_string(static_cast<wire::MessageType>(t)));
    for (const auto& col : columns) {
      std::printf(" %12.2f", metric_of(col.agg, t, metric) / scale_for(metric));
    }
    std::printf("\n");
  }

  std::printf("%-20s", "TOTAL");
  for (const auto& col : columns) {
    const auto& total =
        metric == Metric::kCount ? col.agg.msg_count : col.agg.msg_bytes;
    std::printf(" %12.2f", total.mean() / scale_for(metric));
  }
  std::printf("\n%-20s", "  (95% CI +/-)");
  for (const auto& col : columns) {
    const auto& total =
        metric == Metric::kCount ? col.agg.msg_count : col.agg.msg_bytes;
    std::printf(" %12.2f", total.ci95_halfwidth() / scale_for(metric));
  }
  std::printf("\n");
}

inline void print_ratios(const std::vector<Column>& columns, Metric metric,
                         size_t baseline_index) {
  const auto& base = metric == Metric::kCount
                         ? columns[baseline_index].agg.msg_count
                         : columns[baseline_index].agg.msg_bytes;
  std::printf("Relative to %s:\n", columns[baseline_index].label.c_str());
  for (const auto& col : columns) {
    const auto& total =
        metric == Metric::kCount ? col.agg.msg_count : col.agg.msg_bytes;
    std::printf("  %-18s %+7.1f%%\n", col.label.c_str(),
                100.0 * (total.mean() - base.mean()) / base.mean());
  }
}

inline void print_wan_row(const std::vector<Column>& columns) {
  std::printf("%-20s", "WAN bytes (MiB)");
  for (const auto& col : columns) {
    std::printf(" %12.2f", col.agg.wan_bytes.mean() / (1024.0 * 1024.0));
  }
  std::printf("\n");
}

// --- shared JSON emission ---------------------------------------------------

/// {"mean": …, "ci95": …} of one per-seed statistic, values scaled.
inline void json_stat(obs::JsonWriter& w, const SampleStats& stat,
                      double scale = 1.0) {
  w.begin_object();
  w.kv("mean", stat.mean() * scale);
  w.kv("ci95", stat.ci95_halfwidth() * scale);
  w.end_object();
}

/// {"count": …, "p50": …, "p95": …, "p99": …, "max": …} of one pooled
/// distribution, quantiles scaled (e.g. 1e3 for seconds → ms).
inline void json_quantiles(obs::JsonWriter& w, const QuantileSketch& sketch,
                           double scale = 1.0) {
  w.begin_object();
  w.kv("count", sketch.count());
  w.kv("p50", sketch.quantile(0.50) * scale);
  w.kv("p95", sketch.quantile(0.95) * scale);
  w.kv("p99", sketch.quantile(0.99) * scale);
  w.kv("max", sketch.max() * scale);
  w.end_object();
}

/// One column's aggregate as a JSON object: totals with CIs, workload
/// outcome counts, and the non-zero per-message-type breakdown. The common
/// shape shared by every figure bench (fig5–9 and the baseline), so their
/// JSON differs only in what the columns sweep over.
inline void json_column(obs::JsonWriter& w, const Column& col) {
  w.begin_object();
  w.kv("label", col.label);
  w.key("msgs");
  json_stat(w, col.agg.msg_count);
  w.key("bytes");
  json_stat(w, col.agg.msg_bytes);
  w.key("wan_bytes");
  json_stat(w, col.agg.wan_bytes);
  w.key("puts_attempted");
  json_stat(w, col.agg.puts_attempted);
  w.key("puts_acked");
  json_stat(w, col.agg.puts_acked);
  w.key("excess_amr");
  json_stat(w, col.agg.excess_amr);
  w.key("non_durable");
  json_stat(w, col.agg.non_durable);
  w.key("by_type");
  w.begin_object();
  for (int t = 0; t < wire::kMessageTypeCount; ++t) {
    const auto& count = col.agg.count_by_type[static_cast<size_t>(t)];
    const auto& bytes = col.agg.bytes_by_type[static_cast<size_t>(t)];
    if (count.mean() <= 0) continue;
    w.key(wire::to_string(static_cast<wire::MessageType>(t)));
    w.begin_object();
    w.kv("msgs", count.mean());
    w.kv("bytes", bytes.mean());
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

/// The common provenance block every BENCH_*.json carries (satellite of the
/// profiling PR): schema version, git sha of the build, the --jobs the tool
/// ran with, and the GF(2^8) kernel that was active. One helper so the
/// emitters can't drift apart; validated by each tool's --selfcheck via
/// check_meta().
inline void json_meta(obs::JsonWriter& w, int jobs) {
  w.key("meta");
  w.begin_object();
  w.kv("schema_version", kBenchSchemaVersion);
  w.kv("git_sha", PAHOEHOE_GIT_SHA);
  w.kv("jobs", static_cast<int64_t>(jobs));
  w.kv("kernel", gf256::to_string(gf256::active_kernel()));
  w.end_object();
}

/// Validate a parsed bench document's meta block: present, schema version
/// current, kernel a known name, jobs >= 1, git_sha non-empty. On failure
/// fills `error` (value-bearing) and returns false.
inline bool check_meta(const obs::JsonValue& doc, std::string* error) {
  const obs::JsonValue* meta = doc.find("meta");
  if (meta == nullptr || !meta->is_object()) {
    *error = "meta block missing";
    return false;
  }
  const obs::JsonValue* version = meta->find("schema_version");
  if (version == nullptr || !version->is_number() ||
      static_cast<int64_t>(version->number) != kBenchSchemaVersion) {
    *error = "meta.schema_version must be " +
             std::to_string(kBenchSchemaVersion) + ", got " +
             (version != nullptr && version->is_number()
                  ? std::to_string(static_cast<int64_t>(version->number))
                  : std::string("(absent)"));
    return false;
  }
  const obs::JsonValue* sha = meta->find("git_sha");
  if (sha == nullptr || !sha->is_string() || sha->string.empty()) {
    *error = "meta.git_sha missing or empty";
    return false;
  }
  const obs::JsonValue* jobs = meta->find("jobs");
  if (jobs == nullptr || !jobs->is_number() || jobs->number < 1) {
    *error = "meta.jobs must be >= 1, got " +
             (jobs != nullptr && jobs->is_number()
                  ? std::to_string(jobs->number)
                  : std::string("(absent)"));
    return false;
  }
  const obs::JsonValue* kernel = meta->find("kernel");
  if (kernel == nullptr || !kernel->is_string() ||
      !gf256::parse_kernel(kernel->string).has_value()) {
    *error = "meta.kernel must name a GF(2^8) kernel, got " +
             (kernel != nullptr && kernel->is_string()
                  ? "'" + kernel->string + "'"
                  : std::string("(absent)"));
    return false;
  }
  return true;
}

/// The run's wall-clock phase table as a JSON array (empty when profiling
/// was off). Values are host-dependent by nature — downstream tooling may
/// chart them but must never diff them byte-for-byte (DESIGN.md §11).
inline void json_profile(obs::JsonWriter& w, const obs::ProfReport& report) {
  w.key("profile");
  w.begin_array();
  for (const obs::ProfPhase& p : report.phases) {
    w.begin_object();
    w.kv("name", p.name);
    if (!p.parent.empty()) w.kv("parent", p.parent);
    w.kv("calls", p.calls);
    w.kv("total_ms", static_cast<double>(p.total_nanos) / 1e6);
    w.kv("self_ms", static_cast<double>(p.self_nanos) / 1e6);
    w.end_object();
  }
  w.end_array();
}

/// The standard bench document:
/// {"bench", "meta", "seeds", "columns": […], "profile": […]}.
/// Returns false (after a stderr note) on I/O failure.
inline bool write_columns_json(const std::string& path,
                               const std::string& bench_name, int seeds,
                               int jobs,
                               const std::vector<Column>& columns,
                               const obs::ProfReport& profile = {}) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", bench_name);
  json_meta(w, jobs);
  w.kv("seeds", seeds);
  w.key("columns");
  w.begin_array();
  for (const Column& col : columns) json_column(w, col);
  w.end_array();
  json_profile(w, profile);
  w.end_object();
  if (!w.write_file(path)) return false;
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace pahoehoe::bench
