// Bench-trajectory regression gate: compares fresh BENCH_erasure.json /
// BENCH_telemetry.json documents against the committed per-host-class
// baselines under bench/baselines/ and exits non-zero when a gated series
// regressed beyond its relative tolerance.
//
// Gate design — why this catches a >= 20% encode regression without
// flaking on machine-to-machine variance:
//  * erasure, machine-normalized (tol 15%): the best-kernel speedup vs
//    scalar, and encode/decode throughput divided by the same kernel's raw
//    mul_acc throughput. A uniform encode-path regression moves the ratio
//    one-for-one while mul_acc is untouched; a SIMD-kernel regression
//    moves the speedup. Either way a 20% loss trips the 15% gate.
//  * erasure, absolute MB/s (tol 60%): a catastrophe net only — catches
//    "accidentally shipping the scalar path" class failures on same-class
//    hosts without gating on exact clock speeds.
//  * telemetry (band 10%, counts exact): simulated quantiles are
//    deterministic given the flags, so they move only when behavior does.
//
// Host class = the best GF(2^8) kernel the host supports (avx2 / ssse3 /
// scalar): baselines/erasure-<class>.json. Telemetry results are simulated
// and host-independent: baselines/telemetry.json.
//
// A missing baseline for this host class, or a baseline generated with
// different flags/kernels, is a SKIP with notice (exit 0) so CI on exotic
// runners degrades gracefully; --require turns skips into failures.
// --write-baseline installs the fresh documents as the new baselines (the
// telemetry one without its per-variant timeline arrays, which no gate
// reads).
// --selftest proves the gate engine itself on synthetic documents,
// including that an injected 20% encode-throughput regression fails.
//
// Examples:
//   ./build/bench/micro_erasure --selfcheck --target-ms=200
//   ./build/bench/convergence_telemetry --puts=6 --seeds=2 --jobs=2
//       --object-kib=8 --sample-interval-s=5 --selfcheck
//   ./build/bench/trendcheck                       # gate both documents
//   ./build/bench/trendcheck --write-baseline      # refresh baselines
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "erasure/gf256.h"
#include "obs/attribution.h"
#include "obs/json.h"

namespace pahoehoe {
namespace {

// Relative tolerances, per the gate design above.
constexpr double kTolNormalized = 0.15;  // speedups and per-kernel ratios
constexpr double kTolAbsolute = 0.60;    // raw MB/s catastrophe net
constexpr double kTolTelemetry = 0.10;   // simulated latency quantiles

enum class Dir {
  kMin,   // fresh must not fall below baseline * (1 - tol)
  kMax,   // fresh must not rise above baseline * (1 + tol)
  kBand,  // |fresh - baseline| must stay within tol * |baseline|
};

struct Outcome {
  bool comparable = false;   ///< false => structural mismatch, see skip_reason
  std::string skip_reason;
  int gates = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notices;  ///< non-fatal coverage gaps
  /// Diagnostic lines printed alongside REGRESSION output: the regressed
  /// run's tail attribution (top exemplars, dominant component) and, when
  /// the baseline carries the section too, a fresh-vs-baseline diff.
  std::vector<std::string> context;
};

void gate(Outcome& out, const std::string& name, double fresh,
          double baseline, double rel_tol, Dir dir) {
  ++out.gates;
  char msg[256];
  switch (dir) {
    case Dir::kMin: {
      const double bound = baseline * (1.0 - rel_tol);
      if (fresh >= bound) return;
      std::snprintf(msg, sizeof(msg),
                    "REGRESSION %s: fresh=%.6g below allowed %.6g "
                    "(baseline %.6g, tol -%.0f%%)",
                    name.c_str(), fresh, bound, baseline, rel_tol * 100);
      break;
    }
    case Dir::kMax: {
      const double bound = baseline * (1.0 + rel_tol);
      if (fresh <= bound) return;
      std::snprintf(msg, sizeof(msg),
                    "REGRESSION %s: fresh=%.6g above allowed %.6g "
                    "(baseline %.6g, tol +%.0f%%)",
                    name.c_str(), fresh, bound, baseline, rel_tol * 100);
      break;
    }
    case Dir::kBand: {
      const double slack = rel_tol * std::fabs(baseline) + 1e-9;
      if (std::fabs(fresh - baseline) <= slack) return;
      std::snprintf(msg, sizeof(msg),
                    "REGRESSION %s: fresh=%.6g outside baseline %.6g "
                    "+/- %.0f%%",
                    name.c_str(), fresh, baseline, rel_tol * 100);
      break;
    }
  }
  out.failures.push_back(msg);
}

/// meta.git_sha of a parsed document, for provenance lines.
std::string doc_sha(const obs::JsonValue& doc) {
  const obs::JsonValue* meta = doc.find("meta");
  const obs::JsonValue* sha = meta != nullptr ? meta->find("git_sha") : nullptr;
  return sha != nullptr && sha->is_string() ? sha->string : "unknown";
}

double num_or(const obs::JsonValue* v, double fallback) {
  return v != nullptr && v->is_number() ? v->number : fallback;
}

// --- erasure gates ----------------------------------------------------------

std::vector<std::string> kernel_names(const obs::JsonValue& doc) {
  std::vector<std::string> names;
  const obs::JsonValue* kernels = doc.find("kernels");
  if (kernels == nullptr || !kernels->is_array()) return names;
  for (const obs::JsonValue& k : kernels->array) names.push_back(k.string);
  return names;
}

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ",";
    out += n;
  }
  return out;
}

const obs::JsonValue* find_case(const obs::JsonValue& cases, double k,
                                double n, double fragment_size) {
  for (const obs::JsonValue& c : cases.array) {
    if (num_or(c.find("k"), -1) == k && num_or(c.find("n"), -1) == n &&
        num_or(c.find("fragment_size"), -1) == fragment_size) {
      return &c;
    }
  }
  return nullptr;
}

const obs::JsonValue* find_kernel_result(const obs::JsonValue& results,
                                         const std::string& kernel) {
  for (const obs::JsonValue& r : results.array) {
    const obs::JsonValue* name = r.find("kernel");
    if (name != nullptr && name->string == kernel) return &r;
  }
  return nullptr;
}

Outcome compare_erasure(const obs::JsonValue& fresh,
                        const obs::JsonValue& baseline) {
  Outcome out;
  const std::vector<std::string> fresh_kernels = kernel_names(fresh);
  const std::vector<std::string> base_kernels = kernel_names(baseline);
  if (fresh_kernels != base_kernels) {
    out.skip_reason = "kernel sets differ: fresh [" + join(fresh_kernels) +
                      "] vs baseline [" + join(base_kernels) + "]";
    return out;
  }
  const obs::JsonValue* fresh_cases = fresh.find("cases");
  const obs::JsonValue* base_cases = baseline.find("cases");
  if (fresh_cases == nullptr || !fresh_cases->is_array() ||
      base_cases == nullptr || !base_cases->is_array()) {
    out.skip_reason = "cases array missing";
    return out;
  }
  out.comparable = true;

  for (const obs::JsonValue& fc : fresh_cases->array) {
    const double k = num_or(fc.find("k"), -1);
    const double n = num_or(fc.find("n"), -1);
    const double frag = num_or(fc.find("fragment_size"), -1);
    char label[64];
    std::snprintf(label, sizeof(label), "k=%g n=%g frag=%gK", k, n,
                  frag / 1024);
    const obs::JsonValue* bc = find_case(*base_cases, k, n, frag);
    if (bc == nullptr) {
      out.notices.push_back(std::string("case ") + label +
                            " has no baseline (new case? refresh with "
                            "--write-baseline)");
      continue;
    }
    // Machine-normalized: best-kernel speedup over scalar.
    for (const char* op : {"encode", "decode"}) {
      const double f = num_or(fc.find("speedup")->find(op), 0);
      const double b = num_or(bc->find("speedup")->find(op), 0);
      gate(out, std::string(label) + " speedup." + op, f, b, kTolNormalized,
           Dir::kMin);
    }
    for (const obs::JsonValue& fr : fc.find("results")->array) {
      const std::string kernel = fr.find("kernel")->string;
      const obs::JsonValue* br = find_kernel_result(*bc->find("results"),
                                                    kernel);
      if (br == nullptr) {
        out.notices.push_back(std::string(label) + " kernel " + kernel +
                              " has no baseline result");
        continue;
      }
      const std::string prefix = std::string(label) + " " + kernel + " ";
      const double f_mul = num_or(fr.find("mul_acc_mb_s"), 0);
      const double b_mul = num_or(br->find("mul_acc_mb_s"), 0);
      for (const char* op : {"encode_mb_s", "decode_mb_s"}) {
        const double f = num_or(fr.find(op), 0);
        const double b = num_or(br->find(op), 0);
        // Machine-normalized: throughput per unit of this host's own raw
        // mul_acc throughput. A kernel-wide slowdown cancels out; an
        // encode/decode-path regression does not.
        if (f_mul > 0 && b_mul > 0) {
          gate(out, prefix + op + "/mul_acc", f / f_mul, b / b_mul,
               kTolNormalized, Dir::kMin);
        }
        gate(out, prefix + op, f, b, kTolAbsolute, Dir::kMin);
      }
    }
  }
  return out;
}

// --- telemetry gates --------------------------------------------------------

const obs::JsonValue* find_variant(const obs::JsonValue& variants,
                                   const std::string& name) {
  for (const obs::JsonValue& v : variants.array) {
    const obs::JsonValue* n = v.find("name");
    if (n != nullptr && n->string == name) return &v;
  }
  return nullptr;
}

/// On a quantile-band failure for `name`, pull the variant's
/// tail_attribution section so the REGRESSION line arrives with the
/// versions and component that produced it. Older documents without the
/// section degrade to a notice instead of a hard error.
void attach_attribution_context(Outcome& out, const std::string& name,
                                const obs::JsonValue& fv,
                                const obs::JsonValue& bv) {
  const obs::JsonValue* fa = fv.find("tail_attribution");
  if (fa == nullptr) {
    out.notices.push_back("variant " + name +
                          " regressed but the fresh document has no "
                          "tail_attribution section (older bench build?)");
    return;
  }
  const std::optional<obs::AttributionReport> fresh_report =
      obs::attribution_from_json(*fa);
  if (!fresh_report.has_value()) {
    out.notices.push_back("variant " + name +
                          ": tail_attribution section is malformed");
    return;
  }
  if (!fresh_report->ranked.empty()) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%s: %.1f%% of the tail-vs-body gap is %s", name.c_str(),
                  fresh_report->ranked.front().gap_share * 100.0,
                  obs::to_string(fresh_report->ranked.front().component));
    out.context.push_back(line);
  }
  size_t shown = 0;
  for (const obs::Exemplar& e : fresh_report->top) {
    if (shown++ >= 3) break;
    out.context.push_back(name + " top exemplar " + obs::exemplar_to_text(e));
  }
  const obs::JsonValue* ba = bv.find("tail_attribution");
  if (ba == nullptr) {
    out.notices.push_back("variant " + name +
                          ": baseline predates tail_attribution; "
                          "differential skipped (refresh with "
                          "--write-baseline)");
    return;
  }
  const std::optional<obs::AttributionReport> base_report =
      obs::attribution_from_json(*ba);
  if (base_report.has_value()) {
    out.context.push_back(
        obs::attribution_diff_text(*fresh_report, *base_report));
  }
}

Outcome compare_telemetry(const obs::JsonValue& fresh,
                          const obs::JsonValue& baseline) {
  Outcome out;
  // The quantiles are only comparable when the workload flags match.
  for (const char* key : {"seeds", "puts", "object_kib",
                          "sample_interval_s"}) {
    const double f = num_or(fresh.find(key), -1);
    const double b = num_or(baseline.find(key), -2);
    if (f != b) {
      char reason[128];
      std::snprintf(reason, sizeof(reason),
                    "flag mismatch: %s fresh=%g vs baseline=%g "
                    "(rerun with the baseline's flags)",
                    key, f, b);
      out.skip_reason = reason;
      return out;
    }
  }
  const obs::JsonValue* fresh_variants = fresh.find("variants");
  const obs::JsonValue* base_variants = baseline.find("variants");
  if (fresh_variants == nullptr || !fresh_variants->is_array() ||
      base_variants == nullptr || !base_variants->is_array()) {
    out.skip_reason = "variants array missing";
    return out;
  }
  out.comparable = true;

  for (const obs::JsonValue& fv : fresh_variants->array) {
    const std::string name = fv.find("name")->string;
    const obs::JsonValue* bv = find_variant(*base_variants, name);
    if (bv == nullptr) {
      out.notices.push_back("variant " + name +
                            " has no baseline (refresh with "
                            "--write-baseline)");
      continue;
    }
    // Deterministic simulation: the ack count must match exactly, and the
    // ack -> AMR quantiles may drift only inside the band (quantile
    // interpolation is the one legitimate source of tiny movement).
    gate(out, name + " acked_total", num_or(fv.find("acked_total"), -1),
         num_or(bv->find("acked_total"), -1), 0.0, Dir::kBand);
    const size_t failures_before = out.failures.size();
    for (const char* q : {"p50", "p95"}) {
      const double f = num_or(fv.find("time_to_amr_s")->find(q), -1);
      const double b = num_or(bv->find("time_to_amr_s")->find(q), -1);
      gate(out, name + " time_to_amr_s." + q, f, b, kTolTelemetry,
           Dir::kBand);
    }
    if (out.failures.size() > failures_before) {
      attach_attribution_context(out, name, fv, *bv);
    }
  }
  return out;
}

// --- document plumbing ------------------------------------------------------

struct LoadedDoc {
  obs::JsonValue doc;
  std::string path;
};

/// nullopt with a stderr note when unreadable or failing check_meta.
std::optional<LoadedDoc> load_checked(const std::string& path,
                                      const char* role) {
  std::optional<obs::JsonValue> doc = obs::json_parse_file(path);
  if (!doc.has_value()) {
    std::fprintf(stderr, "trendcheck: %s %s: unreadable or invalid JSON\n",
                 role, path.c_str());
    return std::nullopt;
  }
  std::string meta_error;
  if (!bench::check_meta(*doc, &meta_error)) {
    std::fprintf(stderr, "trendcheck: %s %s: %s\n", role, path.c_str(),
                 meta_error.c_str());
    return std::nullopt;
  }
  return LoadedDoc{std::move(*doc), path};
}

bool copy_file(const std::string& from, const std::string& to) {
  std::ifstream in(from, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "trendcheck: cannot read %s\n", from.c_str());
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::ofstream out(to, std::ios::binary | std::ios::trunc);
  if (!out || !(out << buf.str())) {
    std::fprintf(stderr, "trendcheck: cannot write %s\n", to.c_str());
    return false;
  }
  return true;
}

/// Re-emit a parsed document (objects in key order). Integral numbers go
/// out as integers so integer micros survive exactly. False on a null,
/// which no JsonWriter-built bench document contains.
bool write_value(obs::JsonWriter& w, const obs::JsonValue& v) {
  switch (v.kind) {
    case obs::JsonValue::Kind::kNull:
      return false;
    case obs::JsonValue::Kind::kBool:
      w.value(v.boolean);
      return true;
    case obs::JsonValue::Kind::kNumber:
      if (v.number == std::trunc(v.number) && std::fabs(v.number) < 0x1p53) {
        w.value(static_cast<int64_t>(v.number));
      } else {
        w.value(v.number);
      }
      return true;
    case obs::JsonValue::Kind::kString:
      w.value(v.string);
      return true;
    case obs::JsonValue::Kind::kArray:
      w.begin_array();
      for (const obs::JsonValue& e : v.array) {
        if (!write_value(w, e)) return false;
      }
      w.end_array();
      return true;
    case obs::JsonValue::Kind::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.object) {
        w.key(k);
        if (!write_value(w, e)) return false;
      }
      w.end_object();
      return true;
  }
  return false;
}

/// The baseline form of a fresh telemetry document: each variant's
/// `timeline` dropped (no gate reads the sampled arrays, and they are most
/// of the document's bytes). nullopt if the document holds a null.
std::optional<obs::JsonWriter> telemetry_baseline_of(obs::JsonValue doc) {
  const auto variants = doc.object.find("variants");
  if (variants != doc.object.end()) {
    for (obs::JsonValue& variant : variants->second.array) {
      variant.object.erase("timeline");
    }
  }
  obs::JsonWriter w;
  if (!write_value(w, doc)) return std::nullopt;
  return w;
}

// --- selftest ---------------------------------------------------------------

/// A miniature but shape-complete erasure document (two kernels, one case).
std::string synth_erasure_text() {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "erasure");
  bench::json_meta(w, /*jobs=*/1);
  w.key("kernels");
  w.begin_array().value("scalar").value("simd").end_array();
  w.key("cases");
  w.begin_array();
  w.begin_object();
  w.kv("k", 4).kv("n", 12).kv("fragment_size", 65536);
  w.key("results");
  w.begin_array();
  w.begin_object()
      .kv("kernel", "scalar")
      .kv("encode_mb_s", 1000.0)
      .kv("decode_mb_s", 900.0)
      .kv("mul_acc_mb_s", 2000.0)
      .end_object();
  w.begin_object()
      .kv("kernel", "simd")
      .kv("encode_mb_s", 5000.0)
      .kv("decode_mb_s", 4500.0)
      .kv("mul_acc_mb_s", 11000.0)
      .end_object();
  w.end_array();
  w.key("speedup");
  w.begin_object().kv("encode", 5.0).kv("decode", 5.0).end_object();
  w.end_object();
  w.end_array();
  w.end_object();
  return w.str();
}

/// A real attribution report over synthetic critical paths: 8 versions,
/// one of which spends 600 s in recovery_backoff — so the ranked list
/// names recovery_backoff and the worst-K leads with obj-7.
obs::AttributionReport synth_attribution() {
  QuantileSketch latency_s;
  std::vector<obs::VersionCriticalPath> paths;
  for (int i = 0; i < 8; ++i) {
    obs::VersionCriticalPath path;
    path.ov = ObjectVersionId{Key{"obj-" + std::to_string(i)},
                              Timestamp{i * kMicrosPerSecond, 101}};
    path.components[static_cast<size_t>(obs::PathComponent::kNetworkWait)] =
        kMicrosPerSecond / 2;
    path.components[static_cast<size_t>(
        obs::PathComponent::kRecoveryBackoff)] =
        (i == 7 ? 600 : 1) * kMicrosPerSecond;
    path.confirm_time = path.ack_time + path.total();
    latency_s.add(static_cast<double>(path.total()) /
                  static_cast<double>(kMicrosPerSecond));
    paths.push_back(path);
  }
  obs::AttributionBuilder builder(latency_s);
  for (const obs::VersionCriticalPath& path : paths) {
    builder.add(path, /*seed=*/5000);
  }
  return builder.finish();
}

std::string synth_telemetry_text() {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", "convergence_telemetry");
  bench::json_meta(w, /*jobs=*/2);
  w.kv("seeds", 2).kv("puts", 6).kv("object_kib", 8);
  w.kv("sample_interval_s", 5.0);
  w.key("variants");
  w.begin_array();
  w.begin_object();
  w.kv("name", "All");
  w.key("time_to_amr_s");
  w.begin_object()
      .kv("count", 12)
      .kv("p50", 100.0)
      .kv("p95", 220.0)
      .kv("p99", 230.0)
      .kv("max", 240.0)
      .end_object();
  w.kv("acked_total", 12);
  w.key("tail_attribution");
  obs::attribution_to_json(w, synth_attribution());
  w.end_object();
  w.end_array();
  w.end_object();
  return w.str();
}

int selftest_fail(const char* what) {
  std::fprintf(stderr, "trendcheck --selftest: FAIL: %s\n", what);
  return 1;
}

bool any_mentions(const std::vector<std::string>& lines,
                  const std::string& needle) {
  for (const std::string& line : lines) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

bool any_failure_mentions(const Outcome& out, const std::string& needle) {
  return any_mentions(out.failures, needle);
}

/// Prove the gate engine: identical documents pass; an injected 20%
/// encode-throughput regression (the acceptance scenario) and a 25%
/// latency-quantile drift both fail.
int run_selftest() {
  const std::string erasure_text = synth_erasure_text();
  obs::JsonValue base = *obs::json_parse(erasure_text);
  obs::JsonValue fresh = *obs::json_parse(erasure_text);

  Outcome same = compare_erasure(fresh, base);
  if (!same.comparable || same.gates == 0 || !same.failures.empty()) {
    return selftest_fail("identical erasure documents must pass");
  }

  // Uniform 20% encode regression across every kernel: the speedup is
  // unchanged (it is a ratio of two regressed numbers) and the absolute
  // gates are inside their catastrophe tolerance — only the
  // encode/mul_acc ratio gates can catch it, and they must.
  for (obs::JsonValue& c : fresh.object["cases"].array) {
    for (obs::JsonValue& r : c.object["results"].array) {
      r.object["encode_mb_s"].number *= 0.8;
    }
  }
  Outcome regressed = compare_erasure(fresh, base);
  if (regressed.failures.empty() ||
      !any_failure_mentions(regressed, "encode_mb_s/mul_acc")) {
    return selftest_fail(
        "injected 20% encode regression must trip the ratio gate");
  }

  const std::string telemetry_text = synth_telemetry_text();
  obs::JsonValue tbase = *obs::json_parse(telemetry_text);
  obs::JsonValue tfresh = *obs::json_parse(telemetry_text);
  Outcome tsame = compare_telemetry(tfresh, tbase);
  if (!tsame.comparable || tsame.gates == 0 || !tsame.failures.empty()) {
    return selftest_fail("identical telemetry documents must pass");
  }
  // --write-baseline drops the timelines and nothing else: integer micros
  // beyond %.10g's digits survive, and the result gates like the original.
  obs::JsonValue timed = tbase;
  obs::JsonValue& timed_variant = timed.object["variants"].array[0];
  timed_variant.object["timeline"] = *obs::json_parse("{\"t_s\": [5, 10]}");
  timed_variant.object["tail_attribution"].object["tail"].object["latency_us"]
      .number = 1234567890123.0;
  const std::optional<obs::JsonWriter> stripped_text =
      telemetry_baseline_of(timed);
  const std::optional<obs::JsonValue> stripped =
      stripped_text.has_value() ? obs::json_parse(stripped_text->str())
                                : std::nullopt;
  if (!stripped.has_value() ||
      stripped->object.at("variants").array[0].find("timeline") != nullptr ||
      stripped_text->str().find("1234567890123") == std::string::npos ||
      compare_telemetry(tfresh, *stripped).gates != tsame.gates ||
      !compare_telemetry(tfresh, *stripped).failures.empty()) {
    return selftest_fail(
        "--write-baseline must drop timelines and keep every gated value");
  }
  tfresh.object["variants"]
      .array[0]
      .object["time_to_amr_s"]
      .object["p50"]
      .number *= 1.25;
  Outcome tregressed = compare_telemetry(tfresh, tbase);
  if (tregressed.failures.empty() ||
      !any_failure_mentions(tregressed, "time_to_amr_s.p50")) {
    return selftest_fail("injected 25% p50 drift must trip the band gate");
  }
  // The REGRESSION must arrive with attribution context: the dominant
  // component, the top exemplars, and (both documents carry the section) a
  // fresh-vs-baseline differential.
  if (!any_mentions(tregressed.context, "recovery_backoff") ||
      !any_mentions(tregressed.context, "top exemplar key=obj-7") ||
      !any_mentions(tregressed.context, "attribution diff")) {
    return selftest_fail(
        "regressed telemetry must attach tail attribution context");
  }
  // A baseline that predates the section degrades to a notice, never an
  // error — the exemplar printing itself must survive.
  obs::JsonValue old_base = tbase;
  old_base.object["variants"].array[0].object.erase("tail_attribution");
  Outcome tolder = compare_telemetry(tfresh, old_base);
  if (tolder.failures.empty() ||
      !any_mentions(tolder.notices, "predates tail_attribution") ||
      !any_mentions(tolder.context, "top exemplar key=obj-7") ||
      any_mentions(tolder.context, "attribution diff")) {
    return selftest_fail(
        "baseline without tail_attribution must skip the diff with a "
        "notice but keep the exemplar context");
  }
  // And a flag mismatch must skip, not silently compare.
  tfresh.object["seeds"].number = 30;
  if (compare_telemetry(tfresh, tbase).comparable) {
    return selftest_fail("flag mismatch must be a skip, not a comparison");
  }

  std::printf("trendcheck --selftest: ok (pass/regress/skip paths all "
              "behave; %d+%d gates exercised)\n",
              same.gates, tsame.gates);
  return 0;
}

// --- main -------------------------------------------------------------------

/// Gate one (fresh, baseline) pair. Returns 0 pass/skip, 1 on regression
/// or on a skip under --require; accumulates the total gate count.
int gate_pair(const char* what, const std::string& fresh_path,
              const std::string& baseline_path, bool require,
              Outcome (*compare)(const obs::JsonValue&, const obs::JsonValue&),
              int* total_gates) {
  const auto skip = [&](const std::string& why) {
    std::printf("trendcheck: SKIP %s: %s\n", what, why.c_str());
    if (!require) return 0;
    std::fprintf(stderr, "trendcheck: --require: skip is a failure\n");
    return 1;
  };
  std::optional<obs::JsonValue> baseline = obs::json_parse_file(baseline_path);
  if (!baseline.has_value()) {
    return skip("no baseline " + baseline_path +
                " (generate one with --write-baseline)");
  }
  std::string meta_error;
  if (!bench::check_meta(*baseline, &meta_error)) {
    return skip("stale baseline " + baseline_path + ": " + meta_error);
  }
  // An unreadable *fresh* document is a hard error: the bench that was
  // supposed to produce it failed, and a skip would mask that in CI.
  const std::optional<LoadedDoc> fresh = load_checked(fresh_path, what);
  if (!fresh.has_value()) return 1;

  const Outcome out = compare(fresh->doc, *baseline);
  if (!out.comparable) return skip(out.skip_reason);
  for (const std::string& notice : out.notices) {
    std::printf("trendcheck: note (%s): %s\n", what, notice.c_str());
  }
  for (const std::string& failure : out.failures) {
    std::fprintf(stderr, "trendcheck: %s: %s\n", what, failure.c_str());
  }
  for (const std::string& line : out.context) {
    std::fprintf(stderr, "trendcheck: %s: %s\n", what, line.c_str());
  }
  std::printf("trendcheck: %s: %d gates vs %s (baseline build %s): %s\n",
              what, out.gates, baseline_path.c_str(),
              doc_sha(*baseline).c_str(),
              out.failures.empty() ? "pass" : "FAIL");
  *total_gates += out.gates;
  return out.failures.empty() ? 0 : 1;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string baselines = flags.get_string(
      "baselines", "bench/baselines", "committed baseline directory");
  const std::string erasure_path = flags.get_string(
      "erasure", "BENCH_erasure.json",
      "fresh erasure bench JSON (empty to skip the erasure gates)");
  const std::string telemetry_path = flags.get_string(
      "telemetry", "BENCH_telemetry.json",
      "fresh telemetry bench JSON (empty to skip the telemetry gates)");
  const bool write_baseline = flags.get_bool(
      "write-baseline", false,
      "install the fresh documents as the new baselines and exit");
  const bool require = flags.get_bool(
      "require", false, "treat skipped comparisons as failures");
  const bool selftest = flags.get_bool(
      "selftest", false, "prove the gate engine on synthetic documents");
  flags.finish();

  if (selftest) return run_selftest();

  const std::string host_class = gf256::to_string(gf256::best_kernel());
  const std::string erasure_baseline =
      baselines + "/erasure-" + host_class + ".json";
  const std::string telemetry_baseline = baselines + "/telemetry.json";
  std::printf("trendcheck: host class %s\n", host_class.c_str());

  if (write_baseline) {
    for (const auto& [fresh, baseline] :
         {std::pair{erasure_path, erasure_baseline},
          std::pair{telemetry_path, telemetry_baseline}}) {
      if (fresh.empty()) continue;
      const std::optional<LoadedDoc> doc = load_checked(fresh, "fresh");
      if (!doc.has_value()) return 1;
      bool written = false;
      if (baseline == telemetry_baseline) {
        const std::optional<obs::JsonWriter> w =
            telemetry_baseline_of(doc->doc);
        if (!w.has_value()) {
          std::fprintf(stderr, "trendcheck: fresh %s holds a null value\n",
                       fresh.c_str());
        }
        written = w.has_value() && w->write_file(baseline);
      } else {
        written = copy_file(fresh, baseline);
      }
      if (!written) return 1;
      std::printf("trendcheck: wrote %s (build %s)\n", baseline.c_str(),
                  doc_sha(doc->doc).c_str());
    }
    return 0;
  }

  int total_gates = 0;
  int rc = 0;
  if (!erasure_path.empty()) {
    rc |= gate_pair("erasure", erasure_path, erasure_baseline, require,
                    compare_erasure, &total_gates);
  }
  if (!telemetry_path.empty()) {
    rc |= gate_pair("telemetry", telemetry_path, telemetry_baseline, require,
                    compare_telemetry, &total_gates);
  }
  if (rc == 0) {
    std::printf("trendcheck: PASS (%d gates)\n", total_gates);
  } else {
    std::fprintf(stderr, "trendcheck: FAIL\n");
  }
  return rc;
}

}  // namespace
}  // namespace pahoehoe

int main(int argc, char** argv) { return pahoehoe::run(argc, argv); }
