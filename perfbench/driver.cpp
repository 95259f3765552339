// Host-time benchmark driver for the Pahoehoe simulator.
//
// One process runs one workload single-threaded (jobs = 1) as a closed loop
// with one client: set up the inputs from --seed, run one untimed warm-up,
// then time back-to-back runs for --seconds. Every run's outputs are
// checked (audit passed, every completed get matched, simulated-statistics
// fingerprint identical to the warm-up's). The report is one JSON document
// on stdout; perfbench/run.py turns it into the benchmark's metrics.
//
// With --trace=1 the loop alternates an untraced run, a run with the
// program's own obs::prof profiler enabled, and a run with the opposite
// observer setting (spans + trace ring), then replays the sha256, erasure,
// sim and storage layers on workload-shaped inputs, and reports per-layer
// metrics. The driver's own spans around every library call it makes are
// written to --spans-out.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory_resource>
#include <string>
#include <vector>

#include "chaos/schedule.h"
#include "chaos/sweep.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/sha256.h"
#include "common/stats.h"
#include "core/harness.h"
#include "erasure/gf256.h"
#include "erasure/reed_solomon.h"
#include "obs/json.h"
#include "obs/prof.h"
#include "sim/simulator.h"
#include "storage/stores.h"

namespace pahoehoe::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// The benchmark's own spans: name, start, end and parent of every library
// call the driver makes, kept in memory and written out at exit. Recording
// is off unless --trace=1.

class SpanLog {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (!log_.enabled_) return;
      index_ = log_.spans_.size();
      const int parent =
          log_.open_.empty() ? -1 : log_.spans_[log_.open_.back()].id;
      log_.spans_.push_back(
          {static_cast<int>(index_), parent, name, now_ns(), 0});
      log_.open_.push_back(index_);
    }
    ~Scope() {
      if (!log_.enabled_) return;
      log_.spans_[index_].end_ns = now_ns();
      log_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    size_t index_ = 0;
  };

  void enable() { enabled_ = true; }

  bool write(const std::string& path) const {
    obs::JsonWriter json;
    json.begin_array();
    for (const Span& s : spans_) {
      json.begin_object()
          .kv("id", s.id)
          .kv("parent", s.parent)
          .kv("name", s.name)
          .kv("start_ns", s.start_ns)
          .kv("end_ns", s.end_ns)
          .end_object();
    }
    json.end_array();
    return json.write_file(path);
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  // indices of the open scopes, innermost last
};

SpanLog g_spans;

// Results of work done only to be timed land here so it is not optimized out.
volatile uint64_t g_sink = 0;

// ---------------------------------------------------------------------------
// Workloads. Each isolates the layer it loads (see perfbench/README.md).

struct Workload {
  std::string name;
  core::RunConfig config;
  bool sweep = false;  // chaos::run_sweep over a seed batch
  chaos::SweepOptions sweep_options;
  int experiments_per_run() const { return sweep ? sweep_options.seeds : 1; }
  int puts_per_run() const {
    return config.workload.num_puts * experiments_per_run();
  }
};

bool make_workload(const std::string& name, uint64_t seed, Workload* w) {
  w->name = name;
  w->config = core::paper_default_config();
  w->config.convergence = core::ConvergenceOptions::all_opts();
  w->config.seed = splitmix64(seed);
  if (name == "archive-put") {
    w->config.workload.num_puts = 40;
    w->config.workload.value_size = 100 * 1024;
  } else if (name == "small-blob-readback") {
    w->config.workload.num_puts = 1000;
    w->config.workload.value_size = 1024;
    w->config.workload.arrivals = core::ArrivalProcess::kOpenPoisson;
    w->config.workload.arrival_rate_per_s = 10.0;
    w->config.workload.get_fraction = 0.5;
  } else if (name == "fs-outage-repair") {
    w->config.workload.num_puts = 100;
    w->config.workload.value_size = 8 * 1024;
    w->config.faults = {core::FaultSpec::fs_blackout(
        0, 0, 0, 10LL * 60 * kMicrosPerSecond)};
  } else if (name == "chaos-sweep") {
    w->config = chaos::chaos_default_config();
    w->sweep = true;
    // The first seeds of the default sweep (base_seed 1), whatever --seed
    // is: per-seed cost is heavy-tailed (about one chaos seed in 25 costs
    // 20x the median), so a seed-dependent batch would measure which seeds
    // were drawn rather than the program.
    w->sweep_options.seeds = 4;
    w->sweep_options.jobs = 1;
  } else {
    return false;
  }
  return true;
}

// The RunConfig run_sweep builds for seed index i (mirrors chaos/sweep.cpp),
// so the warm-up can run the same batch through run_experiment and keep
// every RunResult.
core::RunConfig sweep_seed_config(const Workload& w, int i,
                                  std::vector<core::FaultSpec>* schedule) {
  const chaos::SweepOptions& o = w.sweep_options;
  core::RunConfig c = w.config;
  c.seed = o.base_seed + static_cast<uint64_t>(i);
  {
    SpanLog::Scope span(g_spans, "generate_schedule");
    *schedule = chaos::generate_schedule(c.seed, c.topology, o.schedule);
  }
  c.faults = w.config.faults;
  c.faults.insert(c.faults.end(), schedule->begin(), schedule->end());
  c.telemetry.trace_capacity = o.trace_capacity;
  c.telemetry.trace_dump_lines = o.trace_dump_lines;
  c.telemetry.spans = o.spans;
  c.telemetry.exemplars = o.spans;
  return c;
}

// ---------------------------------------------------------------------------
// Output fingerprint: FNV-1a over the simulated statistics. A perf change
// must leave it identical (DESIGN.md §12).

class Fnv {
 public:
  void add(uint64_t v) {
    for (int i = 0; i < 8; ++i) add_byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void add(const std::string& s) {
    add(s.size());
    for (char c : s) add_byte(static_cast<uint8_t>(c));
  }
  void add(const Bytes& b) {
    add(b.size());
    for (uint8_t c : b) add_byte(c);
  }
  uint64_t value() const { return h_; }

 private:
  void add_byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t stats_fingerprint(const core::RunResult& r) {
  Fnv f;
  for (int t = 0; t < wire::kMessageTypeCount; ++t) {
    const auto& s = r.stats.of(static_cast<wire::MessageType>(t));
    f.add(s.sent_count);
    f.add(s.sent_bytes);
    f.add(s.dropped_count);
    f.add(s.delivered_count);
  }
  f.add(r.stats.wan_sent_bytes());
  f.add(r.events);
  f.add(static_cast<uint64_t>(r.amr));
  f.add(static_cast<uint64_t>(r.end_time));
  f.add(static_cast<uint64_t>(r.versions_total));
  f.add(static_cast<uint64_t>(r.puts_attempted));
  f.add(static_cast<uint64_t>(r.puts_acked));
  f.add(static_cast<uint64_t>(r.gets_attempted));
  f.add(static_cast<uint64_t>(r.gets_ok));
  return f.value();
}

// What run_sweep reports per seed, fingerprinted the same way for the
// warm-up's run_experiment replay and for every timed sweep.
void add_outcome(Fnv& f, uint64_t seed,
                 const std::vector<core::FaultSpec>& schedule,
                 const core::AuditReport& audit) {
  f.add(seed);
  f.add(chaos::encode_schedule(schedule));
  f.add(static_cast<uint64_t>(audit.passed()));
  f.add(audit.to_string());
}

// A run's fingerprint: the statistics of its experiments, plus (sweeps
// only) their seeds, schedules and audits.
uint64_t combine(uint64_t stats_fp, uint64_t outcome_fp) {
  Fnv f;
  f.add(stats_fp);
  f.add(outcome_fp);
  return f.value();
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// One timed run of the workload and its output check.

struct Sample {
  int64_t ns = 0;
  uint64_t fingerprint = 0;
  std::string error;  // empty when every output check passed
  obs::ProfReport profile;  // only when profiling was on
};

std::string check_run(const core::RunResult& r) {
  if (!r.audit.passed()) return "audit failed: " + r.audit.to_string();
  if (r.gets_mismatched != 0) return "a completed get did not match its put";
  return "";
}

// The reference: the warm-up's RunResults (one per experiment of a run) and
// the fingerprints every later run must reproduce.
struct Reference {
  std::vector<core::RunResult> runs;
  uint64_t stats_fp = 0;    // over every experiment's statistics
  uint64_t outcome_fp = 0;  // sweeps only: seeds, schedules and audits
  uint64_t fingerprint = 0;
  std::string error;  // the warm-up's first failed output check
  int64_t ops_attempted = 0;
  int64_t ops_ok = 0;  // puts acked plus gets completed and matched
};

Reference warm_up(const Workload& w) {
  Reference ref;
  Fnv stats, outcomes;
  for (int i = 0; i < w.experiments_per_run(); ++i) {
    core::RunConfig c = w.config;
    std::vector<core::FaultSpec> schedule;
    if (w.sweep) c = sweep_seed_config(w, i, &schedule);
    core::RunResult r;
    {
      SpanLog::Scope span(g_spans, "run_experiment");
      r = core::run_experiment(c);
    }
    stats.add(stats_fingerprint(r));
    if (w.sweep) add_outcome(outcomes, c.seed, c.faults, r.audit);
    const std::string err = check_run(r);
    if (!err.empty() && ref.error.empty()) {
      ref.error = "seed " + std::to_string(c.seed) + ": " + err;
    }
    ref.ops_attempted += r.puts_attempted + r.gets_attempted;
    ref.ops_ok += r.puts_acked + r.gets_ok - r.gets_mismatched;
    ref.runs.push_back(std::move(r));
  }
  ref.stats_fp = stats.value();
  ref.outcome_fp = w.sweep ? outcomes.value() : 0;
  ref.fingerprint = combine(ref.stats_fp, ref.outcome_fp);
  return ref;
}

// Host speed probe. The host's vCPUs slow down and speed up by up to ~40%
// for seconds at a time with no steal time recorded (other tenants), so
// every timed run is bracketed by this fixed piece of benchmark-owned work
// (tree inserts, integer mixing, a 1 MiB copy; no program code, and memory
// reserved once so the program's heap cannot change it). run.py scales
// run times by reference / probe time.
class Calibration {
 public:
  Calibration()
      : pool_(kPoolBytes), src_(1 << 20, 1), dst_(1 << 20), words_(1 << 13) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] = splitmix64(i);
  }

  int64_t measure_ns() {
    const int64_t t0 = now_ns();
    uint64_t h = 0;
    {
      std::pmr::monotonic_buffer_resource arena(pool_.data(), pool_.size(),
                                                std::pmr::null_memory_resource());
      std::pmr::map<uint64_t, uint64_t> tree(&arena);
      uint64_t x = 88172645463325252ULL;
      for (uint64_t i = 0; i < kInserts; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        tree[x % (2 * kInserts)] += i;
      }
      for (const auto& [k, v] : tree) h += k ^ v;
    }
    // Four independent lanes, so the mixing runs at high IPC the way
    // SHA-256 rounds do.
    uint64_t a = h, b = h + 1, c = h + 2, d = h + 3;
    for (int r = 0; r < 32; ++r) {
      for (size_t i = 0; i < words_.size(); i += 4) {
        a = std::rotl(a, 7) + (words_[i] ^ (a >> 3));
        b = std::rotl(b, 11) + (words_[i + 1] ^ (b >> 5));
        c = std::rotl(c, 13) + (words_[i + 2] ^ (c >> 7));
        d = std::rotl(d, 17) + (words_[i + 3] ^ (d >> 11));
      }
    }
    h = a ^ b ^ c ^ d;
    for (size_t r = 0; r < 8; ++r) {
      std::memcpy(dst_.data(), src_.data(), src_.size());
      src_[r] = dst_[h % dst_.size()];
    }
    g_sink = h;
    return now_ns() - t0;
  }

 private:
  static constexpr uint64_t kInserts = 16000;
  // A map node is at most 64 bytes; every insert may allocate one.
  static constexpr size_t kPoolBytes = kInserts * 64;
  std::vector<std::byte> pool_;
  std::vector<uint8_t> src_, dst_;
  std::vector<uint64_t> words_;
};

Calibration& calibration() {
  static Calibration c;
  return c;
}

// `observers` flips the workload's observer setting: spans + trace ring on
// for experiments (off by default), off for the sweep (on by default).
Sample run_once(const Workload& w, const Reference& ref, bool profile,
                bool observers) {
  Sample s;
  if (profile) obs::prof::set_enabled(true);
  const obs::prof::Snapshot before = obs::prof::capture_begin();
  if (w.sweep) {
    chaos::SweepOptions o = w.sweep_options;
    if (observers) {
      o.spans = false;
      o.trace_capacity = 0;
    }
    chaos::SweepResult result;
    const int64_t t0 = now_ns();
    {
      SpanLog::Scope span(g_spans, "run_sweep");
      result = chaos::run_sweep(w.config, o);
    }
    s.ns = now_ns() - t0;
    if (profile) s.profile = obs::prof::capture_delta(before);
    Fnv outcomes;
    for (const chaos::SeedOutcome& out : result.outcomes) {
      add_outcome(outcomes, out.seed, out.schedule, out.audit);
    }
    if (!result.passed()) s.error = "sweep failed: " + result.summary();
    // A sweep exposes no per-seed statistics; its outcomes must match the
    // warm-up replay, whose statistics stand for the batch.
    s.fingerprint = combine(ref.stats_fp, outcomes.value());
  } else {
    core::RunConfig c = w.config;
    if (observers) {
      c.telemetry.spans = true;
      c.telemetry.trace_capacity = 512;
    }
    core::RunResult r;
    const int64_t t0 = now_ns();
    {
      SpanLog::Scope span(g_spans, "run_experiment");
      r = core::run_experiment(c);
    }
    s.ns = now_ns() - t0;
    if (profile) s.profile = obs::prof::capture_delta(before);
    s.error = check_run(r);
    Fnv stats;
    stats.add(stats_fingerprint(r));
    s.fingerprint = combine(stats.value(), 0);
  }
  if (profile) obs::prof::set_enabled(false);
  if (s.error.empty() && s.fingerprint != ref.fingerprint) {
    s.error = "simulated statistics differ from the warm-up run";
  }
  return s;
}

// ---------------------------------------------------------------------------
// Per-layer metrics.

struct PhaseSum {
  double total_ms = 0;
  double self_ms = 0;
};

// Rows whose name equals `name`, or starts with it when it ends in '['
// (the erasure phases carry the active kernel: "rs_encode[avx2]").
PhaseSum phase(const obs::ProfReport& report, const std::string& name) {
  PhaseSum sum;
  const bool prefix = !name.empty() && name.back() == '[';
  for (const obs::ProfPhase& p : report.phases) {
    if (prefix ? p.name.rfind(name, 0) != 0 : p.name != name) continue;
    sum.total_ms += static_cast<double>(p.total_nanos) / 1e6;
    sum.self_ms += static_cast<double>(p.self_nanos) / 1e6;
  }
  return sum;
}

// Per-run host-time metrics from one traced run's profile.
std::map<std::string, double> profile_metrics(const obs::ProfReport& p,
                                              uint64_t delivered) {
  const PhaseSum run = phase(p, "run_experiment");
  const PhaseSum sim = phase(p, "sim_run");
  const PhaseSum deliver = phase(p, "net_deliver");
  std::map<std::string, double> m;
  m["harness.run_ms"] = run.total_ms;
  m["harness.self_ms"] = run.self_ms;
  m["sim.loop_self_ms"] = sim.self_ms;
  m["net.deliver_self_ms"] = deliver.self_ms;
  m["net.send_ms"] = phase(p, "net_send").total_ms;
  m["net.us_per_delivery"] =
      delivered ? deliver.total_ms * 1e3 / static_cast<double>(delivered) : 0;
  m["erasure.encode_ms"] = phase(p, "rs_encode[").total_ms;
  m["erasure.decode_ms"] = phase(p, "rs_decode[").total_ms;
  m["erasure.regenerate_ms"] = phase(p, "rs_regenerate[").total_ms;
  m["fs.round_ms"] = phase(p, "fs_round").total_ms;
  m["fs.recovery_ms"] = phase(p, "fs_recovery").total_ms;
  m["fs.scrub_ms"] = phase(p, "fs_scrub").total_ms;
  m["prof.opaque_self_share"] =
      run.total_ms > 0
          ? (run.self_ms + sim.self_ms + deliver.self_ms) / run.total_ms
          : 0;
  return m;
}

Bytes random_bytes(Rng& rng, size_t n) {
  Bytes b(n);
  for (uint8_t& x : b) x = static_cast<uint8_t>(rng.next_u64());
  return b;
}

struct RunCounts {
  uint64_t events = 0, sent = 0, bytes = 0, wan = 0, delivered = 0;
  uint64_t fragment_msgs = 0;  // messages that carry one fragment payload
  int puts = 0, gets = 0, versions = 0, violations = 0;
  std::map<std::string, uint64_t> counters;
};

RunCounts count(const Reference& ref) {
  RunCounts c;
  for (const core::RunResult& r : ref.runs) {
    c.events += r.events;
    c.sent += r.stats.total_sent_count();
    c.bytes += r.stats.total_sent_bytes();
    c.wan += r.stats.wan_sent_bytes();
    c.delivered += r.stats.total_delivered_count();
    for (wire::MessageType t :
         {wire::MessageType::kStoreFragmentReq,
          wire::MessageType::kRetrieveFragRep,
          wire::MessageType::kSiblingStoreReq}) {
      c.fragment_msgs += r.stats.of(t).sent_count;
    }
    c.puts += r.puts_attempted;
    c.gets += r.gets_attempted;
    c.versions += r.versions_total;
    c.violations += static_cast<int>(r.audit.violations.size());
    for (const char* name :
         {"fs_rounds_total", "fs_recoveries_total",
          "fs_recovery_collisions_total", "fs_converged_total",
          "fs_converge_steps_total", "kls_requests_total",
          "proxy_amr_indications_total"}) {
      c.counters[name] += r.metrics.counter_sum(name);
    }
  }
  return c;
}

// Library replays on workload-shaped inputs: the workload's fragment size,
// (k, n) and per-run counts of fragments, puts, gets and events.
void replay_layers(const Workload& w, const RunCounts& c, uint64_t seed,
                   std::map<std::string, double>* m) {
  const Policy policy = w.config.workload.policy;
  const size_t value_size = w.config.workload.value_size;
  erasure::ReedSolomon rs(policy.k, policy.n);
  const size_t frag_size = rs.fragment_size(value_size);
  Rng rng(splitmix64(seed ^ 0x5eed));
  const uint64_t frags = std::max<uint64_t>(c.fragment_msgs, 1);

  // sha256: hash every shipped fragment payload once.
  {
    const Bytes frag = random_bytes(rng, frag_size);
    uint64_t sink = 0;
    const int64_t t0 = now_ns();
    {
      SpanLog::Scope span(g_spans, "Sha256::hash");
      for (uint64_t i = 0; i < frags; ++i) sink += Sha256::hash(frag)[i % 32];
    }
    g_sink = sink;
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    (*m)["sha256.replay_ms_per_run"] = ms;
    (*m)["sha256.mb_per_s"] =
        static_cast<double>(frags * frag_size) / 1e6 / (ms / 1e3);
  }

  // erasure: encode every put's value, decode every get from parity.
  {
    const Bytes value = random_bytes(rng, value_size);
    const int puts = std::max(c.puts, 1);
    std::vector<Bytes> frags_out;
    const int64_t t0 = now_ns();
    {
      SpanLog::Scope span(g_spans, "ReedSolomon::encode");
      for (int i = 0; i < puts; ++i) frags_out = rs.encode(value);
    }
    const double ms = static_cast<double>(now_ns() - t0) / 1e6;
    (*m)["erasure.encode_mb_per_s"] =
        static_cast<double>(puts) * static_cast<double>(value_size) / 1e6 /
        (ms / 1e3);
    std::vector<erasure::IndexedFragment> parity;
    for (int i = policy.n - policy.k; i < policy.n; ++i) {
      parity.push_back({i, &frags_out[static_cast<size_t>(i)]});
    }
    SpanLog::Scope span(g_spans, "ReedSolomon::decode");
    for (int i = 0; i < c.gets; ++i) {
      if (rs.decode(parity, value_size) != value) {
        std::fprintf(stderr, "perfbench: erasure replay decode mismatch\n");
        std::exit(1);
      }
    }
  }

  // sim: schedule_after + step for the run's event count, holding as many
  // events in flight as the workload has puts.
  {
    sim::Simulator sim(seed);
    uint64_t fired = 0;
    const uint64_t events = std::max<uint64_t>(c.events, 1);
    const int64_t t0 = now_ns();
    {
      SpanLog::Scope span(g_spans, "Simulator::schedule_after+step");
      for (int i = 0; i < std::max(c.puts, 1); ++i) {
        sim.schedule_after(sim.rng().uniform_int(10000, 30000),
                           [&fired] { ++fired; });
      }
      uint64_t scheduled = static_cast<uint64_t>(std::max(c.puts, 1));
      while (sim.step()) {
        if (scheduled < events) {
          ++scheduled;
          sim.schedule_after(sim.rng().uniform_int(10000, 30000),
                             [&fired] { ++fired; });
        }
      }
    }
    (*m)["sim.ns_per_event"] =
        static_cast<double>(now_ns() - t0) / static_cast<double>(fired);
  }

  // storage: FragStore::put_fragment + fragment_if_intact per fragment.
  {
    const Bytes data = random_bytes(rng, frag_size);
    const Sha256::Digest digest = Sha256::hash(data);
    const Metadata meta(policy, value_size);
    storage::FragStore store;
    std::vector<ObjectVersionId> ovs(frags / policy.n + 1);
    for (size_t i = 0; i < ovs.size(); ++i) {
      ovs[i] = {Key{"obj-" + std::to_string(i)},
                Timestamp{static_cast<SimTime>(i), 1}};
    }
    uint64_t intact = 0;
    const int64_t t0 = now_ns();
    {
      SpanLog::Scope span(g_spans, "FragStore::put_fragment+fragment_if_intact");
      for (uint64_t i = 0; i < frags; ++i) {
        const ObjectVersionId& ov = ovs[i / policy.n];
        const int index = static_cast<int>(i % policy.n);
        store.put_fragment(ov, meta, index, data, digest,
                           static_cast<uint8_t>(i % 2));
        intact += store.fragment_if_intact(ov, index) != nullptr;
      }
    }
    if (intact != frags) {
      std::fprintf(stderr, "perfbench: storage replay lost fragments\n");
      std::exit(1);
    }
    (*m)["storage.us_per_fragment_put"] =
        static_cast<double>(now_ns() - t0) / 1e3 / static_cast<double>(frags);
  }
}

std::map<std::string, double> count_metrics(const Workload& w,
                                            const Reference& ref,
                                            const RunCounts& c) {
  std::map<std::string, double> m;
  const double puts = w.puts_per_run();
  const double user_bytes =
      puts * static_cast<double>(w.config.workload.value_size);
  const auto per_put = [&](double v) { return v / puts; };
  m["sim.events_per_put"] = per_put(static_cast<double>(c.events));
  m["net.msgs_per_put"] = per_put(static_cast<double>(c.sent));
  m["net.bytes_per_user_byte"] = static_cast<double>(c.bytes) / user_bytes;
  m["net.wan_bytes_per_user_byte"] = static_cast<double>(c.wan) / user_bytes;
  m["fs.rounds_per_put"] = per_put(c.counters.at("fs_rounds_total"));
  m["fs.recoveries_per_put"] = per_put(c.counters.at("fs_recoveries_total"));
  m["fs.recovery_collisions"] =
      static_cast<double>(c.counters.at("fs_recovery_collisions_total"));
  const double steps = c.counters.at("fs_converge_steps_total");
  // No convergence step means no step was wasted.
  m["fs.converge_useful_share"] =
      steps > 0 ? c.counters.at("fs_converged_total") / steps : 1.0;
  m["kls.requests_per_put"] = per_put(c.counters.at("kls_requests_total"));
  m["proxy.amr_indications_per_put"] =
      per_put(c.counters.at("proxy_amr_indications_total"));

  QuantileSketch amr;
  SampleStats put_latency;
  for (const core::RunResult& r : ref.runs) {
    amr.merge(r.time_to_amr_s);
    for (double s : r.put_latency_s) put_latency.add(s);
  }
  m["amr.latency_p50_s"] = amr.count() ? amr.quantile(0.5) : 0;
  m["amr.latency_p99_s"] = amr.count() ? amr.quantile(0.99) : 0;
  m["put.latency_p50_s"] = put_latency.percentile(50);

  // Sweeps overwrite this with the generated schedules' mean size.
  m["chaos.faults_per_seed"] = static_cast<double>(w.config.faults.size());
  m["chaos.violations"] = c.violations;
  return m;
}

// ---------------------------------------------------------------------------

int64_t rss_kib_now() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * (sysconf(_SC_PAGESIZE) / 1024);
}

int64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// Set up, warm up, run the timed loop and print the report. Returns the
// process exit code: non-zero when any output check failed.
int bench(const Workload& w, uint64_t seed, double seconds, bool trace,
          bool setup_only, bool observers_control) {
  const int64_t rss_before = rss_kib_now();
  Reference ref;
  {
    SpanLog::Scope span(g_spans, "warm_up");
    ref = warm_up(w);
  }
  const int64_t rss_growth = peak_rss_kib() - rss_before;
  const int64_t ready_ns = now_ns();

  // Host speed right after set-up, for scaling the set-up time.
  std::vector<int64_t> setup_probe_ns;
  for (int i = 0; i < 3; ++i) {
    setup_probe_ns.push_back(calibration().measure_ns());
  }
  std::sort(setup_probe_ns.begin(), setup_probe_ns.end());

  obs::JsonWriter json;
  json.begin_object()
      .kv("ready_ns", ready_ns)
      .kv("setup_probe_ns", setup_probe_ns[1]);
  if (setup_only) {
    json.end_object();
    std::printf("%s\n", json.str().c_str());
    return 0;
  }

  // Closed loop: the next run starts when the previous one returns. In the
  // traced run each round is (untraced, profiled, observer arm).
  std::vector<Sample> plain, profiled, observed;
  std::vector<int64_t> probe_ns;  // before each round and after the last
  std::vector<std::string> errors;
  if (!ref.error.empty()) errors.push_back("warm-up: " + ref.error);
  const int64_t deadline = ready_ns + static_cast<int64_t>(seconds * 1e9);
  {
    SpanLog::Scope span(g_spans, "timed_loop");
    do {
      probe_ns.push_back(calibration().measure_ns());
      plain.push_back(run_once(w, ref, false, false));
      if (trace) {
        profiled.push_back(run_once(w, ref, true, false));
        observed.push_back(run_once(w, ref, false, !observers_control));
      }
    } while (now_ns() < deadline);
    probe_ns.push_back(calibration().measure_ns());
  }
  int failed = 0;
  for (const auto* group : {&plain, &profiled, &observed}) {
    for (const Sample& s : *group) {
      if (s.error.empty()) continue;
      ++failed;
      if (errors.size() < 5) errors.push_back(s.error);
    }
  }

  json.kv("workload", w.name)
      .kv("seed", seed)
      .kv("fingerprint", hex64(ref.fingerprint))
      .kv("puts_per_run", w.puts_per_run())
      .kv("ops_attempted_per_run", ref.ops_attempted)
      .kv("ops_ok_per_run", ref.ops_ok)
      .kv("attempted", static_cast<int64_t>(plain.size() + profiled.size() +
                                            observed.size()))
      .kv("failed", failed)
      .kv("peak_rss_kib", peak_rss_kib());
  json.key("errors").begin_array();
  for (const std::string& e : errors) json.value(e);
  json.end_array();
  json.key("sample_ns").begin_array();
  for (const Sample& s : plain) json.value(s.ns);
  json.end_array();
  json.key("probe_ns").begin_array();
  for (int64_t ns : probe_ns) json.value(ns);
  json.end_array();

  if (trace) {
    const RunCounts counts = count(ref);
    std::map<std::string, double> m = count_metrics(w, ref, counts);
    std::map<std::string, SampleStats> per_run;
    for (const Sample& s : profiled) {
      for (const auto& [name, v] : profile_metrics(s.profile, counts.delivered)) {
        per_run[name].add(v);
      }
    }
    for (const auto& [name, v] : per_run) m[name] = v.percentile(50);
    const auto median_ms = [](const std::vector<Sample>& v) {
      SampleStats ms;
      for (const Sample& s : v) ms.add(static_cast<double>(s.ns) / 1e6);
      return ms.percentile(50);
    };
    const double plain_ms = median_ms(plain);
    m["trace.overhead_share"] = median_ms(profiled) / plain_ms - 1.0;
    // Sweeps trace by default, so their observer arm is the "off" side.
    const double observed_ms = median_ms(observed);
    m["obs.spans_overhead_share"] = w.sweep ? plain_ms / observed_ms - 1.0
                                            : observed_ms / plain_ms - 1.0;
    m["mem.rss_kib_per_version"] =
        static_cast<double>(rss_growth) / std::max(counts.versions, 1);
    double gen_ms = 0;
    if (w.sweep) {
      std::vector<core::FaultSpec> schedule;
      size_t faults = 0;
      const int64_t t0 = now_ns();
      for (int i = 0; i < w.sweep_options.seeds; ++i) {
        sweep_seed_config(w, i, &schedule);
        faults += schedule.size();
      }
      gen_ms = static_cast<double>(now_ns() - t0) / 1e6;
      m["chaos.faults_per_seed"] =
          static_cast<double>(faults) / w.sweep_options.seeds;
    }
    m["chaos.schedule_gen_ms"] = gen_ms;
    {
      SpanLog::Scope span(g_spans, "replays");
      replay_layers(w, counts, seed, &m);
    }
    json.key("layers").begin_object();
    for (const auto& [name, v] : m) json.kv(name, v);
    json.end_object();
    json.kv("gf256_kernel", gf256::to_string(gf256::active_kernel()));
  }
  json.end_object();
  std::printf("%s\n", json.str().c_str());

  return failed == 0 && ref.error.empty() ? 0 : 1;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string workload =
      flags.get_string("workload", "", "archive-put | small-blob-readback | "
                                       "fs-outage-repair | chaos-sweep");
  const uint64_t seed = static_cast<uint64_t>(
      flags.get_int("seed", 1, "workload seed: every input derives from it"));
  const double seconds =
      flags.get_double("seconds", 10, "how long the timed loop runs");
  const bool trace = flags.get_int("trace", 0, "1: traced per-layer run") != 0;
  const bool setup_only =
      flags.get_bool("setup-only", false, "exit once set-up is done");
  const bool observers_control = flags.get_bool(
      "observers-control", false,
      "traced run: time the observer arm with the default setting (control "
      "for obs.spans_overhead_share)");
  const std::string spans_out =
      flags.get_string("spans-out", "", "traced run: write spans here");
  flags.finish();

  Workload w;
  if (!make_workload(workload, seed, &w)) {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  if (trace) g_spans.enable();
  int code = 0;
  {
    SpanLog::Scope root(g_spans, "benchmark");
    code = bench(w, seed, seconds, trace, setup_only, observers_control);
  }
  if (trace && !spans_out.empty()) {
    if (!g_spans.write(spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
      return 1;
    }
  }
  return code;
}

}  // namespace
}  // namespace pahoehoe::perfbench

int main(int argc, char** argv) { return pahoehoe::perfbench::run(argc, argv); }
