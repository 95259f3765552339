// Shared test fixture: a simulator + network + cluster bundle with blocking
// put/get helpers (blocking in simulated time — they drive the event loop
// until the operation's callback fires), plus the byte-exact aggregate
// digest the determinism tests compare.
#pragma once

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/config.h"
#include "core/harness.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace pahoehoe::testing {

struct SimCluster {
  explicit SimCluster(core::ConvergenceOptions conv = {},
                      core::ClusterTopology topology = {},
                      uint64_t seed = 42,
                      core::ProxyOptions proxy_options = {},
                      net::NetworkConfig net_config = {})
      : sim(seed),
        net(sim, net_config),
        cluster(sim, net, topology, conv, proxy_options) {}

  /// Issue a put and run the simulation until the client callback fires.
  core::PutResult put(const Key& key, const Bytes& value,
                      const Policy& policy = Policy{}, int proxy_index = 0) {
    std::optional<core::PutResult> result;
    cluster.proxy(proxy_index)
        .put(key, value, policy,
             [&result](const core::PutResult& r) { result = r; });
    while (!result.has_value() && sim.step()) {
    }
    PAHOEHOE_CHECK_MSG(result.has_value(), "put callback never fired");
    return *result;
  }

  /// Issue a get and run the simulation until the client callback fires.
  core::GetResult get(const Key& key, int proxy_index = 0) {
    std::optional<core::GetResult> result;
    cluster.proxy(proxy_index)
        .get(key, [&result](const core::GetResult& r) { result = r; });
    while (!result.has_value() && sim.step()) {
    }
    PAHOEHOE_CHECK_MSG(result.has_value(), "get callback never fired");
    return *result;
  }

  /// Run the simulation for `duration` more simulated microseconds.
  void run_for(SimTime duration) { sim.run(sim.now() + duration); }
  /// Run the simulation until the event queue drains.
  void run_to_quiescence() { sim.run(); }

  /// Drop all traffic of an FS for [now + start_in, now + start_in + len).
  void blackout_fs(int dc, int index, SimTime start_in, SimTime len) {
    const NodeId id = cluster.view()->fs_by_dc[static_cast<size_t>(dc)]
                                              [static_cast<size_t>(index)];
    net.add_fault(std::make_shared<net::NodeBlackout>(
        id, sim.now() + start_in, sim.now() + start_in + len));
  }

  void blackout_kls(int dc, int index, SimTime start_in, SimTime len) {
    const NodeId id = cluster.view()->kls_by_dc[static_cast<size_t>(dc)]
                                               [static_cast<size_t>(index)];
    net.add_fault(std::make_shared<net::NodeBlackout>(
        id, sim.now() + start_in, sim.now() + start_in + len));
  }

  /// One node's series of a registry counter; `labels` adds to {node=...}.
  uint64_t node_counter(const std::string& name, NodeId node,
                        obs::Labels labels = {}) {
    labels.emplace_back("node", to_string(node));
    return net.telemetry().metrics.counter(name, labels).value();
  }
  /// A registry counter summed over every node and label set.
  uint64_t counter_sum(const std::string& name) {
    return net.telemetry().metrics.counter_sum(name);
  }

  Bytes make_value(size_t size, uint8_t salt = 1) {
    Bytes value(size);
    for (size_t i = 0; i < size; ++i) {
      value[i] = static_cast<uint8_t>(i * 131 + salt);
    }
    return value;
  }

  sim::Simulator sim;
  net::Network net;
  core::Cluster cluster;
};

/// Key "k<n>". Built by appending: GCC 12 -O3 raises a bogus -Wrestrict on
/// `"k" + std::to_string(n)` (GCC bug 105651).
inline Key numbered_key(uint64_t n) {
  std::string name = "k";
  name += std::to_string(n);
  return Key{name};
}

/// Registry text minus the one line that names the GF(2^8) kernel, the only
/// metric allowed to differ across kernels (DESIGN.md §10).
inline std::string metrics_modulo_kernel(const obs::MetricRegistry& metrics) {
  std::istringstream in(metrics.to_text());
  std::string line;
  std::string out;
  while (std::getline(in, line)) {
    if (line.find("erasure_kernel_runs_total") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

inline void append_exact(std::ostringstream& os,
                         const std::vector<double>& values) {
  os.precision(17);
  for (double v : values) os << v << ';';
  os << '\n';
}

/// Everything observable about an aggregate, rendered byte-exactly, except
/// its side channels: the wall-clock profile and the kernel label.
inline std::string digest(const core::AggregateResult& agg) {
  std::ostringstream os;
  os << agg.seeds << '\n';
  append_exact(os, agg.msg_count.values());
  append_exact(os, agg.msg_bytes.values());
  append_exact(os, agg.wan_bytes.values());
  append_exact(os, agg.puts_attempted.values());
  append_exact(os, agg.puts_acked.values());
  append_exact(os, agg.amr.values());
  append_exact(os, agg.excess_amr.values());
  append_exact(os, agg.durable_not_amr.values());
  append_exact(os, agg.non_durable.values());
  append_exact(os, agg.end_time_s.values());
  append_exact(os, agg.put_latency_mean_s.values());
  os.precision(17);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    os << agg.put_latency_s.quantile(q) << ';'
       << agg.get_latency_s.quantile(q) << ';'
       << agg.time_to_amr_s.quantile(q) << ';';
  }
  os << '\n';
  os << metrics_modulo_kernel(agg.metrics);
  os << agg.critical_path.to_text();
  return os.str();
}

constexpr SimTime seconds(int64_t s) { return s * kMicrosPerSecond; }
constexpr SimTime minutes(int64_t m) { return m * 60 * kMicrosPerSecond; }
constexpr SimTime hours(int64_t h) { return h * 3600 * kMicrosPerSecond; }

}  // namespace pahoehoe::testing
