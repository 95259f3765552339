// Common base for Pahoehoe nodes (proxies, KLSs, FSs).
//
// Handles registration with the network, the crash/recover lifecycle
// (crash-recovery failure model, §3.1: persistent stores survive, volatile
// state and timers do not), and typed message sending.
#pragma once

#include <memory>

#include "common/sha256.h"
#include "common/types.h"
#include "core/cluster_view.h"
#include "net/network.h"
#include "obs/prof.h"
#include "sim/simulator.h"

namespace pahoehoe::core {

class Server : public net::MessageHandler {
 public:
  Server(sim::Simulator& sim, net::Network& net,
         std::shared_ptr<const ClusterView> view, NodeId id, NodeKind kind,
         DataCenterId dc)
      : sim_(sim), net_(net), view_(std::move(view)), id_(id), kind_(kind),
        dc_(dc) {
    net_.register_node(id_, this);
  }

  NodeId id() const { return id_; }
  NodeKind kind() const { return kind_; }
  DataCenterId dc() const { return dc_; }
  bool crashed() const { return crashed_; }

  /// Crash: lose volatile state and stop processing messages. Persistent
  /// stores (overridden hooks) are retained.
  virtual void crash() {
    crashed_ = true;
    on_crash();
  }

  /// Recover with persistent state intact.
  virtual void recover() {
    crashed_ = false;
    on_recover();
  }

  void handle(const wire::Envelope& env) final {
    if (crashed_) return;  // a crashed node neither receives nor replies
    dispatch(env);
  }

 protected:
  virtual void dispatch(const wire::Envelope& env) = 0;
  /// Subclasses drop volatile state / cancel timers here.
  virtual void on_crash() {}
  virtual void on_recover() {}

  template <typename M>
  void send(NodeId to, const M& msg) {
    net::send_message(net_, id_, to, msg);
  }

  /// SHA-256 of a fragment, under a profiler phase named for the hash
  /// kernel ("sha256[shani]"), the way rs_encode[avx2] names the codec's.
  static Sha256::Digest fragment_digest(std::span<const uint8_t> fragment) {
    static constexpr const char* kPhases[sha256::kKernelCount] = {
        "sha256[scalar]", "sha256[shani]"};
    // lint:prof-ok(the phase id points into the static name table above)
    obs::ProfScope prof(
        obs::prof::enabled()
            ? kPhases[static_cast<int>(sha256::active_kernel())]
            : nullptr);
    return Sha256::hash(fragment);
  }

  /// Run-wide telemetry (metric registry + AMR tracker), shared via the
  /// network. Servers register their counters in their constructors and
  /// cache the returned handles.
  obs::Telemetry& telemetry() { return net_.telemetry(); }
  /// The {node=...} label every per-server metric carries.
  obs::Labels node_label() const {
    return {{"node", pahoehoe::to_string(id_)}};
  }

  sim::Simulator& sim_;
  net::Network& net_;
  std::shared_ptr<const ClusterView> view_;

 private:
  NodeId id_;
  NodeKind kind_;
  DataCenterId dc_;
  bool crashed_ = false;
};

}  // namespace pahoehoe::core
