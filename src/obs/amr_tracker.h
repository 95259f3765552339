// Per-version time-to-AMR tracking (the §5 discussion's real quantity of
// interest: how long after the client ack a version takes to reach At
// Maximum Redundancy).
//
// The proxy reports the put ack; the first component to conclusively
// observe AMR for that version (an FS verifying is_amr, or the proxy seeing
// every ack on the put path) reports the confirmation. The tracker keeps
//  * a latency histogram (QuantileSketch, seconds) over versions that were
//    both acked and confirmed,
//  * the live non-AMR backlog: acked versions not yet confirmed, with its
//    high-water mark.
#pragma once

#include <cstdint>
#include <map>
#include <set>

#include "common/stats.h"
#include "common/types.h"

namespace pahoehoe::obs {

class AmrTracker {
 public:
  explicit AmrTracker(double relative_error = 0.01)
      : latency_s_(relative_error) {}

  /// The client was answered "success" for `ov` at sim time `when`.
  void on_put_acked(const ObjectVersionId& ov, SimTime when);

  /// Some component observed `ov` at maximum redundancy at `when`. Only the
  /// first confirmation per version counts; a confirmation may arrive
  /// before the ack (the proxy concludes AMR in the same message round that
  /// completes the ack threshold), in which case the latency is 0.
  void on_amr_confirmed(const ObjectVersionId& ov, SimTime when);

  /// Acked versions not yet confirmed AMR.
  size_t backlog() const { return pending_.size(); }
  size_t backlog_peak() const { return backlog_peak_; }

  uint64_t acked() const { return acked_; }
  /// Distinct versions confirmed AMR (acked or not — convergence also
  /// finishes versions whose put the client saw fail).
  uint64_t confirmed() const { return confirmed_count_; }
  /// Versions both acked and confirmed == latency_s().count().
  uint64_t resolved() const { return latency_s_.count(); }

  /// Ack → first-confirmation latency in seconds.
  const QuantileSketch& latency_s() const { return latency_s_; }

 private:
  std::map<ObjectVersionId, SimTime> pending_;    // acked, not yet confirmed
  std::set<ObjectVersionId> confirmed_;           // confirmed at least once
  uint64_t acked_ = 0;
  uint64_t confirmed_count_ = 0;
  size_t backlog_peak_ = 0;
  QuantileSketch latency_s_;
};

}  // namespace pahoehoe::obs
