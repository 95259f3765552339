#include "obs/amr_tracker.h"

#include <algorithm>

namespace pahoehoe::obs {

void AmrTracker::on_put_acked(const ObjectVersionId& ov, SimTime when) {
  ++acked_;
  if (confirmed_.count(ov) > 0) {
    // Already AMR by the time the client was answered: zero latency.
    latency_s_.add(0.0);
    return;
  }
  pending_.emplace(ov, when);
  backlog_peak_ = std::max(backlog_peak_, pending_.size());
}

void AmrTracker::on_amr_confirmed(const ObjectVersionId& ov, SimTime when) {
  if (!confirmed_.emplace(ov).second) return;  // already confirmed
  ++confirmed_count_;
  auto it = pending_.find(ov);
  if (it == pending_.end()) return;  // never acked (or ack still to come)
  const SimTime acked_at = it->second;
  pending_.erase(it);
  latency_s_.add(when <= acked_at
                     ? 0.0
                     : static_cast<double>(when - acked_at) /
                           static_cast<double>(kMicrosPerSecond));
}

}  // namespace pahoehoe::obs
