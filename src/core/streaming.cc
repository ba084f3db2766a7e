#include "core/streaming.h"

namespace netclust::core {

StreamingClusterer::StreamingClusterer(std::string log_name)
    : log_name_(std::move(log_name)) {}

int StreamingClusterer::AddSource(const bgp::SnapshotInfo& info) {
  base::MutexLock lock(&mu_);
  return table_.AddSource(info);
}

int StreamingClusterer::SeedSnapshot(const bgp::Snapshot& snapshot) {
  base::MutexLock lock(&mu_);
  return table_.AddSnapshot(snapshot);
}

void StreamingClusterer::AnnounceLocked(const net::Prefix& prefix,
                                        int source_id,
                                        bgp::AsNumber origin_as) {
  ++stats_.announce_events;
  const bool existed = table_.Contains(prefix);
  table_.Insert(prefix, source_id, origin_as);
  if (existed) return;  // attribute refresh: assignments unchanged
  stats_.reassignments += state_.OnAnnounced(prefix, table_);
}

void StreamingClusterer::WithdrawLocked(const net::Prefix& prefix) {
  ++stats_.withdraw_events;
  if (!table_.Remove(prefix)) return;
  stats_.reassignments += state_.OnWithdrawn(prefix, table_);
}

void StreamingClusterer::Announce(const net::Prefix& prefix, int source_id,
                                  bgp::AsNumber origin_as) {
  base::MutexLock lock(&mu_);
  AnnounceLocked(prefix, source_id, origin_as);
}

void StreamingClusterer::Withdraw(const net::Prefix& prefix) {
  base::MutexLock lock(&mu_);
  WithdrawLocked(prefix);
}

void StreamingClusterer::ApplyUpdate(const bgp::UpdateMessage& update,
                                     int source_id) {
  // One lock acquisition for the whole UPDATE, so a concurrent reader
  // never observes a half-applied message.
  base::MutexLock lock(&mu_);
  for (const net::Prefix& prefix : update.withdrawn) {
    WithdrawLocked(prefix);
  }
  const bgp::AsNumber origin =
      update.as_path.empty() ? 0 : update.as_path.back();
  for (const net::Prefix& prefix : update.announced) {
    AnnounceLocked(prefix, source_id, origin);
  }
}

void StreamingClusterer::Observe(net::IpAddress client, std::uint32_t url_id,
                                 std::uint32_t bytes,
                                 std::int64_t /*timestamp*/) {
  base::MutexLock lock(&mu_);
  ++stats_.requests;
  state_.Observe(client, url_id, bytes, table_);
}

void StreamingClusterer::ObserveLog(const weblog::ServerLog& log) {
  for (const weblog::CompactRequest& request : log.requests()) {
    Observe(request.client, request.url_id, request.response_bytes,
            request.timestamp);
  }
}

Clustering StreamingClusterer::ToClustering() const {
  base::MutexLock lock(&mu_);
  return AssignmentState<bgp::PrefixTable>::Merge(
      "network-aware-streaming", log_name_, {&state_});
}

}  // namespace netclust::core
