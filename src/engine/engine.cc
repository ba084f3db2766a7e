#include "engine/engine.h"

#include <algorithm>
#include <thread>

#include "base/sync.h"

namespace netclust::engine {

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  int shards = config_.shards;
  if (shards <= 0) {
    shards = static_cast<int>(std::thread::hardware_concurrency());
    if (shards <= 0) shards = 1;
  }
  // ring_capacity = 0 would otherwise round up to a nearly useless
  // min-size ring; treat it like shards <= 0 and fall back to the default.
  if (config_.ring_capacity == 0) {
    config_.ring_capacity = EngineConfig{}.ring_capacity;
  }
  const bgp::TableHandle initial = slot_.Acquire();
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<ShardWorker>(config_.ring_capacity,
                                                    initial, &metrics_));
  }
}

Engine::~Engine() { Stop(); }

void Engine::Start() {
  base::AssumeThreadRole ingest(ingest_role_);
  if (running_) return;
  for (const auto& shard : shards_) shard->Start();
  running_ = true;
}

void Engine::Stop() {
  base::AssumeThreadRole ingest(ingest_role_);
  if (!running_) return;
  for (const auto& shard : shards_) shard->Stop();
  running_ = false;
}

int Engine::AddSource(const bgp::SnapshotInfo& info) {
  base::AssumeThreadRole ingest(ingest_role_);
  return master_.AddSource(info);
}

int Engine::SeedSnapshot(const bgp::Snapshot& snapshot) {
  base::AssumeThreadRole ingest(ingest_role_);
  const int id = master_.AddSnapshot(snapshot);
  if (id == bgp::PrefixTable::kInvalidSource) return id;  // nothing inserted
  PublishDelta({}, {}, {});
  return id;
}

void Engine::Announce(const net::Prefix& prefix, int source_id,
                      bgp::AsNumber origin_as) {
  ApplyUpdate({.withdrawn = {}, .announced = {prefix}, .as_path = {origin_as},
               .next_hop = {}},
              source_id);
}

void Engine::Withdraw(const net::Prefix& prefix) {
  // A withdrawal removes the prefix for every source; no id is consulted.
  ApplyUpdate({.withdrawn = {prefix}, .announced = {}, .as_path = {},
               .next_hop = {}},
              bgp::PrefixTable::kInvalidSource);
}

void Engine::ApplyUpdate(const bgp::UpdateMessage& update, int source_id) {
  (void)ApplyUpdateBatch(std::span(&update, 1), source_id);
}

void Engine::AbsorbUpdate(const bgp::UpdateMessage& update, int source_id,
                          std::vector<net::Prefix>* withdrawn,
                          std::vector<net::Prefix>* announced,
                          std::vector<net::Prefix>* touched) {
  for (const net::Prefix& prefix : update.withdrawn) {
    if (master_.Remove(prefix)) {
      withdrawn->push_back(prefix);
      touched->push_back(prefix);
    }
  }
  const bgp::AsNumber origin =
      update.as_path.empty() ? 0 : update.as_path.back();
  for (const net::Prefix& prefix : update.announced) {
    const bool existed = master_.Contains(prefix);
    // A duplicate re-announce leaves the lookup-visible table unchanged:
    // no recompile, and no version bump to invalidate every mapping-tier
    // cache keyed on it.
    if (!master_.Insert(prefix, source_id, origin)) continue;
    // A refresh (attributes changed) still repaints the prefix but moves
    // no client, same as StreamingClusterer::Announce.
    if (!existed) announced->push_back(prefix);
    touched->push_back(prefix);
  }
}

std::size_t Engine::ApplyUpdateBatch(
    std::span<const bgp::UpdateMessage> updates, int source_id) {
  base::AssumeThreadRole ingest(ingest_role_);
  metrics_.update_batches.Inc();
  std::vector<net::Prefix> withdrawn;
  std::vector<net::Prefix> announced;
  std::vector<net::Prefix> touched;
  std::size_t changed = 0;
  for (const bgp::UpdateMessage& update : updates) {
    metrics_.updates_ingested.Inc();
    const std::size_t before = touched.size();
    AbsorbUpdate(update, source_id, &withdrawn, &announced, &touched);
    if (touched.size() == before) {
      metrics_.updates_noop.Inc();
    } else {
      ++changed;
    }
  }
  if (touched.empty()) return 0;
  PublishDelta(std::move(withdrawn), std::move(announced),
               std::move(touched));
  return changed;
}

void Engine::PublishDelta(std::vector<net::Prefix> withdrawn,
                          std::vector<net::Prefix> announced,
                          std::vector<net::Prefix> touched) {
  const std::uint64_t start = NowNs();
  // The ingest thread is the slot's one publisher.
  base::AssumeThreadRole publisher(slot_.publisher_role());
  // Compiled straight from the working trie: the delta path copies the
  // previous directory and repaints the copy, so readers holding the old
  // snapshot never see a write, and no trie is cloned.
  const bool full = touched.empty();  // the seed path: everything changed
  const bgp::TableHandle handle = slot_.Publish(
      full ? master_.CompileFlat()
           : master_.CompileFlatDelta(slot_.Acquire().flat(), touched));
  (full ? metrics_.full_publishes : metrics_.delta_publishes).Inc();
  metrics_.swaps_published.Inc();
  metrics_.swap_build_ns.Record(NowNs() - start);

  const auto delta = std::make_shared<const TableDelta>(
      TableDelta{handle, std::move(withdrawn), std::move(announced)});
  for (const auto& shard : shards_) {
    base::AssumeThreadRole producer(shard->producer_role());
    Event event;
    event.kind = Event::Kind::kSwap;
    event.delta = delta;
    shard->Push(std::move(event));  // control events are never dropped
  }
}

int Engine::ShardOf(net::IpAddress client) const {
  // Finalize the full hash width (murmur3 fmix64) before reducing: a plain
  // shift would be UB where size_t is 32-bit and discards half the entropy
  // everywhere else.
  std::uint64_t h = std::hash<net::IpAddress>{}(client);
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  return static_cast<int>(h % shards_.size());
}

bool Engine::Observe(net::IpAddress client, std::uint32_t url_id,
                     std::uint32_t bytes, std::int64_t timestamp) {
  base::AssumeThreadRole ingest(ingest_role_);
  Event event;
  event.kind = Event::Kind::kRequest;
  event.client = client;
  event.url_id = url_id;
  event.bytes = bytes;
  event.timestamp = timestamp;
  ShardWorker& shard = *shards_[static_cast<std::size_t>(ShardOf(client))];
  base::AssumeThreadRole producer(shard.producer_role());

  const std::uint64_t start = NowNs();
  if (config_.backpressure == BackpressurePolicy::kBlock) {
    shard.Push(std::move(event));
  } else if (!shard.TryPush(std::move(event))) {
    metrics_.requests_dropped.Inc();
    return false;
  }
  metrics_.requests_ingested.Inc();
  metrics_.ingest_ns.Record(NowNs() - start);
  return true;
}

std::size_t Engine::ObserveLog(const weblog::ServerLog& log) {
  std::size_t accepted = 0;
  for (const weblog::CompactRequest& request : log.requests()) {
    if (Observe(request.client, request.url_id, request.response_bytes,
                request.timestamp)) {
      ++accepted;
    }
  }
  return accepted;
}

std::optional<bgp::PrefixTable::Match> Engine::Lookup(
    net::IpAddress address) const {
  metrics_.lookups_served.Inc();
  // Resolve against the flat directory compiled at publish time: at most
  // three contiguous-array reads instead of a Patricia node walk. The
  // stored payload IS the complete Match (prefix included).
  const bgp::TableHandle handle = slot_.Acquire();
  const auto match = handle.flat().LongestMatch(address);
  if (!match.has_value()) return std::nullopt;
  return *match->value;
}

std::size_t Engine::LookupBatch(
    std::span<const net::IpAddress> addresses,
    std::span<std::optional<bgp::PrefixTable::Match>> out) const {
  const std::size_t count = std::min(addresses.size(), out.size());
  metrics_.lookups_served.Inc(count);
  metrics_.batch_lookups.Inc();
  // One RCU acquire covers the whole batch: every answer comes from the
  // same snapshot, and the per-lookup refcount traffic is amortized away.
  const bgp::TableHandle handle = slot_.Acquire();
  const bgp::PrefixTable::Flat& flat = handle.flat();
  std::size_t found = 0;
  constexpr std::size_t kChunk = 256;
  bgp::PrefixTable::Flat::Match matches[kChunk];
  for (std::size_t base = 0; base < count; base += kChunk) {
    const std::size_t n = std::min(kChunk, count - base);
    flat.LookupBatch(addresses.subspan(base, n), std::span(matches, n));
    for (std::size_t i = 0; i < n; ++i) {
      if (matches[i].value == nullptr) {
        out[base + i] = std::nullopt;
      } else {
        out[base + i] = *matches[i].value;
        ++found;
      }
    }
  }
  return found;
}

void Engine::Drain() {
  base::AssumeThreadRole ingest(ingest_role_);
  for (const auto& shard : shards_) {
    // The ingest thread is the producer, so pushed() is its own counter.
    base::AssumeThreadRole producer(shard->producer_role());
    const std::uint64_t target = shard->pushed();
    while (shard->processed() < target) {
      std::this_thread::yield();
    }
  }
  metrics_.drains.Inc();
}

core::Clustering Engine::Snapshot() {
  Drain();
  base::AssumeThreadRole ingest(ingest_role_);
  std::vector<const ShardState*> states;
  states.reserve(shards_.size());
  for (const auto& shard : shards_) {
    // Drain() quiesced the worker: its release of processed_ has been
    // observed, so the consumer role is safely assumed by this thread
    // until the next push.
    base::AssumeThreadRole consumer(shard->consumer_role());
    states.push_back(&shard->state());
  }
  return ShardState::Merge("network-aware-streaming", config_.log_name,
                           states);
}

}  // namespace netclust::engine
