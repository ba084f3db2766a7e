// One shard of the concurrent clustering engine.
//
// A shard owns the assignment state for the clients hashed to it and a
// worker thread that consumes the shard's SPSC ring. Two event kinds flow
// through the ring, in ingest order:
//   * requests — resolved against the flat directory of the worker-local
//     snapshot and accounted exactly as core::AssignmentState::Observe;
//   * table swaps — the worker adopts the new RCU-published snapshot and
//     re-resolves only the clients under the delta's changed prefixes.
// Because the ring preserves the ingest thread's order, each shard sees
// the global event sequence restricted to (its clients + all routing
// events) — which is what makes the merged Snapshot() bit-identical to a
// sequential replay.
//
// Threading contract (machine-checked on Clang, see base/sync.h):
//   * Push/TryPush/pushed() require the ring's producer role — the one
//     ingest thread;
//   * state() requires the consumer role — held by the worker thread, and
//     transferable to the ingest thread at a quiescent point
//     (Engine::Drain() publishes the worker's writes via the release
//     store of processed_, so asserting the role there is sound);
//   * both sides spin briefly, then park on one annotated Mutex with a
//     CondVar each instead of burning a core: the producer while the ring
//     is full (blocking backpressure), the worker while it is empty. The
//     wakeups are advisory (timed waits), so a lost notify costs one wait
//     slice, never a hang.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "base/sync.h"
#include "bgp/table_handle.h"
#include "core/assignment.h"
#include "engine/metrics.h"
#include "engine/spsc_ring.h"
#include "net/ip_address.h"
#include "net/prefix.h"

namespace netclust::engine {

/// The assignment state of one shard: resolved against the snapshot's
/// flat directory, never a trie.
using ShardState = core::AssignmentState<bgp::PrefixTable::Flat>;

/// One published routing change: the new immutable snapshot plus the
/// effective prefix delta, so workers re-resolve only affected clients.
struct TableDelta {
  bgp::TableHandle table;
  std::vector<net::Prefix> withdrawn;  // actually removed
  std::vector<net::Prefix> announced;  // genuinely new (refreshes excluded)
};

/// One ring slot.
struct Event {
  enum class Kind : std::uint8_t { kRequest, kSwap };
  Kind kind = Kind::kRequest;
  net::IpAddress client;
  std::uint32_t url_id = 0;
  std::uint32_t bytes = 0;
  std::int64_t timestamp = 0;
  std::shared_ptr<const TableDelta> delta;  // kSwap only
};

class ShardWorker {
 public:
  ShardWorker(std::size_t ring_capacity, bgp::TableHandle initial_table,
              EngineMetrics* metrics)
      : ring_(ring_capacity),
        table_(std::move(initial_table)),
        metrics_(metrics) {}

  ~ShardWorker() { Stop(); }
  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  void Start() {
    if (thread_.joinable()) return;
    // order: relaxed — the std::thread constructor below synchronizes-with
    // the new thread's start, which orders this store before any load in
    // Run().
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { Run(); });
  }

  /// Lets the worker drain the ring, then joins it. The producer must have
  /// stopped pushing.
  void Stop() {
    if (!thread_.joinable()) return;
    // order: relaxed — stop_ is a pure control flag carrying no payload;
    // all data the worker reads travels through the ring's release/acquire
    // protocol, and join() below gives the full happens-before edge back.
    stop_.store(true, std::memory_order_relaxed);
    MaybeWake(consumer_waiting_, ring_not_empty_);  // a parked worker exits
    thread_.join();
  }

  // --- producer side (engine ingest thread only) ---

  /// Non-blocking enqueue; false (with `event` left intact) when the ring
  /// is full.
  [[nodiscard]] bool TryPush(Event&& event) REQUIRES(ring_.producer_role()) {
    if (!ring_.TryPush(std::move(event))) return false;
    ++pushed_;
    MaybeWake(consumer_waiting_, ring_not_empty_);
    return true;
  }

  /// Blocking enqueue: spins briefly, then parks until the worker frees a
  /// slot. The notify is advisory — the timed wait re-polls, so the slow
  /// path is stall-bounded by kWaitSlice even if a wakeup is lost.
  void Push(Event event) REQUIRES(ring_.producer_role()) {
    for (int turns = 0; !TryPush(std::move(event));) {
      WaitTurn(&turns, producer_waiting_, ring_not_full_,
               [this] { return ring_.size() < ring_.capacity(); });
    }
  }

  /// Events successfully enqueued (producer-thread view).
  [[nodiscard]] std::uint64_t pushed() const
      REQUIRES(ring_.producer_role()) {
    return pushed_;
  }
  /// Events fully applied by the worker. Safe from any thread.
  [[nodiscard]] std::uint64_t processed() const {
    // order: acquire — pairs with the worker's release increment; once the
    // caller observes processed() == pushed(), every effect of those
    // events (state_, table_) is visible, which is what makes the
    // role handover in Engine::Drain()/Snapshot() sound.
    return processed_.load(std::memory_order_acquire);
  }

  /// The shard's assignment state. Requires the consumer role: held by the
  /// worker thread, or assumed by the ingest thread at a quiescent point
  /// (processed() == pushed() and no pushes in flight — Engine::Drain()
  /// establishes one).
  [[nodiscard]] const ShardState& state() const
      REQUIRES(ring_.consumer_role()) {
    return state_;
  }

  /// The ring's producer-side role (the single ingest thread).
  [[nodiscard]] const base::ThreadRole& producer_role() const
      RETURN_CAPABILITY(ring_.producer_role()) {
    return ring_.producer_role();
  }
  /// The ring's consumer-side role (the worker thread, or a quiesced
  /// caller — see state()).
  [[nodiscard]] const base::ThreadRole& consumer_role() const
      RETURN_CAPABILITY(ring_.consumer_role()) {
    return ring_.consumer_role();
  }

 private:
  static constexpr int kSpinIterations = 256;
  static constexpr std::chrono::milliseconds kWaitSlice{1};

  void Run() {
    // The worker thread is the ring's one consumer for its whole lifetime.
    base::AssumeThreadRole consumer(ring_.consumer_role());
    Event event;
    for (int idle = 0;;) {
      if (ring_.TryPop(event)) {
        Apply(event);
        // order: release — pairs with the acquire in processed(); publishes
        // the Apply() effects (state_, table_) together with the count, so
        // a quiesced reader that sees the count sees the state.
        processed_.fetch_add(1, std::memory_order_release);
        MaybeWake(producer_waiting_, ring_not_full_);
        idle = 0;
        continue;
      }
      // order: relaxed — control flag only; see Stop().
      if (stop_.load(std::memory_order_relaxed)) break;
      WaitTurn(&idle, consumer_waiting_, ring_not_empty_, [this] {
        // order: relaxed — control flag only; see Stop().
        return !ring_.empty() || stop_.load(std::memory_order_relaxed);
      });
    }
  }

  /// One turn of waiting for the other side of the ring: a yield for the
  /// first kSpinIterations turns, then a park. Parking raises the
  /// advisory `waiting` flag, re-checks `ready` (a change that landed
  /// before the flag went up would otherwise wait out a whole slice) and
  /// waits one slice on `cv` for MaybeWake() or Stop() to notify.
  template <typename Ready>
  void WaitTurn(int* turns, std::atomic<bool>& waiting, base::CondVar& cv,
                Ready ready) {
    if (*turns < kSpinIterations) {
      ++*turns;
      std::this_thread::yield();
      return;
    }
    base::MutexLock lock(&park_mu_);
    // order: relaxed — the flag only gates whether the other side bothers
    // to notify; the timed wait bounds the stall if its read races past.
    waiting.store(true, std::memory_order_relaxed);
    if (!ready()) cv.WaitFor(park_mu_, kWaitSlice);
    // order: relaxed — see above; stale true costs one spurious notify.
    waiting.store(false, std::memory_order_relaxed);
  }

  void Apply(Event& event) REQUIRES(ring_.consumer_role()) {
    const std::uint64_t start = NowNs();
    if (event.kind == Event::Kind::kRequest) {
      state_.Observe(event.client, event.url_id, event.bytes, table_.flat());
      metrics_->requests_processed.Inc();
      metrics_->lookup_ns.Record(NowNs() - start);
      return;
    }
    // Table swap: adopt the new snapshot, then re-resolve exactly the
    // clients under changed prefixes (withdrawals first, like
    // StreamingClusterer::ApplyUpdate).
    table_ = event.delta->table;
    std::size_t moved = 0;
    for (const net::Prefix& prefix : event.delta->withdrawn) {
      moved += state_.OnWithdrawn(prefix, table_.flat());
    }
    for (const net::Prefix& prefix : event.delta->announced) {
      moved += state_.OnAnnounced(prefix, table_.flat());
    }
    if (moved > 0) metrics_->reassignments.Inc(moved);
    metrics_->swap_apply_ns.Record(NowNs() - start);
  }

  /// Nudges the other side when it is parked on `cv`: the producer in
  /// Push() (ring full) or the idle worker in Run(). Taking the mutex
  /// before the notify closes the set-flag/park race; the common (no
  /// waiter) case is one relaxed load.
  void MaybeWake(const std::atomic<bool>& waiting, base::CondVar& cv) {
    // order: relaxed — advisory flag; a missed true is repaired by the
    // waiter's timed wait, a stale true costs one uncontended lock.
    if (!waiting.load(std::memory_order_relaxed)) return;
    base::MutexLock lock(&park_mu_);
    cv.NotifyOne();
  }

  SpscRing<Event> ring_;
  bgp::TableHandle table_
      ONLY_THREAD(ring_.consumer_role());  // replaced on swap events
  ShardState state_
      ONLY_THREAD(ring_.consumer_role());  // this shard's clients only
  EngineMetrics* metrics_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::uint64_t pushed_ ONLY_THREAD(ring_.producer_role()) = 0;
  alignas(64) std::atomic<std::uint64_t> processed_{0};
  // Parking lot for both sides: the producer waits on ring_not_full_ in
  // Push()'s slow path, the idle worker on ring_not_empty_.
  base::Mutex park_mu_;
  base::CondVar ring_not_full_;
  base::CondVar ring_not_empty_;
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> consumer_waiting_{false};
};

}  // namespace netclust::engine
