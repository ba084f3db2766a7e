// Embedded observability for the real-time engine.
//
// Everything here is wait-free and safe to bump from any thread: counters
// are relaxed atomics, histograms are fixed arrays of relaxed atomics
// (geometric nanosecond buckets, ×4 per step from 64ns to ~1s). Readers
// get a monotonic-but-unsynchronized view, which is the standard contract
// for scrape-style metrics. Exposition() dumps the whole set in the
// plain-text `name value` / `name_bucket{le="..."}` format scrapers expect.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>

namespace netclust::engine {

/// Monotonic counter; Inc from any thread, relaxed ordering.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) {
    // order: relaxed — a pure statistic; no reader derives cross-thread
    // invariants from it, and scrape reads tolerate any interleaving.
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    // order: relaxed — scrape-style read; monotonic-but-unsynchronized is
    // the documented contract for the whole metrics layer.
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket latency histogram. Bucket i holds samples with
/// ns <= 64·4^i (13 finite buckets, 64ns … ~1.07s), plus one overflow
/// bucket; sum and count allow mean computation.
class LatencyHistogram {
 public:
  static constexpr std::size_t kFiniteBuckets = 13;
  static constexpr std::size_t kBuckets = kFiniteBuckets + 1;

  static constexpr std::uint64_t BucketBound(std::size_t i) {
    return std::uint64_t{64} << (2 * i);
  }

  void Record(std::uint64_t ns) {
    std::size_t bucket = 0;
    while (bucket < kFiniteBuckets && ns > BucketBound(bucket)) ++bucket;
    // order: relaxed ×3 — the three adds are not a transaction; a scraper
    // may observe bucket/count/sum mid-update, which the exposition format
    // explicitly tolerates (counts are each individually monotonic).
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const {
    // order: relaxed — scrape read; see Record().
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const {
    // order: relaxed — scrape read; see Record().
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    // order: relaxed — scrape read; see Record().
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Steady-clock nanoseconds, for Record() deltas.
inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The engine's metric set, wired into the ingest, lookup, swap and
/// reassignment paths.
struct EngineMetrics {
  Counter requests_ingested;   // accepted into a shard ring
  Counter requests_dropped;    // rejected by drop-policy backpressure
  Counter requests_processed;  // resolved + accounted by a worker
  Counter updates_ingested;    // routing events offered to the engine
  Counter updates_noop;        // updates that changed nothing (no publish)
  Counter update_batches;      // ApplyUpdateBatch() calls (any write)
  Counter swaps_published;     // table snapshots published (RCU swaps)
  Counter delta_publishes;     // snapshots compiled incrementally
  Counter full_publishes;      // snapshots compiled from scratch (seeds)
  Counter reassignments;       // clients moved between clusters by churn
  Counter lookups_served;      // serving-plane lookups (single + batched)
  Counter batch_lookups;       // LookupBatch() calls (batches, not lookups)
  Counter drains;              // Drain() barriers completed
  LatencyHistogram ingest_ns;      // producer-side ring push
  LatencyHistogram lookup_ns;      // worker-side resolve + account
  LatencyHistogram swap_build_ns;  // clone + publish of a new snapshot
  LatencyHistogram swap_apply_ns;  // per-shard adoption incl. re-resolution

  /// Plain-text exposition of every counter and histogram.
  [[nodiscard]] std::string Exposition() const {
    std::ostringstream out;
    const auto counter = [&out](const char* name, const Counter& c) {
      out << "netclust_engine_" << name << "_total " << c.value() << "\n";
    };
    counter("requests_ingested", requests_ingested);
    counter("requests_dropped", requests_dropped);
    counter("requests_processed", requests_processed);
    counter("updates_ingested", updates_ingested);
    counter("updates_noop", updates_noop);
    counter("update_batches", update_batches);
    counter("swaps_published", swaps_published);
    counter("delta_publishes", delta_publishes);
    counter("full_publishes", full_publishes);
    counter("reassignments", reassignments);
    counter("lookups_served", lookups_served);
    counter("batch_lookups", batch_lookups);
    counter("drains", drains);
    const auto histogram = [&out](const char* name,
                                  const LatencyHistogram& h) {
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < LatencyHistogram::kFiniteBuckets; ++i) {
        cumulative += h.bucket(i);
        out << "netclust_engine_" << name << "_ns_bucket{le=\""
            << LatencyHistogram::BucketBound(i) << "\"} " << cumulative
            << "\n";
      }
      cumulative += h.bucket(LatencyHistogram::kFiniteBuckets);
      out << "netclust_engine_" << name << "_ns_bucket{le=\"+Inf\"} "
          << cumulative << "\n";
      out << "netclust_engine_" << name << "_ns_sum " << h.sum() << "\n";
      out << "netclust_engine_" << name << "_ns_count " << h.count() << "\n";
    };
    histogram("ingest", ingest_ns);
    histogram("lookup", lookup_ns);
    histogram("swap_build", swap_build_ns);
    histogram("swap_apply", swap_apply_ns);
    return out.str();
  }
};

}  // namespace netclust::engine
