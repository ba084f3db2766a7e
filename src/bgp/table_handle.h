// Refcounted immutable snapshots of the compiled lookup directory, with
// RCU-style publication.
//
// The real-time engine (src/engine) never lets a lookup take a lock: the
// writer keeps the one mutable PrefixTable, compiles a *new* flat
// directory from it (PrefixTable::CompileFlat, or CompileFlatDelta, which
// copies the previous directory and repaints only what changed), and
// publishes it with one atomic pointer swap. Readers that acquired the
// previous snapshot keep a reference count on it, so the old directory
// stays alive until the last in-flight lookup drops it — classic
// read-copy-update, with shared_ptr refcounts standing in for grace
// periods. No trie is ever copied into a snapshot.
//
// Sides of the slot (machine-checked on Clang, see base/sync.h):
//   * read side — Acquire()/version(): wait-free, any thread, any time;
//   * publish side — Publish(): a non-atomic read-modify-write of the
//     version sequence, so it belongs to exactly one publisher thread.
//     That contract is a ThreadRole capability: Publish() REQUIRES the
//     publisher role, and callers assert it at their single-writer entry
//     point (Engine::PublishDelta).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "base/sync.h"
#include "bgp/prefix_table.h"

namespace netclust::bgp {

/// A refcounted, versioned, immutable directory snapshot. Cheap to copy
/// (one refcount increment); the directory is never mutated after
/// publication, so handles are safe to read from any thread.
class TableHandle {
 public:
  TableHandle() = default;

  /// The flat LPM published in this snapshot: what the serving plane
  /// (Engine::Lookup / Engine::LookupBatch) and the shard workers resolve
  /// against. Resolves bit-identically to the trie it was compiled from.
  [[nodiscard]] const PrefixTable::Flat& flat() const { return state_->flat; }

  /// Monotonic publication sequence number (0 = never published).
  [[nodiscard]] std::uint64_t version() const {
    return state_ == nullptr ? 0 : state_->version;
  }

  /// Number of live references to this snapshot (readers + the slot).
  [[nodiscard]] long use_count() const { return state_.use_count(); }

 private:
  friend class RcuTableSlot;
  struct State {
    PrefixTable::Flat flat;
    std::uint64_t version = 0;
  };
  explicit TableHandle(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

/// The publication point: the writer Publish()es a new directory, readers
/// Acquire() the current one. Both sides are wait-free on the fast path
/// (std::atomic<std::shared_ptr>); neither blocks the other.
class RcuTableSlot {
 public:
  /// Starts with an empty directory at version 1, so Acquire() is always
  /// valid.
  RcuTableSlot() {
    // order: release — pairs with the acquire in Acquire()/Publish();
    // publishes the initial State before any handle to the slot escapes.
    slot_.store(std::make_shared<const TableHandle::State>(
                    TableHandle::State{PrefixTable::Flat{}, 1}),
                std::memory_order_release);
  }

  /// Read side: the current snapshot. Never null; any thread, any time.
  [[nodiscard]] TableHandle Acquire() const {
    // order: acquire — pairs with Publish()'s release store; a reader that
    // sees the new pointer sees the fully built directory behind it.
    return TableHandle(slot_.load(std::memory_order_acquire));
  }

  /// Publish side: wraps the fully compiled `flat` in a new snapshot one
  /// version past the current one and swaps it in. Returns the handle just
  /// published. Compiling is the caller's job, so the cost lands on the
  /// single publisher, never on a lookup. The version bump is a non-atomic
  /// read-modify-write, hence the single publisher role.
  TableHandle Publish(PrefixTable::Flat flat) REQUIRES(publisher_role_) {
    // order: acquire — the publisher reads its own previous release store
    // (or the constructor's), for which relaxed would be admissible under
    // the single-publisher contract; acquire keeps this correct even if
    // the contract is ever widened to externally-locked multi-writer.
    const std::uint64_t next =
        slot_.load(std::memory_order_acquire)->version + 1;
    auto state = std::make_shared<const TableHandle::State>(
        TableHandle::State{std::move(flat), next});
    // order: release — pairs with Acquire(); readers must see the complete
    // State (directory + version) before the pointer swap is visible.
    slot_.store(state, std::memory_order_release);
    return TableHandle(std::move(state));
  }

  /// Read side: the version of the currently published snapshot.
  [[nodiscard]] std::uint64_t version() const {
    // order: acquire — same pairing as Acquire(); the State read below
    // must not be torn from before the pointer became visible.
    return slot_.load(std::memory_order_acquire)->version;
  }

  /// The single-publisher thread role for Publish().
  [[nodiscard]] const base::ThreadRole& publisher_role() const
      RETURN_CAPABILITY(publisher_role_) {
    return publisher_role_;
  }

 private:
  std::atomic<std::shared_ptr<const TableHandle::State>> slot_;
  base::ThreadRole publisher_role_;
};

}  // namespace netclust::bgp
