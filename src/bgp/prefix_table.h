// The merged prefix/netmask table of §3.1: the union of entries from every
// routing-table snapshot, indexed for longest-prefix match.
//
// Source semantics follow the paper: BGP tables are the *primary* source
// and registry network dumps (ARIN/NLANR) the *secondary* one — a client is
// clustered by a network-dump prefix only when no BGP prefix matches it at
// all. This is what lifts coverage "from 99% to 99.9%" without letting the
// registries' coarse super-blocks shadow real routes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/route_entry.h"
#include "net/ip_address.h"
#include "net/prefix.h"
#include "trie/flat_lpm.h"
#include "trie/patricia_trie.h"

namespace netclust::bgp {

/// The merged table. Add snapshots, then issue LongestMatch queries.
class PrefixTable {
 public:
  static constexpr int kMaxSources = 32;
  /// AddSource() return value when the source-id space is exhausted.
  /// Insert() with it (or any other out-of-range id) is a counted no-op,
  /// so a 33rd source can never shift past the 32-bit source_mask.
  static constexpr int kInvalidSource = -1;

  struct Match {
    net::Prefix prefix;
    /// Which kind of source supplied the winning prefix — kNetworkDump only
    /// when no BGP prefix matched the address (secondary-source rule).
    SourceKind kind;
    /// Bitmask of source ids that contributed the winning prefix.
    std::uint32_t source_mask;
    /// Origin AS (last element of the AS path) of the winning prefix, or 0
    /// when unknown. §4.1.4 groups proxies by it.
    AsNumber origin_as;

    /// Field-wise equality, so Flat::ResolvesIdentically can compare what
    /// two compiled directories resolve to (the churn-equivalence bar for
    /// the incremental recompile).
    friend bool operator==(const Match&, const Match&) = default;
  };

  /// Per-source accounting (one row of Table 1 plus merge stats).
  struct SourceStats {
    SnapshotInfo info;
    std::size_t entries = 0;         // entries inserted from this source
    std::size_t unique_prefixes = 0; // distinct prefixes it contributed
    std::size_t new_prefixes = 0;    // prefixes no earlier source had
  };

  /// Registers a source and returns its id, or kInvalidSource once
  /// kMaxSources are registered (the id space is a 32-bit mask; a 33rd
  /// registration must fail detectably, not shift into undefined
  /// behaviour). Callers that cannot continue without the source should
  /// treat a negative id as an error.
  [[nodiscard]] int AddSource(const SnapshotInfo& info);

  /// Inserts one prefix attributed to `source_id`, optionally annotated
  /// with its origin AS (0 = unknown; the first known origin wins).
  /// An out-of-range source id (e.g. a propagated kInvalidSource) drops
  /// the insert and bumps rejected_inserts() instead of corrupting masks.
  /// Returns true when the table's lookup-visible state changed — a new
  /// prefix, or an existing one whose origin record was updated. A re-
  /// announce that changes nothing returns false, which is what lets the
  /// engine skip recompiling (and re-publishing) for duplicate updates.
  bool Insert(const net::Prefix& prefix, int source_id,
              AsNumber origin_as = 0);

  /// Inserts dropped because their source id was invalid.
  [[nodiscard]] std::size_t rejected_inserts() const {
    return rejected_inserts_;
  }

  /// Origin AS recorded for `prefix`, or 0.
  [[nodiscard]] AsNumber OriginAs(const net::Prefix& prefix) const;

  /// Removes `prefix` entirely (all sources) — a route withdrawal in the
  /// real-time pipeline. Per-source historical stats are not rewound.
  /// Returns true if the prefix was present.
  bool Remove(const net::Prefix& prefix) { return trie_.Remove(prefix); }

  /// Registers `snapshot.info` and inserts all its entries. Returns the
  /// source id, or kInvalidSource (inserting nothing) when the source
  /// space is exhausted.
  int AddSnapshot(const Snapshot& snapshot);

  /// Longest-prefix match under the primary/secondary rule. nullopt when no
  /// prefix at all covers `address` (the paper's ~0.1% unclusterable case).
  [[nodiscard]] std::optional<Match> LongestMatch(
      net::IpAddress address) const;

  /// The flat, immutable lookup structure compiled from one table state.
  /// Priority classes encode the primary/secondary rule, so
  /// Flat::LongestMatch is bit-identical to PrefixTable::LongestMatch
  /// (the *value pointed at is the complete Match, prefix included).
  using Flat = trie::FlatLpm<Match>;

  /// Compiles the current table into its flat form — one pass over the
  /// trie plus the directory paint. Engine::PublishDelta calls it on the
  /// seed path and hands the result to RcuTableSlot::Publish; a published
  /// snapshot carries only this compiled data plane, never the trie.
  [[nodiscard]] Flat CompileFlat() const;

  /// Incremental recompile: copies `prev`'s directory and repaints only
  /// the root (/16) ranges a prefix in `changed` covers, gathering each
  /// touched range's candidate entries from the trie (covering prefixes
  /// via AllMatches, interior ones via VisitUnder). The result resolves
  /// every address identically to CompileFlat() — the churn equivalence
  /// suite asserts exactly that — at a cost proportional to the touched
  /// ranges, not the table.
  ///
  /// Repeated deltas orphan replaced blocks inside the copy; once the
  /// accumulated garbage would double the directory (prev holds more than
  /// 2x the live entries, plus slack for small tables) this falls back to
  /// a from-scratch CompileFlat(), which is the compaction step.
  [[nodiscard]] Flat CompileFlatDelta(
      const Flat& prev, std::span<const net::Prefix> changed) const;

  /// Number of distinct prefixes in the merged table.
  [[nodiscard]] std::size_t size() const { return trie_.size(); }

  [[nodiscard]] const std::vector<SourceStats>& sources() const {
    return sources_;
  }

  /// All distinct prefixes (any source), for dynamics analysis.
  [[nodiscard]] std::vector<net::Prefix> AllPrefixes() const;

  /// True if `prefix` is present in the table.
  [[nodiscard]] bool Contains(const net::Prefix& prefix) const;

 private:
  struct Origin {
    std::uint32_t source_mask = 0;
    bool from_bgp = false;
    bool from_dump = false;
    AsNumber origin_as = 0;
  };

  trie::PatriciaTrie<Origin> trie_;
  std::vector<SourceStats> sources_;
  std::size_t rejected_inserts_ = 0;
};

}  // namespace netclust::bgp
