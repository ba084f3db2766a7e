// Seeded synthetic full-DFZ IPv4 table.
//
// The paper-scale table (~4.7k prefixes) fits in cache, so it cannot show
// what the flat directory, the snapshot clone or the incremental compile
// cost at today's table size. This generator builds a table of about a
// million prefixes with an assumed present-day length mix (see dfz.cc):
// mostly /24s, a band of /19-/23 allocations and covering /8-/16
// aggregates, plus a synthetic tail of /25-/32 more-specifics, which the
// real DFZ does not carry, so level-3 directory blocks exist. More than
// half of the prefixes nest inside an earlier shorter one, so covering
// prefixes and more-specifics interleave; the nesting rate is a chosen
// value, not a measured one.
//
// The same seed gives the same table, prefix for prefix.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bgp/route_entry.h"
#include "net/prefix.h"

namespace perfbench {

struct DfzTable {
  std::vector<netclust::net::Prefix> prefixes;  // distinct, shortest first
  std::vector<std::uint32_t> origin_as;         // parallel to prefixes
  std::array<std::size_t, 33> length_counts{};  // prefixes per length
};

DfzTable GenerateDfz(std::uint64_t seed, std::size_t count);

/// The table as one BGP snapshot (source "DFZ"), as Engine::SeedSnapshot
/// and PrefixTable::AddSnapshot take it.
netclust::bgp::Snapshot DfzSnapshot(const DfzTable& table);

/// A 2^24-bit map of the /24s that some prefix covers (a prefix longer
/// than /24 marks its whole /24). Addresses drawn uniformly and kept when
/// their /24 is marked are uniform over the covered space.
class CoverageMap {
 public:
  explicit CoverageMap(const DfzTable& table);
  [[nodiscard]] bool Covered(std::uint32_t address) const {
    const std::uint32_t slash24 = address >> 8;
    return (bits_[slash24 >> 6] >> (slash24 & 63)) & 1;
  }

 private:
  std::vector<std::uint64_t> bits_;
};

}  // namespace perfbench
