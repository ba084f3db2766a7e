#include "dfz.h"

#include <unordered_set>

#include "synth/rng.h"

namespace perfbench {

using netclust::net::IpAddress;
using netclust::net::Prefix;

namespace {

// Share of the table per prefix length. The mix is assumed, not copied
// from a dated dataset: the /8-/24 shares are rounded, hand-set values
// shaped like the per-length counts the CIDR Report (cidr-report.org)
// publishes for the IPv4 DFZ of the early 2020s: /24 about 60 %, /22-/23
// about a fifth, /16 and shorter about 2 %.
//
// The 1.5 % tail longer than /24 is a synthetic choice, not a property of
// the real DFZ, which carries almost none (most networks filter routes
// longer than /24). It is there so the flat directory has level-3 blocks
// to build and walk; without it no lookup would reach the third level.
constexpr std::array<double, 33> kLengthShare = {
    0,       0,       0,       0,      0,      0,      0,       0,
    0.00002, 0.00002, 0.00005, 0.0001, 0.0003, 0.0006, 0.0012,  0.002,
    0.013,   0.008,   0.013,   0.024,  0.04,   0.045,  0.11,    0.10,
    0.60,    0.004,   0.004,   0.003,  0.002,  0.001,  0.0005,  0,
    0.0005};

// Probability that a prefix nests inside an earlier, shorter one. Like
// the origin-AS draw below (uniform over 1-64000, half of the nested
// routes inheriting the aggregate's origin), this is a synthetic choice:
// it makes covering prefixes and more-specifics coexist so that level-2
// and level-3 blocks exist, and is not fitted to any measurement.
constexpr double kNestShare = 0.6;

bool Routable(std::uint32_t bits) {
  const std::uint32_t first = bits >> 24;
  return first != 0 && first != 10 && first != 127 && first < 224;
}

std::uint64_t Key(const Prefix& prefix) {
  return (std::uint64_t{prefix.network().bits()} << 6) |
         static_cast<std::uint64_t>(prefix.length());
}

}  // namespace

DfzTable GenerateDfz(std::uint64_t seed, std::size_t count) {
  netclust::synth::Rng rng(netclust::synth::Mix64(seed ^ 0xD1F2));
  double total_share = 0.0;
  for (const double share : kLengthShare) total_share += share;

  DfzTable table;
  table.prefixes.reserve(count);
  table.origin_as.reserve(count);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(count * 2);
  // Nesting parents: every prefix of /22 or shorter generated so far.
  std::vector<std::uint32_t> parents;

  for (int length = 0; length <= 32; ++length) {
    const auto want = static_cast<std::size_t>(
        static_cast<double>(count) * kLengthShare[length] / total_share + 0.5);
    std::size_t made = 0;
    while (made < want) {
      std::uint32_t bits = 0;
      std::uint32_t origin = 0;
      if (!parents.empty() && rng.Bernoulli(kNestShare)) {
        const std::uint32_t parent_index =
            parents[rng.Uniform(parents.size())];
        const Prefix& parent = table.prefixes[parent_index];
        const std::uint64_t span = parent.size();
        bits = parent.network().bits() +
               static_cast<std::uint32_t>(rng.Uniform(span));
        // Half of the nested routes keep the aggregate's origin (a
        // customer announcing its own space via its provider).
        origin = rng.Bernoulli(0.5) ? table.origin_as[parent_index] : 0;
      } else {
        bits = static_cast<std::uint32_t>(rng.Uniform(std::uint64_t{1} << 32));
        if (!Routable(bits)) continue;
      }
      const Prefix prefix(IpAddress(bits), length);
      if (!seen.insert(Key(prefix)).second) continue;
      if (origin == 0) {
        origin = 1 + static_cast<std::uint32_t>(rng.Uniform(64'000));
      }
      if (length <= 22) {
        parents.push_back(static_cast<std::uint32_t>(table.prefixes.size()));
      }
      table.prefixes.push_back(prefix);
      table.origin_as.push_back(origin);
      ++table.length_counts[static_cast<std::size_t>(length)];
      ++made;
    }
  }
  return table;
}

netclust::bgp::Snapshot DfzSnapshot(const DfzTable& table) {
  netclust::bgp::Snapshot snapshot;
  snapshot.info = {"DFZ", "synthetic", netclust::bgp::SourceKind::kBgpTable,
                   "seeded full-table generator"};
  snapshot.entries.reserve(table.prefixes.size());
  for (std::size_t i = 0; i < table.prefixes.size(); ++i) {
    netclust::bgp::RouteEntry entry;
    entry.prefix = table.prefixes[i];
    entry.as_path = {table.origin_as[i]};
    snapshot.entries.push_back(std::move(entry));
  }
  return snapshot;
}

CoverageMap::CoverageMap(const DfzTable& table)
    : bits_((std::size_t{1} << 24) / 64, 0) {
  for (const Prefix& prefix : table.prefixes) {
    const std::uint32_t first = prefix.network().bits() >> 8;
    const std::uint32_t slash24s =
        prefix.length() >= 24
            ? 1
            : static_cast<std::uint32_t>(prefix.size() >> 8);
    for (std::uint32_t i = 0; i < slash24s; ++i) {
      const std::uint32_t slash24 = first + i;
      bits_[slash24 >> 6] |= std::uint64_t{1} << (slash24 & 63);
    }
  }
}

}  // namespace perfbench
