// Property tests: on randomized prefix sets, both tries and the compiled
// flat directory must agree with the linear-scan oracle on every lookup,
// under inserts, removals and recompiles. The churn-equivalence suite at
// the bottom extends this to the incremental recompile: a chain of
// CompileFlatDelta() calls must stay indistinguishable from a from-scratch
// CompileFlat() under arbitrary announce/withdraw interleavings, and the
// delta publish must be safe against concurrent LookupBatch readers.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "base/sync.h"
#include "bgp/prefix_table.h"
#include "bgp/table_handle.h"
#include "synth/rng.h"
#include "trie/binary_trie.h"
#include "trie/flat_lpm.h"
#include "trie/linear_lpm.h"
#include "trie/patricia_trie.h"

namespace netclust::trie {
namespace {

using net::IpAddress;
using net::Prefix;

struct SweepParams {
  std::uint64_t seed;
  int entries;
  int min_length;
  int max_length;
};

class LpmAgreementSweep : public ::testing::TestWithParam<SweepParams> {};

Prefix RandomPrefix(synth::Rng& rng, int min_length, int max_length) {
  const int length =
      min_length +
      static_cast<int>(rng.Uniform(
          static_cast<std::uint64_t>(max_length - min_length + 1)));
  const auto bits = static_cast<std::uint32_t>(rng.Uniform(1ull << 32));
  return Prefix(IpAddress(bits), length);
}

// Probe addresses biased towards the inserted prefixes (uniform probing
// would almost never hit a /28).
std::vector<IpAddress> ProbePoints(const std::vector<Prefix>& prefixes,
                                   synth::Rng& rng) {
  std::vector<IpAddress> probes;
  for (const Prefix& prefix : prefixes) {
    probes.push_back(prefix.first_address());
    probes.push_back(prefix.last_address());
    probes.push_back(IpAddress(static_cast<std::uint32_t>(
        prefix.network().bits() +
        rng.Uniform(std::max<std::uint64_t>(prefix.size(), 1)))));
    // Just outside the block.
    probes.push_back(IpAddress(prefix.network().bits() - 1));
    probes.push_back(IpAddress(static_cast<std::uint32_t>(
        prefix.network().bits() + prefix.size())));
  }
  for (int i = 0; i < 64; ++i) {
    probes.push_back(IpAddress(static_cast<std::uint32_t>(
        rng.Uniform(1ull << 32))));
  }
  return probes;
}

// Recompiles a FlatLpm from whatever the Patricia trie currently holds —
// the same one-pass Visit + Compile the RCU publish step performs.
FlatLpm<int> CompileFrom(const PatriciaTrie<int>& patricia) {
  std::vector<FlatLpm<int>::Entry> entries;
  patricia.Visit([&entries](const Prefix& prefix, const int& value) {
    entries.push_back(FlatLpm<int>::Entry{prefix, 0, value});
  });
  return FlatLpm<int>::Compile(std::move(entries));
}

TEST_P(LpmAgreementSweep, TriesMatchLinearOracle) {
  const SweepParams params = GetParam();
  synth::Rng rng(params.seed);

  LinearLpm<int> oracle;
  BinaryTrie<int> binary;
  PatriciaTrie<int> patricia;

  std::vector<Prefix> inserted;
  for (int i = 0; i < params.entries; ++i) {
    const Prefix prefix =
        RandomPrefix(rng, params.min_length, params.max_length);
    inserted.push_back(prefix);
    oracle.Insert(prefix, i);
    binary.Insert(prefix, i);
    patricia.Insert(prefix, i);
  }
  EXPECT_EQ(binary.size(), oracle.size());
  EXPECT_EQ(patricia.size(), oracle.size());
  const FlatLpm<int> flat = CompileFrom(patricia);
  EXPECT_EQ(flat.size(), oracle.size());

  const std::vector<IpAddress> probes = ProbePoints(inserted, rng);
  std::vector<FlatLpm<int>::Match> batched(probes.size());
  flat.LookupBatch(probes, batched);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const IpAddress probe = probes[i];
    const auto expected = oracle.LongestMatch(probe);
    const auto from_binary = binary.LongestMatch(probe);
    const auto from_patricia = patricia.LongestMatch(probe);
    const auto from_flat = flat.LongestMatch(probe);
    ASSERT_EQ(from_binary.has_value(), expected.has_value())
        << probe.ToString();
    ASSERT_EQ(from_patricia.has_value(), expected.has_value())
        << probe.ToString();
    ASSERT_EQ(from_flat.has_value(), expected.has_value())
        << probe.ToString();
    ASSERT_EQ(batched[i].value != nullptr, expected.has_value())
        << probe.ToString();
    if (!expected.has_value()) continue;
    EXPECT_EQ(from_binary->prefix, expected->prefix) << probe.ToString();
    EXPECT_EQ(*from_binary->value, *expected->value) << probe.ToString();
    EXPECT_EQ(from_patricia->prefix, expected->prefix) << probe.ToString();
    EXPECT_EQ(*from_patricia->value, *expected->value) << probe.ToString();
    EXPECT_EQ(from_flat->prefix, expected->prefix) << probe.ToString();
    EXPECT_EQ(*from_flat->value, *expected->value) << probe.ToString();
    // Batched answers are the same objects the single path returns.
    EXPECT_EQ(batched[i].prefix, expected->prefix) << probe.ToString();
    EXPECT_EQ(*batched[i].value, *expected->value) << probe.ToString();
  }
}

TEST_P(LpmAgreementSweep, AgreementSurvivesRemovals) {
  const SweepParams params = GetParam();
  synth::Rng rng(params.seed ^ 0xDEAD);

  LinearLpm<int> oracle;
  BinaryTrie<int> binary;
  PatriciaTrie<int> patricia;

  std::vector<Prefix> inserted;
  for (int i = 0; i < params.entries; ++i) {
    const Prefix prefix =
        RandomPrefix(rng, params.min_length, params.max_length);
    inserted.push_back(prefix);
    oracle.Insert(prefix, i);
    binary.Insert(prefix, i);
    patricia.Insert(prefix, i);
  }
  // Remove half the entries (some duplicates: second removal must fail).
  for (std::size_t i = 0; i < inserted.size(); i += 2) {
    const bool expected = oracle.Remove(inserted[i]);
    EXPECT_EQ(binary.Remove(inserted[i]), expected);
    EXPECT_EQ(patricia.Remove(inserted[i]), expected);
  }
  EXPECT_EQ(binary.size(), oracle.size());
  EXPECT_EQ(patricia.size(), oracle.size());
  // A post-removal recompile must reflect exactly the surviving entries.
  const FlatLpm<int> flat = CompileFrom(patricia);
  EXPECT_EQ(flat.size(), oracle.size());

  for (const IpAddress probe : ProbePoints(inserted, rng)) {
    const auto expected = oracle.LongestMatch(probe);
    const auto from_binary = binary.LongestMatch(probe);
    const auto from_patricia = patricia.LongestMatch(probe);
    const auto from_flat = flat.LongestMatch(probe);
    ASSERT_EQ(from_binary.has_value(), expected.has_value())
        << probe.ToString();
    ASSERT_EQ(from_patricia.has_value(), expected.has_value())
        << probe.ToString();
    ASSERT_EQ(from_flat.has_value(), expected.has_value())
        << probe.ToString();
    if (!expected.has_value()) continue;
    EXPECT_EQ(from_binary->prefix, expected->prefix) << probe.ToString();
    EXPECT_EQ(from_patricia->prefix, expected->prefix) << probe.ToString();
    EXPECT_EQ(from_flat->prefix, expected->prefix) << probe.ToString();
  }
}

TEST_P(LpmAgreementSweep, FlatRecompileSurvivesChurn) {
  // The engine recompiles the flat directory at every publish, so it must
  // stay bit-identical to the mutating structures through arbitrary
  // insert/remove interleavings — not just a single build.
  const SweepParams params = GetParam();
  synth::Rng rng(params.seed ^ 0xC4E7);

  LinearLpm<int> oracle;
  PatriciaTrie<int> patricia;
  std::vector<Prefix> touched;
  // Always-interesting edges: the default route and a /32 host. The
  // default route paints every root slot; the host paints exactly one
  // level-3 entry.
  touched.push_back(Prefix(IpAddress(0u), 0));
  touched.push_back(Prefix(IpAddress(0xC0A80101u), 32));

  int next_value = 0;
  for (int phase = 0; phase < 6; ++phase) {
    // Insert a batch...
    for (int i = 0; i < params.entries / 4 + 1; ++i) {
      const Prefix prefix =
          RandomPrefix(rng, params.min_length, params.max_length);
      touched.push_back(prefix);
      oracle.Insert(prefix, next_value);
      patricia.Insert(prefix, next_value);
      ++next_value;
    }
    if (phase % 2 == 0) {
      oracle.Insert(touched[0], next_value);
      patricia.Insert(touched[0], next_value);
      ++next_value;
      oracle.Insert(touched[1], next_value);
      patricia.Insert(touched[1], next_value);
      ++next_value;
    }
    // ...remove a pseudo-random third of everything ever touched (repeat
    // removals must agree on failure too)...
    for (std::size_t i = phase % 3; i < touched.size(); i += 3) {
      EXPECT_EQ(patricia.Remove(touched[i]), oracle.Remove(touched[i]));
    }
    // ...then recompile and compare — exactly what a publish does.
    const FlatLpm<int> flat = CompileFrom(patricia);
    ASSERT_EQ(flat.size(), oracle.size());
    for (const IpAddress probe : ProbePoints(touched, rng)) {
      const auto expected = oracle.LongestMatch(probe);
      const auto from_flat = flat.LongestMatch(probe);
      ASSERT_EQ(from_flat.has_value(), expected.has_value())
          << "phase " << phase << " " << probe.ToString();
      if (!expected.has_value()) continue;
      ASSERT_EQ(from_flat->prefix, expected->prefix)
          << "phase " << phase << " " << probe.ToString();
      ASSERT_EQ(*from_flat->value, *expected->value)
          << "phase " << phase << " " << probe.ToString();
    }
  }
}

TEST(FlatLpm, DefaultRouteAndHostRouteEdges) {
  // 0.0.0.0/0 answers everything; a /32 overrides exactly one address.
  std::vector<FlatLpm<int>::Entry> entries;
  entries.push_back(FlatLpm<int>::Entry{Prefix(IpAddress(0u), 0), 0, 1});
  entries.push_back(
      FlatLpm<int>::Entry{Prefix(IpAddress(0xC0A80101u), 32), 0, 2});
  const FlatLpm<int> flat = FlatLpm<int>::Compile(std::move(entries));
  ASSERT_TRUE(flat.LongestMatch(IpAddress(0u)).has_value());
  EXPECT_EQ(*flat.LongestMatch(IpAddress(0u))->value, 1);
  EXPECT_EQ(*flat.LongestMatch(IpAddress(0xFFFFFFFFu))->value, 1);
  EXPECT_EQ(*flat.LongestMatch(IpAddress(0xC0A80101u))->value, 2);
  EXPECT_EQ(flat.LongestMatch(IpAddress(0xC0A80101u))->prefix.length(), 32);
  EXPECT_EQ(*flat.LongestMatch(IpAddress(0xC0A80100u))->value, 1);
  EXPECT_EQ(*flat.LongestMatch(IpAddress(0xC0A80102u))->value, 1);
}

TEST(FlatLpm, PriorityClassBeatsLength) {
  // The primary/secondary rule the bgp layer compiles in: a higher
  // priority class wins even against a longer lower-class prefix.
  std::vector<FlatLpm<int>::Entry> entries;
  entries.push_back(
      FlatLpm<int>::Entry{Prefix(IpAddress(0x0C410000u), 16), 1, 10});
  entries.push_back(
      FlatLpm<int>::Entry{Prefix(IpAddress(0x0C418000u), 19), 0, 20});
  const FlatLpm<int> flat = FlatLpm<int>::Compile(std::move(entries));
  // Inside the /19: the /16 still wins (higher class).
  EXPECT_EQ(*flat.LongestMatch(IpAddress(0x0C418123u))->value, 10);
  EXPECT_EQ(flat.LongestMatch(IpAddress(0x0C418123u))->prefix.length(), 16);
  // Outside the /19 but inside the /16: unchanged.
  EXPECT_EQ(*flat.LongestMatch(IpAddress(0x0C410001u))->value, 10);
  // Same class, longer wins.
  entries.clear();
  entries.push_back(
      FlatLpm<int>::Entry{Prefix(IpAddress(0x0C410000u), 16), 1, 10});
  entries.push_back(
      FlatLpm<int>::Entry{Prefix(IpAddress(0x0C418000u), 19), 1, 30});
  const FlatLpm<int> same = FlatLpm<int>::Compile(std::move(entries));
  EXPECT_EQ(*same.LongestMatch(IpAddress(0x0C418123u))->value, 30);
}

TEST(FlatLpm, EmptyTableMatchesNothing) {
  const FlatLpm<int> flat;
  EXPECT_FALSE(flat.LongestMatch(IpAddress(0x01020304u)).has_value());
  EXPECT_TRUE(flat.empty());
  const std::vector<IpAddress> probes(5, IpAddress(0x01020304u));
  std::vector<FlatLpm<int>::Match> out(5);
  flat.LookupBatch(probes, out);
  for (const auto& match : out) EXPECT_EQ(match.value, nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweeps, LpmAgreementSweep,
    ::testing::Values(SweepParams{1, 16, 1, 32}, SweepParams{2, 64, 8, 24},
                      SweepParams{3, 256, 8, 30}, SweepParams{4, 512, 0, 32},
                      SweepParams{5, 1024, 16, 24},
                      SweepParams{6, 128, 24, 32},
                      SweepParams{7, 512, 1, 8},
                      SweepParams{8, 2048, 8, 32}));

// ---------------------------------------------------------------------------
// Churn equivalence: the incremental recompile the live-update path uses
// must be indistinguishable from a from-scratch compile after ANY
// interleaving of announces and withdraws. Deltas are CHAINED the way the
// engine chains them (each built from the previous delta's output, never
// from a fresh full compile), and every phase forces the edges that break
// directory painters: default-route flips (repaints every root slot),
// /32 host routes (a single level-3 slot), and sub-/16 prefixes spanning
// many root slots.

class ChurnEquivalenceSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(ChurnEquivalenceSweep, DeltaChainMatchesFullCompileAndOracle) {
  const SweepParams params = GetParam();
  synth::Rng rng(params.seed ^ 0x5EEDu);

  bgp::PrefixTable table;
  const int source = table.AddSource(
      {"CHURN", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
  ASSERT_GE(source, 0);

  bgp::PrefixTable::Flat flat;  // the chained delta output
  std::vector<Prefix> ever;     // everything ever announced
  const Prefix default_route(IpAddress(0u), 0);
  const Prefix host(IpAddress(0xC0A80101u), 32);

  bgp::AsNumber as = 64500;
  for (int phase = 0; phase < 8; ++phase) {
    std::vector<Prefix> changed;
    // A batch of random announces (some overwrite attempts — only actual
    // table changes enter `changed`, matching what the engine reports).
    for (int i = 0; i < params.entries / 4 + 1; ++i) {
      const Prefix prefix =
          RandomPrefix(rng, params.min_length, params.max_length);
      if (table.Insert(prefix, source, ++as)) changed.push_back(prefix);
      ever.push_back(prefix);
    }
    // Withdraw a pseudo-random third of everything ever announced (many
    // are repeats: a withdraw of an absent prefix must stay OUT of the
    // changed set, like the engine's counted no-op).
    for (std::size_t i = phase % 3; i < ever.size(); i += 3) {
      if (table.Remove(ever[i])) changed.push_back(ever[i]);
    }
    // Flip the always-interesting edges on alternating phases.
    if (phase % 2 == 0) {
      if (table.Insert(default_route, source, 64000)) {
        changed.push_back(default_route);
      }
      if (table.Insert(host, source, 64001)) changed.push_back(host);
    } else {
      if (table.Remove(default_route)) changed.push_back(default_route);
      if (table.Remove(host)) changed.push_back(host);
    }

    flat = table.CompileFlatDelta(flat, changed);
    const bgp::PrefixTable::Flat full = table.CompileFlat();
    ASSERT_EQ(flat.ResolvesIdentically(full), true) << "phase " << phase;
    ASSERT_EQ(full.ResolvesIdentically(flat), true) << "phase " << phase;

    // Spot-probe against the mutating table (the Patricia-backed oracle):
    // the structural equivalence above and the behavioural check here
    // must agree or ResolvesIdentically itself is wrong.
    for (const IpAddress probe : ProbePoints(ever, rng)) {
      const auto expected = table.LongestMatch(probe);
      const auto got = flat.LongestMatch(probe);
      ASSERT_EQ(got.has_value(), expected.has_value())
          << "phase " << phase << " " << probe.ToString();
      if (!expected.has_value()) continue;
      ASSERT_EQ(got->prefix, expected->prefix)
          << "phase " << phase << " " << probe.ToString();
      ASSERT_EQ(got->value->origin_as, expected->origin_as)
          << "phase " << phase << " " << probe.ToString();
      ASSERT_EQ(got->value->source_mask, expected->source_mask)
          << "phase " << phase << " " << probe.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomChurn, ChurnEquivalenceSweep,
    ::testing::Values(SweepParams{11, 32, 0, 32},   // default routes in band
                      SweepParams{12, 128, 8, 24},
                      SweepParams{13, 256, 1, 15},  // sub-/16, spans roots
                      SweepParams{14, 256, 24, 32}, // deep, level-3 heavy
                      SweepParams{15, 512, 8, 32}));

// The delta publish's double-buffer contract, raced for real: LookupBatch
// readers hammer snapshots acquired from an RcuTableSlot while the
// publisher chains delta publishes through it. Every answer must be
// coherent — the winning prefix covers the probe, is one of the prefixes
// that can legally cover it at any point of the churn, and the stored
// payload agrees with the winning prefix (a torn directory would break
// one of these, and TSan — which runs this file in CI — would flag the
// racing access itself).
TEST(FlatChurn, ConcurrentLookupBatchSurvivesDeltaPublishes) {
  bgp::RcuTableSlot slot;
  base::AssumeThreadRole publisher(slot.publisher_role());

  bgp::PrefixTable master;
  const int source = master.AddSource(
      {"LIVE", "1/1/2000", bgp::SourceKind::kBgpTable, ""});
  ASSERT_GE(source, 0);
  const Prefix covering(IpAddress(10, 0, 0, 0), 8);
  ASSERT_TRUE(master.Insert(covering, source, 65000));
  {
    const std::vector<Prefix> seeded = {covering};
    slot.Publish(master.CompileFlatDelta(slot.Acquire().flat(), seeded));
  }

  // One churning /24 in each of 16 distinct /16 root slots.
  std::vector<Prefix> churning;
  for (std::uint32_t i = 0; i < 16; ++i) {
    churning.push_back(
        Prefix(IpAddress(0x0A000000u | (i << 16) | (i << 8)), 24));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> incoherent{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&churning, &slot, &stop, &incoherent, covering] {
      std::vector<IpAddress> probes;
      for (const Prefix& prefix : churning) {
        probes.push_back(prefix.first_address());
        probes.push_back(prefix.last_address());
      }
      std::vector<bgp::PrefixTable::Flat::Match> out(probes.size());
      while (!stop.load(std::memory_order_relaxed)) {
        const bgp::TableHandle handle = slot.Acquire();
        handle.flat().LookupBatch(probes, out);
        for (std::size_t i = 0; i < probes.size(); ++i) {
          // The covering /8 is never withdrawn, so a miss is a tear.
          if (out[i].value == nullptr) {
            incoherent.fetch_add(1);
            continue;
          }
          const Prefix& won = out[i].prefix;
          if (!(won == covering || won == churning[i / 2])) {
            incoherent.fetch_add(1);
          }
          if (out[i].value->prefix != won) incoherent.fetch_add(1);
        }
      }
    });
  }

  for (int round = 0; round < 400; ++round) {
    const Prefix& flip = churning[static_cast<std::size_t>(round) %
                                  churning.size()];
    if (master.Contains(flip)) {
      ASSERT_TRUE(master.Remove(flip));
    } else {
      ASSERT_TRUE(master.Insert(
          flip, source, 64512 + static_cast<bgp::AsNumber>(round % 7)));
    }
    const std::vector<Prefix> changed = {flip};
    slot.Publish(master.CompileFlatDelta(slot.Acquire().flat(), changed));
  }
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(incoherent.load(), 0)
      << "a LookupBatch observed a torn or stale-mixed directory";
}

}  // namespace
}  // namespace netclust::trie
