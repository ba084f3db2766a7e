// Replays every checked-in fuzz corpus file (tests/corpus/) through every
// fuzz harness entry point. The harnesses abort on any violated decode or
// round-trip property, so this test keeps the whole bug crop fixed in the
// default ctest run even on toolchains without libFuzzer.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bgp/mrt.h"
#include "fuzz/harness.h"
#include "server/proto.h"

namespace {

namespace fs = std::filesystem;

std::vector<fs::path> CorpusFiles() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(
           fs::path(NETCLUST_CORPUS_DIR))) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<std::uint8_t> ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

using Harness = void (*)(const std::uint8_t*, std::size_t);

// Every file goes through every harness: the harnesses must be robust to
// foreign-format bytes (an MRT stream fed to the CLF parser is just a
// malformed log), and cross-replay has caught real over-strict asserts.
void ReplayAll(Harness harness) {
  const std::vector<fs::path> files = CorpusFiles();
  ASSERT_GT(files.size(), 10u) << "corpus missing; regenerate with make_corpus";
  for (const auto& file : files) {
    SCOPED_TRACE(file.string());
    const std::vector<std::uint8_t> bytes = ReadAll(file);
    harness(bytes.data(), bytes.size());
  }
}

TEST(CorpusRegressionTest, Mrt) { ReplayAll(netclust::fuzz::FuzzMrt); }

TEST(CorpusRegressionTest, TextParser) {
  ReplayAll(netclust::fuzz::FuzzTextParser);
}

TEST(CorpusRegressionTest, Clf) { ReplayAll(netclust::fuzz::FuzzClf); }

TEST(CorpusRegressionTest, Roundtrip) {
  ReplayAll(netclust::fuzz::FuzzRoundtrip);
}

TEST(CorpusRegressionTest, Proto) { ReplayAll(netclust::fuzz::FuzzProto); }

// The length-cap seeds sit on their bounds: exactly at the cap is accepted,
// one past it is refused, and the stream carries on after the refusal.
TEST(CorpusRegressionTest, LengthCapSeedsStraddleTheirBounds) {
  const fs::path corpus(NETCLUST_CORPUS_DIR);
  const auto mrt_stats = [&corpus](const char* name) {
    const std::vector<std::uint8_t> bytes = ReadAll(corpus / "mrt" / name);
    netclust::bgp::Bgp4mpStream stream;
    stream.Feed(bytes.data(), bytes.size());
    stream.Finish();
    while (stream.Next().has_value()) {
    }
    return stream.stats();
  };
  const netclust::bgp::Bgp4mpStats at = mrt_stats("seed-bgp4mp-record-at-cap");
  EXPECT_EQ(at.truncated_records, 0u);
  EXPECT_EQ(at.records, 2u);
  EXPECT_EQ(at.updates, 1u);
  const netclust::bgp::Bgp4mpStats past =
      mrt_stats("seed-bgp4mp-record-past-cap");
  EXPECT_EQ(past.truncated_records, 1u);
  EXPECT_EQ(past.updates, 1u);  // resynced onto the record behind it

  const auto frame_ok = [&corpus](const char* name) {
    const std::vector<std::uint8_t> bytes = ReadAll(corpus / "proto" / name);
    netclust::server::FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    const auto next = decoder.Next();
    // A header-only seed never completes a frame; it either parks or fails.
    EXPECT_FALSE(next.ok() && next.value().has_value()) << name;
    return next.ok();
  };
  EXPECT_TRUE(frame_ok("seed-payload-at-cap"));
  EXPECT_FALSE(frame_ok("seed-payload-past-cap"));
}

}  // namespace
