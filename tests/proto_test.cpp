// Unit tests for the netclustd wire protocol (src/server/proto.h): frame
// layout, the incremental stream decoder, and every payload codec's
// round-trip + strictness properties. The fuzz harness (FuzzProto)
// enforces the same invariants over arbitrary bytes; these tests pin the
// concrete byte layouts and the specific rejection reasons.
#include "server/proto.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bgp/update.h"
#include "net/ip_address.h"
#include "net/prefix.h"

namespace netclust::server {
namespace {

using net::IpAddress;
using net::Prefix;

Prefix P(const char* text) { return Prefix::Parse(text).value(); }

std::vector<std::uint8_t> Bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(ProtoPrimitives, BigEndianRoundTrip) {
  std::vector<std::uint8_t> buf;
  PutU16(&buf, 0x4E43);
  PutU32(&buf, 0xDEADBEEF);
  PutU64(&buf, 0x0123456789ABCDEFull);
  ASSERT_EQ(buf.size(), 14u);
  EXPECT_EQ(GetU16(buf.data()), 0x4E43);
  EXPECT_EQ(GetU32(buf.data() + 2), 0xDEADBEEFu);
  EXPECT_EQ(GetU64(buf.data() + 6), 0x0123456789ABCDEFull);
  // Network byte order on the wire: most significant byte first.
  EXPECT_EQ(buf[0], 0x4E);
  EXPECT_EQ(buf[1], 0x43);
  EXPECT_EQ(buf[2], 0xDE);
}

TEST(FrameCodec, EncodesTheDocumentedLayout) {
  const auto frame = EncodeFrame(Opcode::kPing, Bytes({0xAA, 0xBB}));
  EXPECT_EQ(frame, Bytes({0x4E, 0x43, 0x01, 0x01, 0, 0, 0, 2, 0xAA, 0xBB}));
}

TEST(FrameCodec, HeaderRoundTrips) {
  const auto frame = EncodeFrame(Opcode::kBatchLookup, Bytes({0, 0, 0, 0}));
  const auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok()) << header.error();
  EXPECT_EQ(header.value().version, kProtoVersion);
  EXPECT_EQ(header.value().opcode, Opcode::kBatchLookup);
  EXPECT_EQ(header.value().payload_size, 4u);
}

TEST(FrameCodec, RejectsBadHeaders) {
  auto frame = EncodeFrame(Opcode::kPing, {});
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), 7).ok()) << "truncated";

  auto bad_magic = frame;
  bad_magic[1] = 0x44;
  EXPECT_FALSE(DecodeFrameHeader(bad_magic.data(), bad_magic.size()).ok());

  auto bad_version = frame;
  bad_version[2] = 9;
  EXPECT_FALSE(DecodeFrameHeader(bad_version.data(), bad_version.size()).ok());

  auto bad_opcode = frame;
  bad_opcode[3] = 0x7F;
  EXPECT_FALSE(DecodeFrameHeader(bad_opcode.data(), bad_opcode.size()).ok());

  auto oversized = frame;
  oversized[4] = 0x7F;  // payload length 0x7F000000 > kMaxPayload
  EXPECT_FALSE(DecodeFrameHeader(oversized.data(), oversized.size()).ok());
}

TEST(FrameDecoderTest, ReassemblesFramesFedOneByteAtATime) {
  std::vector<std::uint8_t> stream = EncodeFrame(
      Opcode::kBatchLookup, EncodeBatchLookup({{IpAddress(12, 65, 143, 222)}}));
  const auto ping = EncodeFrame(Opcode::kPing, Bytes({0x01}));
  stream.insert(stream.end(), ping.begin(), ping.end());

  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    decoder.Feed(&byte, 1);
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok()) << next.error();
    if (next.value().has_value()) frames.push_back(*std::move(next).value());
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].header.opcode, Opcode::kBatchLookup);
  EXPECT_EQ(frames[1].header.opcode, Opcode::kPing);
  EXPECT_EQ(frames[1].payload, Bytes({0x01}));
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, DrainsMultipleFramesFromOneFeed) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    const auto frame = EncodeFrame(Opcode::kStats, {});
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  for (int i = 0; i < 3; ++i) {
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.value().has_value());
    EXPECT_EQ(next.value()->header.opcode, Opcode::kStats);
  }
  auto done = decoder.Next();
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done.value().has_value());
}

TEST(FrameDecoderTest, SurfacesProtocolViolations) {
  FrameDecoder decoder;
  const auto junk = Bytes({0xFF, 0xFF, 0, 0, 0, 0, 0, 0});
  decoder.Feed(junk.data(), junk.size());
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(BatchLookupCodec, RoundTripsIncludingEmpty) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{3}}) {
    BatchLookupRequest req;
    for (std::size_t i = 0; i < n; ++i) {
      req.addresses.emplace_back(static_cast<std::uint32_t>(0x0A000000 + i));
    }
    const auto bytes = EncodeBatchLookup(req);
    const auto decoded = DecodeBatchLookup(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded.value(), req);
  }
}

TEST(BatchLookupCodec, RejectsCountAndLengthDisagreement) {
  BatchLookupRequest req;
  req.addresses.emplace_back(std::uint32_t{1});
  auto bytes = EncodeBatchLookup(req);
  // Count claims 7 addresses, payload carries one.
  bytes[3] = 7;
  EXPECT_FALSE(DecodeBatchLookup(bytes.data(), bytes.size()).ok());
  // Count above the bound is rejected before any length math.
  std::vector<std::uint8_t> huge;
  PutU32(&huge, kMaxBatch + 1);
  EXPECT_FALSE(DecodeBatchLookup(huge.data(), huge.size()).ok());
}

TEST(IngestCodec, RoundTripsAnEmbeddedBgpUpdate) {
  IngestRequest req;
  req.source_id = 3;
  req.update.withdrawn = {P("192.0.2.0/24")};
  req.update.announced = {P("10.0.1.0/24"), P("151.198.192.0/18")};
  req.update.as_path = {7018, 1742};
  const auto bytes = EncodeIngest(req);
  const auto decoded = DecodeIngest(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().source_id, 3u);
  EXPECT_EQ(decoded.value().update.withdrawn, req.update.withdrawn);
  EXPECT_EQ(decoded.value().update.announced, req.update.announced);
}

TEST(IngestCodec, RejectsTrailingBytes) {
  IngestRequest req;
  req.update.announced = {P("10.0.0.0/8")};
  req.update.as_path = {65000};
  auto bytes = EncodeIngest(req);
  bytes.push_back(0x00);
  EXPECT_FALSE(DecodeIngest(bytes.data(), bytes.size()).ok());
  EXPECT_FALSE(DecodeIngest(bytes.data(), 3).ok()) << "truncated";
}

TEST(LookupRecordCodec, RoundTripsFoundAndAbsent) {
  LookupRecord found;
  found.found = true;
  found.prefix = P("12.65.128.0/19");
  found.kind = bgp::SourceKind::kNetworkDump;
  found.origin_as = 7018;
  found.source_mask = 0x5;
  const auto bytes = EncodeLookupRecord(found);
  ASSERT_EQ(bytes.size(), kLookupRecordSize);
  const auto decoded = DecodeLookupRecord(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), found);

  const LookupRecord absent;
  const auto absent_bytes = EncodeLookupRecord(absent);
  EXPECT_EQ(absent_bytes, std::vector<std::uint8_t>(kLookupRecordSize, 0));
  const auto absent_decoded =
      DecodeLookupRecord(absent_bytes.data(), absent_bytes.size());
  ASSERT_TRUE(absent_decoded.ok());
  EXPECT_EQ(absent_decoded.value(), absent);
}

TEST(LookupRecordCodec, RejectsNonCanonicalForms) {
  std::vector<std::uint8_t> absent(kLookupRecordSize, 0);
  auto sneaky = absent;
  sneaky[8] = 0x1B;  // origin AS on an absent record
  EXPECT_FALSE(DecodeLookupRecord(sneaky.data(), sneaky.size()).ok());

  LookupRecord found;
  found.found = true;
  found.prefix = P("10.0.0.0/8");
  const auto bytes = EncodeLookupRecord(found);
  auto host_bits = bytes;
  host_bits[7] = 0x01;  // 10.0.0.1/8 — host bits below the mask
  EXPECT_FALSE(DecodeLookupRecord(host_bits.data(), host_bits.size()).ok());
  auto bad_kind = bytes;
  bad_kind[2] = 2;
  EXPECT_FALSE(DecodeLookupRecord(bad_kind.data(), bad_kind.size()).ok());
  auto bad_len = bytes;
  bad_len[1] = 33;
  EXPECT_FALSE(DecodeLookupRecord(bad_len.data(), bad_len.size()).ok());
  auto reserved = bytes;
  reserved[3] = 1;
  EXPECT_FALSE(DecodeLookupRecord(reserved.data(), reserved.size()).ok());
  auto bad_flag = bytes;
  bad_flag[0] = 2;
  EXPECT_FALSE(DecodeLookupRecord(bad_flag.data(), bad_flag.size()).ok());
  EXPECT_FALSE(DecodeLookupRecord(bytes.data(), 15).ok()) << "short";
}

TEST(LookupRecordCodec, ConvertsToAndFromEngineMatches) {
  EXPECT_EQ(LookupRecord::FromMatch(std::nullopt).ToMatch(), std::nullopt);
  const bgp::PrefixTable::Match match{P("24.48.0.0/13"),
                                      bgp::SourceKind::kBgpTable, 0x3, 1742};
  const LookupRecord record = LookupRecord::FromMatch(match);
  ASSERT_TRUE(record.found);
  const auto back = record.ToMatch();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->prefix, match.prefix);
  EXPECT_EQ(back->kind, match.kind);
  EXPECT_EQ(back->source_mask, match.source_mask);
  EXPECT_EQ(back->origin_as, match.origin_as);
}

TEST(BatchResultCodec, RoundTripsAndValidatesEveryRecord) {
  LookupRecord found;
  found.found = true;
  found.prefix = P("128.6.0.0/16");
  found.origin_as = 46;
  const std::vector<LookupRecord> records{found, LookupRecord{}};
  const auto bytes = EncodeBatchResult(records);
  const auto decoded = DecodeBatchResult(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), records);

  auto lying = bytes;
  lying[3] = 9;  // count disagrees with the byte length
  EXPECT_FALSE(DecodeBatchResult(lying.data(), lying.size()).ok());
  auto corrupt = bytes;
  corrupt[4 + 3] = 1;  // first record's reserved byte
  EXPECT_FALSE(DecodeBatchResult(corrupt.data(), corrupt.size()).ok());
}

TEST(IngestAckCodec, RoundTrips) {
  const IngestAck ack{0x1122334455667788ull};
  const auto bytes = EncodeIngestAck(ack);
  ASSERT_EQ(bytes.size(), 8u);
  const auto decoded = DecodeIngestAck(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), ack);
  EXPECT_FALSE(DecodeIngestAck(bytes.data(), 7).ok());
}

TEST(ErrorCodec, RoundTripsAndBoundsTheCode) {
  const ErrorReply error{ErrorCode::kUnsupportedOpcode, "no such opcode"};
  const auto bytes = EncodeError(error);
  const auto decoded = DecodeError(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), error);

  auto bad = bytes;
  bad[0] = 0;
  EXPECT_FALSE(DecodeError(bad.data(), bad.size()).ok());
  bad[0] = 5;
  EXPECT_FALSE(DecodeError(bad.data(), bad.size()).ok());
  EXPECT_FALSE(DecodeError(bad.data(), 0).ok());
}

// --- cluster-mode codecs ---

Topology SmallTopology() {
  Topology topo;
  topo.epoch = 3;
  topo.nodes = {NodeInfo{1, IpAddress(127, 0, 0, 1), 4730},
                NodeInfo{2, IpAddress(127, 0, 0, 1), 4731},
                NodeInfo{5, IpAddress(10, 0, 0, 9), 4732}};
  topo.ranges = {ShardRange{0, 20'000, 0}, ShardRange{20'000, 30'000, 2},
                 ShardRange{50'000, kShardBlockCount - 50'000, 1}};
  return topo;
}

TEST(TopologyCodec, EncodesTheDocumentedLayout) {
  const Topology topo = SmallTopology();
  const std::vector<std::uint8_t> wire = EncodeTopology(topo);
  // u64 epoch + u16 node count + 3 x (u32 id, u32 host, u16 port)
  // + u32 range count + 3 x (u32 first, u32 count, u16 node_index).
  ASSERT_EQ(wire.size(), 8u + 2 + 3 * 10 + 4 + 3 * 10);
  EXPECT_EQ(GetU64(wire.data()), 3u);
  EXPECT_EQ(GetU16(wire.data() + 8), 3u);
  EXPECT_EQ(GetU32(wire.data() + 10), 1u);          // first node id
  EXPECT_EQ(GetU32(wire.data() + 14), 0x7F000001u); // 127.0.0.1
  EXPECT_EQ(GetU16(wire.data() + 18), 4730u);
  EXPECT_EQ(GetU32(wire.data() + 40), 3u);          // range count
  EXPECT_EQ(GetU32(wire.data() + 44), 0u);          // first range start
  EXPECT_EQ(GetU16(wire.data() + 52), 0u);          // first range owner

  const Result<Topology> decoded = DecodeTopology(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), topo);
  EXPECT_EQ(EncodeTopology(decoded.value()), wire);
}

TEST(TopologyCodec, DecoderEnforcesCanonicalForm) {
  // A coverage gap.
  Topology gap = SmallTopology();
  gap.ranges[1].block_count -= 1;
  auto wire = EncodeTopology(gap);
  EXPECT_FALSE(DecodeTopology(wire.data(), wire.size()).ok());

  // An overlap.
  Topology overlap = SmallTopology();
  overlap.ranges[1].first_block -= 1;
  overlap.ranges[1].block_count += 1;
  wire = EncodeTopology(overlap);
  EXPECT_FALSE(DecodeTopology(wire.data(), wire.size()).ok());

  // Node ids must be strictly increasing.
  Topology unsorted = SmallTopology();
  std::swap(unsorted.nodes[0], unsorted.nodes[2]);
  wire = EncodeTopology(unsorted);
  EXPECT_FALSE(DecodeTopology(wire.data(), wire.size()).ok());

  // A range pointing past the node table.
  Topology dangling = SmallTopology();
  dangling.ranges[0].node_index = 3;
  wire = EncodeTopology(dangling);
  EXPECT_FALSE(DecodeTopology(wire.data(), wire.size()).ok());

  // Adjacent ranges with the same owner must have been merged.
  Topology unmerged = SmallTopology();
  unmerged.ranges[1].node_index = 0;
  wire = EncodeTopology(unmerged);
  EXPECT_FALSE(DecodeTopology(wire.data(), wire.size()).ok());

  // An empty range.
  Topology empty_range = SmallTopology();
  empty_range.ranges[0].first_block = 20'000;
  empty_range.ranges[0].block_count = 0;
  wire = EncodeTopology(empty_range);
  EXPECT_FALSE(DecodeTopology(wire.data(), wire.size()).ok());

  // No nodes at all.
  Topology no_nodes = SmallTopology();
  no_nodes.nodes.clear();
  no_nodes.ranges.clear();
  wire = EncodeTopology(no_nodes);
  EXPECT_FALSE(DecodeTopology(wire.data(), wire.size()).ok());

  // Every truncation is rejected cleanly.
  wire = EncodeTopology(SmallTopology());
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(DecodeTopology(wire.data(), cut).ok()) << "cut " << cut;
  }
}

TEST(CompiledOwners, ExpandRangesAndResolveNodeIds) {
  const Topology topo = SmallTopology();
  const std::vector<std::uint16_t> owner = CompileOwners(topo);
  ASSERT_EQ(owner.size(), kShardBlockCount);
  EXPECT_EQ(owner[0], 0);
  EXPECT_EQ(owner[19'999], 0);
  EXPECT_EQ(owner[20'000], 2);
  EXPECT_EQ(owner[49'999], 2);
  EXPECT_EQ(owner[50'000], 1);
  EXPECT_EQ(owner[kShardBlockCount - 1], 1);

  EXPECT_EQ(NodeIndexOf(topo, 1), 0);
  EXPECT_EQ(NodeIndexOf(topo, 5), 2);
  EXPECT_EQ(NodeIndexOf(topo, 4), -1);
}

TEST(ClusterLookupCodec, RoundTripsAndBoundsTheCount) {
  ClusterLookupRequest req;
  req.epoch = 9;
  req.addresses = {IpAddress(10, 1, 2, 3), IpAddress(151, 198, 200, 40)};
  const std::vector<std::uint8_t> wire = EncodeClusterLookup(req);
  ASSERT_EQ(wire.size(), 8u + 4 + 2 * 4);
  EXPECT_EQ(GetU64(wire.data()), 9u);
  EXPECT_EQ(GetU32(wire.data() + 8), 2u);
  EXPECT_EQ(GetU32(wire.data() + 12), IpAddress(10, 1, 2, 3).bits());

  const auto decoded = DecodeClusterLookup(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), req);
  EXPECT_EQ(EncodeClusterLookup(decoded.value()), wire);

  // Count and length must agree.
  std::vector<std::uint8_t> lying = wire;
  lying.push_back(0);
  EXPECT_FALSE(DecodeClusterLookup(lying.data(), lying.size()).ok());
  std::vector<std::uint8_t> overcount;
  PutU64(&overcount, 1);
  PutU32(&overcount, kMaxBatch + 1);
  for (std::uint32_t i = 0; i < kMaxBatch + 1; ++i) PutU32(&overcount, i);
  EXPECT_FALSE(DecodeClusterLookup(overcount.data(), overcount.size()).ok());

  // One lookup grammar: behind the epoch, every one of these inputs is
  // accepted or rejected exactly as a BATCH_LOOKUP payload.
  EXPECT_FALSE(DecodeClusterLookup(wire.data(), 7).ok());  // torn epoch
  for (const std::vector<std::uint8_t>& input :
       {wire, lying, overcount, std::vector<std::uint8_t>(wire.begin(),
                                                          wire.begin() + 10),
        EncodeClusterLookup({3, {}})}) {
    const auto cluster = DecodeClusterLookup(input.data(), input.size());
    const auto batch = DecodeBatchLookup(input.data() + 8, input.size() - 8);
    ASSERT_EQ(cluster.ok(), batch.ok());
    if (cluster.ok()) {
      EXPECT_EQ(cluster.value().addresses, batch.value().addresses);
    }
  }
}

TEST(RedirectCodec, RoundTripsBothReasonsAndRejectsOthers) {
  for (const RedirectReason reason :
       {RedirectReason::kStaleEpoch, RedirectReason::kNotOwner}) {
    RedirectReply redirect;
    redirect.reason = reason;
    redirect.epoch = 77;
    const std::vector<std::uint8_t> wire = EncodeRedirect(redirect);
    ASSERT_EQ(wire.size(), 9u);
    EXPECT_EQ(wire[0], static_cast<std::uint8_t>(reason));
    EXPECT_EQ(GetU64(wire.data() + 1), 77u);
    const auto decoded = DecodeRedirect(wire.data(), wire.size());
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded.value(), redirect);
  }
  const auto bad_reason = Bytes({0, 0, 0, 0, 0, 0, 0, 0, 77});
  EXPECT_FALSE(DecodeRedirect(bad_reason.data(), bad_reason.size()).ok());
  const auto short_frame = Bytes({1, 0, 0, 0});
  EXPECT_FALSE(DecodeRedirect(short_frame.data(), short_frame.size()).ok());
}

TEST(ClusterStatsCodec, RoundTripsTheFixedRecord) {
  ClusterStatsRecord record;
  record.epoch = 4;
  record.node_id = 2;
  record.frames_decoded = 100;
  record.lookups_served = 90;
  record.cluster_lookups_served = 80;
  record.ingests_applied = 7;
  record.busy_replies = 3;
  record.errors_sent = 1;
  record.redirects_sent = 5;
  record.connections_active = 6;
  record.latency_sum_ns = 123'456;
  for (std::size_t i = 0; i < kStatsLatencyBuckets; ++i) {
    record.latency_buckets[i] = i * i;
  }
  const std::vector<std::uint8_t> wire = EncodeClusterStats(record);
  ASSERT_EQ(wire.size(), kClusterStatsRecordSize);
  const auto decoded = DecodeClusterStats(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), record);
  EXPECT_EQ(EncodeClusterStats(decoded.value()), wire);
  // The record is fixed-size: anything else is rejected.
  EXPECT_FALSE(DecodeClusterStats(wire.data(), wire.size() - 1).ok());
  std::vector<std::uint8_t> longer = wire;
  longer.push_back(0);
  EXPECT_FALSE(DecodeClusterStats(longer.data(), longer.size()).ok());
}

TEST(TopologyAckCodec, RoundTripsTheEpoch) {
  const std::vector<std::uint8_t> wire = EncodeTopologyAck(12);
  ASSERT_EQ(wire.size(), 8u);
  EXPECT_EQ(GetU64(wire.data()), 12u);
  const auto decoded = DecodeTopologyAck(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), 12u);
  EXPECT_FALSE(DecodeTopologyAck(wire.data(), 7).ok());
}

TEST(RankCodec, RequestRoundTripsAndRejectsWrongSize) {
  const RankRequest req{3, IpAddress(151, 198, 194, 17)};
  const std::vector<std::uint8_t> wire = EncodeRank(req);
  ASSERT_EQ(wire.size(), 12u);
  EXPECT_EQ(GetU64(wire.data()), 3u);
  EXPECT_EQ(GetU32(wire.data() + 8), req.address.bits());
  const auto decoded = DecodeRank(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), req);
  EXPECT_EQ(EncodeRank(decoded.value()), wire);
  EXPECT_FALSE(DecodeRank(wire.data(), 11).ok());
  EXPECT_FALSE(DecodeRank(wire.data(), 13).ok());
}

TEST(RankCodec, ReplyRoundTripsIncludingEmptyAndBoundsTheCount) {
  RankReply reply;
  reply.epoch = 3;
  reply.cluster_as = 1742;
  reply.servers = {2, 0, 5, 1};
  const std::vector<std::uint8_t> wire = EncodeRankReply(reply);
  ASSERT_EQ(wire.size(), 8u + 4 + 2 + 4 * 2);
  EXPECT_EQ(GetU32(wire.data() + 8), 1742u);
  EXPECT_EQ(GetU16(wire.data() + 12), 4u);
  EXPECT_EQ(GetU16(wire.data() + 14), 2u);  // order preserved, best first
  const auto decoded = DecodeRankReply(wire.data(), wire.size());
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value(), reply);
  EXPECT_EQ(EncodeRankReply(decoded.value()), wire);

  // Empty ranking (no rank table installed) is a legal reply.
  RankReply empty;
  empty.epoch = 1;
  const std::vector<std::uint8_t> none = EncodeRankReply(empty);
  ASSERT_EQ(none.size(), 14u);
  const auto redecoded = DecodeRankReply(none.data(), none.size());
  ASSERT_TRUE(redecoded.ok());
  EXPECT_TRUE(redecoded.value().servers.empty());

  // Count and length must agree, and the count is bounded.
  std::vector<std::uint8_t> lying = wire;
  lying.push_back(0);
  EXPECT_FALSE(DecodeRankReply(lying.data(), lying.size()).ok());
  std::vector<std::uint8_t> overcount;
  PutU64(&overcount, 1);
  PutU32(&overcount, 1742);
  PutU16(&overcount, static_cast<std::uint16_t>(kMaxRankServers + 1));
  for (std::uint32_t i = 0; i <= kMaxRankServers; ++i) {
    PutU16(&overcount, static_cast<std::uint16_t>(i));
  }
  EXPECT_FALSE(DecodeRankReply(overcount.data(), overcount.size()).ok());
}

TEST(FrameDecoderViews, NextViewMatchesNextByteForByte) {
  // NextView() is the reactor fast path: same frames, zero copies. Drive
  // two decoders with the identical byte stream in awkward chunk sizes
  // and require view and value decodes to agree exactly.
  std::vector<std::uint8_t> stream;
  const auto append = [&stream](const std::vector<std::uint8_t>& wire) {
    stream.insert(stream.end(), wire.begin(), wire.end());
  };
  append(EncodeFrame(Opcode::kPing, {1, 2, 3}));
  append(EncodeFrame(Opcode::kRank,
                     EncodeRank({0, IpAddress(151, 198, 200, 40)})));
  BatchLookupRequest batch;
  batch.addresses = {IpAddress(10, 0, 0, 1), IpAddress(192, 0, 2, 9)};
  append(EncodeFrame(Opcode::kBatchLookup, EncodeBatchLookup(batch)));
  append(EncodeFrame(Opcode::kStats, {}));

  FrameDecoder by_value;
  FrameDecoder by_view;
  std::vector<Frame> values;
  std::vector<Frame> views;
  std::size_t offset = 0;
  std::size_t chunk = 1;
  while (offset < stream.size()) {
    const std::size_t n = std::min(chunk, stream.size() - offset);
    by_value.Feed(stream.data() + offset, n);
    by_view.Feed(stream.data() + offset, n);
    offset += n;
    chunk = chunk * 2 + 1;  // 1, 3, 7, ... — split across every boundary
    while (true) {
      auto frame = by_value.Next();
      ASSERT_TRUE(frame.ok()) << frame.error();
      if (!frame.value().has_value()) break;
      values.push_back(std::move(*frame.value()));
    }
    while (true) {
      auto view = by_view.NextView();
      ASSERT_TRUE(view.ok()) << view.error();
      if (!view.value().has_value()) break;
      Frame copied;
      copied.header = view.value()->header;
      copied.payload.assign(
          view.value()->payload,
          view.value()->payload + view.value()->header.payload_size);
      views.push_back(std::move(copied));
    }
  }
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values, views);
  EXPECT_EQ(by_view.buffered(), 0u);

  // Both variants reject the same garbage.
  FrameDecoder bad;
  const std::vector<std::uint8_t> junk(kHeaderSize, 0xFF);
  bad.Feed(junk.data(), junk.size());
  EXPECT_FALSE(bad.NextView().ok());
}

TEST(BatchLookupCodec, DecodeIntoMatchesDecodeAndReusesCapacity) {
  BatchLookupRequest request;
  for (std::uint32_t i = 0; i < 300; ++i) {
    request.addresses.emplace_back((10u << 24) | (i * 7919u));
  }
  const std::vector<std::uint8_t> wire = EncodeBatchLookup(request);

  const auto boxed = DecodeBatchLookup(wire.data(), wire.size());
  ASSERT_TRUE(boxed.ok()) << boxed.error();

  std::vector<IpAddress> into;
  const auto count = DecodeBatchLookupInto(wire.data(), wire.size(), &into);
  ASSERT_TRUE(count.ok()) << count.error();
  EXPECT_EQ(count.value(), request.addresses.size());
  EXPECT_EQ(into, boxed.value().addresses);

  // The out-vector is a reusable scratch buffer: decoding a smaller batch
  // into it must clear the stale tail, not append.
  BatchLookupRequest small;
  small.addresses = {IpAddress(192, 0, 2, 1)};
  const std::vector<std::uint8_t> small_wire = EncodeBatchLookup(small);
  const auto again =
      DecodeBatchLookupInto(small_wire.data(), small_wire.size(), &into);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 1u);
  ASSERT_EQ(into.size(), 1u);
  EXPECT_EQ(into[0], IpAddress(192, 0, 2, 1));

  // Same strictness as the boxed decode: truncated payloads are rejected.
  EXPECT_FALSE(DecodeBatchLookupInto(wire.data(), wire.size() - 1, &into).ok());
  EXPECT_FALSE(DecodeBatchLookupInto(wire.data(), 3, &into).ok());
}

TEST(BatchResultCodec, AppendBatchResultFrameIsByteIdenticalToEncodeFrame) {
  // The reactor writes BATCH_RESULT frames straight from the engine's
  // match array; the slow path goes Match -> LookupRecord ->
  // EncodeBatchResult -> EncodeFrame. The two must produce the same
  // bytes, or pipelined clients would see the data plane's answers
  // diverge from the documented codec.
  std::vector<std::optional<bgp::PrefixTable::Match>> matches;
  matches.push_back(std::nullopt);
  matches.push_back(bgp::PrefixTable::Match{
      P("151.198.192.0/18"), bgp::SourceKind::kBgpTable, 0x5u, 1742u});
  matches.push_back(bgp::PrefixTable::Match{
      P("10.0.0.0/8"), bgp::SourceKind::kNetworkDump, 0x2u, 65000u});
  matches.push_back(std::nullopt);
  matches.push_back(bgp::PrefixTable::Match{
      P("0.0.0.0/0"), bgp::SourceKind::kBgpTable, 0x1u, 0u});

  std::vector<LookupRecord> records;
  for (const auto& match : matches) {
    records.push_back(LookupRecord::FromMatch(match));
  }
  const std::vector<std::uint8_t> expected =
      EncodeFrame(Opcode::kBatchResult, EncodeBatchResult(records));

  // Appending must also preserve whatever the buffer already holds (the
  // reply queue may carry earlier frames).
  std::vector<std::uint8_t> out{0xAA, 0xBB};
  AppendBatchResultFrame(matches.data(), matches.size(), &out);
  ASSERT_EQ(out.size(), 2 + expected.size());
  EXPECT_EQ(out[0], 0xAA);
  EXPECT_EQ(out[1], 0xBB);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), out.begin() + 2))
      << "fast-path BATCH_RESULT bytes diverged from the codec";

  // Empty batch: still a well-formed frame with count 0.
  std::vector<std::uint8_t> empty;
  AppendBatchResultFrame(nullptr, 0, &empty);
  EXPECT_EQ(empty, EncodeFrame(Opcode::kBatchResult, EncodeBatchResult({})));
}

TEST(ClusterOpcodes, AreKnownAndClassified) {
  for (const Opcode request : {Opcode::kClusterLookup, Opcode::kTopology,
                               Opcode::kSetTopology, Opcode::kClusterStats}) {
    EXPECT_TRUE(IsKnownOpcode(static_cast<std::uint8_t>(request)));
    EXPECT_TRUE(IsRequestOpcode(request));
  }
  for (const Opcode response :
       {Opcode::kTopologyReply,
        Opcode::kSetTopologyAck, Opcode::kClusterStatsReply,
        Opcode::kRedirect}) {
    EXPECT_TRUE(IsKnownOpcode(static_cast<std::uint8_t>(response)));
    EXPECT_FALSE(IsRequestOpcode(response));
  }
  // Retired with the single lookup grammar: LOOKUP, ASSIGN and their
  // LOOKUP_RESULT / ASSIGN_REPLY, plus CLUSTER_RESULT.
  for (const std::uint8_t retired : {0x02, 0x0B, 0x82, 0x86, 0x8B}) {
    EXPECT_FALSE(IsKnownOpcode(retired)) << static_cast<int>(retired);
  }
}

}  // namespace
}  // namespace netclust::server
