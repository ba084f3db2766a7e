// Regenerates the checked-in fuzz seed corpus (tests/corpus/).
//
//   make_corpus <output-dir>
//
// Seeds come from the synth writers — the same generators the benches use —
// so every harness starts from structurally valid MRT, §3.1.2 text and CLF
// inputs, plus crafted "crasher" inputs, one per decode/ingest bug fixed in
// the repo, named crash-*. The corpus is committed; rerun this only to
// extend it, and review the diff.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bgp/mrt.h"
#include "bgp/text_parser.h"
#include "bgp/update.h"
#include "server/proto.h"
#include "synth/internet.h"
#include "synth/vantage.h"
#include "synth/workload.h"
#include "weblog/log.h"

namespace {

namespace fs = std::filesystem;
using netclust::bgp::Snapshot;

void WriteBytes(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    std::cerr << "failed to write " << path << "\n";
    std::exit(1);
  }
}

void WriteText(const fs::path& path, const std::string& text) {
  WriteBytes(path, std::vector<std::uint8_t>(text.begin(), text.end()));
}

// Payload prefixed with the fuzz_roundtrip mode byte (0 = MRT, 1 = text).
std::vector<std::uint8_t> WithMode(std::uint8_t mode,
                                   std::vector<std::uint8_t> payload) {
  payload.insert(payload.begin(), mode);
  return payload;
}

// Minimal big-endian byte writer for crafting raw MRT crashers.
struct ByteWriter {
  std::vector<std::uint8_t> bytes;
  void U8(std::uint8_t v) { bytes.push_back(v); }
  void U16(std::uint16_t v) {
    U8(static_cast<std::uint8_t>(v >> 8));
    U8(static_cast<std::uint8_t>(v));
  }
  void U32(std::uint32_t v) {
    U16(static_cast<std::uint16_t>(v >> 16));
    U16(static_cast<std::uint16_t>(v));
  }
  void Append(const ByteWriter& other) {
    bytes.insert(bytes.end(), other.bytes.begin(), other.bytes.end());
  }
  void Header(std::uint16_t type, std::uint16_t subtype, std::uint32_t len) {
    U32(0);  // timestamp
    U16(type);
    U16(subtype);
    U32(len);
  }
};

// A TABLE_DUMP_V2 stream whose single RIB entry carries a 305-hop AS path
// split over two AS_SEQUENCE segments. Decodes fine; the pre-fix WriteMrt
// truncated the segment count byte on re-encode, so the round-trip
// property catches any regression of that bug.
std::vector<std::uint8_t> AsPathOverflowMrt() {
  ByteWriter peer;
  peer.U32(0x0A000001);  // collector BGP ID
  peer.U16(4);
  for (const char c : {'F', 'U', 'Z', 'Z'}) {
    peer.U8(static_cast<std::uint8_t>(c));
  }
  peer.U16(1);           // peer count
  peer.U8(0x02);         // IPv4 peer, 4-byte AS
  peer.U32(0x0A000002);  // peer BGP ID
  peer.U32(0x0A000002);  // peer address
  peer.U32(65000);       // peer AS

  ByteWriter attrs;
  attrs.U8(0x40);  // ORIGIN: transitive
  attrs.U8(1);
  attrs.U8(1);
  attrs.U8(0);
  ByteWriter seg;
  seg.U8(2);  // AS_SEQUENCE
  seg.U8(255);
  for (std::uint32_t i = 0; i < 255; ++i) seg.U32(i + 1);
  seg.U8(2);
  seg.U8(50);
  for (std::uint32_t i = 0; i < 50; ++i) seg.U32(70000 + i);
  attrs.U8(0x50);  // AS_PATH: transitive + extended length
  attrs.U8(2);
  attrs.U16(static_cast<std::uint16_t>(seg.bytes.size()));
  attrs.Append(seg);
  attrs.U8(0x40);  // NEXT_HOP
  attrs.U8(3);
  attrs.U8(4);
  attrs.U32(0x0A000002);

  ByteWriter rib;
  rib.U32(0);  // sequence
  rib.U8(24);  // prefix 10.0.1.0/24
  rib.U8(10);
  rib.U8(0);
  rib.U8(1);
  rib.U16(1);  // entry count
  rib.U16(0);  // peer index
  rib.U32(0);  // originated time
  rib.U16(static_cast<std::uint16_t>(attrs.bytes.size()));
  rib.Append(attrs);

  ByteWriter out;
  out.Header(13, 1, static_cast<std::uint32_t>(peer.bytes.size()));
  out.Append(peer);
  out.Header(13, 2, static_cast<std::uint32_t>(rib.bytes.size()));
  out.Append(rib);
  return out.bytes;
}

std::string FirstLines(const std::string& text, std::size_t count) {
  std::size_t pos = 0;
  while (count > 0 && pos < text.size()) {
    pos = text.find('\n', pos);
    if (pos == std::string::npos) return text;
    ++pos;
    --count;
  }
  return text.substr(0, pos);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_corpus <output-dir>\n";
    return 2;
  }
  const fs::path root(argv[1]);
  for (const char* dir : {"mrt", "text", "clf", "roundtrip", "proto"}) {
    fs::create_directories(root / dir);
  }

  using namespace netclust;

  // --- Structurally valid seeds from the synth generators. ---
  synth::InternetConfig internet_config;
  internet_config.seed = 7;
  internet_config.allocation_count = 220;
  const synth::Internet internet = synth::GenerateInternet(internet_config);
  const synth::VantageGenerator vantages(internet,
                                         synth::DefaultVantageProfiles());

  Snapshot small = vantages.MakeSnapshot(0, 0);
  if (small.entries.size() > 64) small.entries.resize(64);
  Snapshot tiny = vantages.MakeSnapshot(3, 1);
  if (tiny.entries.size() > 24) tiny.entries.resize(24);
  const Snapshot empty{small.info, {}};

  WriteBytes(root / "mrt" / "seed-tabledump-v2", bgp::WriteMrt(small, 1));
  WriteBytes(root / "mrt" / "seed-tabledump-v1", bgp::WriteMrtV1(tiny, 2));
  WriteBytes(root / "mrt" / "seed-empty", bgp::WriteMrt(empty, 3));
  {
    // Both generations in one stream, as ReadMrt supports.
    std::vector<std::uint8_t> mixed = bgp::WriteMrt(tiny, 4);
    const std::vector<std::uint8_t> v1 = bgp::WriteMrtV1(tiny, 4);
    mixed.insert(mixed.end(), v1.begin(), v1.end());
    WriteBytes(root / "mrt" / "seed-mixed-generations", mixed);
  }

  // --- BGP4MP live-feed seeds: announce, withdraw, AS4 and state-change
  // records, as a collector's tail would deliver them. ---
  {
    const net::IpAddress peer(10, 0, 0, 2);
    bgp::UpdateMessage announce;
    announce.announced = {net::Prefix::Parse("10.0.1.0/24").value(),
                          net::Prefix::Parse("151.198.192.0/18").value()};
    announce.as_path = {7018, 1742};
    announce.next_hop = peer;
    WriteBytes(root / "mrt" / "seed-bgp4mp-announce",
               bgp::WriteBgp4mpUpdate(announce, 100, 7018, peer, false));

    bgp::UpdateMessage withdraw;
    withdraw.withdrawn = {net::Prefix::Parse("10.0.1.0/24").value()};
    WriteBytes(root / "mrt" / "seed-bgp4mp-withdraw",
               bgp::WriteBgp4mpUpdate(withdraw, 101, 7018, peer, false));

    // AS4 flavor: a 4-byte-only AS number that the 2-byte encoding would
    // clamp to AS_TRANS.
    bgp::UpdateMessage wide = announce;
    wide.as_path = {70'000, 1742};
    WriteBytes(root / "mrt" / "seed-bgp4mp-as4",
               bgp::WriteBgp4mpUpdate(wide, 102, 70'000, peer, true));

    // A session bounce around an UPDATE, one stream: the decoder must
    // interleave state-change and update events.
    std::vector<std::uint8_t> bounce =
        bgp::WriteBgp4mpStateChange(103, 7018, peer, 6, 1, false);
    const std::vector<std::uint8_t> mid =
        bgp::WriteBgp4mpUpdate(withdraw, 104, 7018, peer, false);
    const std::vector<std::uint8_t> up =
        bgp::WriteBgp4mpStateChange(105, 7018, peer, 1, 6, true);
    bounce.insert(bounce.end(), mid.begin(), mid.end());
    bounce.insert(bounce.end(), up.begin(), up.end());
    WriteBytes(root / "mrt" / "seed-bgp4mp-state-change", bounce);

    // The record-length cap, from both sides. A record whose body is
    // exactly kMaxRecordBytes (a real UPDATE, zero-padded) is buffered
    // whole and decoded (as malformed: trailing garbage); a header
    // declaring one byte more is counted in truncated_records and the
    // stream resyncs past it. Each is followed by a valid announce.
    const std::vector<std::uint8_t> tail =
        bgp::WriteBgp4mpUpdate(announce, 106, 7018, peer, false);
    constexpr std::uint32_t kCap = bgp::Bgp4mpStream::kMaxRecordBytes;
    ByteWriter at_cap;
    at_cap.Header(16, 1, kCap);
    at_cap.bytes.insert(at_cap.bytes.end(), tail.begin() + 12, tail.end());
    at_cap.bytes.resize(12 + kCap, 0);
    at_cap.bytes.insert(at_cap.bytes.end(), tail.begin(), tail.end());
    WriteBytes(root / "mrt" / "seed-bgp4mp-record-at-cap", at_cap.bytes);
    ByteWriter past_cap;
    past_cap.Header(16, 1, kCap + 1);
    past_cap.bytes.insert(past_cap.bytes.end(), tail.begin(), tail.end());
    WriteBytes(root / "mrt" / "seed-bgp4mp-record-past-cap", past_cap.bytes);
  }

  WriteText(root / "text" / "seed-cidr",
            bgp::WriteSnapshotText(small, net::PrefixStyle::kCidr));
  WriteText(root / "text" / "seed-dotted-mask",
            bgp::WriteSnapshotText(small, net::PrefixStyle::kDottedMask));
  WriteText(root / "text" / "seed-classful",
            bgp::WriteSnapshotText(tiny, net::PrefixStyle::kClassful));

  synth::WorkloadConfig workload_config;
  workload_config.seed = 11;
  workload_config.target_clients = 40;
  workload_config.target_requests = 160;
  workload_config.url_count = 48;
  workload_config.spider_count = 1;
  workload_config.proxy_count = 1;
  const synth::GeneratedLog generated =
      synth::GenerateLog(internet, workload_config);
  std::ostringstream clf;
  generated.log.WriteClfStream(clf);
  WriteText(root / "clf" / "seed-synth-log", FirstLines(clf.str(), 40));

  WriteBytes(root / "roundtrip" / "seed-mrt-v2",
             WithMode(0, bgp::WriteMrt(tiny, 5)));
  WriteBytes(root / "roundtrip" / "seed-mrt-v1",
             WithMode(0, bgp::WriteMrtV1(tiny, 6)));
  {
    const std::string text =
        bgp::WriteSnapshotText(tiny, net::PrefixStyle::kDottedMask);
    WriteBytes(root / "roundtrip" / "seed-text-dotted",
               WithMode(1, std::vector<std::uint8_t>(text.begin(), text.end())));
  }

  // --- Hand-written seeds exercising grammar corners. ---
  WriteText(root / "text" / "seed-grammar-corners",
            "# comment line\n"
            "\n"
            "12.65.128/255.255.224 198.32.8.1 7018 1742 | AT&T | peer-east\n"
            "18 3 | MIT\n"
            "128.32/16\n"
            "192.0.2.0/24 64512\n"
            "0/0\n"
            "10.0.0.0/255.0.255.0 this line is malformed\n"
            "not-a-prefix either\n"
            "151.198.194.16/28 4969 | ISP resale block\n");
  WriteText(root / "clf" / "seed-grammar-corners",
            "12.65.143.222 - - [13/Feb/1998:02:03:04 +0900] "
            "\"GET /index.html HTTP/1.0\" 200 4521\n"
            "198.32.8.1 - alice [01/Jan/1999:23:59:60 -0130] "
            "\"POST /cgi/form HTTP/1.1\" 302 -\n"
            "10.1.2.3 - - [28/Feb/2000:12:00:00 +0000] \"HEAD /x\" 404 0 "
            "\"http://ref/\" \"Mozilla/4.0 (compatible)\"\n"
            "0.0.0.0 - - [13/Feb/1998:00:00:01 +0000] \"GET / HTTP/1.0\" 200 1\n"
            "broken line without enough fields\n");

  // --- Named crashers: one per decode/ingest bug fixed in this repo. ---
  // ParseAbbreviatedQuad accepted leading-zero octets that
  // IpAddress::Parse rejects (octal-spoof disagreement). No trailing
  // newline: the quad-consistency check wants a bare token.
  WriteText(root / "text" / "crash-leading-zero-octet", "012.65.3.4");
  WriteText(root / "text" / "seed-leading-zero-prefix", "012.65/16\n");
  // WriteMrt truncated the AS_PATH segment count byte for paths > 255 hops.
  WriteBytes(root / "mrt" / "crash-mrt-aspath-overflow", AsPathOverflowMrt());
  // ReadMrt hard-failed a stream whose trailing record declares more bytes
  // than remain (a partial collector download), discarding every record
  // decoded before the cut. Now a counted truncation: this seed is a valid
  // v2 snapshot followed by a header claiming a 4 KiB body that never
  // arrives, and must yield the snapshot plus truncated_records == 1.
  {
    std::vector<std::uint8_t> cut = bgp::WriteMrt(tiny, 12);
    ByteWriter dangling;
    dangling.Header(13, 2, 4096);
    dangling.U32(0);  // 4 of the 4096 promised bytes
    cut.insert(cut.end(), dangling.bytes.begin(), dangling.bytes.end());
    WriteBytes(root / "mrt" / "crash-mrt-truncated-header", cut);
  }
  WriteBytes(root / "roundtrip" / "crash-roundtrip-aspath-overflow",
             WithMode(0, AsPathOverflowMrt()));
  // ParseClfTimestamp accepted a zone-shifted instant in year 10000, which
  // FormatClfTimestamp renders 5-digit and the parser then rejects.
  WriteText(root / "clf" / "crash-clf-year-10000",
            "1.2.3.4 - - [31/Dec/9999:23:59:59 -0200] "
            "\"GET /x HTTP/1.0\" 200 17\n");
  // NextField let junk glue onto a closing quote, shifting later field
  // boundaries so the agent value swallowed a '"' that FormatClfLine then
  // emitted as an unparseable line. Found by the smoke fuzzer.
  WriteText(root / "clf" / "crash-clf-glued-quote",
            "176.49.142.30 - - [13/Feb/1998:02:19:43 +0000] "
            "\"GET /p14.html HTTP/1.0\" 200 3152 "
            "\"-\"!\"Mozilla/4.0 (compatible; MSIE 5.0; Windows 98)\"\n");
  // ParseClfTimestamp accepted negative hh/mm/ss fields ("-1" parses); the
  // acceptance bug itself is pinned by a unit test, this seed keeps the
  // shape in the mutation pool.
  WriteText(root / "clf" / "seed-negative-time",
            "1.2.3.4 - - [01/Jan/1999:-1:-1:-1 +0000] "
            "\"GET / HTTP/1.0\" 200 0\n");

  // --- netclustd wire-protocol seeds (fuzz_proto). ---
  {
    using server::EncodeFrame;
    using server::Opcode;

    WriteBytes(root / "proto" / "seed-ping",
               EncodeFrame(Opcode::kPing, {0xDE, 0xAD, 0xBE, 0xEF}));
    WriteBytes(root / "proto" / "seed-stats", EncodeFrame(Opcode::kStats, {}));
    {
      server::BatchLookupRequest batch;
      batch.addresses = {net::IpAddress(10, 0, 1, 7),
                         net::IpAddress(151, 198, 194, 17),
                         net::IpAddress(198, 32, 8, 1)};
      // A stream of two frames: the batch, then a ping — exercises the
      // incremental decoder's multi-frame path from the first mutation.
      std::vector<std::uint8_t> stream = EncodeFrame(
          Opcode::kBatchLookup, server::EncodeBatchLookup(batch));
      const std::vector<std::uint8_t> ping =
          EncodeFrame(Opcode::kPing, {0x01});
      stream.insert(stream.end(), ping.begin(), ping.end());
      WriteBytes(root / "proto" / "seed-batch-then-ping", stream);
    }
    {
      bgp::UpdateMessage update;
      update.withdrawn = {net::Prefix::Parse("192.0.2.0/24").value()};
      update.announced = {net::Prefix::Parse("10.0.1.0/24").value(),
                          net::Prefix::Parse("151.198.192.0/18").value()};
      update.as_path = {7018, 1742, 4969};
      WriteBytes(root / "proto" / "seed-ingest",
                 EncodeFrame(Opcode::kIngestUpdate,
                             server::EncodeIngest({1, update})));
    }
    {
      server::LookupRecord found;
      found.found = true;
      found.prefix = net::Prefix::Parse("12.65.128.0/19").value();
      found.kind = bgp::SourceKind::kBgpTable;
      found.origin_as = 7018;
      found.source_mask = 0x5;
      WriteBytes(root / "proto" / "seed-batch-result",
                 EncodeFrame(Opcode::kBatchResult,
                             server::EncodeBatchResult(
                                 {found, server::LookupRecord{}})));
    }
    WriteBytes(root / "proto" / "seed-ingest-ack",
               EncodeFrame(Opcode::kIngestAck,
                           server::EncodeIngestAck({42})));
    WriteBytes(root / "proto" / "seed-error",
               EncodeFrame(Opcode::kError,
                           server::EncodeError(
                               {server::ErrorCode::kMalformedPayload,
                                "BATCH_LOOKUP length disagrees"})));

    // Cluster-mode opcodes (PR 6): topology, routed lookups, redirect,
    // stats record — canonical payloads so mutations explore the strict
    // decoders from valid starting points.
    {
      server::Topology topo;
      topo.epoch = 3;
      topo.nodes = {{1, net::IpAddress(127, 0, 0, 1), 4730},
                    {2, net::IpAddress(127, 0, 0, 1), 4731},
                    {5, net::IpAddress(127, 0, 0, 1), 4732}};
      topo.ranges = {{0, 20000, 0},
                     {20000, 30000, 2},
                     {50000, server::kShardBlockCount - 50000, 1}};
      const std::vector<std::uint8_t> wire = server::EncodeTopology(topo);
      WriteBytes(root / "proto" / "seed-set-topology",
                 EncodeFrame(Opcode::kSetTopology, wire));
      WriteBytes(root / "proto" / "seed-topology-reply",
                 EncodeFrame(Opcode::kTopologyReply, wire));
      WriteBytes(root / "proto" / "seed-topology",
                 EncodeFrame(Opcode::kTopology, {}));
      WriteBytes(root / "proto" / "seed-set-topology-ack",
                 EncodeFrame(Opcode::kSetTopologyAck,
                             server::EncodeTopologyAck(topo.epoch)));

      // Non-canonical reject: a gap in the block coverage. The decoder
      // must refuse it (and chunked/whole must agree).
      server::Topology gap = topo;
      gap.ranges[1].block_count -= 1;
      WriteBytes(root / "proto" / "seed-set-topology-gap",
                 EncodeFrame(Opcode::kSetTopology,
                             server::EncodeTopology(gap)));
    }
    {
      server::ClusterLookupRequest req;
      req.epoch = 3;
      req.addresses = {net::IpAddress(12, 65, 143, 222),
                       net::IpAddress(151, 198, 194, 17)};
      WriteBytes(root / "proto" / "seed-cluster-lookup",
                 EncodeFrame(Opcode::kClusterLookup,
                             server::EncodeClusterLookup(req)));
    }
    WriteBytes(root / "proto" / "seed-redirect",
               EncodeFrame(Opcode::kRedirect,
                           server::EncodeRedirect(
                               {server::RedirectReason::kStaleEpoch, 4})));
    {
      server::ClusterStatsRecord record;
      record.epoch = 3;
      record.node_id = 2;
      record.frames_decoded = 1200;
      record.lookups_served = 800;
      record.cluster_lookups_served = 350;
      record.busy_replies = 4;
      record.redirects_sent = 2;
      record.connections_active = 3;
      record.latency_sum_ns = 9'000'000;
      record.latency_buckets[3] = 700;
      record.latency_buckets[4] = 100;
      WriteBytes(root / "proto" / "seed-cluster-stats-reply",
                 EncodeFrame(Opcode::kClusterStatsReply,
                             server::EncodeClusterStats(record)));
      WriteBytes(root / "proto" / "seed-cluster-stats",
                 EncodeFrame(Opcode::kClusterStats, {}));
    }
    {
      // CDN assignment opcodes: the paper's resold-/24 example address
      // keeps the seeds on the interesting path (split-block lookups).
      const net::IpAddress client(151, 198, 194, 17);
      WriteBytes(root / "proto" / "seed-rank",
                 EncodeFrame(Opcode::kRank,
                             server::EncodeRank({3, client})));

      server::RankReply ranking;
      ranking.epoch = 3;
      ranking.cluster_as = 1742;
      ranking.servers = {2, 0, 5, 1};
      WriteBytes(root / "proto" / "seed-rank-reply",
                 EncodeFrame(Opcode::kRankReply,
                             server::EncodeRankReply(ranking)));
    }

    // Crafted rejects: each pins one framing bound. None may crash, and
    // chunked/whole decode must agree on the verdict.
    {
      ByteWriter bad_magic;
      bad_magic.U16(0x4E44);  // "ND", off by one
      bad_magic.U8(1);
      bad_magic.U8(0x01);
      bad_magic.U32(0);
      WriteBytes(root / "proto" / "seed-bad-magic", bad_magic.bytes);

      ByteWriter bad_version;
      bad_version.U16(0x4E43);
      bad_version.U8(9);
      bad_version.U8(0x01);
      bad_version.U32(0);
      WriteBytes(root / "proto" / "seed-bad-version", bad_version.bytes);

      ByteWriter bad_opcode;
      bad_opcode.U16(0x4E43);
      bad_opcode.U8(1);
      bad_opcode.U8(0x7F);
      bad_opcode.U32(0);
      WriteBytes(root / "proto" / "seed-bad-opcode", bad_opcode.bytes);

      // Hostile length field: 2 GiB payload claim in an 8-byte input. The
      // decoder must reject at the header, before any allocation.
      ByteWriter oversized;
      oversized.U16(0x4E43);
      oversized.U8(1);
      oversized.U8(0x03);
      oversized.U32(0x7FFFFFFF);
      WriteBytes(root / "proto" / "seed-oversized-length", oversized.bytes);

      // The payload cap, from both sides: a header declaring exactly
      // kMaxPayload is accepted (the decoder parks for the payload), one
      // declaring a byte more is rejected at the header.
      for (const std::uint32_t extra : {0u, 1u}) {
        ByteWriter capped;
        capped.bytes.assign(oversized.bytes.begin(), oversized.bytes.end() - 4);
        capped.U32(server::kMaxPayload + extra);
        WriteBytes(root / "proto" / (extra == 0 ? "seed-payload-at-cap"
                                                : "seed-payload-past-cap"),
                   capped.bytes);
      }

      // Truncated: a valid BATCH_LOOKUP header whose 8-byte payload
      // never arrives (the decoder must park, not crash or accept).
      ByteWriter truncated;
      truncated.U16(0x4E43);
      truncated.U8(1);
      truncated.U8(0x03);
      truncated.U32(8);
      truncated.U8(0);
      WriteBytes(root / "proto" / "seed-truncated-payload", truncated.bytes);

      // Batch whose count disagrees with its length (payload decoder
      // reject, framing accept).
      ByteWriter liar;
      liar.U16(0x4E43);
      liar.U8(1);
      liar.U8(0x03);
      liar.U32(8);
      liar.U32(7);  // claims 7 addresses, carries one
      liar.U32(0x0A000001);
      WriteBytes(root / "proto" / "seed-batch-count-lies", liar.bytes);

      // Absent lookup record with a non-zero origin AS: violates the
      // canonical-form rule the byte-exact round trip depends on.
      ByteWriter noncanonical;
      noncanonical.U16(0x4E43);
      noncanonical.U8(1);
      noncanonical.U8(0x83);
      noncanonical.U32(20);
      noncanonical.U32(1);  // BATCH_RESULT count: one record
      noncanonical.U32(0);  // found=0, len=0, kind=0, reserved=0
      noncanonical.U32(0);  // network
      noncanonical.U32(7018);  // origin AS must be zero when absent
      noncanonical.U32(0);  // source mask
      WriteBytes(root / "proto" / "seed-noncanonical-absent",
                 noncanonical.bytes);
    }
  }

  std::cout << "corpus written under " << root << "\n";
  return 0;
}
