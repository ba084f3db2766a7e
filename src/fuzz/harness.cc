#include "fuzz/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/mrt.h"
#include "bgp/text_parser.h"
#include "net/ip_address.h"
#include "net/prefix_format.h"
#include "server/proto.h"
#include "weblog/clf.h"

// Property checks must fire in every build mode (fuzzers run optimized, the
// corpus replay runs RelWithDebInfo), so this does not compile away like
// assert().
#define NETCLUST_FUZZ_ASSERT(cond, what)                                     \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "fuzz property violated at %s:%d: %s\n",          \
                   __FILE__, __LINE__, what);                                \
      std::abort();                                                          \
    }                                                                        \
  } while (0)

namespace netclust::fuzz {
namespace {

constexpr std::uint32_t kTimestamp = 946684800;  // 1/1/2000
constexpr bgp::AsNumber kAsTrans = 23456;

bgp::SnapshotInfo Info() {
  return bgp::SnapshotInfo{"FUZZ", "1/1/2000", bgp::SourceKind::kBgpTable, ""};
}

// Any decoded snapshot must re-encode into byte streams that decode back to
// the same entries. Clamping (accounted in MrtWriteStats) may shorten an
// AS path, but never corrupt a record.
void CheckMrtRoundtrip(const bgp::Snapshot& s1) {
  {
    bgp::MrtWriteStats wstats;
    const auto bytes = bgp::WriteMrt(s1, kTimestamp, &wstats);
    const auto s2 = bgp::ReadMrt(bytes, s1.info);
    NETCLUST_FUZZ_ASSERT(s2.ok(), "re-encoded MRT v2 stream failed to decode");
    NETCLUST_FUZZ_ASSERT(s2.value().entries.size() == s1.entries.size(),
                         "MRT v2 round trip changed the entry count");
    for (std::size_t i = 0; i < s1.entries.size(); ++i) {
      const bgp::RouteEntry& a = s1.entries[i];
      const bgp::RouteEntry& b = s2.value().entries[i];
      NETCLUST_FUZZ_ASSERT(a.prefix == b.prefix,
                           "MRT v2 round trip changed a prefix");
      NETCLUST_FUZZ_ASSERT(a.next_hop == b.next_hop,
                           "MRT v2 round trip changed a next hop");
      if (b.as_path.size() != a.as_path.size()) {
        // Only the documented clamp may shorten a path — and then the
        // decoded path must be a strict prefix of the original.
        NETCLUST_FUZZ_ASSERT(wstats.clamped_as_paths > 0,
                             "MRT v2 AS path changed without clamping");
        NETCLUST_FUZZ_ASSERT(b.as_path.size() < a.as_path.size(),
                             "MRT v2 clamp grew an AS path");
      }
      for (std::size_t k = 0; k < b.as_path.size(); ++k) {
        NETCLUST_FUZZ_ASSERT(b.as_path[k] == a.as_path[k],
                             "MRT v2 round trip changed an AS path hop");
      }
    }
  }
  {
    bgp::MrtWriteStats wstats;
    const auto bytes = bgp::WriteMrtV1(s1, kTimestamp, &wstats);
    const auto s2 = bgp::ReadMrt(bytes, s1.info);
    NETCLUST_FUZZ_ASSERT(s2.ok(), "re-encoded MRT v1 stream failed to decode");
    NETCLUST_FUZZ_ASSERT(s2.value().entries.size() == s1.entries.size(),
                         "MRT v1 round trip changed the entry count");
    for (std::size_t i = 0; i < s1.entries.size(); ++i) {
      const bgp::RouteEntry& a = s1.entries[i];
      const bgp::RouteEntry& b = s2.value().entries[i];
      NETCLUST_FUZZ_ASSERT(a.prefix == b.prefix,
                           "MRT v1 round trip changed a prefix");
      NETCLUST_FUZZ_ASSERT(a.next_hop == b.next_hop,
                           "MRT v1 round trip changed a next hop");
      if (b.as_path.size() != a.as_path.size()) {
        NETCLUST_FUZZ_ASSERT(wstats.clamped_as_paths > 0,
                             "MRT v1 AS path changed without clamping");
        NETCLUST_FUZZ_ASSERT(b.as_path.size() < a.as_path.size(),
                             "MRT v1 clamp grew an AS path");
      }
      for (std::size_t k = 0; k < b.as_path.size(); ++k) {
        const bgp::AsNumber want =
            a.as_path[k] > 0xFFFF ? kAsTrans : a.as_path[k];
        NETCLUST_FUZZ_ASSERT(b.as_path[k] == want,
                             "MRT v1 2-byte ASN clamp mismatch");
      }
    }
  }
}

// Any parsed snapshot must re-serialize in every §3.1.2 style into text
// that parses with zero malformed lines and identical entries.
void CheckTextRoundtrip(const bgp::Snapshot& s1) {
  for (const net::PrefixStyle style :
       {net::PrefixStyle::kCidr, net::PrefixStyle::kDottedMask,
        net::PrefixStyle::kClassful}) {
    const std::string text = bgp::WriteSnapshotText(s1, style);
    bgp::ParseStats stats;
    const bgp::Snapshot s2 = bgp::ParseSnapshotText(text, s1.info, &stats);
    NETCLUST_FUZZ_ASSERT(stats.malformed_lines == 0,
                         "re-serialized snapshot text has malformed lines");
    NETCLUST_FUZZ_ASSERT(s2.entries == s1.entries,
                         "snapshot text round trip changed the entries");
  }
}

// ParsePrefixEntry and IpAddress::Parse consume the same dump tokens and
// must agree on full dotted quads (the leading-zero/octal-spoof class of
// disagreement).
void CheckQuadConsistency(std::string_view token) {
  int dots = 0;
  for (const char c : token) {
    if (c == '.') {
      ++dots;
    } else if (c < '0' || c > '9') {
      return;  // not a bare quad — the parsers legitimately diverge
    }
  }
  if (dots != 3) return;
  const auto as_entry = net::ParsePrefixEntry(token);
  const auto as_address = net::IpAddress::Parse(token);
  NETCLUST_FUZZ_ASSERT(as_entry.ok() == as_address.ok(),
                       "ParsePrefixEntry and IpAddress::Parse disagree on a "
                       "dotted quad");
  if (as_entry.ok()) {
    NETCLUST_FUZZ_ASSERT(as_entry.value().Contains(as_address.value()),
                         "classful network does not contain its own address");
  }
}

// One accepted BGP4MP event must re-encode (in both the 2- and 4-byte AS
// flavors) into a record that decodes back to the same event, modulo the
// documented narrowings: 2-byte encoding clamps ASNs above 65535 to
// AS_TRANS, and the UPDATE encoder's single-segment AS_PATH caps the hop
// count (multi-segment paths a fuzzed record carried may come back as a
// clamped prefix).
void CheckBgp4mpEventRoundtrip(const bgp::Bgp4mpEvent& event) {
  for (const bool as4 : {false, true}) {
    const std::vector<std::uint8_t> wire =
        event.kind == bgp::Bgp4mpEventKind::kUpdate
            ? bgp::WriteBgp4mpUpdate(event.update, event.timestamp,
                                     event.peer_as, event.peer_ip, as4)
            : bgp::WriteBgp4mpStateChange(event.timestamp, event.peer_as,
                                          event.peer_ip, event.old_state,
                                          event.new_state, as4);
    bgp::Bgp4mpStream stream;
    stream.Feed(wire.data(), wire.size());
    stream.Finish();
    const auto decoded = stream.Next();
    NETCLUST_FUZZ_ASSERT(decoded.has_value(),
                         "re-encoded BGP4MP record failed to decode");
    NETCLUST_FUZZ_ASSERT(!stream.Next().has_value(),
                         "re-encoded BGP4MP record yielded extra events");
    NETCLUST_FUZZ_ASSERT(stream.stats().malformed_records == 0 &&
                             stream.stats().skipped_records == 0 &&
                             stream.stats().truncated_records == 0,
                         "re-encoded BGP4MP record was not cleanly accepted");
    const bgp::Bgp4mpEvent& b = *decoded;
    NETCLUST_FUZZ_ASSERT(b.kind == event.kind,
                         "BGP4MP round trip changed the event kind");
    NETCLUST_FUZZ_ASSERT(b.timestamp == event.timestamp,
                         "BGP4MP round trip changed the timestamp");
    NETCLUST_FUZZ_ASSERT(b.peer_ip == event.peer_ip,
                         "BGP4MP round trip changed the peer IP");
    const bgp::AsNumber want_peer =
        !as4 && event.peer_as > 0xFFFF ? kAsTrans : event.peer_as;
    NETCLUST_FUZZ_ASSERT(b.peer_as == want_peer,
                         "BGP4MP peer-AS clamp mismatch");
    if (event.kind == bgp::Bgp4mpEventKind::kStateChange) {
      NETCLUST_FUZZ_ASSERT(b.old_state == event.old_state &&
                               b.new_state == event.new_state,
                           "BGP4MP round trip changed the FSM states");
      continue;
    }
    NETCLUST_FUZZ_ASSERT(b.update.withdrawn == event.update.withdrawn,
                         "BGP4MP round trip changed the withdrawn routes");
    NETCLUST_FUZZ_ASSERT(b.update.announced == event.update.announced,
                         "BGP4MP round trip changed the announced routes");
    if (!event.update.announced.empty()) {
      // Withdraw-only UPDATEs carry no path attributes, so these fields
      // only survive when something was announced.
      NETCLUST_FUZZ_ASSERT(b.update.next_hop == event.update.next_hop,
                           "BGP4MP round trip changed the next hop");
      const std::size_t cap = (std::size_t{255} - 2) / (as4 ? 4 : 2);
      NETCLUST_FUZZ_ASSERT(
          b.update.as_path.size() ==
              std::min(event.update.as_path.size(), cap),
          "BGP4MP AS_PATH hop count survived neither intact nor clamped");
      for (std::size_t i = 0; i < b.update.as_path.size(); ++i) {
        const bgp::AsNumber want = !as4 && event.update.as_path[i] > 0xFFFF
                                       ? kAsTrans
                                       : event.update.as_path[i];
        NETCLUST_FUZZ_ASSERT(b.update.as_path[i] == want,
                             "BGP4MP AS_PATH hop clamp mismatch");
      }
    }
  }
}

// The live-path differential: the same bytes through Bgp4mpStream must
// yield the same events and the same stats however the stream is chunked
// (the decoder serves a tail -f'd feed, so TCP chunking must be
// invisible), and every accepted event must survive a re-encode.
void CheckBgp4mpStream(const std::uint8_t* data, std::size_t size) {
  bgp::Bgp4mpStream whole;
  whole.Feed(data, size);
  whole.Finish();
  std::vector<bgp::Bgp4mpEvent> events;
  while (auto event = whole.Next()) events.push_back(std::move(*event));

  bgp::Bgp4mpStream chunked;
  std::vector<bgp::Bgp4mpEvent> events2;
  std::size_t fed = 0;
  for (;;) {
    auto event = chunked.Next();
    if (event.has_value()) {
      events2.push_back(std::move(*event));
      continue;
    }
    if (fed == size) break;
    const std::size_t chunk = std::min<std::size_t>(7, size - fed);
    chunked.Feed(data + fed, chunk);
    fed += chunk;
  }
  chunked.Finish();
  while (auto event = chunked.Next()) events2.push_back(std::move(*event));

  NETCLUST_FUZZ_ASSERT(events == events2,
                       "chunking changed the BGP4MP event sequence");
  const bgp::Bgp4mpStats& a = whole.stats();
  const bgp::Bgp4mpStats& b = chunked.stats();
  NETCLUST_FUZZ_ASSERT(a.records == b.records && a.updates == b.updates &&
                           a.state_changes == b.state_changes &&
                           a.skipped_records == b.skipped_records &&
                           a.malformed_records == b.malformed_records &&
                           a.truncated_records == b.truncated_records,
                       "chunking changed the BGP4MP stream stats");
  NETCLUST_FUZZ_ASSERT(a.updates + a.state_changes == events.size(),
                       "BGP4MP stats disagree with the yielded event count");

  for (const bgp::Bgp4mpEvent& event : events) {
    CheckBgp4mpEventRoundtrip(event);
  }
}

}  // namespace

void FuzzMrt(const std::uint8_t* data, std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  bgp::MrtStats stats;
  const auto snapshot = bgp::ReadMrt(bytes, Info(), &stats);
  // The same bytes also ride the live-stream decoder: a BGP4MP burst is
  // rejected by ReadMrt's snapshot grammar but must decode here (and any
  // input must leave both decoders un-crashed and chunking-invariant).
  CheckBgp4mpStream(data, size);
  if (!snapshot.ok()) return;
  NETCLUST_FUZZ_ASSERT(stats.rib_records <= stats.records,
                       "MRT stats count more RIB records than records");
  CheckMrtRoundtrip(snapshot.value());
}

void FuzzTextParser(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  bgp::ParseStats stats;
  const bgp::Snapshot snapshot = bgp::ParseSnapshotText(text, Info(), &stats);
  NETCLUST_FUZZ_ASSERT(snapshot.entries.size() == stats.entry_lines,
                       "entry_lines disagrees with the parsed entry count");
  NETCLUST_FUZZ_ASSERT(
      stats.entry_lines + stats.malformed_lines <= stats.total_lines,
      "line accounting exceeds the total line count");
  CheckTextRoundtrip(snapshot);
  CheckQuadConsistency(text);
}

void FuzzClf(const std::uint8_t* data, std::size_t size) {
  std::string_view text(reinterpret_cast<const char*>(data), size);
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line =
        text.substr(0, eol == std::string_view::npos ? text.size() : eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);

    const auto ts = weblog::ParseClfTimestamp(line);
    if (ts.ok()) {
      const auto again =
          weblog::ParseClfTimestamp(weblog::FormatClfTimestamp(ts.value()));
      NETCLUST_FUZZ_ASSERT(again.ok(),
                           "formatted CLF timestamp failed to re-parse");
      NETCLUST_FUZZ_ASSERT(again.value() == ts.value(),
                           "CLF timestamp round trip changed the instant");
    }

    const auto record = weblog::ParseClfLine(line);
    if (!record.ok()) continue;
    const std::string formatted = weblog::FormatClfLine(record.value());
    const auto reparsed = weblog::ParseClfLine(formatted);
    if (!reparsed.ok() || !(reparsed.value() == record.value())) {
      std::fprintf(stderr, "offending CLF line: [[%.*s]]\nformatted: [[%s]]\n",
                   static_cast<int>(line.size()), line.data(),
                   formatted.c_str());
    }
    NETCLUST_FUZZ_ASSERT(reparsed.ok(), "formatted CLF line failed to re-parse");
    NETCLUST_FUZZ_ASSERT(reparsed.value() == record.value(),
                         "CLF line round trip changed the record");
  }
}

namespace {

/// Payload-level checks for one accepted frame: run the opcode's decoder;
/// when it accepts, demand re-encode byte-identity (or, for the embedded
/// BGP UPDATE, a one-step fixed point — bgp::EncodeUpdate may legitimately
/// canonicalize what bgp::DecodeUpdate accepted).
void CheckProtoPayload(const server::Frame& frame) {
  using server::Opcode;
  const std::uint8_t* payload = frame.payload.data();
  const std::size_t size = frame.payload.size();
  switch (frame.header.opcode) {
    case Opcode::kBatchLookup: {
      const auto req = server::DecodeBatchLookup(payload, size);
      if (!req.ok()) return;
      NETCLUST_FUZZ_ASSERT(
          server::EncodeBatchLookup(req.value()) == frame.payload,
          "BATCH_LOOKUP payload round trip changed bytes");
      return;
    }
    case Opcode::kIngestUpdate: {
      const auto req = server::DecodeIngest(payload, size);
      if (!req.ok()) return;
      const std::vector<std::uint8_t> once = server::EncodeIngest(req.value());
      const auto again = server::DecodeIngest(once.data(), once.size());
      NETCLUST_FUZZ_ASSERT(again.ok(),
                           "re-encoded INGEST payload failed to decode");
      NETCLUST_FUZZ_ASSERT(again.value() == req.value(),
                           "INGEST round trip changed the decoded request");
      NETCLUST_FUZZ_ASSERT(server::EncodeIngest(again.value()) == once,
                           "INGEST encoding is not a one-step fixed point");
      return;
    }
    case Opcode::kBatchResult: {
      const auto records = server::DecodeBatchResult(payload, size);
      if (!records.ok()) return;
      NETCLUST_FUZZ_ASSERT(
          server::EncodeBatchResult(records.value()) == frame.payload,
          "BATCH_RESULT payload round trip changed bytes");
      // Match conversion must be lossless both ways.
      for (const server::LookupRecord& record : records.value()) {
        NETCLUST_FUZZ_ASSERT(
            server::LookupRecord::FromMatch(record.ToMatch()) == record,
            "LookupRecord <-> Match conversion is lossy");
      }
      return;
    }
    case Opcode::kIngestAck: {
      const auto ack = server::DecodeIngestAck(payload, size);
      if (!ack.ok()) return;
      NETCLUST_FUZZ_ASSERT(
          server::EncodeIngestAck(ack.value()) == frame.payload,
          "INGEST_ACK payload round trip changed bytes");
      return;
    }
    case Opcode::kError: {
      const auto error = server::DecodeError(payload, size);
      if (!error.ok()) return;
      NETCLUST_FUZZ_ASSERT(server::EncodeError(error.value()) == frame.payload,
                           "ERROR payload round trip changed bytes");
      return;
    }
    case Opcode::kClusterLookup: {
      // One lookup grammar: the bytes after the epoch are accepted or
      // rejected exactly as a BATCH_LOOKUP payload.
      const auto req = server::DecodeClusterLookup(payload, size);
      NETCLUST_FUZZ_ASSERT(
          req.ok() == (size >= 8 &&
                       server::DecodeBatchLookup(payload + 8, size - 8).ok()),
          "CLUSTER_LOOKUP and BATCH_LOOKUP verdicts disagree after the epoch");
      if (!req.ok()) return;
      NETCLUST_FUZZ_ASSERT(
          server::EncodeClusterLookup(req.value()) == frame.payload,
          "CLUSTER_LOOKUP payload round trip changed bytes");
      return;
    }
    case Opcode::kTopology:
      return;  // request carries no payload
    case Opcode::kSetTopology:
    case Opcode::kTopologyReply: {
      // Decoder accepts only the canonical form, so acceptance implies
      // byte-exact re-encoding.
      const auto topo = server::DecodeTopology(payload, size);
      if (!topo.ok()) return;
      NETCLUST_FUZZ_ASSERT(
          server::EncodeTopology(topo.value()) == frame.payload,
          "TOPOLOGY payload round trip changed bytes");
      return;
    }
    case Opcode::kSetTopologyAck: {
      const auto epoch = server::DecodeTopologyAck(payload, size);
      if (!epoch.ok()) return;
      NETCLUST_FUZZ_ASSERT(
          server::EncodeTopologyAck(epoch.value()) == frame.payload,
          "SET_TOPOLOGY_ACK payload round trip changed bytes");
      return;
    }
    case Opcode::kRedirect: {
      const auto redirect = server::DecodeRedirect(payload, size);
      if (!redirect.ok()) return;
      NETCLUST_FUZZ_ASSERT(
          server::EncodeRedirect(redirect.value()) == frame.payload,
          "REDIRECT payload round trip changed bytes");
      return;
    }
    case Opcode::kClusterStatsReply: {
      const auto record = server::DecodeClusterStats(payload, size);
      if (!record.ok()) return;
      NETCLUST_FUZZ_ASSERT(
          server::EncodeClusterStats(record.value()) == frame.payload,
          "CLUSTER_STATS_REPLY payload round trip changed bytes");
      return;
    }
    case Opcode::kRank: {
      const auto req = server::DecodeRank(payload, size);
      if (!req.ok()) return;
      NETCLUST_FUZZ_ASSERT(server::EncodeRank(req.value()) == frame.payload,
                           "RANK payload round trip changed bytes");
      return;
    }
    case Opcode::kRankReply: {
      const auto reply = server::DecodeRankReply(payload, size);
      if (!reply.ok()) return;
      NETCLUST_FUZZ_ASSERT(
          server::EncodeRankReply(reply.value()) == frame.payload,
          "RANK_REPLY payload round trip changed bytes");
      return;
    }
    default:
      return;  // PING/PONG/STATS/STATS_TEXT/BUSY/CLUSTER_STATS are free-form
  }
}

}  // namespace

void FuzzProto(const std::uint8_t* data, std::size_t size) {
  using server::Frame;
  using server::FrameDecoder;

  // Pass 1: whole buffer at once.
  FrameDecoder whole;
  whole.Feed(data, size);
  std::vector<Frame> frames;
  bool failed = false;
  std::string error;
  for (;;) {
    auto next = whole.Next();
    if (!next.ok()) {
      failed = true;
      error = next.error();
      break;
    }
    if (!next.value().has_value()) break;
    frames.push_back(std::move(*next.value()));
  }

  // Pass 2: byte-at-a-time feeding must produce the identical frame
  // sequence and the identical verdict — framing cannot depend on how the
  // TCP stream happened to chunk.
  FrameDecoder chunked;
  std::vector<Frame> frames2;
  bool failed2 = false;
  std::size_t fed = 0;
  while (!failed2) {
    auto next = chunked.Next();
    if (!next.ok()) {
      failed2 = true;
      NETCLUST_FUZZ_ASSERT(next.error() == error,
                           "chunked decode failed with a different error");
      break;
    }
    if (next.value().has_value()) {
      frames2.push_back(std::move(*next.value()));
      continue;
    }
    if (fed == size) break;
    chunked.Feed(data + fed, 1);
    ++fed;
  }
  NETCLUST_FUZZ_ASSERT(failed == failed2,
                       "chunked and whole-buffer decode verdicts disagree");
  NETCLUST_FUZZ_ASSERT(frames == frames2,
                       "chunked and whole-buffer decode frames disagree");

  for (const Frame& frame : frames) {
    // Frame-level byte identity: header + payload re-encode exactly.
    const std::vector<std::uint8_t> wire =
        server::EncodeFrame(frame.header.opcode, frame.payload);
    NETCLUST_FUZZ_ASSERT(wire.size() == server::kHeaderSize +
                                            frame.payload.size(),
                         "re-encoded frame has the wrong length");
    const auto header = server::DecodeFrameHeader(wire.data(), wire.size());
    NETCLUST_FUZZ_ASSERT(header.ok(), "re-encoded frame header rejected");
    NETCLUST_FUZZ_ASSERT(header.value() == frame.header,
                         "frame header round trip changed fields");
    NETCLUST_FUZZ_ASSERT(
        std::equal(frame.payload.begin(), frame.payload.end(),
                   wire.begin() + server::kHeaderSize),
        "frame payload round trip changed bytes");
    CheckProtoPayload(frame);
  }
}

void FuzzRoundtrip(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  // Byte 0 routes the payload: even = binary MRT pipeline, odd = §3.1.2
  // text pipeline. Both end in the same differential re-serialization
  // checks.
  if (data[0] % 2 == 0) {
    FuzzMrt(data + 1, size - 1);
  } else {
    FuzzTextParser(data + 1, size - 1);
  }
}

}  // namespace netclust::fuzz
