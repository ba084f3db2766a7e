// netclustd wire protocol: length-prefixed binary frames over TCP.
//
// Every message is one frame: an 8-byte big-endian header followed by an
// opcode-specific payload. The framing is deliberately minimal — a CDN
// edge asking "which cluster is this client in?" needs one round trip of
// a few dozen bytes, not a general RPC system:
//
//   offset  size  field
//   0       2     magic 0x4E43 ("NC")
//   2       1     version (kProtoVersion)
//   3       1     opcode
//   4       4     payload length (<= kMaxPayload)
//
// Requests: PING, BATCH_LOOKUP, INGEST_UPDATE, STATS, RANK, plus the
// cluster-mode family CLUSTER_LOOKUP, TOPOLOGY, SET_TOPOLOGY and
// CLUSTER_STATS. There is one lookup grammar: a single address is a
// BATCH_LOOKUP of one, and CLUSTER_LOOKUP is a BATCH_LOOKUP payload
// behind a u64 topology epoch, answered with the same BATCH_RESULT.
// Responses are PONG, BATCH_RESULT, INGEST_ACK, STATS_TEXT, RANK_REPLY,
// TOPOLOGY_REPLY, SET_TOPOLOGY_ACK and CLUSTER_STATS_REPLY, plus ERROR,
// BUSY and REDIRECT — BUSY is the explicit backpressure signal
// (connection or in-flight-frame limit hit) and REDIRECT is the
// routing-staleness signal (the request's topology epoch is not current,
// or the addressed keys are owned by another shard); both are retryable,
// distinct from ERROR so clients retry instead of failing.
//
// Decoders are written in the library's Result<T> style (no exceptions,
// strict bounds, canonical-form checks) so the whole grammar is fuzzable
// exactly like the MRT/CLF parsers: src/fuzz/harness.cc FuzzProto demands
// that every accepted frame re-encodes to the identical byte string.
// INGEST_UPDATE payloads embed a standard BGP-4 UPDATE message
// (bgp::EncodeUpdate / bgp::DecodeUpdate), so a route-collector bridge
// can forward the wire bytes it already has.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bgp/prefix_table.h"
#include "bgp/update.h"
#include "net/ip_address.h"
#include "net/prefix.h"
#include "net/result.h"

namespace netclust::server {

inline constexpr std::uint16_t kMagic = 0x4E43;  // "NC"
inline constexpr std::uint8_t kProtoVersion = 1;
inline constexpr std::size_t kHeaderSize = 8;
/// Frame payloads are bounded so a hostile length field cannot make the
/// server allocate gigabytes before reading a single payload byte.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;  // 1 MiB
/// BATCH_LOOKUP address count bound (fits well under kMaxPayload).
inline constexpr std::uint32_t kMaxBatch = 4096;
/// PING echo payloads are capped: the echo exists for liveness probing,
/// not bulk transfer.
inline constexpr std::uint32_t kMaxPingEcho = 64;
/// The client address space is partitioned for cluster mode at /16
/// granularity: block i owns addresses [i<<16, (i+1)<<16).
inline constexpr std::uint32_t kShardBlockCount = 1u << 16;
/// Fleet size bound (topology payloads stay well under kMaxPayload).
inline constexpr std::uint32_t kMaxClusterNodes = 64;
/// Latency histogram bucket count carried by CLUSTER_STATS replies.
/// Mirrors engine::LatencyHistogram::kBuckets (static_assert in server.cc)
/// without dragging the engine headers into the wire layer.
inline constexpr std::size_t kStatsLatencyBuckets = 14;
/// RANK_REPLY server-list bound. Mirrors mapping::RankTable::kMaxServers
/// (static_assert in server.cc) without dragging the mapping headers into
/// the wire layer.
inline constexpr std::uint32_t kMaxRankServers = 256;

/// Request opcodes occupy 0x01-0x7F; their responses set the high bit.
///
/// Every request opcode carries a `// stats: <counter>` annotation naming
/// the ServerMetrics counter that proves it is served. netclust_lint's
/// opcode-coverage rule parses this enum and fails the build if any
/// opcode is missing from the server dispatch switch, the fuzz corpus
/// seed set, or the annotated STATS counter — see DESIGN.md "Static
/// analysis: adding an opcode end-to-end".
enum class Opcode : std::uint8_t {
  kPing = 0x01,          // stats: pings_served
  kBatchLookup = 0x03,   // stats: lookups_served
  kIngestUpdate = 0x04,  // stats: ingests_applied
  kStats = 0x05,         // stats: stats_served
  kClusterLookup = 0x06,  // stats: cluster_lookups_served
  kTopology = 0x07,       // stats: topologies_served
  kSetTopology = 0x08,    // stats: topology_installs
  kClusterStats = 0x09,   // stats: cluster_stats_served
  kRank = 0x0A,           // stats: ranks_served

  kPong = 0x81,
  kBatchResult = 0x83,
  kIngestAck = 0x84,
  kStatsText = 0x85,
  kTopologyReply = 0x87,
  kSetTopologyAck = 0x88,
  kClusterStatsReply = 0x89,
  kRankReply = 0x8A,
  kBusy = 0xE0,
  kError = 0xE1,
  kRedirect = 0xE2,
};

[[nodiscard]] bool IsRequestOpcode(Opcode opcode);
[[nodiscard]] bool IsKnownOpcode(std::uint8_t raw);
[[nodiscard]] const char* OpcodeName(Opcode opcode);

/// Error payload discriminator (first payload byte of an ERROR frame).
enum class ErrorCode : std::uint8_t {
  kMalformedFrame = 1,    // framing violated; the connection will be closed
  kMalformedPayload = 2,  // header fine, payload grammar violated
  kUnsupportedOpcode = 3,
  kShuttingDown = 4,
};

// --- big-endian primitives (shared by the codecs and their tests) ---

void PutU16(std::vector<std::uint8_t>* out, std::uint16_t value);
void PutU32(std::vector<std::uint8_t>* out, std::uint32_t value);
void PutU64(std::vector<std::uint8_t>* out, std::uint64_t value);
[[nodiscard]] std::uint16_t GetU16(const std::uint8_t* data);
[[nodiscard]] std::uint32_t GetU32(const std::uint8_t* data);
[[nodiscard]] std::uint64_t GetU64(const std::uint8_t* data);

// --- frame layer ---

struct FrameHeader {
  std::uint8_t version = kProtoVersion;
  Opcode opcode = Opcode::kPing;
  std::uint32_t payload_size = 0;

  friend bool operator==(const FrameHeader&, const FrameHeader&) = default;
};

struct Frame {
  FrameHeader header;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Serializes a complete frame (header + payload). The payload must not
/// exceed kMaxPayload.
[[nodiscard]] std::vector<std::uint8_t> EncodeFrame(
    Opcode opcode, const std::vector<std::uint8_t>& payload);

/// Decodes the 8-byte header. `size` must be >= kHeaderSize. Rejects bad
/// magic, unknown version, unknown opcode and oversized payload lengths.
[[nodiscard]] Result<FrameHeader> DecodeFrameHeader(const std::uint8_t* data,
                                                    std::size_t size);

/// A decoded frame that still lives inside the decoder's buffer: header
/// by value, payload by pointer. Valid until the next Feed() (which may
/// compact the buffer) — the reactor fast path decodes a BATCH_LOOKUP
/// straight out of this view without ever copying the payload.
struct FrameView {
  FrameHeader header;
  const std::uint8_t* payload = nullptr;  // header.payload_size bytes
};

/// Incremental frame decoder for a TCP byte stream. Feed() raw reads,
/// then drain Next()/NextView() until it reports "need more". A decode
/// error is sticky: the stream is unsynchronized and the connection must
/// be closed.
class FrameDecoder {
 public:
  void Feed(const std::uint8_t* data, std::size_t size);

  /// ok(frame)    — one complete frame, removed from the buffer;
  /// ok(nullopt)  — the buffer holds only a partial frame; feed more bytes;
  /// error        — protocol violation (bad magic/version/opcode/length).
  [[nodiscard]] Result<std::optional<Frame>> Next();

  /// Zero-copy variant of Next(): the returned payload pointer aliases the
  /// decoder's buffer and is invalidated by the next Feed(). Drain every
  /// pending view before feeding again.
  [[nodiscard]] Result<std::optional<FrameView>> NextView();

  /// Bytes buffered but not yet consumed by Next().
  [[nodiscard]] std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // compacted lazily
};

// --- payload codecs ---

struct BatchLookupRequest {
  std::vector<net::IpAddress> addresses;  // size <= kMaxBatch

  friend bool operator==(const BatchLookupRequest&,
                         const BatchLookupRequest&) = default;
};

struct IngestRequest {
  std::uint32_t source_id = 0;
  bgp::UpdateMessage update;  // standard BGP-4 encoding on the wire

  friend bool operator==(const IngestRequest&, const IngestRequest&) = default;
};

/// One lookup answer, 16 bytes on the wire:
///   [0] found  [1] prefix_len  [2] kind  [3] reserved(0)
///   [4..7] prefix network  [8..11] origin AS  [12..15] source mask
/// When found == 0 every other field must be zero (canonical form — the
/// strictness is what makes the fuzz round-trip property byte-exact).
struct LookupRecord {
  bool found = false;
  net::Prefix prefix;
  bgp::SourceKind kind = bgp::SourceKind::kBgpTable;
  bgp::AsNumber origin_as = 0;
  std::uint32_t source_mask = 0;

  [[nodiscard]] static LookupRecord FromMatch(
      const std::optional<bgp::PrefixTable::Match>& match);
  [[nodiscard]] std::optional<bgp::PrefixTable::Match> ToMatch() const;

  friend bool operator==(const LookupRecord&, const LookupRecord&) = default;
};
inline constexpr std::size_t kLookupRecordSize = 16;

struct IngestAck {
  /// RCU table version after the update was applied: lookups issued after
  /// this ack observe a snapshot at least this new.
  std::uint64_t table_version = 0;

  friend bool operator==(const IngestAck&, const IngestAck&) = default;
};

struct ErrorReply {
  ErrorCode code = ErrorCode::kMalformedPayload;
  std::string message;

  friend bool operator==(const ErrorReply&, const ErrorReply&) = default;
};

// --- cluster-mode payloads ---

/// One fleet member. `id` is the stable operator-assigned identity (it
/// survives rebalances); the index of a node inside Topology::nodes is
/// positional and changes as members join and leave.
struct NodeInfo {
  std::uint32_t id = 0;
  net::IpAddress host;  // IPv4, matching the data plane
  std::uint16_t port = 0;

  friend bool operator==(const NodeInfo&, const NodeInfo&) = default;
};

/// A run of consecutive /16 blocks owned by one node.
struct ShardRange {
  std::uint32_t first_block = 0;
  std::uint32_t block_count = 0;
  std::uint16_t node_index = 0;  // into Topology::nodes

  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// An epoch-stamped shard map: which node owns which /16 blocks. Canonical
/// form (enforced by ValidateTopology and the decoder, which is what makes
/// the codec fuzzable byte-exactly): node ids strictly increasing; ranges
/// sorted, gap-free and exactly covering all kShardBlockCount blocks, with
/// adjacent ranges owned by different nodes (equal neighbours must be
/// merged). Epochs only ever advance; a request stamped with an older
/// epoch draws a REDIRECT, never an answer from a stale shard map.
struct Topology {
  std::uint64_t epoch = 0;
  std::vector<NodeInfo> nodes;
  std::vector<ShardRange> ranges;

  friend bool operator==(const Topology&, const Topology&) = default;
};

/// ok(true) when `topo` is canonical; the error spells out the violation.
[[nodiscard]] Result<bool> ValidateTopology(const Topology& topo);

/// Flat owner map for a validated topology: block (address >> 16) ->
/// node index. One array read per route decision.
[[nodiscard]] std::vector<std::uint16_t> CompileOwners(const Topology& topo);

/// Index of the node with `node_id` in topo.nodes, or -1 when absent
/// (a node that was rebalanced out still serves, but owns nothing).
[[nodiscard]] int NodeIndexOf(const Topology& topo, std::uint32_t node_id);

/// CLUSTER_LOOKUP: a BATCH_LOOKUP payload behind the client's u64
/// topology epoch, so a stale shard map is detected before any key is
/// answered by the wrong node. The answer is a plain BATCH_RESULT (or a
/// REDIRECT); standalone servers serve it at epoch 0.
struct ClusterLookupRequest {
  std::uint64_t epoch = 0;
  std::vector<net::IpAddress> addresses;  // size <= kMaxBatch

  friend bool operator==(const ClusterLookupRequest&,
                         const ClusterLookupRequest&) = default;
};

/// Why a CLUSTER_LOOKUP or RANK was redirected instead of answered.
enum class RedirectReason : std::uint8_t {
  kStaleEpoch = 1,  // request epoch != the node's current epoch
  kNotOwner = 2,    // epoch current, but a key belongs to another shard
};

/// REDIRECT payload: retryable routing miss. The client refreshes its
/// topology (the replying node's is at least `epoch`) and re-routes.
struct RedirectReply {
  RedirectReason reason = RedirectReason::kStaleEpoch;
  std::uint64_t epoch = 0;  // the replying node's current epoch

  friend bool operator==(const RedirectReply&, const RedirectReply&) = default;
};

/// CLUSTER_STATS_REPLY: one node's counters plus its full service-time
/// histogram. Carrying the buckets (not just quantiles) is what lets the
/// fleet rollup merge latency distributions exactly instead of averaging
/// percentiles.
struct ClusterStatsRecord {
  std::uint64_t epoch = 0;
  std::uint32_t node_id = 0;
  std::uint64_t frames_decoded = 0;
  std::uint64_t lookups_served = 0;
  std::uint64_t cluster_lookups_served = 0;
  std::uint64_t ingests_applied = 0;
  std::uint64_t busy_replies = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t redirects_sent = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t latency_sum_ns = 0;
  std::array<std::uint64_t, kStatsLatencyBuckets> latency_buckets{};

  friend bool operator==(const ClusterStatsRecord&,
                         const ClusterStatsRecord&) = default;
};
/// Wire size of a CLUSTER_STATS_REPLY payload.
inline constexpr std::size_t kClusterStatsRecordSize =
    8 + 4 + 8 * 8 + 8 + 8 * kStatsLatencyBuckets;

// --- CDN assignment payloads (mapping tier) ---

/// RANK: "give me the server preference order for this client". The
/// server resolves the client to its cluster (origin AS of the longest
/// match) and answers with that cluster's ranking. Stamped with the
/// topology epoch for the same staleness contract as CLUSTER_LOOKUP;
/// standalone servers require epoch == 0.
struct RankRequest {
  std::uint64_t epoch = 0;
  net::IpAddress address;

  friend bool operator==(const RankRequest&, const RankRequest&) = default;
};

/// RANK_REPLY: the preference-ordered server ids for the client's
/// cluster. `cluster_as` is the cluster the address resolved to (0 when
/// the lookup missed and the default ranking applies); `servers` may be
/// empty when no ranking is installed at all. The server a CDN front end
/// should send the client to is `servers.front()`.
struct RankReply {
  std::uint64_t epoch = 0;
  std::uint32_t cluster_as = 0;
  std::vector<std::uint16_t> servers;  // size <= kMaxRankServers

  friend bool operator==(const RankReply&, const RankReply&) = default;
};

[[nodiscard]] std::vector<std::uint8_t> EncodeBatchLookup(
    const BatchLookupRequest& req);
[[nodiscard]] Result<BatchLookupRequest> DecodeBatchLookup(
    const std::uint8_t* data, std::size_t size);

/// Allocation-free BATCH_LOOKUP decode for the reactor fast path: same
/// grammar as DecodeBatchLookup, but the addresses land in `*out` (cleared,
/// capacity reused across frames). Returns the address count.
[[nodiscard]] Result<std::size_t> DecodeBatchLookupInto(
    const std::uint8_t* data, std::size_t size,
    std::vector<net::IpAddress>* out);

[[nodiscard]] std::vector<std::uint8_t> EncodeIngest(const IngestRequest& req);
[[nodiscard]] Result<IngestRequest> DecodeIngest(const std::uint8_t* data,
                                                 std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> EncodeLookupRecord(
    const LookupRecord& record);
[[nodiscard]] Result<LookupRecord> DecodeLookupRecord(const std::uint8_t* data,
                                                      std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> EncodeBatchResult(
    const std::vector<LookupRecord>& records);
[[nodiscard]] Result<std::vector<LookupRecord>> DecodeBatchResult(
    const std::uint8_t* data, std::size_t size);

/// Appends a complete BATCH_RESULT wire frame (header included) built
/// straight from engine matches — byte-identical to
/// EncodeFrame(kBatchResult, EncodeBatchResult(records)) but with no
/// LookupRecord materialization and a single size computation, so the
/// reactor reply path does exactly one append into the connection's
/// outgoing buffer. `count` must be <= kMaxBatch.
void AppendBatchResultFrame(const std::optional<bgp::PrefixTable::Match>* matches,
                            std::size_t count, std::vector<std::uint8_t>* out);

[[nodiscard]] std::vector<std::uint8_t> EncodeIngestAck(const IngestAck& ack);
[[nodiscard]] Result<IngestAck> DecodeIngestAck(const std::uint8_t* data,
                                                std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> EncodeError(const ErrorReply& error);
[[nodiscard]] Result<ErrorReply> DecodeError(const std::uint8_t* data,
                                             std::size_t size);

/// Topology is the payload of both TOPOLOGY_REPLY and SET_TOPOLOGY; the
/// decoder enforces canonical form, so decode(x).ok() implies
/// encode(decode(x)) == x.
[[nodiscard]] std::vector<std::uint8_t> EncodeTopology(const Topology& topo);
[[nodiscard]] Result<Topology> DecodeTopology(const std::uint8_t* data,
                                              std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> EncodeClusterLookup(
    const ClusterLookupRequest& req);
[[nodiscard]] Result<ClusterLookupRequest> DecodeClusterLookup(
    const std::uint8_t* data, std::size_t size);

/// Allocation-free CLUSTER_LOOKUP decode: reads the epoch into `*epoch`
/// and hands the rest to DecodeBatchLookupInto, so the bytes after the
/// epoch are accepted or rejected exactly as a BATCH_LOOKUP payload.
[[nodiscard]] Result<std::size_t> DecodeClusterLookupInto(
    const std::uint8_t* data, std::size_t size, std::uint64_t* epoch,
    std::vector<net::IpAddress>* out);

[[nodiscard]] std::vector<std::uint8_t> EncodeRedirect(
    const RedirectReply& redirect);
[[nodiscard]] Result<RedirectReply> DecodeRedirect(const std::uint8_t* data,
                                                   std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> EncodeClusterStats(
    const ClusterStatsRecord& record);
[[nodiscard]] Result<ClusterStatsRecord> DecodeClusterStats(
    const std::uint8_t* data, std::size_t size);

/// SET_TOPOLOGY_ACK payload: the epoch now installed on the node.
[[nodiscard]] std::vector<std::uint8_t> EncodeTopologyAck(std::uint64_t epoch);
[[nodiscard]] Result<std::uint64_t> DecodeTopologyAck(const std::uint8_t* data,
                                                      std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> EncodeRank(const RankRequest& req);
[[nodiscard]] Result<RankRequest> DecodeRank(const std::uint8_t* data,
                                             std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> EncodeRankReply(const RankReply& reply);
[[nodiscard]] Result<RankReply> DecodeRankReply(const std::uint8_t* data,
                                                std::size_t size);

}  // namespace netclust::server
