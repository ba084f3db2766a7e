#include "server/proto.h"

namespace netclust::server {

bool IsRequestOpcode(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPing:
    case Opcode::kBatchLookup:
    case Opcode::kIngestUpdate:
    case Opcode::kStats:
    case Opcode::kClusterLookup:
    case Opcode::kTopology:
    case Opcode::kSetTopology:
    case Opcode::kClusterStats:
    case Opcode::kRank:
      return true;
    default:
      return false;
  }
}

bool IsKnownOpcode(std::uint8_t raw) {
  switch (static_cast<Opcode>(raw)) {
    case Opcode::kPing:
    case Opcode::kBatchLookup:
    case Opcode::kIngestUpdate:
    case Opcode::kStats:
    case Opcode::kClusterLookup:
    case Opcode::kTopology:
    case Opcode::kSetTopology:
    case Opcode::kClusterStats:
    case Opcode::kRank:
    case Opcode::kPong:
    case Opcode::kBatchResult:
    case Opcode::kIngestAck:
    case Opcode::kStatsText:
    case Opcode::kTopologyReply:
    case Opcode::kSetTopologyAck:
    case Opcode::kClusterStatsReply:
    case Opcode::kRankReply:
    case Opcode::kBusy:
    case Opcode::kError:
    case Opcode::kRedirect:
      return true;
  }
  return false;
}

const char* OpcodeName(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPing:
      return "PING";
    case Opcode::kBatchLookup:
      return "BATCH_LOOKUP";
    case Opcode::kIngestUpdate:
      return "INGEST_UPDATE";
    case Opcode::kStats:
      return "STATS";
    case Opcode::kClusterLookup:
      return "CLUSTER_LOOKUP";
    case Opcode::kTopology:
      return "TOPOLOGY";
    case Opcode::kSetTopology:
      return "SET_TOPOLOGY";
    case Opcode::kClusterStats:
      return "CLUSTER_STATS";
    case Opcode::kRank:
      return "RANK";
    case Opcode::kPong:
      return "PONG";
    case Opcode::kBatchResult:
      return "BATCH_RESULT";
    case Opcode::kIngestAck:
      return "INGEST_ACK";
    case Opcode::kStatsText:
      return "STATS_TEXT";
    case Opcode::kTopologyReply:
      return "TOPOLOGY_REPLY";
    case Opcode::kSetTopologyAck:
      return "SET_TOPOLOGY_ACK";
    case Opcode::kClusterStatsReply:
      return "CLUSTER_STATS_REPLY";
    case Opcode::kRankReply:
      return "RANK_REPLY";
    case Opcode::kBusy:
      return "BUSY";
    case Opcode::kError:
      return "ERROR";
    case Opcode::kRedirect:
      return "REDIRECT";
  }
  return "UNKNOWN";
}

void PutU16(std::vector<std::uint8_t>* out, std::uint16_t value) {
  out->push_back(static_cast<std::uint8_t>(value >> 8));
  out->push_back(static_cast<std::uint8_t>(value));
}

void PutU32(std::vector<std::uint8_t>* out, std::uint32_t value) {
  PutU16(out, static_cast<std::uint16_t>(value >> 16));
  PutU16(out, static_cast<std::uint16_t>(value));
}

void PutU64(std::vector<std::uint8_t>* out, std::uint64_t value) {
  PutU32(out, static_cast<std::uint32_t>(value >> 32));
  PutU32(out, static_cast<std::uint32_t>(value));
}

std::uint16_t GetU16(const std::uint8_t* data) {
  return static_cast<std::uint16_t>((std::uint16_t{data[0]} << 8) | data[1]);
}

std::uint32_t GetU32(const std::uint8_t* data) {
  return (std::uint32_t{GetU16(data)} << 16) | GetU16(data + 2);
}

std::uint64_t GetU64(const std::uint8_t* data) {
  return (std::uint64_t{GetU32(data)} << 32) | GetU32(data + 4);
}

std::vector<std::uint8_t> EncodeFrame(
    Opcode opcode, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload.size());
  PutU16(&out, kMagic);
  out.push_back(kProtoVersion);
  out.push_back(static_cast<std::uint8_t>(opcode));
  PutU32(&out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

Result<FrameHeader> DecodeFrameHeader(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < kHeaderSize) return Fail("frame header truncated");
  if (GetU16(data) != kMagic) return Fail("bad frame magic");
  const std::uint8_t version = data[2];
  if (version != kProtoVersion) return Fail("unsupported protocol version");
  if (!IsKnownOpcode(data[3])) return Fail("unknown opcode");
  const std::uint32_t payload_size = GetU32(data + 4);
  if (payload_size > kMaxPayload) return Fail("payload length exceeds bound");
  return FrameHeader{version, static_cast<Opcode>(data[3]), payload_size};
}

void FrameDecoder::Feed(const std::uint8_t* data, std::size_t size) {
  // Compact before growing: consumed_ bytes at the front are dead.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  auto view = NextView();
  if (!view.ok()) return Fail(view.error());
  if (!view.value().has_value()) return std::optional<Frame>{};
  Frame frame;
  frame.header = view.value()->header;
  frame.payload.assign(view.value()->payload,
                       view.value()->payload + frame.header.payload_size);
  return std::optional<Frame>{std::move(frame)};
}

Result<std::optional<FrameView>> FrameDecoder::NextView() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kHeaderSize) return std::optional<FrameView>{};
  const std::uint8_t* at = buffer_.data() + consumed_;
  auto header = DecodeFrameHeader(at, available);
  if (!header.ok()) return Fail(header.error());
  const std::size_t total = kHeaderSize + header.value().payload_size;
  if (available < total) return std::optional<FrameView>{};
  consumed_ += total;
  return std::optional<FrameView>{FrameView{header.value(), at + kHeaderSize}};
}

std::vector<std::uint8_t> EncodeBatchLookup(const BatchLookupRequest& req) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + 4 * req.addresses.size());
  PutU32(&out, static_cast<std::uint32_t>(req.addresses.size()));
  for (const net::IpAddress address : req.addresses) {
    PutU32(&out, address.bits());
  }
  return out;
}

Result<BatchLookupRequest> DecodeBatchLookup(const std::uint8_t* data,
                                             std::size_t size) {
  BatchLookupRequest req;
  auto count = DecodeBatchLookupInto(data, size, &req.addresses);
  if (!count.ok()) return Fail(count.error());
  return req;
}

Result<std::size_t> DecodeBatchLookupInto(const std::uint8_t* data,
                                          std::size_t size,
                                          std::vector<net::IpAddress>* out) {
  out->clear();
  if (size < 4) return Fail("BATCH_LOOKUP payload truncated");
  const std::uint32_t count = GetU32(data);
  if (count > kMaxBatch) return Fail("BATCH_LOOKUP count exceeds bound");
  if (size != 4 + std::size_t{count} * 4) {
    return Fail("BATCH_LOOKUP length disagrees with its count");
  }
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out->emplace_back(GetU32(data + 4 + std::size_t{i} * 4));
  }
  return std::size_t{count};
}

std::vector<std::uint8_t> EncodeIngest(const IngestRequest& req) {
  std::vector<std::uint8_t> out;
  PutU32(&out, req.source_id);
  const std::vector<std::uint8_t> update = bgp::EncodeUpdate(req.update);
  out.insert(out.end(), update.begin(), update.end());
  return out;
}

Result<IngestRequest> DecodeIngest(const std::uint8_t* data,
                                   std::size_t size) {
  if (size < 4) return Fail("INGEST_UPDATE payload truncated");
  IngestRequest req;
  req.source_id = GetU32(data);
  const std::vector<std::uint8_t> bytes(data + 4, data + size);
  std::size_t offset = 0;
  auto update = bgp::DecodeUpdate(bytes, &offset);
  if (!update.ok()) return Fail(update.error());
  if (offset != bytes.size()) {
    return Fail("trailing bytes after the embedded BGP UPDATE");
  }
  req.update = std::move(update).value();
  return req;
}

LookupRecord LookupRecord::FromMatch(
    const std::optional<bgp::PrefixTable::Match>& match) {
  LookupRecord record;
  if (!match.has_value()) return record;
  record.found = true;
  record.prefix = match->prefix;
  record.kind = match->kind;
  record.origin_as = match->origin_as;
  record.source_mask = match->source_mask;
  return record;
}

std::optional<bgp::PrefixTable::Match> LookupRecord::ToMatch() const {
  if (!found) return std::nullopt;
  return bgp::PrefixTable::Match{prefix, kind, source_mask, origin_as};
}

std::vector<std::uint8_t> EncodeLookupRecord(const LookupRecord& record) {
  std::vector<std::uint8_t> out;
  out.reserve(kLookupRecordSize);
  out.push_back(record.found ? 1 : 0);
  out.push_back(
      record.found ? static_cast<std::uint8_t>(record.prefix.length()) : 0);
  out.push_back(record.found ? static_cast<std::uint8_t>(record.kind) : 0);
  out.push_back(0);  // reserved
  PutU32(&out, record.found ? record.prefix.network().bits() : 0);
  PutU32(&out, record.found ? record.origin_as : 0);
  PutU32(&out, record.found ? record.source_mask : 0);
  return out;
}

Result<LookupRecord> DecodeLookupRecord(const std::uint8_t* data,
                                        std::size_t size) {
  if (size != kLookupRecordSize) {
    return Fail("lookup record must be exactly 16 bytes");
  }
  if (data[0] > 1) return Fail("lookup record found flag must be 0 or 1");
  if (data[3] != 0) return Fail("lookup record reserved byte must be zero");
  LookupRecord record;
  record.found = data[0] == 1;
  const std::uint8_t length = data[1];
  const std::uint8_t kind = data[2];
  const std::uint32_t network = GetU32(data + 4);
  const std::uint32_t origin_as = GetU32(data + 8);
  const std::uint32_t source_mask = GetU32(data + 12);
  if (!record.found) {
    // Canonical absent record: all fields zero, so encode(decode(x)) == x.
    if (length != 0 || kind != 0 || network != 0 || origin_as != 0 ||
        source_mask != 0) {
      return Fail("absent lookup record carries non-zero fields");
    }
    return record;
  }
  if (length > 32) return Fail("lookup record prefix length exceeds 32");
  if (kind > 1) return Fail("lookup record source kind out of range");
  record.prefix = net::Prefix(net::IpAddress(network), length);
  if (record.prefix.network().bits() != network) {
    return Fail("lookup record prefix has host bits set");
  }
  record.kind = static_cast<bgp::SourceKind>(kind);
  record.origin_as = origin_as;
  record.source_mask = source_mask;
  return record;
}

std::vector<std::uint8_t> EncodeBatchResult(
    const std::vector<LookupRecord>& records) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + kLookupRecordSize * records.size());
  PutU32(&out, static_cast<std::uint32_t>(records.size()));
  for (const LookupRecord& record : records) {
    const std::vector<std::uint8_t> encoded = EncodeLookupRecord(record);
    out.insert(out.end(), encoded.begin(), encoded.end());
  }
  return out;
}

void AppendBatchResultFrame(
    const std::optional<bgp::PrefixTable::Match>* matches, std::size_t count,
    std::vector<std::uint8_t>* out) {
  const std::size_t payload_size = 4 + kLookupRecordSize * count;
  out->reserve(out->size() + kHeaderSize + payload_size);
  PutU16(out, kMagic);
  out->push_back(kProtoVersion);
  out->push_back(static_cast<std::uint8_t>(Opcode::kBatchResult));
  PutU32(out, static_cast<std::uint32_t>(payload_size));
  PutU32(out, static_cast<std::uint32_t>(count));
  for (std::size_t i = 0; i < count; ++i) {
    const std::optional<bgp::PrefixTable::Match>& match = matches[i];
    if (!match.has_value()) {
      // Canonical absent record: 16 zero bytes (see EncodeLookupRecord).
      out->insert(out->end(), kLookupRecordSize, 0);
      continue;
    }
    out->push_back(1);
    out->push_back(static_cast<std::uint8_t>(match->prefix.length()));
    out->push_back(static_cast<std::uint8_t>(match->kind));
    out->push_back(0);  // reserved
    PutU32(out, match->prefix.network().bits());
    PutU32(out, match->origin_as);
    PutU32(out, match->source_mask);
  }
}

Result<std::vector<LookupRecord>> DecodeBatchResult(const std::uint8_t* data,
                                                    std::size_t size) {
  if (size < 4) return Fail("BATCH_RESULT payload truncated");
  const std::uint32_t count = GetU32(data);
  if (count > kMaxBatch) return Fail("BATCH_RESULT count exceeds bound");
  if (size != 4 + std::size_t{count} * kLookupRecordSize) {
    return Fail("BATCH_RESULT length disagrees with its count");
  }
  std::vector<LookupRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    auto record = DecodeLookupRecord(
        data + 4 + std::size_t{i} * kLookupRecordSize, kLookupRecordSize);
    if (!record.ok()) return Fail(record.error());
    records.push_back(std::move(record).value());
  }
  return records;
}

std::vector<std::uint8_t> EncodeIngestAck(const IngestAck& ack) {
  std::vector<std::uint8_t> out;
  PutU64(&out, ack.table_version);
  return out;
}

Result<IngestAck> DecodeIngestAck(const std::uint8_t* data, std::size_t size) {
  if (size != 8) return Fail("INGEST_ACK payload must be exactly 8 bytes");
  return IngestAck{GetU64(data)};
}

std::vector<std::uint8_t> EncodeError(const ErrorReply& error) {
  std::vector<std::uint8_t> out;
  out.reserve(1 + error.message.size());
  out.push_back(static_cast<std::uint8_t>(error.code));
  out.insert(out.end(), error.message.begin(), error.message.end());
  return out;
}

Result<ErrorReply> DecodeError(const std::uint8_t* data, std::size_t size) {
  if (size < 1) return Fail("ERROR payload truncated");
  const std::uint8_t code = data[0];
  if (code < 1 || code > 4) return Fail("ERROR code out of range");
  ErrorReply error;
  error.code = static_cast<ErrorCode>(code);
  error.message.assign(reinterpret_cast<const char*>(data + 1), size - 1);
  return error;
}

// --- cluster-mode codecs ---

Result<bool> ValidateTopology(const Topology& topo) {
  if (topo.nodes.empty()) return Fail("topology has no nodes");
  if (topo.nodes.size() > kMaxClusterNodes) {
    return Fail("topology node count exceeds bound");
  }
  for (std::size_t i = 1; i < topo.nodes.size(); ++i) {
    if (topo.nodes[i].id <= topo.nodes[i - 1].id) {
      return Fail("topology node ids must be strictly increasing");
    }
  }
  if (topo.ranges.empty()) return Fail("topology has no shard ranges");
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < topo.ranges.size(); ++i) {
    const ShardRange& range = topo.ranges[i];
    if (range.block_count == 0) return Fail("empty shard range");
    if (range.first_block != covered) {
      return Fail("shard ranges must be sorted and gap-free");
    }
    if (range.node_index >= topo.nodes.size()) {
      return Fail("shard range names a node index out of bounds");
    }
    if (i > 0 && range.node_index == topo.ranges[i - 1].node_index) {
      return Fail("adjacent shard ranges with one owner must be merged");
    }
    covered += range.block_count;
    if (covered > kShardBlockCount) {
      return Fail("shard ranges overflow the block space");
    }
  }
  if (covered != kShardBlockCount) {
    return Fail("shard ranges must cover every /16 block");
  }
  return true;
}

std::vector<std::uint16_t> CompileOwners(const Topology& topo) {
  std::vector<std::uint16_t> owner(kShardBlockCount, 0);
  for (const ShardRange& range : topo.ranges) {
    for (std::uint32_t b = 0; b < range.block_count; ++b) {
      owner[range.first_block + b] = range.node_index;
    }
  }
  return owner;
}

int NodeIndexOf(const Topology& topo, std::uint32_t node_id) {
  for (std::size_t i = 0; i < topo.nodes.size(); ++i) {
    if (topo.nodes[i].id == node_id) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::uint8_t> EncodeTopology(const Topology& topo) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + 2 + 10 * topo.nodes.size() + 4 + 10 * topo.ranges.size());
  PutU64(&out, topo.epoch);
  PutU16(&out, static_cast<std::uint16_t>(topo.nodes.size()));
  for (const NodeInfo& node : topo.nodes) {
    PutU32(&out, node.id);
    PutU32(&out, node.host.bits());
    PutU16(&out, node.port);
  }
  PutU32(&out, static_cast<std::uint32_t>(topo.ranges.size()));
  for (const ShardRange& range : topo.ranges) {
    PutU32(&out, range.first_block);
    PutU32(&out, range.block_count);
    PutU16(&out, range.node_index);
  }
  return out;
}

Result<Topology> DecodeTopology(const std::uint8_t* data, std::size_t size) {
  if (size < 10) return Fail("topology payload truncated");
  Topology topo;
  topo.epoch = GetU64(data);
  const std::uint16_t node_count = GetU16(data + 8);
  std::size_t offset = 10;
  if (size < offset + std::size_t{node_count} * 10 + 4) {
    return Fail("topology payload truncated in the node list");
  }
  topo.nodes.reserve(node_count);
  for (std::uint16_t i = 0; i < node_count; ++i) {
    NodeInfo node;
    node.id = GetU32(data + offset);
    node.host = net::IpAddress(GetU32(data + offset + 4));
    node.port = GetU16(data + offset + 8);
    topo.nodes.push_back(node);
    offset += 10;
  }
  const std::uint32_t range_count = GetU32(data + offset);
  offset += 4;
  if (range_count > kShardBlockCount) {
    return Fail("topology range count exceeds the block space");
  }
  if (size != offset + std::size_t{range_count} * 10) {
    return Fail("topology length disagrees with its range count");
  }
  topo.ranges.reserve(range_count);
  for (std::uint32_t i = 0; i < range_count; ++i) {
    ShardRange range;
    range.first_block = GetU32(data + offset);
    range.block_count = GetU32(data + offset + 4);
    range.node_index = GetU16(data + offset + 8);
    topo.ranges.push_back(range);
    offset += 10;
  }
  auto valid = ValidateTopology(topo);
  if (!valid.ok()) return Fail(valid.error());
  return topo;
}

std::vector<std::uint8_t> EncodeClusterLookup(const ClusterLookupRequest& req) {
  std::vector<std::uint8_t> out;
  PutU64(&out, req.epoch);
  const std::vector<std::uint8_t> batch = EncodeBatchLookup({req.addresses});
  out.insert(out.end(), batch.begin(), batch.end());
  return out;
}

Result<ClusterLookupRequest> DecodeClusterLookup(const std::uint8_t* data,
                                                 std::size_t size) {
  ClusterLookupRequest req;
  auto count = DecodeClusterLookupInto(data, size, &req.epoch, &req.addresses);
  if (!count.ok()) return Fail(count.error());
  return req;
}

Result<std::size_t> DecodeClusterLookupInto(const std::uint8_t* data,
                                            std::size_t size,
                                            std::uint64_t* epoch,
                                            std::vector<net::IpAddress>* out) {
  out->clear();
  if (size < 8) return Fail("CLUSTER_LOOKUP payload truncated");
  *epoch = GetU64(data);
  return DecodeBatchLookupInto(data + 8, size - 8, out);
}

std::vector<std::uint8_t> EncodeRedirect(const RedirectReply& redirect) {
  std::vector<std::uint8_t> out;
  out.reserve(9);
  out.push_back(static_cast<std::uint8_t>(redirect.reason));
  PutU64(&out, redirect.epoch);
  return out;
}

Result<RedirectReply> DecodeRedirect(const std::uint8_t* data,
                                     std::size_t size) {
  if (size != 9) return Fail("REDIRECT payload must be exactly 9 bytes");
  if (data[0] < 1 || data[0] > 2) return Fail("REDIRECT reason out of range");
  RedirectReply redirect;
  redirect.reason = static_cast<RedirectReason>(data[0]);
  redirect.epoch = GetU64(data + 1);
  return redirect;
}

std::vector<std::uint8_t> EncodeClusterStats(const ClusterStatsRecord& record) {
  std::vector<std::uint8_t> out;
  out.reserve(kClusterStatsRecordSize);
  PutU64(&out, record.epoch);
  PutU32(&out, record.node_id);
  PutU64(&out, record.frames_decoded);
  PutU64(&out, record.lookups_served);
  PutU64(&out, record.cluster_lookups_served);
  PutU64(&out, record.ingests_applied);
  PutU64(&out, record.busy_replies);
  PutU64(&out, record.errors_sent);
  PutU64(&out, record.redirects_sent);
  PutU64(&out, record.connections_active);
  PutU64(&out, record.latency_sum_ns);
  for (const std::uint64_t bucket : record.latency_buckets) {
    PutU64(&out, bucket);
  }
  return out;
}

Result<ClusterStatsRecord> DecodeClusterStats(const std::uint8_t* data,
                                              std::size_t size) {
  if (size != kClusterStatsRecordSize) {
    return Fail("CLUSTER_STATS_REPLY payload has the wrong size");
  }
  ClusterStatsRecord record;
  record.epoch = GetU64(data);
  record.node_id = GetU32(data + 8);
  std::size_t offset = 12;
  std::uint64_t* const counters[] = {
      &record.frames_decoded, &record.lookups_served,
      &record.cluster_lookups_served, &record.ingests_applied,
      &record.busy_replies, &record.errors_sent,
      &record.redirects_sent, &record.connections_active,
      &record.latency_sum_ns,
  };
  for (std::uint64_t* counter : counters) {
    *counter = GetU64(data + offset);
    offset += 8;
  }
  for (std::uint64_t& bucket : record.latency_buckets) {
    bucket = GetU64(data + offset);
    offset += 8;
  }
  return record;
}

// --- CDN assignment codecs (mapping tier) ---

std::vector<std::uint8_t> EncodeRank(const RankRequest& req) {
  std::vector<std::uint8_t> out;
  out.reserve(12);
  PutU64(&out, req.epoch);
  PutU32(&out, req.address.bits());
  return out;
}

Result<RankRequest> DecodeRank(const std::uint8_t* data, std::size_t size) {
  if (size != 12) return Fail("RANK payload must be exactly 12 bytes");
  RankRequest req;
  req.epoch = GetU64(data);
  req.address = net::IpAddress(GetU32(data + 8));
  return req;
}

std::vector<std::uint8_t> EncodeRankReply(const RankReply& reply) {
  std::vector<std::uint8_t> out;
  out.reserve(14 + 2 * reply.servers.size());
  PutU64(&out, reply.epoch);
  PutU32(&out, reply.cluster_as);
  PutU16(&out, static_cast<std::uint16_t>(reply.servers.size()));
  for (const std::uint16_t server : reply.servers) {
    PutU16(&out, server);
  }
  return out;
}

Result<RankReply> DecodeRankReply(const std::uint8_t* data, std::size_t size) {
  if (size < 14) return Fail("RANK_REPLY payload truncated");
  RankReply reply;
  reply.epoch = GetU64(data);
  reply.cluster_as = GetU32(data + 8);
  const std::uint16_t count = GetU16(data + 12);
  if (count > kMaxRankServers) return Fail("RANK_REPLY count exceeds bound");
  if (size != 14 + std::size_t{count} * 2) {
    return Fail("RANK_REPLY length disagrees with its count");
  }
  reply.servers.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    reply.servers.push_back(GetU16(data + 14 + std::size_t{i} * 2));
  }
  return reply;
}

std::vector<std::uint8_t> EncodeTopologyAck(std::uint64_t epoch) {
  std::vector<std::uint8_t> out;
  PutU64(&out, epoch);
  return out;
}

Result<std::uint64_t> DecodeTopologyAck(const std::uint8_t* data,
                                        std::size_t size) {
  if (size != 8) return Fail("SET_TOPOLOGY_ACK payload must be exactly 8 bytes");
  return GetU64(data);
}

}  // namespace netclust::server
