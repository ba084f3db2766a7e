#include "driver.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <thread>

#include "server/proto.h"

namespace perfbench {

namespace proto = netclust::server;

namespace {

constexpr std::int64_t kStallNs = 30'000'000'000;  // no reply for 30 s
constexpr std::uint64_t kUpdaterKey = ~std::uint64_t{0};

void SetNonBlocking(int fd) {
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

std::string DescribeRecord(const std::uint8_t* record) {
  char text[96];
  std::snprintf(text, sizeof text, "found=%u %u.%u.%u.%u/%u kind=%u as=%u mask=%#x",
                record[0], record[4], record[5], record[6], record[7],
                record[1], record[2], proto::GetU32(record + 8),
                proto::GetU32(record + 12));
  return text;
}

/// The q-quantile of `values` in each window of `window_ns` (0: one
/// window), by the due time of each value.
std::vector<double> PerWindow(const std::vector<double>& values,
                              const std::vector<std::int64_t>& due_ns,
                              std::int64_t window_ns, double q) {
  std::vector<std::vector<double>> windows(1);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto w = window_ns == 0 ? 0 : static_cast<std::size_t>(due_ns[i] / window_ns);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(values[i]);
  }
  std::vector<double> out;
  for (std::vector<double>& window : windows) {
    if (!window.empty()) out.push_back(Quantile(window, q));
  }
  return out;
}

}  // namespace

std::vector<double> PhaseResult::WindowQuantiles(double q) const {
  return PerWindow(latency_us, due_ns, window_ns, q);
}

std::vector<double> PhaseResult::WindowLateQuantiles(double q) const {
  return PerWindow(late_us, late_due_ns, window_ns, q);
}

std::vector<double> PhaseResult::WindowRates() const {
  const std::int64_t width = window_ns == 0 ? phase_ns : window_ns;
  const auto whole = static_cast<std::size_t>(phase_ns / width);
  std::vector<double> out;
  for (std::size_t w = 0; w < whole && w < window_addresses.size(); ++w) {
    out.push_back(window_addresses[w] / (static_cast<double>(width) / 1e9));
  }
  return out;
}

void PhaseResult::CountAt(std::int64_t at_ns, std::size_t count) {
  const std::int64_t width = window_ns == 0 ? phase_ns : window_ns;
  const auto w = static_cast<std::size_t>(std::max<std::int64_t>(0, at_ns) / width);
  if (w >= window_addresses.size()) window_addresses.resize(w + 1);
  window_addresses[w] += static_cast<double>(count);
}

int ConnectLoopback(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::vector<Connection> ConnectBalanced(const proto::Server& server,
                                        std::uint16_t port,
                                        std::size_t per_reactor) {
  const std::size_t reactors = server.reactor_count();
  std::vector<std::vector<int>> groups(reactors);
  const auto accepted = [&server, reactors] {
    std::vector<std::uint64_t> counts(reactors);
    for (std::size_t i = 0; i < reactors; ++i) {
      counts[i] = server.reactor_metrics(i).connections_accepted.value();
    }
    return counts;
  };
  std::vector<int> extra;
  bool ok = true;
  for (int attempt = 0; attempt < 256 && ok; ++attempt) {
    bool full = true;
    for (const auto& group : groups) full = full && group.size() >= per_reactor;
    if (full) break;
    const std::vector<std::uint64_t> before = accepted();
    const int fd = ConnectLoopback(port);
    if (fd < 0) {
      ok = false;
      break;
    }
    std::size_t landed = reactors;
    const std::int64_t deadline = NowNs() + 2'000'000'000;
    while (landed == reactors && NowNs() < deadline) {
      const std::vector<std::uint64_t> after = accepted();
      for (std::size_t i = 0; i < reactors; ++i) {
        if (after[i] > before[i]) landed = i;
      }
      if (landed == reactors) std::this_thread::yield();
    }
    if (landed == reactors) {
      close(fd);
      ok = false;
    } else if (groups[landed].size() < per_reactor) {
      groups[landed].push_back(fd);
    } else {
      extra.push_back(fd);  // closed once the split is complete
    }
  }
  for (const int fd : extra) close(fd);
  std::vector<Connection> out;
  for (std::size_t r = 0; r < reactors; ++r) {
    if (groups[r].size() < per_reactor) ok = false;
    for (const int fd : groups[r]) {
      SetNonBlocking(fd);
      out.push_back(Connection{fd, r});
    }
  }
  if (!ok) {
    CloseAll(&out);
    return {};
  }
  // Interleave reactors so connection i and i+1 land on different ones.
  std::vector<Connection> interleaved;
  for (std::size_t k = 0; k < per_reactor; ++k) {
    for (std::size_t r = 0; r < reactors; ++r) {
      interleaved.push_back(out[r * per_reactor + k]);
    }
  }
  return interleaved;
}

void CloseAll(std::vector<Connection>* connections) {
  for (const Connection& c : *connections) close(c.fd);
  connections->clear();
}

struct LoopbackDriver::Conn {
  int fd = -1;
  proto::FrameDecoder decoder;
  std::deque<Pending> pending;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  bool write_armed = false;
  std::size_t slice_begin = 0;
  std::size_t slice_end = 0;
  std::size_t cursor = 0;
  std::uint64_t answered = 0;
};

LoopbackDriver::LoopbackDriver(const Stream* stream, std::vector<int> fds,
                               Tracer* tracer)
    : stream_(stream), tracer_(tracer), read_buffer_(1 << 18) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  for (std::size_t i = 0; i < fds.size(); ++i) {
    auto* conn = new Conn;
    conn->fd = fds[i];
    SetNonBlocking(conn->fd);
    const std::size_t frames = stream_->frame_count();
    conn->slice_begin = frames * i / fds.size();
    conn->slice_end = frames * (i + 1) / fds.size();
    conn->cursor = conn->slice_begin;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev);
    conns_.push_back(conn);
  }
}

LoopbackDriver::~LoopbackDriver() {
  for (Conn* conn : conns_) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    delete conn;
  }
  close(epoll_fd_);
}

void LoopbackDriver::Corrupt(Stream* stream) {
  const std::size_t record = stream->frame_count() / 2 * stream->frame_size;
  stream->expected[record * 16 + 4] ^= 0xFF;
}

void LoopbackDriver::ArmWrite(Conn& conn, bool on) {
  if (conn.write_armed == on) return;
  conn.write_armed = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i] == &conn) ev.data.u64 = i;
  }
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

bool LoopbackDriver::Flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = write(conn.fd, conn.out.data() + conn.out_off,
                            conn.out.size() - conn.out_off);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ArmWrite(conn, true);
      return true;
    }
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  ArmWrite(conn, false);
  return true;
}

void LoopbackDriver::Send(Conn& conn, std::size_t frame, std::size_t count) {
  const std::size_t bytes = stream_->frame_wire_bytes();
  const std::uint8_t* begin = stream_->frame(frame);
  conn.out.insert(conn.out.end(), begin, begin + bytes * count);
  Flush(conn);
}

std::size_t LoopbackDriver::Receive(Conn& conn, PhaseResult* result,
                                    bool open_loop,
                                    std::int32_t span_parent) {
  std::size_t consumed = 0;
  const std::size_t k = stream_->frame_size;
  for (;;) {
    const ssize_t n = read(conn.fd, read_buffer_.data(), read_buffer_.size());
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      while (!conn.pending.empty()) {
        conn.pending.pop_front();
        result->tally.Fail("connection closed by server");
      }
      break;
    }
    const std::int64_t now = NowNs();
    conn.decoder.Feed(read_buffer_.data(), static_cast<std::size_t>(n));
    for (;;) {
      auto next = conn.decoder.NextView();
      if (!next.ok()) {
        result->tally.Fail("undecodable reply: " + next.error());
        return consumed;
      }
      if (!next.value().has_value()) break;
      const proto::FrameView& view = *next.value();
      if (conn.pending.empty()) {
        result->tally.Fail("reply without a request");
        continue;
      }
      const Pending p = conn.pending.front();
      conn.pending.pop_front();
      ++consumed;
      const double latency_us =
          static_cast<double>(now - (open_loop ? p.due_ns : p.sent_ns)) / 1e3;
      if (tracer_ != nullptr) {
        tracer_->Record("server.frame", span_parent, p.frame, p.sent_ns, now,
                        static_cast<std::uint32_t>(k));
      }
      if (view.header.opcode == proto::Opcode::kBusy) {
        result->tally.Fail("BUSY reply");
        continue;
      }
      if (view.header.opcode == proto::Opcode::kError) {
        auto error = proto::DecodeError(view.payload, view.header.payload_size);
        result->tally.Fail("ERROR reply: " +
                           (error.ok() ? error.value().message : error.error()));
        continue;
      }
      if (view.header.opcode != proto::Opcode::kBatchResult ||
          view.header.payload_size != 4 + 16 * k ||
          proto::GetU32(view.payload) != k) {
        result->tally.Fail("malformed BATCH_RESULT");
        continue;
      }
      const std::uint8_t* got = view.payload + 4;
      const std::uint8_t* want = stream_->expected_frame(p.frame);
      if (std::memcmp(got, want, 16 * k) != 0) {
        std::size_t i = 0;  // the first differing record
        while (std::memcmp(got + 16 * i, want + 16 * i, 16) == 0) ++i;
        const auto address = stream_->addresses[p.frame * k + i];
        result->tally.Mismatch("oracle mismatch for " + address.ToString() +
                               ": server " + DescribeRecord(got + 16 * i) +
                               ", oracle " + DescribeRecord(want + 16 * i));
        continue;
      }
      ++conn.answered;  // only matching answers count toward a full pass
      ++result->frames;
      result->addresses += k;
      if (open_loop) {
        result->latency_us.push_back(latency_us);
        result->due_ns.push_back(p.due_ns - phase_start_ns_);
      } else if (result->phase_ns > 0) {
        result->CountAt(now - phase_start_ns_, k);
      }
    }
    if (static_cast<std::size_t>(n) < read_buffer_.size()) break;
  }
  return consumed;
}

PhaseResult LoopbackDriver::OpenLoop(double frames_per_s, double seconds,
                                     UpdatePlan* updates,
                                     std::int32_t span_parent) {
  PhaseResult result;
  const std::size_t frames = stream_->frame_count();
  const double interval_ns = 1e9 / frames_per_s;
  const std::int64_t t0 = NowNs() + 1'000'000;
  const auto end_ns = t0 + static_cast<std::int64_t>(seconds * 1e9);
  phase_start_ns_ = t0;
  result.phase_ns = end_ns - t0;
  // With updates the phase lasts until the last ack; it is one window.
  result.window_ns = updates == nullptr ? kOpenWindowNs : 0;
  const auto due = [&](std::size_t j) {
    return t0 + static_cast<std::int64_t>(static_cast<double>(j) * interval_ns);
  };
  result.latency_us.reserve(static_cast<std::size_t>(frames_per_s * seconds) + 16);
  result.late_us.reserve(result.latency_us.capacity());
  result.late_due_ns.reserve(result.latency_us.capacity());

  proto::FrameDecoder update_decoder;
  std::size_t next_update = 0;
  std::int64_t update_sent_ns = 0;
  std::int64_t updates_started_ns = 0;
  bool updates_done = updates == nullptr || updates->frames.empty();
  const auto send_update = [&] {
    const auto& frame = updates->frames[next_update];
    update_sent_ns = NowNs();
    if (next_update == 0) updates_started_ns = update_sent_ns;
    ++result.tally.attempted;
    std::size_t off = 0;
    while (off < frame.size()) {  // an update frame is tiny; loop on EAGAIN
      const ssize_t n = write(updates->fd, frame.data() + off, frame.size() - off);
      if (n > 0) off += static_cast<std::size_t>(n);
      else if (n < 0 && errno != EAGAIN && errno != EINTR) break;
    }
  };
  if (!updates_done) {
    SetNonBlocking(updates->fd);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kUpdaterKey;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, updates->fd, &ev);
  }

  std::size_t j = 0;
  std::size_t outstanding = 0;
  std::int64_t last_progress = t0;
  epoll_event events[64];
  std::vector<std::uint8_t> update_buffer(4096);
  for (;;) {
    const std::int64_t now = NowNs();
    if (!updates_done && updates_started_ns == 0 && now >= t0) send_update();
    const bool sending = due(j) < end_ns || !updates_done;
    while (sending && due(j) <= now) {
      Conn& conn = *conns_[j % conns_.size()];
      const std::size_t frame = (open_cursor_ + j) % frames;
      const std::int64_t sent = NowNs();
      conn.pending.push_back(
          Pending{static_cast<std::uint32_t>(frame), due(j), sent});
      Send(conn, frame, 1);
      result.late_us.push_back(static_cast<double>(sent - due(j)) / 1e3);
      result.late_due_ns.push_back(due(j) - t0);
      ++result.tally.attempted;
      ++outstanding;
      ++j;
      if (!(due(j) < end_ns || !updates_done)) break;
    }
    if (!sending && outstanding == 0 && updates_done) break;
    if (now - last_progress > kStallNs) {
      for (std::size_t i = 0; i < outstanding; ++i) result.tally.Fail("timeout");
      if (!updates_done) result.tally.Fail("update ack timeout");
      break;
    }
    const int n = epoll_wait(epoll_fd_, events, 64, 0);  // polls; see driver.h
    for (int e = 0; e < n; ++e) {
      if (events[e].data.u64 == kUpdaterKey) {
        const ssize_t got =
            read(updates->fd, update_buffer.data(), update_buffer.size());
        if (got <= 0) {
          if (got == 0) {
            result.tally.Fail("updater connection closed");
            updates_done = true;
          }
          continue;
        }
        const std::int64_t acked = NowNs();
        update_decoder.Feed(update_buffer.data(), static_cast<std::size_t>(got));
        for (;;) {
          auto next = update_decoder.Next();
          if (!next.ok() || !next.value().has_value()) break;
          const proto::Frame& frame = *next.value();
          if (frame.header.opcode != proto::Opcode::kIngestAck) {
            result.tally.Fail("update not acked (opcode " +
                              std::to_string(static_cast<int>(frame.header.opcode)) +
                              ")");
          }
          updates->visible_ms.push_back(
              static_cast<double>(acked - update_sent_ns) / 1e6);
          last_progress = acked;
          if (++next_update < updates->frames.size()) {
            send_update();
          } else {
            updates_done = true;
            updates->elapsed_s =
                static_cast<double>(acked - updates_started_ns) / 1e9;
          }
        }
        continue;
      }
      Conn& conn = *conns_[events[e].data.u64];
      if ((events[e].events & EPOLLOUT) != 0) Flush(conn);
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        const std::size_t got = Receive(conn, &result, true, span_parent);
        outstanding -= std::min(outstanding, got);
        if (got > 0) last_progress = NowNs();
      }
    }
  }
  open_cursor_ = (open_cursor_ + j) % frames;  // the next phase continues
  if (updates != nullptr && !updates->frames.empty()) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, updates->fd, nullptr);
  }
  result.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (updates != nullptr) {  // ran until the last update ack
    result.phase_ns = static_cast<std::int64_t>(result.elapsed_s * 1e9);
  }
  return result;
}

PhaseResult LoopbackDriver::ClosedLoop(std::size_t window, double seconds,
                                       bool full_pass,
                                       std::int32_t span_parent) {
  PhaseResult result;
  const std::int64_t t0 = NowNs();
  const auto end_ns = t0 + static_cast<std::int64_t>(seconds * 1e9);
  phase_start_ns_ = t0;
  result.phase_ns = end_ns - t0;
  result.window_ns = std::min(kClosedWindowNs, result.phase_ns);
  std::size_t outstanding = 0;
  const auto top_up = [&](Conn& conn) {
    std::size_t want = window - std::min(window, conn.pending.size());
    const std::int64_t now = NowNs();
    while (want > 0) {
      const std::size_t run = std::min(want, conn.slice_end - conn.cursor);
      for (std::size_t f = 0; f < run; ++f) {
        conn.pending.push_back(
            Pending{static_cast<std::uint32_t>(conn.cursor + f), now, now});
      }
      const std::size_t bytes = stream_->frame_wire_bytes() * run;
      const std::uint8_t* begin = stream_->frame(conn.cursor);
      conn.out.insert(conn.out.end(), begin, begin + bytes);
      result.tally.attempted += run;
      outstanding += run;
      conn.cursor += run;
      if (conn.cursor == conn.slice_end) conn.cursor = conn.slice_begin;
      want -= run;
    }
    Flush(conn);
  };
  const auto passed = [&] {
    for (const Conn* conn : conns_) {
      if (conn->answered < conn->slice_end - conn->slice_begin) return false;
    }
    return true;
  };
  for (Conn* conn : conns_) conn->answered = 0;
  for (Conn* conn : conns_) top_up(*conn);
  std::int64_t last_progress = t0;
  std::int64_t busy_ns = 0;
  epoll_event events[64];
  bool sending = true;
  for (;;) {
    const std::int64_t now = NowNs();
    if (sending && now >= end_ns && (!full_pass || passed())) {
      sending = false;
    }
    if (!sending && outstanding == 0) break;
    if (now - last_progress > kStallNs) {
      for (std::size_t i = 0; i < outstanding; ++i) result.tally.Fail("timeout");
      break;
    }
    const int n = epoll_wait(epoll_fd_, events, 64, 0);
    for (int e = 0; e < n; ++e) {
      Conn& conn = *conns_[events[e].data.u64];
      if ((events[e].events & EPOLLOUT) != 0) Flush(conn);
      if ((events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        const std::size_t got = Receive(conn, &result, false, span_parent);
        outstanding -= std::min(outstanding, got);
        if (got > 0) last_progress = NowNs();
        if (sending && got > 0) top_up(conn);
      }
    }
    if (n > 0) busy_ns += NowNs() - now;
  }
  result.full_pass = passed();
  result.driver_busy_share =
      static_cast<double>(busy_ns) / static_cast<double>(NowNs() - t0);
  result.elapsed_s = static_cast<double>(NowNs() - t0) / 1e9;
  return result;
}

void LoopbackDriver::CheckOne(std::size_t frame, Tally* tally) {
  PhaseResult result;
  ++result.tally.attempted;
  Conn& conn = *conns_.front();
  const std::int64_t now = NowNs();
  conn.pending.push_back(Pending{static_cast<std::uint32_t>(frame), now, now});
  Send(conn, frame, 1);
  const std::int64_t deadline = now + kStallNs;
  while (!conn.pending.empty() && NowNs() < deadline) {
    epoll_event events[8];
    const int n = epoll_wait(epoll_fd_, events, 8, 0);
    for (int e = 0; e < n; ++e) {
      if (conns_[events[e].data.u64] == &conn) {
        Receive(conn, &result, false, -1);
      }
    }
  }
  if (!conn.pending.empty()) {
    conn.pending.clear();
    result.tally.Fail("first answer timed out");
  }
  tally->AddCheck(result.tally);
}

}  // namespace perfbench
