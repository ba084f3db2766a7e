// Loopback load driver: one epoll thread over non-blocking TCP connections
// speaking the server/proto.h wire protocol.
//
// Requests are the Stream's pre-encoded BATCH_LOOKUP frames, so the
// driver's per-frame work is a write, a FrameDecoder pass and a memcmp of
// the reply records against the oracle's expected bytes. Every reply is
// checked; a differing record is a mismatch, BUSY/ERROR replies and
// timeouts are failures.
//
// Open loop: frame j is due at t0 + j / rate, whether or not earlier
// frames were answered; latency is timed from the due time (so a stalled
// server is charged for the queue it causes) and the generator's own
// lateness (send time - due time) is kept per frame. Closed loop: each
// connection keeps `window` frames outstanding, sending a contiguous run
// of its stream slice as replies come back. Samples are exact per
// request; no histogram buckets.
//
// The driver thread has CPU 0 to itself (PinGenerator), so it polls epoll
// without sleeping: a sleeping generator would charge its own wake-up
// latency, which on a virtual machine includes waking an idle vCPU, to
// the system's answers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "server/server.h"
#include "trace.h"

namespace perfbench {

/// A connected non-blocking loopback socket plus the reactor that accepted
/// it (discovered from the server's per-reactor accept counters).
struct Connection {
  int fd = -1;
  std::size_t reactor = 0;
};

/// Opens connections until every reactor of `server` holds `per_reactor`
/// of them (extra ones are closed), so load is split evenly no matter how
/// the kernel hashes SO_REUSEPORT accepts. Returns an empty vector on
/// failure.
std::vector<Connection> ConnectBalanced(const netclust::server::Server& server,
                                        std::uint16_t port,
                                        std::size_t per_reactor);

/// Plain blocking connect (fleet nodes have one reactor each).
int ConnectLoopback(std::uint16_t port);

void CloseAll(std::vector<Connection>* connections);

/// Single-prefix INGEST_UPDATE frames sent closed-loop on one connection
/// during an open-loop phase: the next one goes out only after the
/// previous ack. visible_ms gets one send->ack sample per update.
struct UpdatePlan {
  int fd = -1;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<double> visible_ms;
  double elapsed_s = 0;
  // Updates acked per second in each slice sent between lookup phases.
  std::vector<double> slice_rates;
};

/// Measured phases are cut into windows of fixed length; tail latency and
/// throughput are reported as the median over windows, so a scheduler or
/// hypervisor hiccup on a shared machine moves a few windows, not the
/// figure.
inline constexpr std::int64_t kOpenWindowNs = 75'000'000;
inline constexpr std::int64_t kClosedWindowNs = 300'000'000;

struct PhaseResult {
  Tally tally;                   // one operation per frame / update
  std::uint64_t addresses = 0;   // addresses answered and matching
  std::uint64_t frames = 0;      // lookup frames answered
  std::int64_t phase_ns = 0;     // planned length of the measured phase
  std::int64_t window_ns = 0;    // 0: the whole phase is one window
  // Open loop: per answered frame, its latency from the due time and the
  // due time since the phase start; per sent frame, the generator's
  // lateness and the due time since the phase start.
  std::vector<double> latency_us;
  std::vector<std::int64_t> due_ns;
  std::vector<double> late_us;
  std::vector<std::int64_t> late_due_ns;
  // Closed loop: addresses answered per window.
  std::vector<double> window_addresses;
  double elapsed_s = 0;
  // Closed loop with full_pass: every stream frame was answered and
  // matched at least once.
  bool full_pass = false;
  // Share of the phase the driver thread spent handling events rather
  // than polling an empty epoll set: near 1, the figures measure the
  // driver, not the system.
  double driver_busy_share = 0;

  /// The q-quantile of latency_us in each window.
  [[nodiscard]] std::vector<double> WindowQuantiles(double q) const;
  /// The q-quantile of late_us in each window.
  [[nodiscard]] std::vector<double> WindowLateQuantiles(double q) const;
  /// Addresses answered per second in each whole window of the phase.
  [[nodiscard]] std::vector<double> WindowRates() const;
  /// Counts `addresses` answered `at_ns` after the phase start.
  void CountAt(std::int64_t at_ns, std::size_t addresses);
};

class LoopbackDriver {
 public:
  LoopbackDriver(const Stream* stream, std::vector<int> fds, Tracer* tracer);
  ~LoopbackDriver();
  LoopbackDriver(const LoopbackDriver&) = delete;
  LoopbackDriver& operator=(const LoopbackDriver&) = delete;

  /// Open-loop lookups at `frames_per_s` for `seconds`; with `updates`,
  /// runs until every update is acked instead (and at least `seconds`).
  PhaseResult OpenLoop(double frames_per_s, double seconds,
                       UpdatePlan* updates = nullptr,
                       std::int32_t span_parent = -1);

  /// Closed-loop lookups, `window` frames in flight per connection, for
  /// `seconds`; with `full_pass`, also until every stream frame has been
  /// answered once.
  PhaseResult ClosedLoop(std::size_t window, double seconds,
                         bool full_pass = false, std::int32_t span_parent = -1);

  /// Sends stream frame `frame` on the first connection and checks the
  /// answer (the set-up's first oracle-checked answer) into `tally`: one
  /// operation, failed-and-unchecked if it was refused or timed out.
  void CheckOne(std::size_t frame, Tally* tally);

  /// The corrupted-oracle self-test flips a byte of one expected record.
  static void Corrupt(Stream* stream);

 private:
  struct Pending {
    std::uint32_t frame;
    std::int64_t due_ns;
    std::int64_t sent_ns;
  };
  struct Conn;

  void Send(Conn& conn, std::size_t frame, std::size_t count);
  bool Flush(Conn& conn);
  /// Reads and checks every available reply on `conn`; returns replies
  /// consumed. `open_loop` selects due-time latency.
  std::size_t Receive(Conn& conn, PhaseResult* result, bool open_loop,
                      std::int32_t span_parent);
  void ArmWrite(Conn& conn, bool on);

  const Stream* stream_;
  Tracer* tracer_;
  int epoll_fd_ = -1;
  std::int64_t phase_start_ns_ = 0;
  std::size_t open_cursor_ = 0;  // next stream frame of the open loop
  std::vector<Conn*> conns_;
  std::vector<std::uint8_t> read_buffer_;
};

}  // namespace perfbench
