// Shared pieces of the netclust benchmark: clock, exact quantiles, the
// metric sink that becomes the result line, and the request stream every
// workload replays.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

#include "bgp/prefix_table.h"
#include "net/ip_address.h"

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact quantile of the samples (linear interpolation between the two
/// closest ranks). Reorders `samples`. Empty input gives 0.
double Quantile(std::vector<double>& samples, double q);

/// Median of a copy.
double Median(std::vector<double> samples);

/// Name -> (value, unit), printed in insertion-independent (sorted) order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  values() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Operation accounting for the result line: every lookup frame, update,
/// fleet call or ladder probe is one attempted operation; BUSY, ERROR,
/// timeouts and transport failures are failed ones; an answer that differs
/// from the oracle is a mismatch and makes the run incorrect. A failed
/// operation of a verification phase (the set-up's first answer, the
/// post-update probes, the whole-table check, every ladder call) is also
/// unchecked: its answer was never compared, so the run is incorrect too.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t unchecked = 0;
  std::string first_problem;

  void Fail(const std::string& why) {
    ++failed;
    if (first_problem.empty()) first_problem = why;
  }
  void Mismatch(const std::string& why) {
    ++mismatches;
    if (first_problem.empty()) first_problem = why;
  }
  /// A verification phase's operation that failed or never finished.
  void FailCheck(const std::string& why) {
    ++unchecked;
    Fail(why);
  }
  void Add(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    mismatches += other.mismatches;
    unchecked += other.unchecked;
    if (first_problem.empty()) first_problem = other.first_problem;
  }
  /// Adds a verification phase: each of its failures left an answer
  /// unchecked.
  void AddCheck(const Tally& other) {
    Add(other);
    unchecked += other.failed - other.unchecked;
  }
};

/// The 16-byte wire record the server must send for `match` — the
/// oracle's answer in LookupRecord form (proto.h).
void AppendExpectedRecord(const std::optional<netclust::bgp::PrefixTable::Match>& match,
                          std::vector<std::uint8_t>* out);

/// A workload's request stream: addresses in replay order, cut into
/// fixed-size BATCH_LOOKUP frames, pre-encoded on the wire, with the
/// oracle's expected record for every address.
struct Stream {
  std::vector<netclust::net::IpAddress> addresses;
  std::size_t frame_size = 1;  // addresses per frame
  std::vector<std::uint8_t> wire;      // frame i at i * frame_wire_bytes()
  std::vector<std::uint8_t> expected;  // 16 bytes per address

  [[nodiscard]] std::size_t frame_count() const {
    return addresses.size() / frame_size;
  }
  [[nodiscard]] std::size_t frame_wire_bytes() const {
    return 12 + 4 * frame_size;
  }
  [[nodiscard]] const std::uint8_t* frame(std::size_t i) const {
    return wire.data() + i * frame_wire_bytes();
  }
  [[nodiscard]] const std::uint8_t* expected_frame(std::size_t i) const {
    return expected.data() + i * frame_size * 16;
  }
};

/// Cuts `addresses` (truncated to whole frames) into a Stream and fills
/// the expected records from `oracle`.
Stream MakeStream(std::vector<netclust::net::IpAddress> addresses,
                  std::size_t frame_size,
                  const netclust::bgp::PrefixTable& oracle);

/// Peak resident set of this process in MiB (getrusage).
double PeakRssMb();

/// Thread placement: the load generator runs alone on CPU 0 and every
/// thread of the system under test on the other CPUs. Threads inherit the
/// creating thread's mask, so set-up calls PinSystem() before it starts
/// engines and servers and PinGenerator() afterwards.
void PinSystem();
void PinGenerator();
void PinAll();

/// Share of all CPU time the hypervisor stole from this machine since the
/// previous call (the first call counts from boot); /proc/stat.
double HostStealShare();

/// Thread ids of this process (/proc/self/task).
std::vector<pid_t> ThreadIds();
/// CPU time (user + system) the threads `tids` of this process have used,
/// in seconds (/proc/self/task/<tid>/stat; clock-tick resolution).
double CpuSeconds(const std::vector<pid_t>& tids);

}  // namespace perfbench
