#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <thread>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "server/proto.h"

namespace perfbench {

namespace proto = netclust::server;

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) { return Quantile(samples, 0.5); }

void AppendExpectedRecord(
    const std::optional<netclust::bgp::PrefixTable::Match>& match,
    std::vector<std::uint8_t>* out) {
  const std::vector<std::uint8_t> record =
      proto::EncodeLookupRecord(proto::LookupRecord::FromMatch(match));
  out->insert(out->end(), record.begin(), record.end());
}

Stream MakeStream(std::vector<netclust::net::IpAddress> addresses,
                  std::size_t frame_size,
                  const netclust::bgp::PrefixTable& oracle) {
  Stream stream;
  stream.frame_size = frame_size;
  addresses.resize(addresses.size() / frame_size * frame_size);
  stream.addresses = std::move(addresses);
  stream.wire.reserve(stream.frame_count() * stream.frame_wire_bytes());
  stream.expected.reserve(stream.addresses.size() * 16);
  for (std::size_t f = 0; f < stream.frame_count(); ++f) {
    proto::BatchLookupRequest request;
    request.addresses.assign(
        stream.addresses.begin() + static_cast<std::ptrdiff_t>(f * frame_size),
        stream.addresses.begin() +
            static_cast<std::ptrdiff_t>((f + 1) * frame_size));
    const std::vector<std::uint8_t> frame = proto::EncodeFrame(
        proto::Opcode::kBatchLookup, proto::EncodeBatchLookup(request));
    stream.wire.insert(stream.wire.end(), frame.begin(), frame.end());
  }
  for (const netclust::net::IpAddress address : stream.addresses) {
    AppendExpectedRecord(oracle.LongestMatch(address), &stream.expected);
  }
  return stream;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

void PinCpus(unsigned first, unsigned last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // the calling thread
}

unsigned LastCpu() { return std::max(1u, std::thread::hardware_concurrency()) - 1; }

}  // namespace

void PinSystem() { PinCpus(LastCpu() > 0 ? 1 : 0, LastCpu()); }
void PinGenerator() { PinCpus(0, 0); }
void PinAll() { PinCpus(0, LastCpu()); }

double HostStealShare() {
  static unsigned long long last_total = 0;
  static unsigned long long last_steal = 0;
  std::FILE* file = std::fopen("/proc/stat", "r");
  if (file == nullptr) return 0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(file, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(file);
  if (got != 8) return 0;
  unsigned long long total = 0;
  for (const unsigned long long x : v) total += x;
  const unsigned long long steal = v[7];
  const double share =
      total == last_total
          ? 0
          : static_cast<double>(steal - last_steal) /
                static_cast<double>(total - last_total);
  last_total = total;
  last_steal = steal;
  return share;
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ids.push_back(std::atoi(entry->d_name));
    }
    closedir(dir);
  }
  return ids;
}

double CpuSeconds(const std::vector<pid_t>& tids) {
  double ticks = 0;
  for (const pid_t tid : tids) {
    const std::string path = "/proc/self/task/" + std::to_string(tid) + "/stat";
    std::FILE* file = std::fopen(path.c_str(), "r");
    if (file == nullptr) continue;
    char line[1024];
    const bool read = std::fgets(line, sizeof line, file) != nullptr;
    std::fclose(file);
    // Fields after the parenthesised thread name: state is the 3rd field,
    // utime and stime the 14th and 15th.
    const char* rest = read ? std::strrchr(line, ')') : nullptr;
    if (rest == nullptr) continue;
    unsigned long long utime = 0;
    unsigned long long stime = 0;
    if (std::sscanf(rest + 1, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                    &utime, &stime) == 2) {
      ticks += static_cast<double>(utime + stime);
    }
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace perfbench
