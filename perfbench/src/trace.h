// In-memory span recorder for the traced (--trace 1) run.
//
// A span is (name, start, end, parent, request id). The ladder opens one
// parent span per rung and records a child span around every public call
// it makes (per-address calls are recorded per chunk, with the chunk's
// address count as the request id's companion). Spans are written as TSV
// at exit, one line per span.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;  // stream frame / probe index
  std::uint32_t items = 1;    // addresses (or calls) the span covers
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1u << 21) : capacity_(capacity) {
    spans_.reserve(capacity_);
  }

  /// Records a finished span; returns its index, or -1 when the buffer is
  /// full (counted in dropped()).
  std::int32_t Record(const char* name, std::int32_t parent,
                      std::uint64_t request, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint32_t items = 1) {
    if (spans_.size() >= capacity_) {
      ++dropped_;
      return -1;
    }
    spans_.push_back(Span{name, start_ns, end_ns, parent, request, items});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  /// Opens a parent span (end filled by Close).
  std::int32_t Open(const char* name, std::int32_t parent = -1) {
    const std::int64_t now = NowNs();
    return Record(name, parent, 0, now, now);
  }
  void Close(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Writes every span as one TSV line: index, parent, name, request,
  /// items, start and end (ns, relative to the first span).
  bool WriteTsv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(out, "index\tparent\tname\trequest\titems\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out, "%zu\t%d\t%s\t%llu\t%u\t%lld\t%lld\n", i, span.parent,
                   span.name, static_cast<unsigned long long>(span.request),
                   span.items,
                   static_cast<long long>(span.start_ns - origin),
                   static_cast<long long>(span.end_ns - origin));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

}  // namespace perfbench
