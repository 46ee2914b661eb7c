// In-memory span recorder for the benchmark's traced mode.
//
// The benchmark opens a span around each call it makes into a layer of the
// program (data generation, planning, execution, engine submit/wait, the
// layer replays). Spans stay in memory and are written as JSON lines when
// the run ends, so writing them costs nothing inside the timed loop. A
// disabled tracer records nothing and never reads the clock.

#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace ajr::perfbench {

class Tracer {
 public:
  static constexpr int32_t kNoSpan = -1;
  static constexpr uint32_t kNoQuery = UINT32_MAX;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }

  /// Opens a span; returns its id, or kNoSpan when disabled. `name` must be
  /// a string literal (it is stored by pointer).
  int32_t Begin(const char* name, int32_t parent = kNoSpan, uint32_t query = kNoQuery);
  void End(int32_t id);

  /// Writes one JSON object per span: name, start_us, end_us (from the
  /// tracer's creation), id, parent, query.
  Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint32_t query;
  };

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent = Tracer::kNoSpan,
             uint32_t query = Tracer::kNoQuery)
      : tracer_(tracer), id_(tracer->Begin(name, parent, query)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace ajr::perfbench
