#pragma once

// In-memory span recorder for the traced run. Spans are taken by the
// harness around calls into the library's public functions, kept in memory
// and written once at exit as Chrome trace-event JSON (loads in Perfetto
// and chrome://tracing).

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string cat;          ///< module: serve, runtime, core, dnn, sim
  double begin_us = 0.0;    ///< since the tracer's epoch
  double end_us = 0.0;
  std::uint64_t req = 0;    ///< request / batch id the span belongs to
  bool async = false;       ///< request-scoped: may overlap other spans
  int tid = 0;              ///< small per-thread index (sync spans)
  std::vector<std::pair<std::string, double>> args;
};

/// Thread-safe span sink. A null Tracer* means tracing is off; every call
/// site checks the pointer, so the untraced run pays one branch.
class Tracer {
 public:
  Tracer() : epoch_(SteadyClock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] double us(SteadyClock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }
  [[nodiscard]] double now_us() const { return us(SteadyClock::now()); }

  void add(Span s);
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes {"traceEvents": [...]} to `path`; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  SteadyClock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII synchronous span on the calling thread (no-op with a null tracer).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string name, std::string cat,
             std::uint64_t req = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  Span span_;
};

/// Small stable index of the calling thread, for trace "tid" fields.
int thread_index();

}  // namespace perfbench
