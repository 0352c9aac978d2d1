#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "bench.hpp"

/// In-memory span recorder of the traced run. Spans are recorded by the
/// benchmark around its calls into each layer's public functions; they
/// stay in memory and are written once, at the end, as Chrome
/// trace-event JSON (opens in Perfetto / chrome://tracing).
namespace perfbench {

struct Span {
  const char* name = "";  ///< layer-qualified, e.g. "soc.build"
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;  ///< shared by every span of one trial / slice
  int parent = -1;       ///< index of the parent in the same batch, or -1
  int tid = 0;

  double us() const { return static_cast<double>(end_ns - begin_ns) / 1e3; }
};

/// Spans of one unit of work (one trial, one slice), built on the stack
/// of the thread doing the work and handed to the recorder in one go.
class SpanBatch {
 public:
  /// Reserves room for a trial's spans up front, so opening one does not
  /// allocate inside a counted region.
  SpanBatch() { spans_.reserve(8); }

  /// Opens a span; returns its index for close() and as a parent.
  int open(const char* name, std::uint64_t id, int parent = -1);
  void close(int idx);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class SpanRecorder {
 public:
  SpanRecorder();

  void add(const SpanBatch& batch);

  /// Per-name totals: summed duration and summed self time (duration
  /// minus the part covered by direct children), in microseconds, and
  /// the span count.
  struct Totals {
    double total_us = 0.0;
    double self_us = 0.0;
    std::uint64_t count = 0;
  };
  std::map<std::string, Totals> totals() const;

  /// Durations (us) of every span with this name.
  std::vector<double> durations_us(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  /// Nanoseconds since the recorder was created (span timestamps).
  std::int64_t now_ns() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; parents re-based on add
};

/// The process-wide recorder SpanBatch timestamps against.
SpanRecorder& recorder();

/// Writes the recorder's spans to <out_dir>/<workload>.trace.json; a
/// failed write fails the run.
void write_trace(const Args& a, Result& res);

}  // namespace perfbench
