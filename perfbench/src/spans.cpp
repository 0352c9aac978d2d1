#include "spans.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "sim/jsonfmt.hpp"

namespace perfbench {

namespace {

int this_tid() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

int SpanBatch::open(const char* name, std::uint64_t id, int parent) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.tid = this_tid();
  s.begin_ns = recorder().now_ns();
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanBatch::close(int idx) {
  spans_[static_cast<std::size_t>(idx)].end_ns = recorder().now_ns();
}

SpanRecorder::SpanRecorder() : origin_(Clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void SpanRecorder::add(const SpanBatch& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  const int base = static_cast<int>(spans_.size());
  for (Span s : batch.spans()) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += s.us();
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    t.total_us += spans_[i].us();
    t.self_us += spans_[i].us() - child_us[i];
    ++t.count;
  }
  return out;
}

std::vector<double> SpanRecorder::durations_us(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.us());
  }
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.name;
    const std::string cat = name.substr(0, name.find('.'));
    const char* parent =
        s.parent >= 0 ? spans_[static_cast<std::size_t>(s.parent)].name : "";
    sim::jsonfmt::append_f(
        out,
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": "
        "%" PRIu64 ", \"parent\": \"%s\"}}%s\n",
        s.name, cat.c_str(), s.tid, static_cast<double>(s.begin_ns) / 1e3,
        s.us(), s.id, parent, i + 1 < spans_.size() ? "," : "");
  }
  out += "]}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  return f && (f << out) && f.flush();
}

SpanRecorder& recorder() {
  static SpanRecorder r;
  return r;
}

void write_trace(const Args& a, Result& res) {
  const std::string path = a.out_dir + "/" + a.workload + ".trace.json";
  res.check(recorder().write_chrome_json(path),
            "the span trace was written to " + path);
}

}  // namespace perfbench
