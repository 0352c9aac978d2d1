#pragma once

#include <cinttypes>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/jsonfmt.hpp"

/// Canonical pretty-JSON emission, shared by every document writer that
/// must be byte-stable (SocDesc topologies, campaign spec/slice files):
/// fixed two-space indentation, fixed separator placement, every number
/// printed through one format. Two equal values always serialize to the
/// same bytes, which is what FNV-hash fingerprints and byte-identical
/// merge gates are built on.
namespace sim::jsonemit {

/// Tiny canonical-JSON writer: tracks nesting depth for indentation and
/// whether the current aggregate needs a separating comma.
class Emitter {
 public:
  std::string take() && { return std::move(out_); }

  void key(const char* k) {
    sep();
    indent();
    out_ += '"';
    out_ += k;
    out_ += "\": ";
    pending_value_ = true;
  }
  void str(const char* k, const std::string& v) {
    key(k);
    out_ += '"';
    out_ += jsonfmt::json_escape(v);
    out_ += '"';
    done_value();
  }
  /// Bare string element inside an open array (e.g. a trace-link list).
  void str_elem(const std::string& v) {
    sep();
    indent();
    out_ += '"';
    out_ += jsonfmt::json_escape(v);
    out_ += '"';
    done_value();
  }
  void u64(const char* k, std::uint64_t v) {
    key(k);
    jsonfmt::append_f(out_, "%" PRIu64, v);
    done_value();
  }
  /// 64-bit hashes as fixed-width hex strings (JSON numbers are doubles
  /// downstream and cannot carry 64 bits losslessly).
  void hex64(const char* k, std::uint64_t v) {
    key(k);
    jsonfmt::append_f(out_, "\"%016" PRIx64 "\"", v);
    done_value();
  }
  void boolean(const char* k, bool v) {
    key(k);
    out_ += v ? "true" : "false";
    done_value();
  }
  void dbl(const char* k, double v) {
    key(k);
    jsonfmt::append_f(out_, "%.17g", v);  // round-trips every finite double
    done_value();
  }
  void open_obj(const char* k = nullptr) { open(k, '{'); }
  void close_obj() { close('}'); }
  void open_arr(const char* k = nullptr) { open(k, '['); }
  void close_arr() { close(']'); }

 private:
  void done_value() {
    pending_value_ = false;
    need_comma_ = true;
  }
  void sep() {
    if (need_comma_) out_ += ",\n";
    need_comma_ = false;
  }
  void indent() {
    if (pending_value_) return;  // value follows "key": on the same line
    out_.append(2 * depth_, ' ');
  }
  void open(const char* k, char brace) {
    if (k != nullptr) {
      key(k);
    } else {
      sep();
      indent();
    }
    pending_value_ = false;
    out_ += brace;
    out_ += '\n';
    ++depth_;
    need_comma_ = false;
  }
  void close(char brace) {
    out_ += '\n';
    --depth_;
    out_.append(2 * depth_, ' ');
    out_ += brace;
    need_comma_ = true;
  }

  std::string out_;
  int depth_ = 0;
  bool need_comma_ = false;
  bool pending_value_ = false;
};

}  // namespace sim::jsonemit
