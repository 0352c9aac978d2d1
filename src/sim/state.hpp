#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/bytes.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "sim/wire.hpp"

/// Symmetric state-serde: the reflection layer behind simulation-state
/// snapshots (src/snapshot/). One visitor interface serves both
/// directions — each module implements a single visit_state() that lists
/// its registers once, and the visitor's mode decides whether the walk
/// serializes or restores them. The symmetry is the correctness
/// argument: a field cannot be saved without being loaded in the same
/// order (or vice versa), so a round-trip is exact by construction and a
/// save/load asymmetry is impossible to write.
///
/// Encoding (fixed, platform-independent): every primitive is
/// little-endian fixed-width, bool is one strict 0/1 byte, and doubles
/// travel as their IEEE-754 bit pattern — bit-exact restore, which the
/// forked-trial equivalence gates depend on. Loaders are strict:
/// underruns, bad bools and container counts exceeding the remaining
/// payload all abort through fail() with a named error.
namespace sim {

/// Unsigned integer types (bool excluded: it travels as a validated
/// 0/1 byte). Arrays of these move as one StateVisitor::uints() run.
template <typename T>
concept UintElement = std::is_unsigned_v<T> && !std::is_same_v<T, bool>;

/// The state codec. A saving visitor appends to a buffer it owns; a
/// loading visitor reads through a bounded [cur, end) cursor over a
/// caller-owned payload. Every primitive is an inline bounds check plus
/// a little-endian copy; only fail() — the error path — is virtual, so
/// the owner decides how an aborted walk is reported.
class StateVisitor {
 public:
  virtual ~StateVisitor() = default;

  StateVisitor(const StateVisitor&) = delete;
  StateVisitor& operator=(const StateVisitor&) = delete;

  bool saving() const { return saving_; }

  /// Aborts the walk with a named error (loaders throw; savers should
  /// never reach a fail() call for in-contract state).
  [[noreturn]] virtual void fail(const std::string& msg) = 0;

  void u64(std::uint64_t& x) { fixed(x); }
  void u32(std::uint32_t& x) { fixed(x); }
  void u16(std::uint16_t& x) { fixed(x); }
  void u8(std::uint8_t& x) { fixed(x); }

  void boolean(bool& x) {
    std::uint8_t v = x ? 1 : 0;
    u8(v);
    if (!saving_) {
      if (v > 1) fail("bool byte is not 0 or 1");
      x = v != 0;
    }
  }

  /// IEEE-754 bit pattern (bit-exact round-trip, NaN payloads included).
  void f64(double& x) {
    auto bits = std::bit_cast<std::uint64_t>(x);
    u64(bits);
    if (!saving_) x = std::bit_cast<double>(bits);
  }

  /// Container element count: on load, bounded by the remaining payload
  /// (every element costs at least one byte), so a corrupted count can
  /// never drive an allocation the payload couldn't back.
  void count(std::uint64_t& n) {
    u64(n);
    if (!saving_ && n > remaining()) count_overrun(n);
  }

  void str(std::string& s) {
    std::uint64_t n = s.size();
    count(n);
    if (!saving_) s.assign(static_cast<std::size_t>(n), '\0');
    raw(s.data(), static_cast<std::size_t>(n));
  }

  /// Wire scheduling identity (sim/sched/trace.hpp slot encoding). Slots
  /// are stored tag-free — 0 for a never-traced wire, otherwise bit 32
  /// set plus the dense wire id — and re-tagged on load for the
  /// restoring simulator's scheduler (set_wire_tag, called by
  /// Simulator::visit_checkpoint before any wire is visited).
  void wire_slot(std::uint64_t& slot) {
    if (saving_) {
      std::uint64_t norm =
          slot == 0
              ? 0
              : ((std::uint64_t{1} << 32) | static_cast<std::uint32_t>(slot));
      u64(norm);
    } else {
      std::uint64_t norm = 0;
      u64(norm);
      slot = norm == 0 ? 0 : (wire_tag_base_ | static_cast<std::uint32_t>(norm));
    }
  }

  void set_wire_tag(std::uint64_t tag_base) { wire_tag_base_ = tag_base; }

  /// Bulk byte-array transfer (memory pages, blob payloads). The caller
  /// owns layout determinism; n must be the same on save and load.
  void raw(void* p, std::size_t n) {
    if (n == 0) return;
    if (saving_) {
      const auto* b = static_cast<const unsigned char*>(p);
      out_.insert(out_.end(), b, b + n);
    } else {
      need(n);
      std::memcpy(p, cur_, n);
      cur_ += n;
    }
  }

  /// A run of n same-width unsigned integers: the bytes of n u8/u16/
  /// u32/u64 calls, behind one bounds check for the whole run.
  template <UintElement U>
  void uints(U* p, std::size_t n) {
    if (saving_) {
      const std::size_t at = out_.size();
      out_.resize(at + n * sizeof(U));
      for (std::size_t i = 0; i < n; ++i) {
        put_le(out_.data() + at + i * sizeof(U), p[i]);
      }
    } else {
      need(n * sizeof(U));
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = get_le<U>(cur_ + i * sizeof(U));
      }
      cur_ += n * sizeof(U);
    }
  }

  /// Payload bytes consumed so far (loaders).
  std::size_t offset() const { return static_cast<std::size_t>(cur_ - begin_); }

  /// The saved byte stream (savers; leaves the visitor empty).
  std::vector<unsigned char> take() { return std::move(out_); }

 protected:
  /// A saving codec with an empty buffer.
  StateVisitor() : saving_(true) {}

  /// A loading codec over the caller-owned payload [data, data + size).
  StateVisitor(const unsigned char* data, std::size_t size)
      : saving_(false), begin_(data), cur_(data), end_(data + size) {}

 private:
  template <UintElement U>
  void fixed(U& x) {
    if (saving_) {
      const std::size_t at = out_.size();
      out_.resize(at + sizeof(U));
      put_le(out_.data() + at, x);
    } else {
      need(sizeof(U));
      x = get_le<U>(cur_);
      cur_ += sizeof(U);
    }
  }

  /// Bytes left to consume (loaders only).
  std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - cur_);
  }

  void need(std::size_t n) {
    if (n > remaining()) underrun(n);
  }

  [[gnu::cold, gnu::noinline]] void underrun(std::size_t n) {
    fail("payload underrun: need " + std::to_string(n) + " bytes, " +
         std::to_string(remaining()) + " left");
  }

  [[gnu::cold, gnu::noinline]] void count_overrun(std::uint64_t n) {
    fail("container count " + std::to_string(n) +
         " exceeds the remaining payload (" + std::to_string(remaining()) +
         " bytes)");
  }

  bool saving_;
  std::uint64_t wire_tag_base_ = 0;
  std::vector<unsigned char> out_;
  const unsigned char* begin_ = nullptr;
  const unsigned char* cur_ = nullptr;
  const unsigned char* end_ = nullptr;
};

// ---------------------------------------------------------------------
// visit() overload set. Every call site spells `visit(v, field)`; the
// StateVisitor argument makes sim an associated namespace, so these (and
// any same-shape overload next to a user type) are always found.
// ---------------------------------------------------------------------

inline void visit(StateVisitor& v, bool& x) { v.boolean(x); }
inline void visit(StateVisitor& v, char& x) {
  auto b = static_cast<std::uint8_t>(x);
  v.u8(b);
  if (!v.saving()) x = static_cast<char>(b);
}
inline void visit(StateVisitor& v, std::uint8_t& x) { v.u8(x); }
inline void visit(StateVisitor& v, std::uint16_t& x) { v.u16(x); }
inline void visit(StateVisitor& v, std::uint32_t& x) { v.u32(x); }
inline void visit(StateVisitor& v, std::uint64_t& x) { v.u64(x); }
inline void visit(StateVisitor& v, double& x) { v.f64(x); }
inline void visit(StateVisitor& v, std::string& s) { v.str(s); }

inline void visit(StateVisitor& v, int& x) {
  auto u = static_cast<std::uint32_t>(x);
  v.u32(u);
  if (!v.saving()) x = static_cast<int>(u);
}

/// Enums travel as their numeric value in 32 bits (covers every enum in
/// the repo; module state enums are int-backed).
template <typename E>
  requires std::is_enum_v<E>
void visit(StateVisitor& v, E& e) {
  auto u = static_cast<std::uint32_t>(e);
  v.u32(u);
  if (!v.saving()) e = static_cast<E>(u);
}

/// Any type exposing `void visit_fields(StateVisitor&)` — the one-line
/// opt-in for plain state structs (flit payloads, queue entries, ...).
template <typename T>
  requires requires(T& t, StateVisitor& v) { t.visit_fields(v); }
void visit(StateVisitor& v, T& x) {
  x.visit_fields(v);
}

/// RNG stream: the raw xoshiro words, so a restored stream continues the
/// exact sequence the captured one would have produced.
inline void visit(StateVisitor& v, Rng& r) {
  auto s = r.state();
  for (auto& w : s) v.u64(w);
  if (!v.saving()) r.set_state(s);
}

inline void visit(StateVisitor& v, RunningStats& s) {
  std::uint64_t n = s.count();
  double mean = s.mean();
  double m2 = s.m2();
  double mn = s.min();
  double mx = s.max();
  v.u64(n);
  v.f64(mean);
  v.f64(m2);
  v.f64(mn);
  v.f64(mx);
  if (!v.saving()) s = RunningStats::from_parts(n, mean, m2, mn, mx);
}

inline void visit(StateVisitor& v, Histogram& h) {
  std::uint64_t n = h.bins().size();
  v.count(n);
  if (v.saving()) {
    for (const auto& [value, cnt] : h.bins()) {
      std::uint64_t val = value;
      std::uint64_t c = cnt;
      v.u64(val);
      v.u64(c);
    }
  } else {
    h = Histogram{};
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t value = 0;
      std::uint64_t cnt = 0;
      v.u64(value);
      v.u64(cnt);
      h.add_count(value, cnt);
    }
  }
}

template <typename T, std::size_t N>
void visit(StateVisitor& v, std::array<T, N>& a) {
  if constexpr (UintElement<T>) {
    v.uints(a.data(), N);
  } else {
    for (auto& e : a) visit(v, e);
  }
}

template <typename T>
void visit(StateVisitor& v, std::vector<T>& c) {
  std::uint64_t n = c.size();
  v.count(n);
  if (!v.saving()) {
    c.clear();
    c.resize(static_cast<std::size_t>(n));
  }
  if constexpr (UintElement<T>) {
    v.uints(c.data(), c.size());
  } else {
    for (auto& e : c) visit(v, e);
  }
}

inline void visit(StateVisitor& v, std::vector<bool>& c) {
  std::uint64_t n = c.size();
  v.count(n);
  if (!v.saving()) c.assign(static_cast<std::size_t>(n), false);
  for (std::size_t i = 0; i < c.size(); ++i) {
    bool b = c[i];
    v.boolean(b);
    if (!v.saving()) c[i] = b;
  }
}

template <typename T>
void visit(StateVisitor& v, std::deque<T>& c) {
  std::uint64_t n = c.size();
  v.count(n);
  if (!v.saving()) {
    c.clear();
    c.resize(static_cast<std::size_t>(n));
  }
  for (auto& e : c) visit(v, e);
}

template <typename K, typename V>
void visit(StateVisitor& v, std::map<K, V>& m) {
  std::uint64_t n = m.size();
  v.count(n);
  if (v.saving()) {
    for (auto& [key, value] : m) {
      K k = key;  // keys are immutable in place; visit a copy
      visit(v, k);
      visit(v, value);
    }
  } else {
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      V value{};
      visit(v, k);
      visit(v, value);
      m.emplace_hint(m.end(), std::move(k), std::move(value));
    }
  }
}

/// Snapshot-layer access to a Wire's private value and scheduling slot
/// (befriended by Wire). Loads write the value cell directly — no epoch
/// bump, no trace hook: the restorer re-establishes the settled-state
/// bookkeeping explicitly, so a restore must not look like activity.
struct StateAccess {
  template <typename T>
  static T& value(Wire<T>& w) {
    return w.value_;
  }
  template <typename T>
  static std::uint64_t& slot(Wire<T>& w) {
    return w.sched_slot_;
  }
};

template <typename T>
void visit(StateVisitor& v, Wire<T>& w) {
  visit(v, StateAccess::value(w));
  v.wire_slot(StateAccess::slot(w));
}

}  // namespace sim
