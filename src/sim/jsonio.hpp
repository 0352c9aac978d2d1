#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/jsonemit.hpp"
#include "sim/jsonparse.hpp"

/// Symmetric JSON field serde, the document-side twin of
/// sim::StateVisitor. Each schema struct lists its fields once, in a free
/// `void fields(sim::jsonio::FieldVisitor&, T&)` declared in T's own
/// namespace (object()/objects() find it by argument-dependent lookup),
/// and the visitor's mode decides whether that walk emits canonical JSON
/// through jsonemit::Emitter or reads it back through the strict
/// jsonparse::ObjReader. Field order, number format and defaults
/// therefore cannot drift between the two directions; missing keys keep
/// the field default and unknown keys are rejected, as ObjReader does.
namespace sim::jsonio {

class FieldVisitor {
 public:
  /// Saving: each field is appended to `e`, inside the object the caller
  /// has open.
  explicit FieldVisitor(jsonemit::Emitter& e) : e_(&e) {}
  /// Loading: fields are taken from the object `v` at path `where`;
  /// every error is a std::invalid_argument prefixed "<error_prefix>: ".
  FieldVisitor(const jsonparse::Json& v, std::string where,
               std::string error_prefix)
      : r_(std::in_place, v, std::move(where), std::move(error_prefix)) {}

  FieldVisitor(const FieldVisitor&) = delete;
  FieldVisitor& operator=(const FieldVisitor&) = delete;

  bool saving() const { return e_ != nullptr; }

  /// The underlying codec, for the hand-written parts of a schema.
  jsonemit::Emitter& emitter() { return *e_; }
  jsonparse::ObjReader& reader() { return *r_; }

  void field(const char* k, std::string& x) {
    if (e_) e_->str(k, x);
    else r_->get(k, x);
  }
  void field(const char* k, bool& x) {
    if (e_) e_->boolean(k, x);
    else r_->get(k, x);
  }
  void field(const char* k, double& x) {
    if (e_) e_->dbl(k, x);
    else r_->get(k, x);
  }
  /// Unsigned integers; loading rejects values the field cannot hold.
  template <typename U>
    requires(std::is_unsigned_v<U> && !std::is_same_v<U, bool>)
  void field(const char* k, U& x) {
    if (e_) e_->u64(k, x);
    else r_->get_u(k, x);
  }

  /// Emitted only when non-zero, so documents that never set it keep
  /// their older bytes; an absent key reads as the default.
  void nonzero(const char* k, std::uint64_t& x) {
    if (!e_) r_->get_u(k, x);
    else if (x != 0) e_->u64(k, x);
  }

  /// An enum as its to_string() name; loading tries every value up to
  /// `last` and names an unmatched one as "<path>: unknown <kind> ...".
  template <typename E>
  void enumeration(const char* k, E& x, E last, const char* kind) {
    std::string name = to_string(x);
    field(k, name);
    if (e_) return;
    for (int i = 0; i <= static_cast<int>(last); ++i) {
      if (name == to_string(static_cast<E>(i))) {
        x = static_cast<E>(i);
        return;
      }
    }
    fail(ctx(k) + ": unknown " + kind + " \"" + name + "\"");
  }

  template <typename T>
  void object(const char* k, T& x) {
    if (e_) {
      e_->open_obj(k);
      fields(*this, x);
      e_->close_obj();
    } else if (const jsonparse::Json* v = r_->take(k)) {
      FieldVisitor sub(*v, ctx(k), r_->prefix());
      fields(sub, x);
      sub.finish();
    }
  }

  /// An array of objects; elements are named "<path>[i]" in errors.
  template <typename T>
  void objects(const char* k, std::vector<T>& xs) {
    if (e_) {
      e_->open_arr(k);
      for (T& x : xs) {
        e_->open_obj();
        fields(*this, x);
        e_->close_obj();
      }
      e_->close_arr();
      return;
    }
    const jsonparse::Json* arr = take_array(k, " must be an array");
    if (arr == nullptr) return;
    for (std::size_t i = 0; i < arr->arr.size(); ++i) {
      FieldVisitor sub(arr->arr[i], ctx(k) + "[" + std::to_string(i) + "]",
                       r_->prefix());
      fields(sub, xs.emplace_back());
      sub.finish();
    }
  }

  void strings(const char* k, std::vector<std::string>& xs) {
    if (e_) {
      e_->open_arr(k);
      for (const std::string& s : xs) e_->str_elem(s);
      e_->close_arr();
      return;
    }
    static constexpr const char* kWhat = " must be an array of strings";
    const jsonparse::Json* arr = take_array(k, kWhat);
    if (arr == nullptr) return;
    for (const jsonparse::Json& s : arr->arr) {
      if (s.kind != jsonparse::Json::Kind::kString) fail(ctx(k) + kWhat);
      xs.push_back(s.str);
    }
  }

  /// Loading: rejects keys no field took. Saving: nothing to check.
  void finish() {
    if (!e_) r_->finish();
  }

  /// Loading only: the path of field `k`, and a named error.
  std::string ctx(const char* k) const { return r_->ctx(k); }
  [[noreturn]] void fail(const std::string& what) const { r_->fail(what); }

 private:
  const jsonparse::Json* take_array(const char* k, const char* what) {
    const jsonparse::Json* arr = r_->take(k);
    if (arr != nullptr && arr->kind != jsonparse::Json::Kind::kArray) {
      fail(ctx(k) + what);
    }
    return arr;
  }

  jsonemit::Emitter* e_ = nullptr;
  std::optional<jsonparse::ObjReader> r_;
};

/// Emits `x`'s fields into the object open in `e`; `extra` are the
/// out-of-struct values some lists carry (e.g. a run length). A saving
/// walk never writes, so a const value can drive the non-const list.
template <typename T, typename... Extra>
void save(jsonemit::Emitter& e, const T& x, Extra&... extra) {
  FieldVisitor v(e);
  fields(v, const_cast<T&>(x), extra...);
}

}  // namespace sim::jsonio
