#include "sim/jsonparse.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace sim::jsonparse {

namespace {

/// Deepest array/object nesting accepted. The parser recurses once per
/// level, so without a bound a hostile document overflows the stack;
/// the repo's own documents nest 9 deep at most.
constexpr int kMaxDepth = 256;

/// Recursive-descent reader over the raw text. All errors throw through
/// fail() with the caller's context prefix.
class Parser {
 public:
  Parser(const std::string& text, const std::string& prefix)
      : p_(text.data()), end_(p_ + text.size()), prefix_(prefix) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (p_ != end_) fail("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(prefix_ + ": " + what);
  }

  void skip_ws() {
    while (p_ != end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }
  char peek() {
    skip_ws();
    if (p_ == end_) fail("unexpected end of input");
    return *p_;
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', got '" + *p_ + "'");
    ++p_;
  }
  bool consume(char c) {
    skip_ws();
    if (p_ != end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }
  bool consume_word(const char* w) {
    const char* q = p_;
    for (const char* c = w; *c != '\0'; ++c, ++q) {
      if (q == end_ || *q != *c) return false;
    }
    p_ = q;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (p_ == end_) fail("unterminated string");
      char c = *p_++;
      if (c == '"') return out;
      if (c == '\\') {
        if (p_ == end_) fail("unterminated escape");
        char esc = *p_++;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (end_ - p_ < 4) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              code <<= 4;
              char h = *p_++;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape digit");
            }
            // The repo's emitters only escape control characters;
            // anything else would need UTF-8 encoding, which the emitted
            // fields never carry.
            if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
            out += static_cast<char>(code);
            break;
          }
          default: fail(std::string("unknown escape '\\") + esc + "'");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const char* start = p_;
    if (p_ != end_ && *p_ == '-') ++p_;
    bool integral = true;
    while (p_ != end_ &&
           (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
            *p_ == 'e' || *p_ == 'E' || *p_ == '+' || *p_ == '-')) {
      if (!std::isdigit(static_cast<unsigned char>(*p_))) integral = false;
      ++p_;
    }
    const std::string tok(start, p_);
    Json v;
    v.kind = Json::Kind::kNumber;
    char* stop = nullptr;
    v.num = std::strtod(tok.c_str(), &stop);
    // The scan above is permissive ("1.2.3", "1-2", "1e"); strtod must
    // consume all of it or the token is not a number.
    if (tok.empty() || stop != tok.c_str() + tok.size()) {
      fail("malformed number '" + tok + "'");
    }
    if (integral && tok[0] != '-') {
      // Full-precision uint64 path: seeds and addresses exceed the
      // 53-bit double mantissa.
      errno = 0;
      v.unum = std::strtoull(tok.c_str(), nullptr, 10);
      if (errno == ERANGE) fail("integer " + tok + " overflows 64 bits");
      v.is_unsigned = true;
    }
    return v;
  }

  Json parse_value() {
    const char c = peek();
    Json v;
    if ((c == '{' || c == '[') && ++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    if (c == '{') {
      ++p_;
      v.kind = Json::Kind::kObject;
      if (!consume('}')) {
        do {
          std::string key = (skip_ws(), parse_string());
          expect(':');
          v.obj.emplace_back(std::move(key), parse_value());
        } while (consume(','));
        expect('}');
      }
      --depth_;
    } else if (c == '[') {
      ++p_;
      v.kind = Json::Kind::kArray;
      if (!consume(']')) {
        do {
          v.arr.push_back(parse_value());
        } while (consume(','));
        expect(']');
      }
      --depth_;
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.str = parse_string();
    } else if (consume_word("true")) {
      v.kind = Json::Kind::kBool;
      v.b = true;
    } else if (consume_word("false")) {
      v.kind = Json::Kind::kBool;
      v.b = false;
    } else if (consume_word("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      v = parse_number();
    }
    return v;
  }

  const char* p_;
  const char* end_;
  const std::string& prefix_;
  int depth_ = 0;
};

}  // namespace

Json parse(const std::string& text, const std::string& error_prefix) {
  return Parser(text, error_prefix).parse_document();
}

ObjReader::ObjReader(const Json& v, std::string where,
                     std::string error_prefix)
    : prefix_(std::move(error_prefix)), where_(std::move(where)) {
  if (v.kind != Json::Kind::kObject) fail(where_ + ": expected an object");
  fields_.reserve(v.obj.size());
  for (std::size_t i = 0; i < v.obj.size(); ++i) {
    fields_.push_back({v.obj[i].first, &v.obj[i].second, i, false});
  }
  // Sorted, a duplicate is two neighbours and take() a binary search.
  std::sort(fields_.begin(), fields_.end(),
            [](const Field& a, const Field& b) { return a.key < b.key; });
  const auto dup = std::adjacent_find(
      fields_.begin(), fields_.end(),
      [](const Field& a, const Field& b) { return a.key == b.key; });
  if (dup != fields_.end()) {
    fail(where_ + ": duplicate key \"" + std::string(dup->key) + "\"");
  }
}

const Json* ObjReader::take(const char* key) {
  const std::string_view k(key);
  const auto it = std::lower_bound(
      fields_.begin(), fields_.end(), k,
      [](const Field& f, std::string_view want) { return f.key < want; });
  if (it == fields_.end() || it->key != k || it->taken) return nullptr;
  it->taken = true;
  return it->value;
}

void ObjReader::get(const char* key, std::string& out) {
  if (const Json* v = take(key)) {
    if (v->kind != Json::Kind::kString) fail(ctx(key) + " must be a string");
    out = v->str;
  }
}

void ObjReader::get(const char* key, bool& out) {
  if (const Json* v = take(key)) {
    if (v->kind != Json::Kind::kBool) fail(ctx(key) + " must be a bool");
    out = v->b;
  }
}

void ObjReader::get(const char* key, double& out) {
  if (const Json* v = take(key)) {
    if (v->kind != Json::Kind::kNumber) fail(ctx(key) + " must be a number");
    out = v->num;
  }
}

void ObjReader::finish() {
  const Field* first = nullptr;
  for (const Field& f : fields_) {
    if (!f.taken && (first == nullptr || f.pos < first->pos)) first = &f;
  }
  if (first != nullptr) {
    fail(where_ + ": unknown key \"" + std::string(first->key) + "\"");
  }
}

}  // namespace sim::jsonparse
