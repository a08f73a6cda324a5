#include "campaign/json.hpp"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace conga::campaign {

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::integer(std::int64_t v) {
  Json j;
  j.kind_ = Kind::kInt;
  j.int_ = v;
  return j;
}

Json Json::uinteger(std::uint64_t v) {
  if (v <= static_cast<std::uint64_t>(INT64_MAX)) {
    return integer(static_cast<std::int64_t>(v));
  }
  Json j;
  j.kind_ = Kind::kUint;
  j.uint_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::kDouble;
  j.dbl_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(v);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

std::int64_t Json::as_int() const {
  switch (kind_) {
    case Kind::kInt: return int_;
    case Kind::kUint: return static_cast<std::int64_t>(uint_);
    case Kind::kDouble: return static_cast<std::int64_t>(dbl_);
    default: return 0;
  }
}

std::uint64_t Json::as_uint() const {
  switch (kind_) {
    case Kind::kInt: return static_cast<std::uint64_t>(int_);
    case Kind::kUint: return uint_;
    case Kind::kDouble: return static_cast<std::uint64_t>(dbl_);
    default: return 0;
  }
}

double Json::as_double() const {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kDouble: return dbl_;
    default: return 0;
  }
}

Json& Json::push_back(Json v) {
  items_.push_back(std::move(v));
  return items_.back();
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Json& Json::set(std::string key, Json v) {
  members_.emplace_back(std::move(key), std::move(v));
  return members_.back().second;
}

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

namespace {

/// Shortest round-trip form (std::to_chars).
std::string canonical_double(double v) {
  char buf[40];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

void write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kInt: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
      out += buf;
      return;
    }
    case Kind::kUint: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, uint_);
      out += buf;
      return;
    }
    case Kind::kDouble:
      // JSON has no inf/nan; canonicalize them to null like the bench writer.
      if (dbl_ != dbl_ || dbl_ > 1.7976931348623157e308 ||
          dbl_ < -1.7976931348623157e308) {
        out += "null";
      } else {
        out += canonical_double(dbl_);
      }
      return;
    case Kind::kString:
      write_escaped(out, str_);
      return;
    case Kind::kArray: {
      out.push_back('[');
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_indent(out, indent, depth + 1);
        items_[i].write(out, indent, depth + 1);
      }
      if (!items_.empty()) newline_indent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Kind::kObject: {
      out.push_back('{');
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out.push_back(',');
        newline_indent(out, indent, depth + 1);
        write_escaped(out, members_[i].first);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        members_[i].second.write(out, indent, depth + 1);
      }
      if (!members_.empty()) newline_indent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  out.push_back('\n');
  return out;
}

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string& err)
      : s_(text.c_str()), n_(text.size()), err_(err) {}

  bool run(Json& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != n_) return fail("trailing garbage");
    return true;
  }

 private:
  bool fail(const char* what) {
    err_ = std::string(what) + " at byte " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < n_ && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                         s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (pos_ + len > n_ || std::memcmp(s_ + pos_, word, len) != 0) {
      return fail("bad literal");
    }
    pos_ += len;
    return true;
  }

  bool string_body(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < n_) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= n_) return fail("truncated escape");
        const char e = s_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (pos_ + 4 > n_) return fail("truncated \\u escape");
            unsigned cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = s_[pos_ + static_cast<std::size_t>(i)];
              cp <<= 4;
              if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                cp |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                cp |= static_cast<unsigned>(h - 'A' + 10);
              else
                return fail("bad \\u escape");
            }
            pos_ += 4;
            // Encode the code point as UTF-8 (BMP only; the writers never
            // emit surrogate pairs).
            if (cp < 0x80) {
              out.push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (cp >> 6)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (cp >> 12)));
              out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (cp & 0x3f)));
            }
            break;
          }
          default:
            return fail("bad escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      out.push_back(c);
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool number(Json& out) {
    const std::size_t start = pos_;
    if (pos_ < n_ && s_[pos_] == '-') ++pos_;
    while (pos_ < n_ && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < n_ && s_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < n_ && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < n_ && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < n_ && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < n_ && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) {
      return fail("bad number");
    }
    const std::string tok(s_ + start, pos_ - start);
    if (integral) {
      if (tok[0] != '-') {
        std::uint64_t u = 0;
        const auto [p, ec] =
            std::from_chars(tok.data(), tok.data() + tok.size(), u);
        if (ec == std::errc() && p == tok.data() + tok.size()) {
          out = Json::uinteger(u);
          return true;
        }
      } else {
        std::int64_t v = 0;
        const auto [p, ec] =
            std::from_chars(tok.data(), tok.data() + tok.size(), v);
        if (ec == std::errc() && p == tok.data() + tok.size()) {
          out = Json::integer(v);
          return true;
        }
      }
      // Out-of-range integer literal: keep it as a double.
    }
    out = Json::number(std::strtod(tok.c_str(), nullptr));
    return true;
  }

  bool value(Json& out) {
    if (++depth_ > 64) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= n_) return fail("unexpected end of input");
    bool ok = false;
    switch (s_[pos_]) {
      case '{': {
        ++pos_;
        out = Json::object();
        skip_ws();
        if (pos_ < n_ && s_[pos_] == '}') {
          ++pos_;
          ok = true;
          break;
        }
        for (;;) {
          skip_ws();
          if (pos_ >= n_ || s_[pos_] != '"') return fail("expected key");
          std::string key;
          if (!string_body(key)) return false;
          skip_ws();
          if (pos_ >= n_ || s_[pos_] != ':') return fail("expected ':'");
          ++pos_;
          Json v;
          if (!value(v)) return false;
          out.set(std::move(key), std::move(v));
          skip_ws();
          if (pos_ < n_ && s_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (pos_ < n_ && s_[pos_] == '}') {
            ++pos_;
            ok = true;
            break;
          }
          return fail("expected ',' or '}'");
        }
        break;
      }
      case '[': {
        ++pos_;
        out = Json::array();
        skip_ws();
        if (pos_ < n_ && s_[pos_] == ']') {
          ++pos_;
          ok = true;
          break;
        }
        for (;;) {
          Json v;
          if (!value(v)) return false;
          out.push_back(std::move(v));
          skip_ws();
          if (pos_ < n_ && s_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (pos_ < n_ && s_[pos_] == ']') {
            ++pos_;
            ok = true;
            break;
          }
          return fail("expected ',' or ']'");
        }
        break;
      }
      case '"': {
        std::string v;
        if (!string_body(v)) return false;
        out = Json::string(std::move(v));
        ok = true;
        break;
      }
      case 't':
        if (!literal("true", 4)) return false;
        out = Json::boolean(true);
        ok = true;
        break;
      case 'f':
        if (!literal("false", 5)) return false;
        out = Json::boolean(false);
        ok = true;
        break;
      case 'n':
        if (!literal("null", 4)) return false;
        out = Json();
        ok = true;
        break;
      default:
        ok = number(out);
    }
    --depth_;
    return ok;
  }

  const char* s_;
  std::size_t n_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string& err_;
};

}  // namespace

bool Json::parse(const std::string& text, Json& out, std::string& err) {
  Parser p(text, err);
  return p.run(out);
}

}  // namespace conga::campaign
