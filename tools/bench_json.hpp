// Minimal streaming JSON writer for bench result files
// (ext_lb_comparison --out).
//
// Deliberately tiny: objects, arrays, string/number/bool scalars, correct
// comma placement and string escaping, two-space indentation. No external
// dependency beyond gtest/benchmark, and the result files stay
// diff-friendly for run-over-run comparison.
#pragma once

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace conga::tools {

class JsonWriter {
 public:
  explicit JsonWriter(std::FILE* out) : out_(out) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void key(const std::string& k) {
    comma();
    indent();
    write_string(k);
    std::fputs(": ", out_);
    pending_value_ = true;
  }

  void value(const std::string& v) {
    prefix();
    write_string(v);
    mark();
  }
  void value(const char* v) { value(std::string(v)); }
  void value(bool v) {
    prefix();
    std::fputs(v ? "true" : "false", out_);
    mark();
  }
  void value(double v) {
    prefix();
    if (std::isfinite(v)) {
      std::fprintf(out_, "%.6g", v);
    } else {
      std::fputs("null", out_);  // JSON has no inf/nan
    }
    mark();
  }
  void value(std::uint64_t v) {
    prefix();
    std::fprintf(out_, "%" PRIu64, v);
    mark();
  }
  void value(std::int64_t v) {
    prefix();
    std::fprintf(out_, "%" PRId64, v);
    mark();
  }
  void value(int v) { value(static_cast<std::int64_t>(v)); }

  template <typename V>
  void kv(const std::string& k, V v) {
    key(k);
    value(v);
  }

  void finish() { std::fputc('\n', out_); }

 private:
  void open(char c) {
    prefix();
    std::fputc(c, out_);
    stack_.push_back(false);
  }

  void close(char c) {
    const bool had_items = stack_.back();
    stack_.pop_back();
    if (had_items) {
      std::fputc('\n', out_);
      indent();
    }
    std::fputc(c, out_);
    mark();
  }

  /// Writes the separator/indent owed before a value in the current context.
  void prefix() {
    if (pending_value_) {
      pending_value_ = false;  // "key: " already emitted
      return;
    }
    if (!stack_.empty()) {
      comma();
      indent();
    }
  }

  void comma() {
    if (!stack_.empty() && stack_.back()) std::fputs(",", out_);
    std::fputc('\n', out_);
  }

  void indent() {
    for (std::size_t i = 0; i < stack_.size(); ++i) std::fputs("  ", out_);
  }

  /// Marks that the enclosing container now has at least one item.
  void mark() {
    if (!stack_.empty()) stack_.back() = true;
  }

  void write_string(const std::string& s) {
    std::fputc('"', out_);
    for (char c : s) {
      switch (c) {
        case '"': std::fputs("\\\"", out_); break;
        case '\\': std::fputs("\\\\", out_); break;
        case '\n': std::fputs("\\n", out_); break;
        case '\t': std::fputs("\\t", out_); break;
        case '\r': std::fputs("\\r", out_); break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            std::fprintf(out_, "\\u%04x", c);
          } else {
            std::fputc(c, out_);
          }
      }
    }
    std::fputc('"', out_);
  }

  std::FILE* out_;
  std::vector<bool> stack_;  ///< one entry per open container: has items?
  bool pending_value_ = false;
};

}  // namespace conga::tools
