#include "telemetry/export.hpp"

#include <bit>
#include <cinttypes>
#include <vector>

namespace conga::telemetry {

namespace {

/// Escapes the characters that can occur in component names. Names here are
/// machine-generated ("up:l1s1p0", "leaf0/flowlets"), so this only needs to
/// be correct, not fast.
void write_json_string(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    switch (c) {
      case '"':
        std::fputs("\\\"", out);
        break;
      case '\\':
        std::fputs("\\\\", out);
        break;
      case '\n':
        std::fputs("\\n", out);
        break;
      case '\t':
        std::fputs("\\t", out);
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::fprintf(out, "\\u%04x", static_cast<unsigned>(c));
        } else {
          std::fputc(c, out);
        }
    }
  }
  std::fputc('"', out);
}

void write_event_jsonl(std::FILE* out, const TraceSink& sink,
                       const Event& e) {
  std::fprintf(out, "{\"t\":%" PRId64 ",\"seq\":%" PRIu64 ",\"comp\":",
               static_cast<std::int64_t>(e.t), e.seq);
  write_json_string(out, sink.component_name(e.comp));
  std::fprintf(out, ",\"cat\":\"%s\",\"type\":\"%s\",\"a\":%" PRIu64
                    ",\"b\":%" PRIu64,
               category_name(category_of(e.type)), event_type_name(e.type),
               e.a, e.b);
  if (e.type == EventType::kGaugeSample) {
    std::fprintf(out, ",\"value\":%.17g", std::bit_cast<double>(e.a));
  } else if (e.type == EventType::kCounterSample) {
    std::fprintf(out, ",\"value\":%" PRIu64 ",\"delta\":%" PRIu64, e.a, e.b);
  }
  std::fputs("}\n", out);
}

}  // namespace

void write_jsonl(const TraceSink& sink, std::FILE* out) {
  std::fprintf(out,
               "{\"meta\":{\"schema\":\"conga-trace-v1\",\"ring_capacity\":%zu"
               ",\"category_mask\":%u,\"total_recorded\":%" PRIu64
               ",\"total_overwritten\":%" PRIu64 ",\"components\":[",
               sink.config().ring_capacity, sink.category_mask(),
               sink.total_recorded(), sink.total_overwritten());
  for (ComponentId id = 0; id < sink.component_count(); ++id) {
    if (id != 0) std::fputc(',', out);
    write_json_string(out, sink.component_name(id));
  }
  std::fputs("]}}\n", out);
  for (const Event& e : sink.all_events()) {
    write_event_jsonl(out, sink, e);
  }
}

bool write_jsonl_file(const TraceSink& sink, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  write_jsonl(sink, f);
  std::fclose(f);
  return true;
}

}  // namespace conga::telemetry
