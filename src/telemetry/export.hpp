// Trace exporter: JSONL (one JSON object per line).
//
// JSONL layout (schema "conga-trace-v1"):
//   line 1:  {"meta":{"schema":"conga-trace-v1","ring_capacity":...,
//             "category_mask":...,"total_recorded":...,
//             "total_overwritten":...,"components":[...]}}
//   line 2+: {"t":<ns>,"seq":<n>,"comp":"<name>","cat":"<category>",
//             "type":"<event type>","a":<u64>,"b":<u64>}
//            gauge_sample lines add   "value":<double>
//            counter_sample lines add "value":<u64>,"delta":<u64>
//
// Events are exported in global seq order (the merge of every component
// ring), so a JSONL trace replays the run's recorded history in order.
// No external dependencies: the writers emit the JSON by hand.
#pragma once

#include <cstdio>
#include <string>

#include "telemetry/telemetry.hpp"

namespace conga::telemetry {

void write_jsonl(const TraceSink& sink, std::FILE* out);

/// write_jsonl to `path`; false if the file cannot be opened.
bool write_jsonl_file(const TraceSink& sink, const std::string& path);

}  // namespace conga::telemetry
