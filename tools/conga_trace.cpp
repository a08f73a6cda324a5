// conga_trace — record, slice, and summarize telemetry traces.
//
// Subcommands:
//   record [flags]      run the Fig 11(c) hotspot scenario (one Leaf1-Spine1
//                       40G link down, data-mining @ 60% load) with full
//                       telemetry, export the trace as JSONL, and print the
//                       hotspot queue-occupancy percentiles from the live
//                       sampler. The same percentiles can then be rebuilt
//                       offline from the exported file (see `percentiles`).
//     --out PATH        JSONL output                 [default trace.jsonl]
//     --csv PATH        also export CSV
//     --lb NAME         any registered policy        [default conga]
//     --stop-ms N       run length                   [default 80]
//     --ring N          per-component ring capacity  [default 8192]
//     --cats a,b,...    category mask (queue,link,dre,flowlet,conga_table,
//                       tcp,flow,probe,fault)        [default: all]
//     --fault-seed N    additionally arm a randomized fault campaign (the
//                       spec's "random" fault profile, horizon = stop) so
//                       the exported trace carries fault transitions and
//                       cause-tagged drops            [default: 0 = off]
//   The flags build campaign::hotspot_spec, so a bad policy or a run too
//   short to measure (--stop-ms <= 10) exits 2 with the spec's message.
//
//   summary FILE        per-category / per-type event counts, component and
//                       time-range overview of a JSONL trace.
//
//   slice FILE [flags]  print the event lines matching every given filter
//                       (JSONL passthrough, meta line dropped).
//     --from-ms N / --to-ms N   time window
//     --cat NAME                category
//     --type NAME               event type
//     --comp SUBSTR             component-name substring
//
//   percentiles FILE [--comp SUBSTR]
//                       rebuild a queue-CDF row from the gauge_sample events
//                       of matching components (default: all gauges); with
//                       the hotspot probe this reproduces the Fig 11(c) row
//                       the bench prints, from the recorded trace alone.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/experiment_spec.hpp"
#include "campaign/json.hpp"
#include "cli_flags.hpp"
#include "stats/summary.hpp"
#include "telemetry/export.hpp"

using namespace conga;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "conga_trace: %s\n(see the header of tools/conga_trace.cpp "
               "for the subcommand reference)\n",
               msg);
  std::exit(2);
}

// --- reading a trace --------------------------------------------------------

/// Member `key` of a trace line as text: a string's contents, any other
/// value's JSON form, "" when absent.
std::string text_of(const campaign::Json& obj, const char* key) {
  const campaign::Json* v = obj.find(key);
  if (v == nullptr) return "";
  return v->is_string() ? v->as_string() : v->dump();
}

/// A JSONL trace read one line at a time. next() keeps the line as written
/// (slice prints it) and parses it once into `doc`; a line that is not a
/// JSON object is a usage error naming the line.
struct TraceFile {
  std::FILE* f = nullptr;
  std::string path;
  std::size_t line_no = 0;
  std::string line;
  campaign::Json doc;

  explicit TraceFile(const char* p) : f(std::fopen(p, "r")), path(p) {
    if (f == nullptr) usage(("cannot open " + path).c_str());
  }
  ~TraceFile() { std::fclose(f); }
  bool next() {
    int c = 0;
    do {
      line.clear();
      while ((c = std::fgetc(f)) != EOF && c != '\n') {
        line.push_back(static_cast<char>(c));
      }
      ++line_no;
    } while (line.empty() && c != EOF);  // blank lines carry nothing
    if (line.empty()) return false;
    std::string err;
    if (!campaign::Json::parse(line, doc, err) || !doc.is_object()) {
      usage((path + ":" + std::to_string(line_no) +
             ": not a trace line: " + (err.empty() ? "not an object" : err))
                .c_str());
    }
    return true;
  }
  /// An event line; the other line is the meta header.
  bool is_event() const { return doc.find("t") != nullptr; }
  long long t_ns() const { return doc.find("t")->as_int(); }
};

// --- record -----------------------------------------------------------------

// Each subcommand reads the flags after its argv[0]: the subcommand name
// for record, the trace file for the others.

int cmd_record(int argc, char** argv) {
  std::string out = "trace.jsonl";
  std::string csv;
  std::string lb_name = "conga";
  int stop_ms = 80;
  std::uint64_t fault_seed = 0;
  telemetry::TraceSinkConfig cfg;  // ring 8192, every category

  tools::FlagReader args(argc, argv, usage, "record ");
  args.each([&](const std::string& flag) {
    if (flag == "--out") {
      out = args.text();
    } else if (flag == "--csv") {
      csv = args.text();
    } else if (flag == "--lb") {
      lb_name = args.text();
    } else if (flag == "--stop-ms") {
      stop_ms = args.number<int>();
    } else if (flag == "--ring") {
      cfg.ring_capacity = args.number<std::size_t>();
    } else if (flag == "--fault-seed") {
      fault_seed = args.number<std::uint64_t>();
    } else if (flag == "--cats") {
      cfg.category_mask = 0;
      for (const std::string& name : args.list()) {
        telemetry::Category c = telemetry::Category::kCount;
        if (!telemetry::parse_category(name, c)) {
          usage(("unknown category: " + name).c_str());
        }
        cfg.category_mask |= telemetry::category_bit(c);
      }
    } else {
      return false;
    }
    return true;
  });

  // The Fig 11(c) scenario, exactly as bench/fig11_link_failure runs it.
  campaign::ExperimentSpec spec =
      campaign::hotspot_spec(lb_name, 16, sim::milliseconds(stop_ms));
  if (fault_seed != 0) spec.fault = {"random", fault_seed};

  telemetry::TraceSink sink(cfg);
  stats::Summary occ;
  std::string err;
  if (!campaign::run_hotspot(spec, sink, occ, err)) usage(err.c_str());

  if (!telemetry::write_jsonl_file(sink, out)) {
    usage(("cannot write " + out).c_str());
  }
  if (!csv.empty() && !telemetry::write_csv_file(sink, csv)) {
    usage(("cannot write " + csv).c_str());
  }

  std::printf("recorded %llu events (%llu overwritten by ring wrap) across "
              "%zu components -> %s\n",
              static_cast<unsigned long long>(sink.total_recorded()),
              static_cast<unsigned long long>(sink.total_overwritten()),
              sink.component_count(), out.c_str());
  if (!telemetry::compiled_in()) {
    std::printf("note: built with CONGA_TELEMETRY=OFF — only probe series "
                "were collected, no events recorded\n");
  }
  std::printf("hotspot [Spine1->Leaf1] queue occupancy, %s @ 60%% load:\n",
              lb_name.c_str());
  std::printf("%-6s", "pct");
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    std::printf("%11.0f", p);
  }
  std::printf("  (queue KB)\n%-6s", "");
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    std::printf("%11.1f", occ.percentile(p) / 1e3);
  }
  std::printf("\n");
  return 0;
}

// --- summary ----------------------------------------------------------------

int cmd_summary(const char* path) {
  TraceFile in(path);
  std::uint64_t events = 0;
  long long t_min = 0, t_max = 0;
  bool first = true;
  // type name -> count, kept in first-seen order for stable output.
  std::vector<std::pair<std::string, std::uint64_t>> by_type;
  std::vector<std::pair<std::string, std::uint64_t>> by_cat;
  auto bump = [](std::vector<std::pair<std::string, std::uint64_t>>& v,
                 const std::string& k) {
    for (auto& [name, n] : v) {
      if (name == k) {
        ++n;
        return;
      }
    }
    v.emplace_back(k, 1);
  };

  while (in.next()) {
    if (!in.is_event()) {
      if (const campaign::Json* meta = in.doc.find("meta")) {
        std::printf("meta: recorded=%s overwritten=%s mask=%s\n",
                    text_of(*meta, "total_recorded").c_str(),
                    text_of(*meta, "total_overwritten").c_str(),
                    text_of(*meta, "category_mask").c_str());
      }
      continue;
    }
    ++events;
    const long long t = in.t_ns();
    if (first || t < t_min) t_min = t;
    if (first || t > t_max) t_max = t;
    first = false;
    bump(by_cat, text_of(in.doc, "cat"));
    bump(by_type, text_of(in.doc, "type"));
  }
  std::printf("%llu exported events, %.3f ms .. %.3f ms\n",
              static_cast<unsigned long long>(events),
              static_cast<double>(t_min) / 1e6,
              static_cast<double>(t_max) / 1e6);
  std::printf("by category:\n");
  for (const auto& [name, n] : by_cat) {
    std::printf("  %-14s %10llu\n", name.c_str(),
                static_cast<unsigned long long>(n));
  }
  std::printf("by type:\n");
  for (const auto& [name, n] : by_type) {
    std::printf("  %-22s %10llu\n", name.c_str(),
                static_cast<unsigned long long>(n));
  }
  return 0;
}

// --- slice ------------------------------------------------------------------

int cmd_slice(int argc, char** argv) {
  const char* path = argv[0];
  long long from_ms = -1, to_ms = -1;
  std::string cat, type, comp;
  tools::FlagReader args(argc, argv, usage, "slice ");
  args.each([&](const std::string& flag) {
    if (flag == "--from-ms") {
      from_ms = args.number<long long>();
    } else if (flag == "--to-ms") {
      to_ms = args.number<long long>();
    } else if (flag == "--cat") {
      cat = args.text();
    } else if (flag == "--type") {
      type = args.text();
    } else if (flag == "--comp") {
      comp = args.text();
    } else {
      return false;
    }
    return true;
  });

  TraceFile in(path);
  while (in.next()) {
    if (!in.is_event()) continue;
    const long long t = in.t_ns();
    // In double, so that a huge --from-ms cannot overflow.
    if (from_ms >= 0 && t < from_ms * 1e6) continue;
    if (to_ms >= 0 && t > to_ms * 1e6) continue;
    if (!cat.empty() && text_of(in.doc, "cat") != cat) continue;
    if (!type.empty() && text_of(in.doc, "type") != type) continue;
    if (!comp.empty() &&
        text_of(in.doc, "comp").find(comp) == std::string::npos) {
      continue;
    }
    std::puts(in.line.c_str());
  }
  return 0;
}

// --- percentiles ------------------------------------------------------------

int cmd_percentiles(int argc, char** argv) {
  const char* path = argv[0];
  std::string comp;
  tools::FlagReader args(argc, argv, usage, "percentiles ");
  args.each([&](const std::string& flag) {
    if (flag != "--comp") return false;
    comp = args.text();
    return true;
  });
  TraceFile in(path);
  stats::Summary values;
  while (in.next()) {
    if (!in.is_event()) continue;
    if (text_of(in.doc, "type") != "gauge_sample") continue;
    if (!comp.empty() &&
        text_of(in.doc, "comp").find(comp) == std::string::npos) {
      continue;
    }
    const campaign::Json* value = in.doc.find("value");
    values.add(value != nullptr ? value->as_double() : 0.0);
  }
  if (values.count() == 0) usage("no matching gauge_sample events");
  std::printf("%llu samples%s%s\n",
              static_cast<unsigned long long>(values.count()),
              comp.empty() ? "" : " from components matching ",
              comp.c_str());
  std::printf("%-6s", "pct");
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    std::printf("%11.0f", p);
  }
  std::printf("  (value / KB if bytes)\n%-6s", "");
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    std::printf("%11.1f", values.percentile(p) / 1e3);
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand (record|summary|slice|percentiles)");
  const std::string cmd = argv[1];
  if (cmd == "record") return cmd_record(argc - 1, argv + 1);
  if (argc < 3) usage((cmd + " needs a trace file").c_str());
  if (cmd == "summary") return cmd_summary(argv[2]);
  if (cmd == "slice") return cmd_slice(argc - 2, argv + 2);
  if (cmd == "percentiles") return cmd_percentiles(argc - 2, argv + 2);
  usage(("unknown subcommand: " + cmd).c_str());
}
