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
#include <cstring>
#include <string>
#include <vector>

#include "campaign/experiment_spec.hpp"
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

// --- minimal JSONL field extraction -----------------------------------------
// The reader only consumes traces this repo's exporter wrote ("conga-trace-v1"
// schema, one flat object per line, machine-generated component names), so
// plain string scanning is sufficient — no JSON dependency needed.

/// The raw text after `"key":` (number or quoted string), or "" if absent.
std::string field(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t i = at + needle.size();
  if (line[i] == '"') {
    const std::size_t end = line.find('"', i + 1);
    return line.substr(i + 1, end - i - 1);
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

bool is_event_line(const std::string& line) {
  return line.rfind("{\"t\":", 0) == 0;
}

struct TraceFile {
  std::FILE* f = nullptr;
  explicit TraceFile(const char* path) : f(std::fopen(path, "r")) {
    if (f == nullptr) usage((std::string("cannot open ") + path).c_str());
  }
  ~TraceFile() { std::fclose(f); }
  bool next(std::string& line) {
    line.clear();
    int c = 0;
    while ((c = std::fgetc(f)) != EOF && c != '\n') {
      line.push_back(static_cast<char>(c));
    }
    return !line.empty() || c != EOF;
  }
};

// --- record -----------------------------------------------------------------

int cmd_record(int argc, char** argv) {
  std::string out = "trace.jsonl";
  std::string csv;
  std::string lb_name = "conga";
  int stop_ms = 80;
  std::size_t ring = 8192;
  std::uint32_t mask = telemetry::kAllCategories;
  std::uint64_t fault_seed = 0;

  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("flag needs a value");
    return argv[++i];
  };
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out") {
      out = need(i);
    } else if (a == "--csv") {
      csv = need(i);
    } else if (a == "--lb") {
      lb_name = need(i);
    } else if (a == "--stop-ms") {
      tools::number_flag(argc, argv, i, stop_ms, usage);
    } else if (a == "--ring") {
      tools::number_flag(argc, argv, i, ring, usage);
    } else if (a == "--fault-seed") {
      tools::number_flag(argc, argv, i, fault_seed, usage);
    } else if (a == "--cats") {
      mask = 0;
      std::string cats = need(i);
      std::size_t pos = 0;
      while (pos <= cats.size()) {
        std::size_t comma = cats.find(',', pos);
        if (comma == std::string::npos) comma = cats.size();
        telemetry::Category c = telemetry::Category::kCount;
        const std::string name = cats.substr(pos, comma - pos);
        if (!telemetry::parse_category(name, c)) {
          usage(("unknown category: " + name).c_str());
        }
        mask |= telemetry::category_bit(c);
        pos = comma + 1;
      }
    } else {
      usage(("unknown record flag: " + a).c_str());
    }
  }

  // The Fig 11(c) scenario, exactly as bench/fig11_link_failure runs it.
  campaign::ExperimentSpec spec =
      campaign::hotspot_spec(lb_name, 16, sim::milliseconds(stop_ms));
  if (fault_seed != 0) spec.fault = {"random", fault_seed};

  telemetry::TraceSinkConfig cfg;
  cfg.ring_capacity = ring;
  cfg.category_mask = mask;
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
  std::string line;
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

  while (in.next(line)) {
    if (!is_event_line(line)) {
      if (line.rfind("{\"meta\":", 0) == 0) {
        std::printf("meta: recorded=%s overwritten=%s mask=%s\n",
                    field(line, "total_recorded").c_str(),
                    field(line, "total_overwritten").c_str(),
                    field(line, "category_mask").c_str());
      }
      continue;
    }
    ++events;
    const long long t = std::atoll(field(line, "t").c_str());
    if (first || t < t_min) t_min = t;
    if (first || t > t_max) t_max = t;
    first = false;
    bump(by_cat, field(line, "cat"));
    bump(by_type, field(line, "type"));
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

int cmd_slice(const char* path, int argc, char** argv) {
  long long from_ns = -1, to_ns = -1;
  std::string cat, type, comp;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage("flag needs a value");
    return argv[++i];
  };
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--from-ms") {
      tools::number_flag(argc, argv, i, from_ns, usage);
      from_ns *= 1'000'000LL;
    } else if (a == "--to-ms") {
      tools::number_flag(argc, argv, i, to_ns, usage);
      to_ns *= 1'000'000LL;
    } else if (a == "--cat") {
      cat = need(i);
    } else if (a == "--type") {
      type = need(i);
    } else if (a == "--comp") {
      comp = need(i);
    } else {
      usage(("unknown slice flag: " + a).c_str());
    }
  }

  TraceFile in(path);
  std::string line;
  while (in.next(line)) {
    if (!is_event_line(line)) continue;
    const long long t = std::atoll(field(line, "t").c_str());
    if (from_ns >= 0 && t < from_ns) continue;
    if (to_ns >= 0 && t > to_ns) continue;
    if (!cat.empty() && field(line, "cat") != cat) continue;
    if (!type.empty() && field(line, "type") != type) continue;
    if (!comp.empty() &&
        field(line, "comp").find(comp) == std::string::npos) {
      continue;
    }
    std::puts(line.c_str());
  }
  return 0;
}

// --- percentiles ------------------------------------------------------------

int cmd_percentiles(const char* path, int argc, char** argv) {
  std::string comp;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--comp") == 0 && i + 1 < argc) {
      comp = argv[++i];
    } else {
      usage(("unknown percentiles flag: " + std::string(argv[i])).c_str());
    }
  }
  TraceFile in(path);
  std::string line;
  stats::Summary values;
  while (in.next(line)) {
    if (!is_event_line(line)) continue;
    if (field(line, "type") != "gauge_sample") continue;
    if (!comp.empty() &&
        field(line, "comp").find(comp) == std::string::npos) {
      continue;
    }
    values.add(std::atof(field(line, "value").c_str()));
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
  if (cmd == "record") return cmd_record(argc - 2, argv + 2);
  if (argc < 3) usage((cmd + " needs a trace file").c_str());
  if (cmd == "summary") return cmd_summary(argv[2]);
  if (cmd == "slice") return cmd_slice(argv[2], argc - 3, argv + 3);
  if (cmd == "percentiles") return cmd_percentiles(argv[2], argc - 3, argv + 3);
  usage(("unknown subcommand: " + cmd).c_str());
}
