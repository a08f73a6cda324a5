// congabench: runs one named workload for a host-time budget and prints its
// metrics as the last line of standard output.
//
//   congabench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out FILE]
//
// --trace 0 repeats the workload untraced and reports the end-to-end
// metrics. --trace 1 interleaves untraced repetitions with traced ones (LB
// decorators, trace sinks, the scheduler trace hook) and reports the
// per-layer metrics; FILE receives the traced spans as Chrome trace JSON.
// Each repetition runs in a forked process, between two passes of a fixed
// reference workload that give the host's slowdown at the time; the
// end-to-end timings are divided by it. Every execution of every cell
// passes a correctness gate: the cell drained, every link conserves
// packets, and its FCT digest and counters equal those of the cell's first
// execution, traced or not, at any jobs count.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "campaign/fingerprint.hpp"
#include "campaign/json.hpp"
#include "cells.hpp"
#include "clock.hpp"
#include "reference.hpp"
#include "runtime/parallel_runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Repetition counts bound a run whatever --seconds says: at least kMinReps
// repetitions (or traced/untraced rounds), so medians exist, and at most
// kMaxReps.
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) err = "bad --seed " + value;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) err = "bad --seconds " + value;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") err = "bad --trace " + value;
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      err = "unknown flag " + flag;
    }
    if (!err.empty()) return false;
  }
  if (!have_workload) err = "--workload is required";
  return err.empty();
}

struct Rep {
  int jobs = 1;
  bool traced = false;
  double makespan_s = 0;
  double peak_rss_mb = 0;  ///< of the process that ran the repetition
  double cpu_s = 0;        ///< its user + system CPU time
  /// Host time of a reference pass next to the repetition over its time on
  /// a calm host; see reference.hpp.
  double slowdown = 1;
  std::vector<CellResult> cells;

  double sum(double (*f)(const CellResult&)) const {
    double s = 0;
    for (const CellResult& c : cells) s += f(c);
    return s;
  }
};

// Results cross the pipe from a repetition's process as raw bytes.
static_assert(std::is_trivially_copyable_v<CellResult>);

void write_spans(const std::string& path, const Workload& w,
                 const std::vector<std::vector<Span>>& spans);

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

/// The body of a repetition's process: runs every cell through
/// runtime::parallel_map and writes the makespan and results to `fd`.
int rep_child(const Workload& w, int jobs, bool traced,
              const std::string& spans_out, int fd) {
  try {
    std::vector<std::vector<Span>> spans(w.cells.size());
    const std::int64_t t0 = host_ns();
    const std::vector<CellResult> cells = runtime::parallel_map<CellResult>(
        w.cells.size(), jobs, [&](std::size_t i) {
          return run_cell(w.cells[i], traced, traced ? &spans[i] : nullptr);
        });
    const double makespan_s = seconds_between(t0, host_ns());
    if (!spans_out.empty()) write_spans(spans_out, w, spans);
    if (!write_all(fd, &makespan_s, sizeof makespan_s) ||
        !write_all(fd, cells.data(), cells.size() * sizeof(CellResult))) {
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "congabench: %s\n", e.what());
    return 1;
  }
}

/// Runs every cell of `w` once in a fresh process, so each repetition
/// starts from a cold heap and cold thread-local packet pools, as a user's
/// run of the cell would, and its peak RSS is its own.
Rep run_rep(const Workload& w, int jobs, bool traced,
            const std::string& spans_out = {}) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);  // the child must not inherit buffered output
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(fds[0]);
    const int code = rep_child(w, jobs, traced, spans_out, fds[1]);
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t k = ::read(fds[0], buf, sizeof buf);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) break;
    bytes.append(buf, static_cast<std::size_t>(k));
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  const std::size_t want = sizeof(double) + w.cells.size() * sizeof(CellResult);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || bytes.size() != want) {
    throw std::runtime_error("a repetition's process failed");
  }
  Rep rep;
  rep.jobs = jobs;
  rep.traced = traced;
  rep.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  rep.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
  std::memcpy(&rep.makespan_s, bytes.data(), sizeof(double));
  rep.cells.resize(w.cells.size());
  std::memcpy(rep.cells.data(), bytes.data() + sizeof(double),
              w.cells.size() * sizeof(CellResult));
  return rep;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Counters that are fixed by the simulated behaviour of a cell.
std::vector<std::uint64_t> behaviour_counts(const CellResult& c) {
  const NetCounts& n = c.net;
  return {c.digest,         n.hops,         n.offered,
          n.drops_queue,    n.drops_fault,  n.host_offered,
          n.queue_peak_bytes, n.to_fabric,  c.flows_started,
          c.flows_measured};
}

/// Counters only a traced cell has.
std::vector<std::uint64_t> traced_counts(const CellResult& c) {
  const TraceCounts& t = c.counts;
  return {c.events,
          c.hop_window_events,
          c.pending_peak,
          c.lb.select.calls,
          c.lb.receive.calls,
          c.lb.annotate.calls,
          c.lb.probe_packets,
          t.flowlets,
          t.path_changes,
          t.dre_updates,
          t.table_updates,
          t.tcp_flows,
          t.rto,
          t.retransmits,
          t.events_recorded};
}

/// The correctness gate, applied to every execution of every cell.
class Gate {
 public:
  explicit Gate(const Workload& w) : w_(w), ref_(w.cells.size()),
                                     traced_ref_(w.cells.size()) {}

  void check(const Rep& rep) {
    for (std::size_t i = 0; i < rep.cells.size(); ++i) {
      const CellResult& c = rep.cells[i];
      ++attempted_;
      std::string why;
      if (!c.finished) why = "did not drain / finish every round";
      if (!c.net_read) why = "link counters never read";
      if (c.net_read && !c.net.conserved) why = "a link broke conservation";
      if (ref_[i].empty()) ref_[i] = behaviour_counts(c);
      if (behaviour_counts(c) != ref_[i]) {
        why = "digest or counters differ from the cell's first execution";
      }
      if (c.traced) {
        const std::vector<std::uint64_t> t = traced_counts(c);
        if (traced_ref_[i].empty()) traced_ref_[i] = t;
        if (!c.counts.complete) why = "a trace ring wrapped";
        if (t != traced_ref_[i]) why = "traced counts differ across repeats";
      }
      // The packet pool's growth depends on which cells shared a worker
      // thread before, which only a jobs-1 repetition fixes.
      if (rep.jobs == 1) {
        auto [pool, fresh] = pool_ref_.try_emplace(i, c.pool_chunk_allocs);
        if (!fresh && pool->second != c.pool_chunk_allocs) {
          why = "packet pool growth differs across repeats";
        }
      }
      if (!why.empty()) {
        ++failed_;
        std::fprintf(stderr, "gate: %s (%s, jobs %d): %s\n",
                     w_.cells[i].name.c_str(),
                     c.traced ? "traced" : "untraced", rep.jobs, why.c_str());
      }
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  const Workload& w_;
  std::vector<std::vector<std::uint64_t>> ref_;
  std::vector<std::vector<std::uint64_t>> traced_ref_;
  std::map<std::size_t, std::uint64_t> pool_ref_;  ///< jobs-1 repeats only
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The processor's brand string, read with CPUID (no file outside the
/// checkout is read).
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000U, nullptr) < 0x80000004U) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string brand(reinterpret_cast<const char*>(regs), sizeof regs);
  brand = brand.substr(0, brand.find('\0'));
  const std::size_t first = brand.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : brand.substr(first);
#else
  return "unknown";
#endif
}

/// The machine and build every result was measured on.
campaign::Json machine_block() {
  using campaign::Json;
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef CONGA_CHECK_INVARIANTS
  const bool invariants = true;
#else
  const bool invariants = false;
#endif
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
  const bool optimized = build_type == "Release" ||
                         build_type == "RelWithDebInfo";
  Json j = Json::object();
  j.set("nproc", Json::uinteger(std::thread::hardware_concurrency()));
  j.set("cpu", Json::string(cpu_model()));
  j.set("compiler", Json::string(PERFBENCH_CXX_COMPILER));
  j.set("build_type", Json::string(build_type));
  j.set("ndebug", Json::boolean(ndebug));
  j.set("conga_telemetry", Json::boolean(telemetry::compiled_in()));
  j.set("conga_check_invariants", Json::boolean(invariants));
  j.set("sanitize", Json::string(sanitize));
  j.set("source_digest", Json::string(campaign::source_digest()));
  j.set("timings_valid", Json::boolean(optimized && ndebug && !invariants &&
                                       sanitize.empty()));
  return j;
}

void print_cells(const Workload& w, const Rep& rep) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const CellResult& c = rep.cells[i];
    std::printf("cell %s digest=%s", w.cells[i].name.c_str(),
                campaign::hex64(c.digest).c_str());
    if (w.cells[i].is_incast) std::printf(" goodput=%.6f", c.goodput);
    std::printf(" spec=%s\n", describe(w.cells[i]).c_str());
  }
}

/// Writes the traced spans, one thread row per cell, as Chrome trace JSON.
void write_spans(const std::string& path, const Workload& w,
                 const std::vector<std::vector<Span>>& spans) {
  using campaign::Json;
  std::int64_t origin = INT64_MAX;
  for (const std::vector<Span>& cell : spans) {
    for (const Span& s : cell) origin = std::min(origin, s.start_ns);
  }
  Json events = Json::array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (const Span& s : spans[i]) {
      Json e = Json::object();
      e.set("name", Json::string(s.name));
      e.set("ph", Json::string("X"));
      e.set("ts", Json::number(static_cast<double>(s.start_ns - origin) / 1e3));
      e.set("dur", Json::number(static_cast<double>(s.dur_ns) / 1e3));
      e.set("pid", Json::integer(1));
      e.set("tid", Json::uinteger(i));
      Json args = Json::object();
      args.set("cell", Json::string(w.cells[i].name));
      e.set("args", std::move(args));
      events.push_back(std::move(e));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    campaign::Json m = campaign::Json::object();
    m.set("value", campaign::Json::number(value));
    m.set("unit", campaign::Json::string(unit));
    metrics_.set(name, std::move(m));
  }
  campaign::Json take() { return std::move(metrics_); }

 private:
  campaign::Json metrics_ = campaign::Json::object();
};

double setup_of(const CellResult& c) { return c.setup_s(); }
double run_of(const CellResult& c) { return c.run_s; }
double hop_window_of(const CellResult& c) { return c.hop_window_s; }
double total_of(const CellResult& c) { return c.total_s; }
double build_of(const CellResult& c) { return c.build_s; }
double install_of(const CellResult& c) { return c.install_s; }
double gen_setup_of(const CellResult& c) { return c.gen_setup_s; }
double summary_of(const CellResult& c) { return c.summary_s; }
double hops_of(const CellResult& c) {
  return static_cast<double>(c.net.hops);
}

/// Median over `reps` of f(rep).
template <typename F>
double median_over(const std::vector<const Rep*>& reps, F f) {
  std::vector<double> v;
  for (const Rep* r : reps) v.push_back(f(*r));
  return median(v);
}

/// End-to-end timings are host times divided by the repetition's host
/// slowdown: what they would read on a calm host.
void end_to_end(const std::vector<const Rep*>& timed, Metrics& m) {
  m.add("wall_s", median_over(timed, [](const Rep& r) {
          return r.makespan_s / r.slowdown;
        }), "s");
  m.add("setup_s", median_over(timed, [](const Rep& r) {
          return r.sum(setup_of) / r.slowdown;
        }), "s");
  m.add("ns_per_hop", median_over(timed, [](const Rep& r) {
          return ratio(r.sum(hop_window_of) * 1e9, r.sum(hops_of)) /
                 r.slowdown;
        }), "ns");
  m.add("peak_rss_mb",
        median_over(timed, [](const Rep& r) { return r.peak_rss_mb; }), "MB");
}

void per_layer(const std::vector<const Rep*>& timed_j,
               const std::vector<const Rep*>& timed_1,
               const std::vector<const Rep*>& traced_1, std::uint64_t failed,
               std::uint64_t attempted, Metrics& m) {
  const Rep& t = *traced_1.front();  // counts repeat exactly (gated)
  const double clock_ns = clock_overhead_ns();
  double events = 0, window_events = 0, hops = 0, offered = 0, drops_q = 0,
         drops_f = 0;
  double queue_peak = 0, pool = 0, pending_peak = 0, host_offered = 0;
  double flows_started = 0, flows_measured = 0;
  LbStats lb;
  TraceCounts tc;
  for (const CellResult& c : t.cells) {
    events += static_cast<double>(c.events);
    window_events += static_cast<double>(c.hop_window_events);
    pending_peak = std::max(pending_peak, static_cast<double>(c.pending_peak));
    hops += static_cast<double>(c.net.hops);
    offered += static_cast<double>(c.net.offered);
    host_offered += static_cast<double>(c.net.host_offered);
    drops_q += static_cast<double>(c.net.drops_queue);
    drops_f += static_cast<double>(c.net.drops_fault);
    queue_peak =
        std::max(queue_peak, static_cast<double>(c.net.queue_peak_bytes));
    pool += static_cast<double>(c.pool_chunk_allocs);
    flows_started += static_cast<double>(c.flows_started);
    flows_measured += static_cast<double>(c.flows_measured);
    lb.select.calls += c.lb.select.calls;
    lb.receive.calls += c.lb.receive.calls;
    lb.annotate.calls += c.lb.annotate.calls;
    tc.flowlets += c.counts.flowlets;
    tc.path_changes += c.counts.path_changes;
    tc.dre_updates += c.counts.dre_updates;
    tc.table_updates += c.counts.table_updates;
    tc.tcp_flows += c.counts.tcp_flows;
    tc.rto += c.counts.rto;
    tc.retransmits += c.counts.retransmits;
    tc.events_recorded += c.counts.events_recorded;
  }
  // Sampled LB timings pool every traced repetition.
  for (const Rep* r : traced_1) {
    for (const CellResult& c : r->cells) {
      for (auto [dst, src] : {std::pair{&lb.select, &c.lb.select},
                              std::pair{&lb.receive, &c.lb.receive},
                              std::pair{&lb.annotate, &c.lb.annotate}}) {
        dst->sampled += src->sampled;
        dst->sampled_ns += src->sampled_ns;
      }
    }
  }
  const double select_ns = lb.select.mean_ns(clock_ns);
  const double receive_ns = lb.receive.mean_ns(clock_ns);
  const double annotate_ns = lb.annotate.mean_ns(clock_ns);
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

  // Per-hop and per-event ratios share the hop window, over which the hops
  // were counted.
  const double window_1 =
      median_over(timed_1, [](const Rep& r) { return r.sum(hop_window_of); });
  m.add("sim.events", events, "count");
  m.add("sim.events_per_hop", ratio(window_events, hops), "ratio");
  m.add("sim.ns_per_event", ratio(window_1 * 1e9, window_events), "ns");
  m.add("sim.pending_peak", pending_peak, "count");

  m.add("net.hops", hops, "count");
  m.add("net.offered", offered, "count");
  m.add("net.delivered_ratio", ratio(hops, offered), "ratio");
  m.add("net.drops_queue", drops_q, "count");
  m.add("net.drops_fault", drops_f, "count");
  m.add("net.queue_peak_bytes", queue_peak, "bytes");
  m.add("net.pool_chunk_allocs", pool, "count");
  m.add("net.build_s",
        median_over(timed_1, [](const Rep& r) { return r.sum(build_of); }),
        "s");

  m.add("lb.install_s",
        median_over(timed_1, [](const Rep& r) { return r.sum(install_of); }),
        "s");
  m.add("lb.select_calls", u(lb.select.calls), "count");
  m.add("lb.select_ns", select_ns, "ns");
  m.add("lb.receive_calls", u(lb.receive.calls), "count");
  m.add("lb.receive_ns", receive_ns, "ns");
  m.add("lb.annotate_ns", annotate_ns, "ns");
  const double lb_ns = select_ns * u(lb.select.calls) +
                       receive_ns * u(lb.receive.calls) +
                       annotate_ns * u(lb.annotate.calls);
  m.add("lb.share",
        ratio(lb_ns, 1e9 * median_over(traced_1, [](const Rep& r) {
                       return r.sum(run_of);
                     })),
        "ratio");

  m.add("core.flowlets", u(tc.flowlets), "count");
  m.add("core.path_changes", u(tc.path_changes), "count");
  m.add("core.path_change_ratio", ratio(u(tc.path_changes), u(tc.flowlets)),
        "ratio");
  m.add("core.dre_updates", u(tc.dre_updates), "count");
  m.add("core.table_updates", u(tc.table_updates), "count");

  m.add("tcp.flows", u(tc.tcp_flows), "count");
  m.add("tcp.flow_build_ns", median_over(traced_1, [](const Rep& r) {
          double ns = 0, flows = 0;
          for (const CellResult& c : r.cells) {
            ns += static_cast<double>(c.flow_build_ns);
            flows += static_cast<double>(c.flows_started);
          }
          return ratio(ns, flows);
        }), "ns");
  m.add("tcp.rto", u(tc.rto), "count");
  m.add("tcp.retransmits", u(tc.retransmits), "count");
  m.add("tcp.retransmit_ratio", ratio(u(tc.retransmits), host_offered),
        "ratio");

  m.add("workload.gen_setup_s", median_over(timed_1, [](const Rep& r) {
          return r.sum(gen_setup_of);
        }), "s");
  m.add("workload.flows_started", flows_started, "count");
  m.add("workload.flows_measured", flows_measured, "count");
  m.add("stats.summary_s", median_over(traced_1, [](const Rep& r) {
          return r.sum(summary_of);
        }), "s");

  m.add("telemetry.events_recorded", u(tc.events_recorded), "count");
  const double traced_total =
      median_over(traced_1, [](const Rep& r) { return r.sum(total_of); });
  const double untraced_total =
      median_over(timed_1, [](const Rep& r) { return r.sum(total_of); });
  m.add("telemetry.trace_overhead", ratio(traced_total, untraced_total) - 1,
        "ratio");

  m.add("runtime.cell_s_max", median_over(timed_j, [](const Rep& r) {
          double mx = 0;
          for (const CellResult& c : r.cells) mx = std::max(mx, c.total_s);
          return mx;
        }), "s");
  m.add("runtime.cell_s_sum",
        median_over(timed_j, [](const Rep& r) { return r.sum(total_of); }),
        "s");
  m.add("runtime.idle_frac", median_over(timed_j, [](const Rep& r) {
          return 1.0 - ratio(r.sum(total_of), r.jobs * r.makespan_s);
        }), "ratio");
  const auto makespan = [](const Rep& r) { return r.makespan_s; };
  m.add("runtime.speedup",
        ratio(median_over(timed_1, makespan), median_over(timed_j, makespan)),
        "x");
  m.add("runtime.contention",
        ratio(median_over(timed_j, [](const Rep& r) { return r.sum(total_of); }),
              untraced_total) - 1,
        "ratio");
  m.add("failed_frac", ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)), "ratio");
}

std::vector<const Rep*> select(const std::vector<Rep>& reps, bool traced,
                               int jobs) {
  std::vector<const Rep*> out;
  for (const Rep& r : reps) {
    if (r.traced == traced && r.jobs == jobs) out.push_back(&r);
  }
  return out;
}

int run(const Args& args) {
  Workload w;
  if (!make_workload(args.workload, args.seed, w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf("machine %s\n", machine_block().dump().c_str());
  std::printf("workload %s seed %llu jobs %d cells %zu trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              w.jobs, w.cells.size(), args.trace ? 1 : 0);
  std::fflush(stdout);

  Gate gate(w);
  std::vector<Rep> reps;
  double ref_before = reference_seconds(w.jobs);
  const auto add = [&](int jobs, bool traced,
                       const std::string& spans_out = {}) {
    reps.push_back(run_rep(w, jobs, traced, spans_out));
    Rep& r = reps.back();
    // The host's speed during the repetition: the faster of the reference
    // passes on either side of it, as host noise only ever slows a pass.
    const double ref_after = reference_seconds(w.jobs);
    r.slowdown = std::min(ref_before, ref_after) / kReferenceCalmS;
    ref_before = ref_after;
    gate.check(r);
    std::printf("rep %zu jobs %d traced %d makespan_s %.6f setup_s %.6f "
                "run_s %.6f cpu_s %.6f slowdown %.4f hops %.0f\n",
                reps.size(), jobs, traced ? 1 : 0, r.makespan_s,
                r.sum(setup_of), r.sum(run_of), r.cpu_s, r.slowdown,
                r.sum(hops_of));
    std::fflush(stdout);
  };
  const std::int64_t deadline =
      host_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  const auto more = [&](std::size_t done) {
    return done < kMinReps || (done < kMaxReps && host_ns() < deadline);
  };

  Metrics m;
  if (!args.trace) {
    for (std::size_t n = 0; more(n); ++n) add(w.jobs, false);
    print_cells(w, reps.front());
    end_to_end(select(reps, false, w.jobs), m);
  } else {
    // Interleave so drift on the host hits traced and untraced alike.
    for (std::size_t n = 0; more(n); ++n) {
      add(w.jobs, false);
      add(1, true, n == 0 ? args.trace_out : std::string());
      if (w.jobs > 1) add(1, false);
    }
    // Traced counts must not depend on the jobs count either.
    if (w.jobs > 1) add(w.jobs, true);
    const std::vector<const Rep*> traced_1 = select(reps, true, 1);
    print_cells(w, *traced_1.front());
    per_layer(select(reps, false, w.jobs), select(reps, false, 1),
              traced_1, gate.failed(), gate.attempted(), m);
  }

  campaign::Json result = campaign::Json::object();
  result.set("correct", campaign::Json::boolean(gate.failed() == 0));
  result.set("attempted", campaign::Json::uinteger(gate.attempted()));
  result.set("failed", campaign::Json::uinteger(gate.failed()));
  result.set("metrics", m.take());
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string err;
  if (!perfbench::parse_args(argc, argv, args, err)) {
    std::fprintf(stderr,
                 "congabench: %s\nusage: congabench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n",
                 err.c_str());
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "congabench: %s\n", e.what());
    return 1;
  }
}
