#include "campaign/supervisor.hpp"

// conga-lint: allow-file(wall-clock): supervision deadlines, retry backoff,
// and drain grace are real elapsed time by design; they schedule child
// processes, never simulation events, and no digest or report byte depends
// on them.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/codec.hpp"
#include "campaign/experiment_spec.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/json.hpp"
#include "campaign/run_phases.hpp"
#include "campaign/store.hpp"

namespace conga::campaign {

namespace {

constexpr const char* kCellRequestSchema = "conga-cell-request-v1";
constexpr const char* kCellResponseSchema = "conga-cell-response-v1";
constexpr const char* kQuarantineSchema = "conga-quarantine-v1";

/// Child exit code meaning "retrying cannot help" (bad request / spec).
constexpr int kExitPermanent = 3;

using Clock = std::chrono::steady_clock;

std::int64_t ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(to - from)
      .count();
}

/// One finished attempt, as recorded in the quarantine poison file.
struct AttemptRecord {
  std::string outcome;  ///< "exit" | "signal" | "timeout"
  int exit_code = 0;
  int term_signal = 0;
  std::int64_t backoff_ms = 0;  ///< delay scheduled after this attempt
};

/// A cell waiting to run (first time or retry).
struct PendingCell {
  std::size_t idx = 0;
  int attempt = 1;  ///< attempt number the next launch will be
  Clock::time_point ready_at;  ///< epoch default: ready immediately
  std::vector<AttemptRecord> attempts;
};

/// A live child process.
struct ChildSlot {
  pid_t pid = -1;
  int out_fd = -1;      ///< nonblocking read end of the child's stdout
  std::string buf;      ///< accumulated response bytes
  PendingCell cell;
  Clock::time_point started;
  bool killed = false;
  bool timed_out = false;      ///< killed by its own deadline
  bool shutdown_kill = false;  ///< killed by the drain grace; stays pending
};

/// What the supervisor sends a `conga_serve cell` child on stdin...
struct CellRequest {
  std::string key;
  std::string fingerprint;
  std::string store;  ///< store root; "" = storeless
  ExperimentSpec spec;
};

/// ...and what the child echoes on stdout.
struct CellResponse {
  std::string key;
  bool stored = false;
  std::string store_error;
  workload::ExperimentResult result;
};

using detail::kRequired;

template <class V>
void fields(V& v, CellRequest& r) {
  v.kind("cell request");
  v.schema(kCellRequestSchema, kRequired);
  v.field("key", r.key, kRequired);
  v.field("fingerprint", r.fingerprint, kRequired);
  v.field("store", r.store, kRequired);
  v.field("spec", r.spec, kRequired);
}

template <class V>
void fields(V& v, CellResponse& r) {
  v.kind("cell response");
  v.schema(kCellResponseSchema, kRequired);
  v.field("key", r.key, kRequired);
  v.field("stored", r.stored);
  v.field("store_error", r.store_error);
  v.field("result", r.result, kRequired);
}

/// Forks and execs `exe cell`, feeding it `request` on stdin. On success
/// the child's stdout read end (nonblocking) and pid are returned.
bool spawn_cell(const std::string& exe, const std::string& request,
                const char* action, pid_t& pid_out, int& fd_out,
                std::string& err) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (::pipe(in_pipe) != 0) {
    err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (::pipe(out_pipe) != 0) {
    err = std::string("pipe: ") + std::strerror(errno);
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    err = std::string("fork: ") + std::strerror(errno);
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) {
      ::close(fd);
    }
    return false;
  }
  if (pid == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    // Close everything but stdio — inherited pipe ends of sibling children
    // must not keep their streams open.
    for (int fd = 3; fd < 256; ++fd) ::close(fd);
    if (action != nullptr && *action != '\0') {
      ::setenv("CONGA_CELL_FAULT_ACTION", action, 1);
    } else {
      ::unsetenv("CONGA_CELL_FAULT_ACTION");
    }
    ::execl(exe.c_str(), "conga_serve", "cell",
            static_cast<char*>(nullptr));
    std::fprintf(stderr, "conga_serve: exec %s failed: %s\n", exe.c_str(),
                 std::strerror(errno));
    std::_Exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  // The child reads stdin to EOF before anything else, so a blocking write
  // completes; if it died already (EPIPE — SIGPIPE is ignored), the reaper
  // classifies the failure.
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::write(in_pipe[1], request.data() + off, request.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ::close(in_pipe[1]);
  ::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);
  pid_out = pid;
  fd_out = out_pipe[0];
  return true;
}

void drain_pipe(ChildSlot& slot) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(slot.out_fd, buf, sizeof(buf));
    if (n > 0) {
      slot.buf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    break;  // 0 = EOF, -1 = EAGAIN/err; the reaper does the final drain
  }
}

/// A child's response for cell `key`.
bool parse_response(const std::string& text, const std::string& key,
                    CellResponse& resp, std::string& err) {
  if (!detail::parse_as(text, resp, err)) {
    err = "bad cell response: " + err;
    return false;
  }
  if (resp.key == key) return true;
  err = "cell response key mismatch";
  return false;
}

bool write_file_synced(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = std::fflush(f) == 0;
  const bool synced = ::fsync(::fileno(f)) == 0;
  return (std::fclose(f) == 0) && wrote && flushed && synced;
}

/// Writes the quarantine poison record; returns its path or "" on failure
/// (a store that cannot take the record must not re-kill the campaign).
std::string write_quarantine(const std::string& store_root, const Cell& cell,
                             const PendingCell& pc, int max_attempts) {
  if (store_root.empty()) return "";
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(store_root) / "quarantine";
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return "";

  Json j = Json::object();
  j.set("schema", Json::string(kQuarantineSchema));
  j.set("key", Json::string(cell.key));
  j.set("coordinate", Json::string(cell_coordinate(cell)));
  j.set("cell_index", Json::uinteger(pc.idx));
  j.set("max_attempts", Json::integer(max_attempts));
  Json attempts = Json::array();
  for (std::size_t a = 0; a < pc.attempts.size(); ++a) {
    const AttemptRecord& rec = pc.attempts[a];
    Json e = Json::object();
    e.set("attempt", Json::uinteger(a + 1));
    e.set("outcome", Json::string(rec.outcome));
    e.set("exit_code", Json::integer(rec.exit_code));
    e.set("signal", Json::integer(rec.term_signal));
    e.set("backoff_ms", Json::integer(rec.backoff_ms));
    attempts.push_back(std::move(e));
  }
  j.set("attempts", std::move(attempts));
  j.set("spec", json_of_spec(cell.spec));

  const std::string path = (dir / (cell.key + ".json")).string();
  const std::string tmp = path + "." + std::to_string(::getpid()) + ".tmp";
  if (!write_file_synced(tmp, j.dump_pretty() + "\n")) {
    fs::remove(tmp, ec);
    return "";
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return "";
  }
  return path;
}

}  // namespace

std::int64_t backoff_delay_ms(const std::string& key, int attempt,
                              const SupervisorOptions& opts) {
  const std::int64_t base = std::max<std::int64_t>(1, opts.backoff_base_ms);
  const std::int64_t cap = std::max<std::int64_t>(base, opts.backoff_cap_ms);
  const int shift = std::min(std::max(attempt - 1, 0), 20);
  std::int64_t delay = base << shift;
  if (delay <= 0 || delay > cap) delay = cap;
  // Keyed jitter: deterministic per (cell, attempt), so reruns follow the
  // same schedule while distinct cells desynchronize.
  const std::uint64_t h = fnv1a64(key + "#" + std::to_string(attempt));
  const auto span = static_cast<std::uint64_t>(std::max<std::int64_t>(
      1, base / 4));
  return delay + static_cast<std::int64_t>(h % span);
}

bool parse_cell_fault(const std::string& text,
                      std::vector<CellFaultDirective>& out,
                      std::string& err) {
  out.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string::npos) {
      err = "CONGA_CELL_FAULT directive '" + item +
            "' wants mode:cell[@attempt]";
      return false;
    }
    CellFaultDirective d;
    const std::string mode = item.substr(0, colon);
    if (mode == "crash") {
      d.mode = CellFaultDirective::Mode::kCrash;
    } else if (mode == "hang") {
      d.mode = CellFaultDirective::Mode::kHang;
    } else if (mode == "tear") {
      d.mode = CellFaultDirective::Mode::kTear;
    } else {
      err = "unknown CONGA_CELL_FAULT mode '" + mode +
            "' (crash, hang, tear)";
      return false;
    }
    std::string rest = item.substr(colon + 1);
    const std::size_t at = rest.find('@');
    if (at != std::string::npos) {
      const std::string attempt_text = rest.substr(at + 1);
      char* parse_end = nullptr;
      const long attempt = std::strtol(attempt_text.c_str(), &parse_end, 10);
      if (parse_end == attempt_text.c_str() || *parse_end != '\0' ||
          attempt <= 0) {
        err = "bad attempt in CONGA_CELL_FAULT directive '" + item + "'";
        return false;
      }
      d.attempt = static_cast<int>(attempt);
      rest = rest.substr(0, at);
    }
    char* parse_end = nullptr;
    const long cell = std::strtol(rest.c_str(), &parse_end, 10);
    if (parse_end == rest.c_str() || *parse_end != '\0' || cell < 0) {
      err = "bad cell index in CONGA_CELL_FAULT directive '" + item + "'";
      return false;
    }
    d.cell = static_cast<std::size_t>(cell);
    out.push_back(d);
  }
  return true;
}

const char* fault_action(const std::vector<CellFaultDirective>& directives,
                         std::size_t cell, int attempt) {
  for (const CellFaultDirective& d : directives) {
    if (d.cell != cell) continue;
    if (d.attempt != 0 && d.attempt != attempt) continue;
    switch (d.mode) {
      case CellFaultDirective::Mode::kCrash:
        return "crash";
      case CellFaultDirective::Mode::kHang:
        return "hang";
      case CellFaultDirective::Mode::kTear:
        return "tear";
    }
  }
  return "";
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

int cell_main(const std::string& request_text, std::string& response_out,
              std::string& diag) {
  response_out.clear();
  CellRequest req;
  std::string err;
  if (!detail::parse_as(request_text, req, err)) {
    diag = "cell: bad request: " + err;
    return kExitPermanent;
  }

  // Deterministic failure injection for tests and the crash-resilience CI
  // lane; the supervisor decides which (cell, attempt) gets which action.
  const char* action = std::getenv("CONGA_CELL_FAULT_ACTION");
  if (action != nullptr) {
    if (std::strcmp(action, "crash") == 0) std::abort();
    if (std::strcmp(action, "hang") == 0) {
      // Hang until killed — but bail out if orphaned (supervisor was
      // SIGKILLed and can no longer reap us), so tests never leak sleepers.
      while (::getppid() != 1) ::usleep(50 * 1000);
      std::_Exit(0);
    }
    if (std::strcmp(action, "tear") == 0) {
      ResultStore::set_tear_after_tmp_write_for_tests(true);
    }
  }

  CellResponse resp{req.key, false, "", {}};
  if (!run_spec(req.spec, resp.result, err)) {
    diag = "cell: " + err;
    return kExitPermanent;
  }
  if (!req.store.empty()) {
    ResultStore store(req.store);
    resp.stored = store.put(req.key, req.fingerprint, canonical_json(req.spec),
                            resp.result, resp.store_error);
  }
  response_out = detail::encode(resp).dump() + "\n";
  return 0;
}

bool run_campaign_supervised(const CampaignSpec& spec, const RunOptions& ropts,
                             const SupervisorOptions& sopts,
                             const volatile std::sig_atomic_t* shutdown,
                             CampaignRun& out, SuperviseOutcome& outcome,
                             std::string& err) {
  outcome = SuperviseOutcome::kComplete;
  CampaignRun run;
  if (!detail::start_run(spec, run, err)) return false;
  if (sopts.exe.empty() || ::access(sopts.exe.c_str(), X_OK) != 0) {
    err = "supervisor: cell executable '" + sopts.exe +
          "' is not executable";
    return false;
  }
  std::vector<CellFaultDirective> faults;
  if (!parse_cell_fault(sopts.fault_spec, faults, err)) return false;

  // Phase 1 — store lookups on the main thread.
  const std::size_t n = run.cells.size();
  std::vector<PendingCell> pending;
  for (const std::size_t i :
       detail::look_up_cells(run, ropts.store, ropts.verbose)) {
    PendingCell pc;
    pc.idx = i;
    pending.push_back(std::move(pc));
  }

  // Phase 2 — the supervision loop. Main thread only: it forks children,
  // drains their pipes, enforces deadlines, and emits telemetry.
  std::signal(SIGPIPE, SIG_IGN);  // a dead child's stdin is a failed write
  telemetry::ComponentId comp = telemetry::kInvalidComponent;
  if (ropts.sink != nullptr) {
    comp = ropts.sink->intern_component("supervisor/" + run.spec.name);
  }
  const std::size_t jobs =
      static_cast<std::size_t>(std::max(1, sopts.jobs));
  std::vector<ChildSlot> running;
  std::vector<std::uint8_t> stored_flags(n, 0);
  bool degraded = false;
  bool degraded_warned = false;
  bool stop_seen = false;
  Clock::time_point stop_time;
  bool drained = false;

  auto handle_exit = [&](ChildSlot& slot, int status) {
    PendingCell pc = std::move(slot.cell);
    const std::size_t idx = pc.idx;
    const Cell& cell = run.cells[idx];
    if (slot.shutdown_kill) {
      // In-flight at shutdown: goes back to pending untouched so a resumed
      // run recomputes it (and only it).
      pending.push_back(std::move(pc));
      return;
    }
    const bool exited = WIFEXITED(status);
    const int code = exited ? WEXITSTATUS(status) : 0;
    const int sig = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
    const std::uint64_t enc =
        exited ? static_cast<std::uint64_t>(code)
               : (0x100ULL | static_cast<std::uint64_t>(sig));
    telemetry::emit(ropts.sink, telemetry::EventType::kSupervisorExit, comp,
                    0, idx,
                    (static_cast<std::uint64_t>(pc.attempt) << 32) | enc);

    if (exited && code == 0) {
      CellResponse resp;
      std::string perr;
      if (parse_response(slot.buf, cell.key, resp, perr)) {
        run.results[idx] = resp.result;  // origin stays as phase 1 set it
        stored_flags[idx] = resp.stored ? 1 : 0;
        if (!sopts.store_root.empty() && !resp.stored) {
          degraded = true;
          if (!degraded_warned) {
            degraded_warned = true;
            std::fprintf(stderr,
                         "supervisor: WARNING store degraded, keeping "
                         "results in memory\n");
          }
        }
        if (ropts.verbose) {
          std::fprintf(stderr, "  [%s: %zu flows, attempt %d]\n",
                       cell_coordinate(cell).c_str(), resp.result.flows,
                       pc.attempt);
        }
        return;
      }
      if (ropts.verbose) {
        std::fprintf(stderr, "supervisor: cell %zu attempt %d: %s\n", idx,
                     pc.attempt, perr.c_str());
      }
    }

    AttemptRecord rec;
    if (slot.timed_out) {
      rec.outcome = "timeout";
      rec.term_signal = sig;
      ++run.stats.timeouts;
    } else if (sig != 0) {
      rec.outcome = "signal";
      rec.term_signal = sig;
    } else {
      rec.outcome = "exit";
      rec.exit_code = code;
    }
    pc.attempts.push_back(rec);

    const bool permanent = exited && code == kExitPermanent;
    if (permanent || pc.attempt >= sopts.max_attempts) {
      FailedCell f;
      f.index = idx;
      f.coordinate = cell_coordinate(cell);
      f.key = cell.key;
      f.attempts = pc.attempt;
      f.outcome = pc.attempts.back().outcome;
      f.exit_code = pc.attempts.back().exit_code;
      f.term_signal = pc.attempts.back().term_signal;
      f.quarantine_path =
          write_quarantine(sopts.store_root, cell, pc, sopts.max_attempts);
      run.origins[idx] = CellOrigin::kFailed;
      ++run.stats.failed;
      telemetry::emit(ropts.sink,
                      telemetry::EventType::kSupervisorQuarantine, comp, 0,
                      idx, static_cast<std::uint64_t>(pc.attempt));
      {
        std::fprintf(stderr,
                     "supervisor: QUARANTINE cell %zu (%s) after %d "
                     "attempt(s): %s\n",
                     idx, f.coordinate.c_str(), f.attempts,
                     f.outcome.c_str());
      }
      run.failed.push_back(std::move(f));
      return;
    }

    const std::int64_t delay = backoff_delay_ms(cell.key, pc.attempt, sopts);
    pc.attempts.back().backoff_ms = delay;
    telemetry::emit(
        ropts.sink, telemetry::EventType::kSupervisorRetry, comp, 0, idx,
        (static_cast<std::uint64_t>(pc.attempt) << 32) |
            static_cast<std::uint64_t>(delay));
    ++run.stats.retries;
    if (ropts.verbose) {
      std::fprintf(stderr,
                   "supervisor: cell %zu attempt %d failed (%s); retry in "
                   "%lld ms\n",
                   idx, pc.attempt, rec.outcome.c_str(),
                   static_cast<long long>(delay));
    }
    pc.ready_at = Clock::now() + std::chrono::milliseconds(delay);
    ++pc.attempt;
    pending.push_back(std::move(pc));
  };

  while (!pending.empty() || !running.empty()) {
    const bool stopping = shutdown != nullptr && *shutdown != 0;
    if (stopping && !stop_seen) {
      stop_seen = true;
      stop_time = Clock::now();
    }

    // Launch ready cells into free slots (never after shutdown).
    if (!stopping) {
      for (auto it = pending.begin();
           it != pending.end() && running.size() < jobs;) {
        if (it->ready_at > Clock::now()) {
          ++it;
          continue;
        }
        ChildSlot slot;
        slot.cell = std::move(*it);
        it = pending.erase(it);
        const Cell& cell = run.cells[slot.cell.idx];
        const std::string request =
            detail::encode(CellRequest{cell.key, run.fingerprint,
                                       sopts.store_root, cell.spec})
                .dump() +
            "\n";
        const char* action =
            fault_action(faults, slot.cell.idx, slot.cell.attempt);
        std::string spawn_err;
        if (!spawn_cell(sopts.exe, request, action, slot.pid, slot.out_fd,
                        spawn_err)) {
          // fork/pipe exhaustion: treat as a failed attempt so the backoff
          // gives the system air instead of spinning.
          ChildSlot failed = std::move(slot);
          failed.buf.clear();
          std::fprintf(stderr, "supervisor: spawn failed: %s\n",
                       spawn_err.c_str());
          handle_exit(failed, 127 << 8);  // synthesized "exit 127" status
          continue;
        }
        slot.started = Clock::now();
        telemetry::emit(ropts.sink, telemetry::EventType::kSupervisorSpawn,
                        comp, 0, slot.cell.idx,
                        static_cast<std::uint64_t>(slot.cell.attempt));
        if (ropts.verbose) {
          std::fprintf(stderr, "supervisor: spawn cell %zu attempt %d%s%s\n",
                       slot.cell.idx, slot.cell.attempt,
                       *action != '\0' ? " fault=" : "", action);
        }
        running.push_back(std::move(slot));
      }
    }

    // Drain child stdout so a chatty child never blocks on a full pipe.
    for (ChildSlot& slot : running) drain_pipe(slot);

    // Reap.
    for (std::size_t si = 0; si < running.size();) {
      int status = 0;
      const pid_t r = ::waitpid(running[si].pid, &status, WNOHANG);
      if (r == running[si].pid) {
        drain_pipe(running[si]);  // final bytes between last drain and exit
        ::close(running[si].out_fd);
        handle_exit(running[si], status);
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(si));
      } else {
        ++si;
      }
    }

    // Deadlines — and, during shutdown, the drain grace.
    for (ChildSlot& slot : running) {
      if (slot.killed) continue;
      const std::int64_t elapsed = ms_between(slot.started, Clock::now());
      const bool over_deadline = elapsed > sopts.deadline_ms;
      const bool over_grace =
          stop_seen &&
          ms_between(stop_time, Clock::now()) > sopts.drain_grace_ms;
      if (!over_deadline && !over_grace) continue;
      ::kill(slot.pid, SIGKILL);
      slot.killed = true;
      if (over_deadline) {
        slot.timed_out = true;
        telemetry::emit(ropts.sink, telemetry::EventType::kSupervisorTimeout,
                        comp, 0, slot.cell.idx,
                        static_cast<std::uint64_t>(slot.cell.attempt));
        if (ropts.verbose) {
          std::fprintf(stderr,
                       "supervisor: cell %zu attempt %d hit the %lld ms "
                       "deadline\n",
                       slot.cell.idx, slot.cell.attempt,
                       static_cast<long long>(sopts.deadline_ms));
        }
      } else {
        slot.shutdown_kill = true;
      }
    }

    if (stopping && running.empty()) {
      drained = !pending.empty();
      break;
    }
    if (!running.empty() || !pending.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Deterministic report order regardless of completion interleaving.
  std::sort(run.failed.begin(), run.failed.end(),
            [](const FailedCell& a, const FailedCell& b) {
              return a.index < b.index;
            });

  run.stats.store = sopts.store_root.empty() && ropts.store == nullptr
                        ? StoreHealth::kNone
                        : (degraded ? StoreHealth::kDegraded
                                    : StoreHealth::kOk);
  std::uint64_t writes = 0;
  for (const std::uint8_t s : stored_flags) writes += s;
  run.stats.store_writes = writes;

  // Phase 3 — campaign cache telemetry, the same events run_campaign()
  // emits; a store write counts only when the child reports it landed.
  if (!drained) detail::emit_cache_events(run, stored_flags, ropts.sink);

  outcome = drained ? SuperviseOutcome::kDrained : SuperviseOutcome::kComplete;
  out = std::move(run);
  return true;
}

}  // namespace conga::campaign
