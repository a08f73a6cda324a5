#include "campaign/supervisor.hpp"

// conga-lint: allow-file(wall-clock): supervision deadlines, retry backoff,
// and drain grace are real elapsed time by design; they schedule child
// processes, never simulation events, and no digest or report byte depends
// on them.

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/codec.hpp"
#include "campaign/experiment_spec.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/json.hpp"
#include "campaign/store.hpp"

namespace conga::campaign {

namespace {

constexpr const char* kCellRequestSchema = "conga-cell-request-v1";
constexpr const char* kCellResponseSchema = "conga-cell-response-v1";
/// Child exit code meaning "retrying cannot help" (bad request / spec).
constexpr int kExitPermanent = 3;

/// How often a waiting worker looks at the shutdown flag.
constexpr auto kShutdownPoll = std::chrono::milliseconds(20);

using Clock = std::chrono::steady_clock;

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

/// A running `conga_serve cell` child and the read end of its stdout.
struct Child {
  pid_t pid = -1;
  int out_fd = -1;
};

/// Our environment, with CONGA_CELL_FAULT_ACTION set to `action` (removed
/// when `action` is empty).
std::vector<std::string> child_env(const char* action) {
  constexpr std::string_view kVar = "CONGA_CELL_FAULT_ACTION=";
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::string_view(*e).substr(0, kVar.size()) != kVar) {
      env.emplace_back(*e);
    }
  }
  if (*action != '\0') env.push_back(std::string(kVar) + action);
  return env;
}

/// Forks and execs `exe cell`, feeding it `request` on stdin. The fork
/// happens on a worker thread while other workers may hold locks (malloc's
/// among them), so argv, envp and the error message are built first and
/// the child makes only async-signal-safe calls before execve. Every pipe
/// end is O_CLOEXEC, so a sibling forked meanwhile cannot keep our
/// streams open past its exec.
bool spawn_cell(const std::string& exe, const std::string& request,
                const char* action, Child& out, std::string& err) {
  std::vector<std::string> env = child_env(action);
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  char arg0[] = "conga_serve";
  char arg1[] = "cell";
  char* const argv[] = {arg0, arg1, nullptr};
  const char* path = exe.c_str();
  const std::string exec_failed = "conga_serve: exec " + exe + " failed\n";

  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
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
    // dup2 leaves the copies without O_CLOEXEC: they survive the exec.
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::execve(path, argv, envp.data());
    (void)!::write(STDERR_FILENO, exec_failed.data(), exec_failed.size());
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  // The child reads stdin to EOF before anything else, so a blocking write
  // completes; if it died already (EPIPE — SIGPIPE is ignored), the attempt
  // fails on its exit status.
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
  out = {pid, out_pipe[0]};
  return true;
}

bool stopping(const std::atomic<bool>* shutdown) {
  return shutdown != nullptr && shutdown->load(std::memory_order_relaxed);
}

/// How one child ended.
struct ChildEnd {
  int status = 0;          ///< waitpid status
  bool timed_out = false;  ///< killed at its deadline
  bool drained = false;    ///< killed at the drain grace; not an attempt
  std::string out;         ///< everything it wrote to stdout
};

/// Reads the child's stdout under poll() until EOF, SIGKILLing it at its
/// deadline or, once shutdown is seen, at min(deadline, drain grace), then
/// reaps it.
ChildEnd await_child(const Child& child, const SupervisorOptions& opts,
                     const std::atomic<bool>* shutdown) {
  ChildEnd end;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(opts.deadline_ms);
  Clock::time_point kill_at = deadline;
  bool draining = false;
  bool killed = false;
  char buf[4096];
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (!draining && stopping(shutdown)) {
      draining = true;
      kill_at = std::min(kill_at,
                         now + std::chrono::milliseconds(opts.drain_grace_ms));
    }
    if (!killed && now >= kill_at) {
      ::kill(child.pid, SIGKILL);
      killed = true;
      end.timed_out = now >= deadline;
      end.drained = !end.timed_out;
    }
    int wait_ms = -1;  // killed: its stdout closes as it dies
    if (!killed) {
      auto wait = std::chrono::ceil<std::chrono::milliseconds>(kill_at - now);
      if (!draining && shutdown != nullptr) {
        wait = std::min(wait, kShutdownPoll);
      }
      wait_ms = static_cast<int>(wait.count());
    }
    pollfd p{child.out_fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, wait_ms);
    if (ready == 0 || (ready < 0 && errno == EINTR)) continue;
    if (ready < 0) break;
    const ssize_t n = ::read(child.out_fd, buf, sizeof(buf));
    if (n > 0) {
      end.out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;  // EOF: the child is gone
    }
  }
  ::close(child.out_fd);
  while (::waitpid(child.pid, &end.status, 0) < 0 && errno == EINTR) {
  }
  return end;
}

/// Sleeps `ms`, waking early once shutdown is set.
void backoff_sleep(std::int64_t ms, const std::atomic<bool>* shutdown) {
  const Clock::time_point until = Clock::now() + std::chrono::milliseconds(ms);
  while (!stopping(shutdown)) {
    const Clock::time_point now = Clock::now();
    if (now >= until) return;
    std::this_thread::sleep_for(
        std::min<Clock::duration>(until - now, kShutdownPoll));
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

/// The supervised executor's body: cell `index`'s attempts, in children
/// forked from this worker thread.
CellOutcome supervise_cell(const CampaignRun& run, std::size_t index,
                           const RunOptions& ropts,
                           const SupervisorOptions& sopts,
                           const std::vector<CellFaultDirective>& faults,
                           const std::atomic<bool>* shutdown) {
  const Cell& cell = run.cells[index];
  const std::string request =
      detail::encode(CellRequest{cell.key, run.fingerprint,
                                 ropts.store != nullptr ? ropts.store->root()
                                                        : "",
                                 cell.spec})
          .dump() +
      "\n";
  CellOutcome out;
  for (int attempt = 1;; ++attempt) {
    if (stopping(shutdown)) {
      out.status = CellOutcome::Status::kPending;
      return out;
    }
    const char* action = fault_action(faults, index, attempt);
    Child child;
    std::string spawn_err;
    ChildEnd end;
    if (spawn_cell(sopts.exe, request, action, child, spawn_err)) {
      if (ropts.verbose) {
        std::fprintf(stderr, "supervisor: spawn cell %zu attempt %d%s%s\n",
                     index, attempt, *action != '\0' ? " fault=" : "",
                     action);
      }
      end = await_child(child, sopts, shutdown);
    } else {
      // fork/pipe exhaustion: a failed attempt, so the backoff gives the
      // system air instead of spinning.
      std::fprintf(stderr, "supervisor: spawn failed: %s\n",
                   spawn_err.c_str());
      end.status = 127 << 8;  // synthesized "exit 127" status
    }
    if (end.drained) {
      out.status = CellOutcome::Status::kPending;
      return out;
    }

    const int code = WIFEXITED(end.status) ? WEXITSTATUS(end.status) : 0;
    const int sig = WIFSIGNALED(end.status) ? WTERMSIG(end.status) : 0;
    AttemptRecord rec{attempt, "exit", code, 0, 0};
    if (end.timed_out) {
      rec = {attempt, "timeout", 0, sig, 0};
    } else if (sig != 0) {
      rec = {attempt, "signal", 0, sig, 0};
    }
    out.attempts.push_back(rec);

    if (rec.outcome == "exit" && code == 0) {
      CellResponse resp;
      std::string perr;
      if (parse_response(end.out, cell.key, resp, perr)) {
        out.result = resp.result;
        out.stored = resp.stored;
        out.store_error = resp.store_error;
        if (ropts.verbose) {
          std::fprintf(stderr, "  [%s: %zu flows, attempt %d]\n",
                       cell_coordinate(cell).c_str(), resp.result.flows,
                       attempt);
        }
        return out;
      }
      if (ropts.verbose) {
        std::fprintf(stderr, "supervisor: cell %zu attempt %d: %s\n", index,
                     attempt, perr.c_str());
      }
    }

    const bool permanent = rec.outcome == "exit" && code == kExitPermanent;
    if (permanent || attempt >= sopts.max_attempts) {
      out.status = CellOutcome::Status::kFailed;
      if (ropts.store != nullptr) {
        out.quarantine_path = ropts.store->quarantine(
            {cell.key, cell_coordinate(cell), index, sopts.max_attempts,
             out.attempts, cell.spec});
      }
      return out;
    }
    const std::int64_t delay = backoff_delay_ms(cell.key, attempt, sopts);
    out.attempts.back().backoff_ms = delay;
    if (ropts.verbose) {
      std::fprintf(stderr,
                   "supervisor: cell %zu attempt %d failed (%s); retry in "
                   "%lld ms\n",
                   index, attempt, rec.outcome.c_str(),
                   static_cast<long long>(delay));
    }
    backoff_sleep(delay, shutdown);
  }
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
  const pid_t parent = ::getppid();
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
      // Hang until killed — but bail out once orphaned (the supervisor was
      // SIGKILLed and can no longer reap us), so tests never leak sleepers:
      // when the parent seen on entry is gone (the new parent is init or
      // the nearest child subreaper), or when nobody holds the read end of
      // our stdout any more (POLLERR; this catches a supervisor that died
      // before we got here).
      pollfd out{STDOUT_FILENO, 0, 0};
      while (::getppid() == parent && ::poll(&out, 1, 50) == 0) {
      }
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

bool supervised_executor(const SupervisorOptions& opts,
                         const std::atomic<bool>* shutdown,
                         CellExecutor& out, std::string& err) {
  if (opts.exe.empty() || ::access(opts.exe.c_str(), X_OK) != 0) {
    err = "supervisor: cell executable '" + opts.exe + "' is not executable";
    return false;
  }
  std::vector<CellFaultDirective> faults;
  if (!parse_cell_fault(opts.fault_spec, faults, err)) return false;
  std::signal(SIGPIPE, SIG_IGN);
  out = [opts, faults = std::move(faults), shutdown](
            const CampaignRun& run, std::size_t index,
            const RunOptions& ropts) {
    return supervise_cell(run, index, ropts, opts, faults, shutdown);
  };
  return true;
}

}  // namespace conga::campaign
