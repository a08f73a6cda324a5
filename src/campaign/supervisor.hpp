// Crash-safe campaign supervisor: per-cell child processes, deadlines,
// retry/backoff, quarantine.
//
// run_campaign (campaign.hpp) computes its cache misses on worker threads
// through a CellExecutor. The in-process one is fast, but one aborting cell
// (an invariant violation, a sanitizer kill, a plain crash) takes the whole
// sweep down with it, and one stuck cell hangs it forever. The supervised
// executor trades a fork+exec per cache miss for containment: the worker
// thread that claimed a miss runs it in an isolated child process (a hidden
// `conga_serve cell` subcommand that reads a conga-cell-request-v1 document
// on stdin, simulates, writes its result entry into the content-addressed
// store itself, and echoes the result on stdout), so the failure domain of
// a cell is exactly that cell.
//
// Supervision policy (DESIGN.md §15), per cell, on its worker thread:
//  * deadline   — a child that outlives its per-cell wall-clock deadline is
//                 SIGKILLed and the attempt counts as a timeout;
//  * retry      — failed attempts are re-run on a deterministic, capped
//                 exponential backoff schedule keyed by the cell key (no
//                 ambient randomness: the same cell retries on the same
//                 schedule in every run); the cell holds its worker while
//                 it waits;
//  * quarantine — a cell that exhausts max_attempts (or fails permanently:
//                 child exit code 3 means "retrying cannot help") is written
//                 to <store>/quarantine/<key>.json as a poison record
//                 embedding the full attempt log, and the campaign completes
//                 with an explicit failed_cells block instead of dying;
//  * drain      — once the caller's shutdown flag goes up (SIGTERM/SIGINT),
//                 no new cell or attempt starts, a backoff wait ends early,
//                 an in-flight child gets min(remaining deadline, drain
//                 grace) to finish and is then killed back to pending, and
//                 the run comes back with CampaignRun::drained set (the CLI
//                 then exits 2 without a report). Completed cells are
//                 already in the store — a rerun re-reads them as hits and
//                 reproduces the report byte-for-byte.
//
// Every decision is observable: each cell's attempt log comes back to the
// main thread, which replays it as kSupervisor telemetry events
// (spawn/exit/timeout/retry/quarantine) in cell order after the parallel
// section. The CONGA_CELL_FAULT env knob (parsed by the CLI into
// SupervisorOptions::fault_spec) injects deterministic crashes, hangs, and
// torn store writes for tests and the crash-resilience CI lane.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace conga::campaign {

struct SupervisorOptions {
  /// Path to the conga_serve binary to exec for `cell` children (resolve
  /// with self_exe_path()). Required. Children write their entries into
  /// RunOptions::store, and the run's --jobs workers each supervise one
  /// child at a time.
  std::string exe;
  int max_attempts = 3;       ///< attempts per cell before quarantine
  std::int64_t deadline_ms = 120000;     ///< per-attempt wall-clock budget
  std::int64_t backoff_base_ms = 250;    ///< first retry delay
  std::int64_t backoff_cap_ms = 5000;    ///< exponential growth cap
  std::int64_t drain_grace_ms = 5000;    ///< shutdown budget for in-flight
  /// CONGA_CELL_FAULT directives ("crash:0,hang:2@1,tear:3"); see
  /// parse_cell_fault(). Empty injects nothing.
  std::string fault_spec;
};

/// The deterministic retry schedule: capped exponential growth from
/// backoff_base_ms plus a keyed jitter term, a pure function of
/// (key, attempt, options) — reruns retry on identical schedules.
std::int64_t backoff_delay_ms(const std::string& key, int attempt,
                              const SupervisorOptions& opts);

/// One CONGA_CELL_FAULT directive: inject `mode` into cell `cell` on
/// attempt `attempt` (0 = every attempt).
///  * crash — the child aborts (SIGABRT) after reading its request;
///  * hang  — the child sleeps forever (killed at the deadline);
///  * tear  — the child's store write dies between tmp write and rename,
///            orphaning a tmp file (the `store gc` target).
struct CellFaultDirective {
  enum class Mode : std::uint8_t { kCrash, kHang, kTear };
  Mode mode = Mode::kCrash;
  std::size_t cell = 0;
  int attempt = 0;
};

/// Parses "mode:cell[@attempt]" comma lists ("crash:0,hang:2@1"). Returns
/// false and sets `err` on malformed directives.
bool parse_cell_fault(const std::string& text,
                      std::vector<CellFaultDirective>& out, std::string& err);

/// Action name for (cell, attempt) — "crash", "hang", "tear", or "" — the
/// value the supervisor exports as CONGA_CELL_FAULT_ACTION to that child.
const char* fault_action(const std::vector<CellFaultDirective>& directives,
                         std::size_t cell, int attempt);

/// Resolves the running binary's path (/proc/self/exe, falling back to
/// argv0) for SupervisorOptions::exe.
std::string self_exe_path(const char* argv0);

/// The supervised CellExecutor for run_campaign(): each miss runs in
/// `opts.exe cell` children under the deadline/retry/quarantine policy.
/// `shutdown` (may be null) is read between and during attempts; once it
/// is set, cells come back pending and the run drains. Returns false and
/// sets `err` when the executable is not executable or fault_spec is
/// malformed. Ignores SIGPIPE for the process (a dead child's stdin is a
/// failed write, not a reason to die).
bool supervised_executor(const SupervisorOptions& opts,
                         const std::atomic<bool>* shutdown,
                         CellExecutor& out, std::string& err);

/// Child-side body of the hidden `conga_serve cell` subcommand: parses a
/// conga-cell-request-v1 document, applies the CONGA_CELL_FAULT_ACTION env
/// knob, simulates, writes the store entry (when a store root was given),
/// and prints a conga-cell-response-v1 document. Returns the process exit
/// code: 0 success (even when the store write degraded), 3 permanent
/// failure (malformed request / unresolvable spec — retrying cannot help).
int cell_main(const std::string& request_text, std::string& response_out,
              std::string& diag);

}  // namespace conga::campaign
