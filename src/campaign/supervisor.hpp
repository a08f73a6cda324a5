// Crash-safe campaign supervisor: per-cell child processes, deadlines,
// retry/backoff, quarantine.
//
// The campaign runner in campaign.cpp executes cells on in-process worker
// threads — fast, but one aborting cell (an invariant violation, a sanitizer
// kill, a plain crash) takes the whole sweep down with it, and one stuck
// cell hangs it forever. The supervisor trades a fork+exec per cache miss
// for containment: each miss runs in an isolated child process (a hidden
// `conga_serve cell` subcommand that reads a conga-cell-request-v1 document
// on stdin, simulates, writes its result entry into the content-addressed
// store itself, and echoes the result on stdout), so the failure domain of a
// cell is exactly that cell.
//
// Supervision policy (DESIGN.md §15):
//  * deadline   — a child that outlives its per-cell wall-clock deadline is
//                 SIGKILLed and the attempt counts as a timeout;
//  * retry      — failed attempts are re-run on a deterministic, capped
//                 exponential backoff schedule keyed by the cell key (no
//                 ambient randomness: the same cell retries on the same
//                 schedule in every run);
//  * quarantine — a cell that exhausts max_attempts (or fails permanently:
//                 child exit code 3 means "retrying cannot help") is written
//                 to <store>/quarantine/<key>.json as a poison record
//                 embedding the full attempt log, and the campaign completes
//                 with an explicit failed_cells block instead of dying;
//  * drain      — when the caller's shutdown flag goes up (SIGTERM/SIGINT),
//                 no new children launch, in-flight children get
//                 min(remaining deadline, drain grace) to finish, stragglers
//                 are killed back to pending, and the run returns kDrained
//                 (the CLI then exits 2 without a report). Completed cells
//                 are already in the store — a rerun re-reads them as hits
//                 and reproduces the report byte-for-byte.
//
// Every decision is observable: kSupervisor telemetry events
// (spawn/exit/timeout/retry/quarantine) fire on the main thread as the loop
// takes them, and the CONGA_CELL_FAULT env knob (parsed by the CLI into
// SupervisorOptions::fault_spec) injects deterministic crashes, hangs, and
// torn store writes for tests and the crash-resilience CI lane.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace conga::campaign {

struct SupervisorOptions {
  /// Path to the conga_serve binary to exec for `cell` children (resolve
  /// with self_exe_path()). Required.
  std::string exe;
  /// Store root children write their entries into; "" runs storeless (the
  /// parent keeps results from the child's stdout echo only).
  std::string store_root;
  int jobs = 1;               ///< concurrent children
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

enum class SuperviseOutcome : std::uint8_t {
  kComplete = 0,  ///< every cell resolved (result or quarantine)
  kDrained,       ///< shutdown observed; unfinished cells left pending
};

/// Supervised counterpart of run_campaign(): store lookups on the main
/// thread, then every miss in an isolated child process under the
/// deadline/retry/quarantine policy. `shutdown` (may be null) is polled
/// between supervision steps; when it goes nonzero the run drains and
/// `outcome` reports kDrained (out's results are then incomplete — write no
/// report; a rerun on the same store resumes from the stored cells).
/// Returns false and sets `err` on invalid requests or when the supervisor
/// cannot spawn at all (bad exe path).
bool run_campaign_supervised(const CampaignSpec& spec, const RunOptions& ropts,
                             const SupervisorOptions& sopts,
                             const volatile std::sig_atomic_t* shutdown,
                             CampaignRun& out, SuperviseOutcome& outcome,
                             std::string& err);

/// Child-side body of the hidden `conga_serve cell` subcommand: parses a
/// conga-cell-request-v1 document, applies the CONGA_CELL_FAULT_ACTION env
/// knob, simulates, writes the store entry (when a store root was given),
/// and prints a conga-cell-response-v1 document. Returns the process exit
/// code: 0 success (even when the store write degraded), 3 permanent
/// failure (malformed request / unresolvable spec — retrying cannot help).
int cell_main(const std::string& request_text, std::string& response_out,
              std::string& diag);

}  // namespace conga::campaign
