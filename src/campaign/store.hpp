// On-disk content-addressed result store.
//
// One entry per experiment cell, addressed by cell_key() — the hash of the
// cell's canonical spec bytes plus the build fingerprint, so a key can only
// ever name one (config, code) pair and entries never need invalidation
// logic: changed code means changed keys means misses.
//
// Layout under the root (created lazily):
//   <root>/<key[0:2]>/<key>.json   one entry (conga-cell-v1)
//   <root>/tmp/                    in-flight writes
//   <root>/quarantine/<key>.json   a supervised cell's poison record
//                                  (conga-quarantine-v1)
//
// Entries are written atomically: the payload goes to a uniquely named file
// under tmp/ and is rename()d into place, so a reader (or a concurrent
// writer under --jobs N) can never observe a torn entry — it sees the old
// bytes, the new bytes, or a miss. Concurrent writers of the same key are
// benign: both rename identical bytes (results are deterministic), last one
// wins.
//
// Every load re-verifies the stored payload digest (FNV-1a over the
// canonical result bytes recorded at write time); a corrupted or truncated
// entry reports kCorrupt and the campaign runner recomputes and overwrites
// it. The store never trusts what it reads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "campaign/experiment_spec.hpp"
#include "campaign/json.hpp"
#include "workload/experiment.hpp"

namespace conga::campaign {

/// Reads the whole file at `path` into `out`; false on any I/O failure.
bool read_file(const std::string& path, std::string& out);
/// Writes `bytes` to `path` (truncating); false on any I/O failure.
bool write_file(const std::string& path, const std::string& bytes);

/// One attempt of a supervised cell.
struct AttemptRecord {
  int attempt = 0;              ///< 1-based
  std::string outcome;          ///< "exit" | "signal" | "timeout"
  int exit_code = 0;            ///< valid when outcome == "exit"
  int term_signal = 0;          ///< "signal" and "timeout"
  std::int64_t backoff_ms = 0;  ///< delay scheduled after this attempt
};

/// A cell that exhausted its attempts under supervision (conga-quarantine-v1),
/// with the full attempt log.
struct QuarantineRecord {
  std::string key;
  std::string coordinate;
  std::size_t cell_index = 0;
  int max_attempts = 0;
  std::vector<AttemptRecord> attempts;
  ExperimentSpec spec;
};

class ResultStore {
 public:
  enum class LoadStatus : std::uint8_t {
    kHit = 0,   ///< entry present and digest-verified
    kMiss,      ///< no entry for this key
    kCorrupt,   ///< entry present but unparseable or digest-mismatched
  };

  explicit ResultStore(std::string root);

  const std::string& root() const { return root_; }

  /// Verified lookup. `err` describes kCorrupt outcomes.
  LoadStatus load(const std::string& key, workload::ExperimentResult& out,
                  std::string& err) const;

  /// Atomically (over)writes the entry for `key`. `spec_canonical` is the
  /// cell's canonical spec JSON, embedded for auditability (`conga_serve
  /// expand` and humans can read back what produced a cell). Thread-safe:
  /// concurrent put()s — same or different keys — never tear an entry.
  /// Returns false and sets `err` on I/O failure.
  bool put(const std::string& key, const std::string& fingerprint,
           const std::string& spec_canonical,
           const workload::ExperimentResult& result, std::string& err);

  /// Writes `rec` to <root>/quarantine/<key>.json (tmp write, fsync,
  /// rename). Returns the record's path, or "" when the store cannot take
  /// it: a failing store must not fail the campaign a second time.
  std::string quarantine(const QuarantineRecord& rec) const;

  /// Entry path for `key` (exists or not).
  std::string entry_path(const std::string& key) const;

  // --- maintenance (conga_serve store gc / store stat) ---------------------

  struct GcOptions {
    /// Remove tmp/*.tmp files older than this many seconds (orphans left by
    /// a crash between write and rename). 0 removes every tmp file.
    std::int64_t tmp_age_seconds = 3600;
    /// When non-empty, remove entries whose fingerprint is not in the list
    /// (dead keys from builds that no longer exist). Empty keeps everything.
    std::vector<std::string> keep_fingerprints;
  };

  struct GcStats {
    std::uint64_t tmp_removed = 0;
    std::uint64_t tmp_kept = 0;
    std::uint64_t entries_removed = 0;
    std::uint64_t entries_kept = 0;
    std::uint64_t bytes_reclaimed = 0;
  };

  /// Removes orphaned tmp files and (optionally) dead-fingerprint entries.
  /// A missing store root is an empty store, not an error. Returns false and
  /// sets `err` only on I/O failure mid-walk.
  bool gc(const GcOptions& opts, GcStats& out, std::string& err) const;

  struct StatBucket {
    std::string fingerprint;  ///< "(unreadable)" for unparseable entries
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
  };

  struct StoreStat {
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    std::uint64_t tmp_files = 0;
    std::uint64_t tmp_bytes = 0;
    std::uint64_t quarantined = 0;  ///< poison records under quarantine/
    std::vector<StatBucket> by_fingerprint;  ///< sorted by fingerprint
  };

  /// Walks the store and summarizes it (entry count/bytes per fingerprint,
  /// tmp backlog, quarantine records). Missing root = empty store.
  bool stat(StoreStat& out, std::string& err) const;

  /// Test hook: when armed, the next put() aborts the process after writing
  /// its tmp file but before the rename — the crash window that orphans a
  /// tmp file. Used by the CONGA_CELL_FAULT=tear:N injection mode.
  static void set_tear_after_tmp_write_for_tests(bool armed);

 private:
  std::string root_;
  std::atomic<std::uint64_t> tmp_seq_{0};
};

/// The conga-store-stat-v1 document of `st`.
Json store_stat_json(const ResultStore::StoreStat& st);

}  // namespace conga::campaign
