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
//
// Entries are written atomically: the payload goes to a uniquely named file
// under tmp/ and is rename()d into place, so a reader (or a concurrent
// writer under --jobs N) can never observe a torn entry — it sees the old
// bytes, the new bytes, or a miss. Concurrent writers of the same key are
// benign: both rename identical bytes (results are deterministic), last one
// wins. A writer killed between the tmp write and the rename leaves an
// orphaned tmp file and no entry.
//
// The store is a cache and nothing else: deleting the whole root, or its
// tmp/ while no run is active, only costs recomputation.
//
// Every load re-verifies the stored payload digest (FNV-1a over the
// canonical result bytes recorded at write time); a corrupted or truncated
// entry reports kCorrupt and the campaign runner recomputes and overwrites
// it. The store never trusts what it reads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "workload/experiment.hpp"

namespace conga::campaign {

/// Reads the whole file at `path` into `out`; false on any I/O failure.
bool read_file(const std::string& path, std::string& out);
/// Writes `bytes` to `path` (truncating); false on any I/O failure.
bool write_file(const std::string& path, const std::string& bytes);

class ResultStore {
 public:
  enum class LoadStatus : std::uint8_t {
    kHit = 0,   ///< entry present and digest-verified
    kMiss,      ///< no entry for this key
    kCorrupt,   ///< entry present but unparseable or digest-mismatched
  };

  explicit ResultStore(std::string root);

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

  /// Entry path for `key` (exists or not).
  std::string entry_path(const std::string& key) const;

 private:
  std::string root_;
  std::atomic<std::uint64_t> tmp_seq_{0};
};

}  // namespace conga::campaign
