#include "campaign/store.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <system_error>
#include <utility>

#include "campaign/codec.hpp"
#include "campaign/experiment_spec.hpp"
#include "campaign/json.hpp"

namespace conga::campaign {

namespace {

constexpr const char* kEntrySchema = "conga-cell-v1";
constexpr const char* kQuarantineSchema = "conga-quarantine-v1";
constexpr const char* kStoreStatSchema = "conga-store-stat-v1";

/// A conga-cell-v1 entry. The result stays a raw document: the payload
/// digest covers its bytes as stored.
struct Entry {
  std::string key;
  std::string fingerprint;
  Json spec;
  Json result;
  std::string payload_digest;
};

template <class V>
void fields(V& v, Entry& e) {
  using detail::kRequired;
  v.kind("entry");
  v.schema(kEntrySchema, kRequired);
  v.field("key", e.key, kRequired);
  v.field("fingerprint", e.fingerprint, kRequired);
  v.field("spec", e.spec, kRequired);
  v.field("result", e.result, kRequired);
  v.field("payload_digest", e.payload_digest, kRequired);
}

/// `bytes` to `path`, flushed to the disk before the file is closed.
bool write_file_synced(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = std::fflush(f) == 0;
  const bool synced = ::fsync(::fileno(f)) == 0;
  return (std::fclose(f) == 0) && wrote && flushed && synced;
}

/// Armed by set_tear_after_tmp_write_for_tests(): the next put() dies in the
/// write-then-rename window, leaving an orphaned tmp file behind.
std::atomic<bool> g_tear_after_tmp_write{false};

}  // namespace

namespace detail {

template <class V>
void fields(V& v, AttemptRecord& a) {
  v.kind("attempt");
  v.field("attempt", a.attempt);
  v.field("outcome", a.outcome);
  v.field("exit_code", a.exit_code);
  v.field("signal", a.term_signal);
  v.field("backoff_ms", a.backoff_ms);
}

template <class V>
void fields(V& v, QuarantineRecord& q) {
  v.kind("quarantine");
  v.schema(kQuarantineSchema, kRequired);
  v.field("key", q.key, kRequired);
  v.field("coordinate", q.coordinate);
  v.field("cell_index", q.cell_index);
  v.field("max_attempts", q.max_attempts);
  v.field("attempts", q.attempts);
  v.field("spec", q.spec);
}

template <class V>
void fields(V& v, ResultStore::StatBucket& b) {
  v.kind("fingerprint bucket");
  v.field("fingerprint", b.fingerprint);
  v.field("entries", b.entries);
  v.field("bytes", b.bytes);
}

template <class V>
void fields(V& v, ResultStore::StoreStat& s) {
  v.kind("store stat");
  v.schema(kStoreStatSchema, kRequired);
  v.field("entries", s.entries);
  v.field("bytes", s.bytes);
  v.field("tmp_files", s.tmp_files);
  v.field("tmp_bytes", s.tmp_bytes);
  v.field("quarantined", s.quarantined);
  v.field("by_fingerprint", s.by_fingerprint);
}

}  // namespace detail

Json store_stat_json(const ResultStore::StoreStat& st) {
  return detail::encode(st);
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  out.clear();
  for (;;) {
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    out.append(buf, n);
    if (n < sizeof(buf)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return (std::fclose(f) == 0) && ok;
}

ResultStore::ResultStore(std::string root) : root_(std::move(root)) {}

std::string ResultStore::entry_path(const std::string& key) const {
  const std::string shard = key.size() >= 2 ? key.substr(0, 2) : "xx";
  return root_ + "/" + shard + "/" + key + ".json";
}

ResultStore::LoadStatus ResultStore::load(const std::string& key,
                                          workload::ExperimentResult& out,
                                          std::string& err) const {
  std::string bytes;
  if (!read_file(entry_path(key), bytes)) return LoadStatus::kMiss;

  Entry e;
  if (!detail::parse_as(bytes, e, err)) {
    err = "bad entry: " + err;
    return LoadStatus::kCorrupt;
  }
  if (e.key != key) {
    err = "entry key mismatch";
    return LoadStatus::kCorrupt;
  }
  if (hex64(fnv1a64(e.result.dump())) != e.payload_digest) {
    err = "stored payload digest mismatch (corrupted entry)";
    return LoadStatus::kCorrupt;
  }
  if (!result_from_json(e.result, out, err)) {
    err = "bad result payload: " + err;
    return LoadStatus::kCorrupt;
  }
  return LoadStatus::kHit;
}

bool ResultStore::put(const std::string& key, const std::string& fingerprint,
                      const std::string& spec_canonical,
                      const workload::ExperimentResult& result,
                      std::string& err) {
  namespace fs = std::filesystem;

  Json spec_doc;
  if (!Json::parse(spec_canonical, spec_doc, err)) {
    err = "put: spec is not valid JSON: " + err;
    return false;
  }
  Entry entry{key, fingerprint, std::move(spec_doc), json_of_result(result),
              ""};
  entry.payload_digest = hex64(fnv1a64(entry.result.dump()));
  const std::string bytes = detail::encode(entry).dump_pretty();

  const std::string final_path = entry_path(key);
  std::error_code ec;
  fs::create_directories(fs::path(final_path).parent_path(), ec);
  fs::create_directories(fs::path(root_) / "tmp", ec);
  if (ec) {
    err = "put: cannot create store directories under " + root_ + ": " +
          ec.message();
    return false;
  }

  // Unique in-flight name per (process, store instance, write): concurrent
  // writers never share a tmp file, and rename() is atomic, so readers see
  // whole entries only.
  const std::uint64_t seq = tmp_seq_.fetch_add(1);
  const std::string tmp_path = root_ + "/tmp/" + key + "." +
                               std::to_string(::getpid()) + "." +
                               std::to_string(seq) + ".tmp";
  if (!write_file(tmp_path, bytes)) {
    err = "put: cannot write " + tmp_path;
    return false;
  }
  if (g_tear_after_tmp_write.load(std::memory_order_relaxed)) {
    // Simulated crash between write and rename: exactly the window that
    // leaks a tmp orphan for `store gc` to reap. _exit, not abort — the
    // point is the torn store state, not a corefile.
    std::fprintf(stderr, "store: injected tear after tmp write (%s)\n",
                 tmp_path.c_str());
    std::_Exit(42);
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    err = "put: rename to " + final_path + " failed: " + ec.message();
    fs::remove(tmp_path, ec);
    return false;
  }
  return true;
}

std::string ResultStore::quarantine(const QuarantineRecord& rec) const {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(root_) / "quarantine";
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return "";
  const std::string path = (dir / (rec.key + ".json")).string();
  const std::string tmp = path + "." + std::to_string(::getpid()) + ".tmp";
  if (!write_file_synced(tmp, detail::encode(rec).dump_pretty() + "\n")) {
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

void ResultStore::set_tear_after_tmp_write_for_tests(bool armed) {
  g_tear_after_tmp_write.store(armed, std::memory_order_relaxed);
}

namespace {

/// Fingerprint field of an entry file, or "(unreadable)" when the file is
/// not a parseable conga-cell-v1 document.
std::string entry_fingerprint(const std::string& path) {
  std::string bytes;
  if (!read_file(path, bytes)) return "(unreadable)";
  Entry e;
  std::string err;
  if (!detail::parse_as(bytes, e, err)) return "(unreadable)";
  return e.fingerprint;
}

std::uint64_t file_bytes(const std::filesystem::path& p) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(p, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

}  // namespace

bool ResultStore::gc(const GcOptions& opts, GcStats& out,
                     std::string& err) const {
  namespace fs = std::filesystem;
  out = GcStats{};
  std::error_code ec;
  if (!fs::exists(root_, ec)) return true;  // empty store: nothing to do

  // Orphaned in-flight writes. Age is judged against the filesystem's own
  // clock so a crashed writer's leftovers qualify as soon as they are old
  // enough, regardless of who runs the gc.
  const auto now = fs::file_time_type::clock::now();
  const fs::path tmp_dir = fs::path(root_) / "tmp";
  if (fs::exists(tmp_dir, ec)) {
    for (const fs::directory_entry& e : fs::directory_iterator(tmp_dir, ec)) {
      if (!e.is_regular_file(ec)) continue;
      const auto mtime = fs::last_write_time(e.path(), ec);
      if (ec) continue;
      const auto age =
          std::chrono::duration_cast<std::chrono::seconds>(now - mtime)
              .count();
      if (age >= opts.tmp_age_seconds) {
        const std::uint64_t sz = file_bytes(e.path());
        if (fs::remove(e.path(), ec)) {
          ++out.tmp_removed;
          out.bytes_reclaimed += sz;
        } else {
          err = "gc: cannot remove " + e.path().string() + ": " + ec.message();
          return false;
        }
      } else {
        ++out.tmp_kept;
      }
    }
  }

  // Dead-fingerprint entries (only when a keep list was given).
  for (const fs::directory_entry& shard : fs::directory_iterator(root_, ec)) {
    if (!shard.is_directory(ec)) continue;
    const std::string shard_name = shard.path().filename().string();
    if (shard_name == "tmp" || shard_name == "quarantine") continue;
    for (const fs::directory_entry& e :
         fs::directory_iterator(shard.path(), ec)) {
      if (!e.is_regular_file(ec) || e.path().extension() != ".json") continue;
      if (opts.keep_fingerprints.empty()) {
        ++out.entries_kept;
        continue;
      }
      const std::string fp = entry_fingerprint(e.path().string());
      const bool keep = std::find(opts.keep_fingerprints.begin(),
                                  opts.keep_fingerprints.end(),
                                  fp) != opts.keep_fingerprints.end();
      if (keep) {
        ++out.entries_kept;
        continue;
      }
      const std::uint64_t sz = file_bytes(e.path());
      if (fs::remove(e.path(), ec)) {
        ++out.entries_removed;
        out.bytes_reclaimed += sz;
      } else {
        err = "gc: cannot remove " + e.path().string() + ": " + ec.message();
        return false;
      }
    }
  }
  return true;
}

bool ResultStore::stat(StoreStat& out, std::string& err) const {
  namespace fs = std::filesystem;
  (void)err;
  out = StoreStat{};
  std::error_code ec;
  if (!fs::exists(root_, ec)) return true;

  // std::map: stat output is user-facing and must be deterministically
  // ordered (and the conga-lint unordered-iteration rule agrees).
  std::map<std::string, StatBucket> buckets;
  for (const fs::directory_entry& shard : fs::directory_iterator(root_, ec)) {
    if (!shard.is_directory(ec)) continue;
    const std::string shard_name = shard.path().filename().string();
    if (shard_name == "tmp") {
      for (const fs::directory_entry& e :
           fs::directory_iterator(shard.path(), ec)) {
        if (!e.is_regular_file(ec)) continue;
        ++out.tmp_files;
        out.tmp_bytes += file_bytes(e.path());
      }
      continue;
    }
    if (shard_name == "quarantine") {
      for (const fs::directory_entry& e :
           fs::directory_iterator(shard.path(), ec)) {
        if (e.is_regular_file(ec) && e.path().extension() == ".json") {
          ++out.quarantined;
        }
      }
      continue;
    }
    for (const fs::directory_entry& e :
         fs::directory_iterator(shard.path(), ec)) {
      if (!e.is_regular_file(ec) || e.path().extension() != ".json") continue;
      const std::uint64_t sz = file_bytes(e.path());
      StatBucket& b = buckets[entry_fingerprint(e.path().string())];
      ++b.entries;
      b.bytes += sz;
      ++out.entries;
      out.bytes += sz;
    }
  }
  out.by_fingerprint.reserve(buckets.size());
  for (auto& [fp, bucket] : buckets) {
    bucket.fingerprint = fp;
    out.by_fingerprint.push_back(std::move(bucket));
  }
  return true;
}

}  // namespace conga::campaign
