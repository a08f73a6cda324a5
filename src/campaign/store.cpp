#include "campaign/store.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <system_error>
#include <utility>

#include "campaign/codec.hpp"
#include "campaign/experiment_spec.hpp"
#include "campaign/json.hpp"

namespace conga::campaign {

namespace {

namespace fs = std::filesystem;

constexpr const char* kEntrySchema = "conga-cell-v1";
constexpr const char* kStoreStatSchema = "conga-store-stat-v2";

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

}  // namespace

namespace detail {

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
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    err = "put: rename to " + final_path + " failed: " + ec.message();
    fs::remove(tmp_path, ec);
    return false;
  }
  return true;
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

std::uint64_t file_bytes(const fs::path& p) {
  std::error_code ec;
  const auto n = fs::file_size(p, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// The entries of directory `dir`, in the order the filesystem lists them.
/// False with `err` set when `dir` cannot be read: a store whose root is a
/// regular file must not pass for an empty one.
bool list_dir(const fs::path& dir, std::vector<fs::directory_entry>& out,
              std::string& err) {
  out.clear();
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    out.push_back(*it);
  }
  if (ec) {
    err = "cannot read store directory " + dir.string() + ": " +
          ec.message();
    return false;
  }
  return true;
}

}  // namespace

bool ResultStore::gc(const GcOptions& opts, GcStats& out,
                     std::string& err) const {
  out = GcStats{};
  std::error_code ec;
  if (!fs::exists(root_, ec)) return true;  // empty store: nothing to do
  std::vector<fs::directory_entry> shards;
  if (!list_dir(root_, shards, err)) return false;

  const auto reclaim = [&](const fs::path& p) {
    const std::uint64_t sz = file_bytes(p);
    if (!fs::remove(p, ec)) {
      err = "gc: cannot remove " + p.string() + ": " + ec.message();
      return false;
    }
    out.bytes_reclaimed += sz;
    return true;
  };

  // Orphaned in-flight writes. Age is judged against the filesystem's own
  // clock so a crashed writer's leftovers qualify as soon as they are old
  // enough, regardless of who runs the gc.
  const auto now = fs::file_time_type::clock::now();
  std::vector<fs::directory_entry> files;
  for (const fs::directory_entry& shard : shards) {
    if (!shard.is_directory(ec)) continue;
    const bool tmp = shard.path().filename() == "tmp";
    if (!list_dir(shard.path(), files, err)) return false;
    for (const fs::directory_entry& e : files) {
      if (tmp) {
        if (!e.is_regular_file(ec)) continue;
        const auto mtime = fs::last_write_time(e.path(), ec);
        if (ec) continue;
        const auto age =
            std::chrono::duration_cast<std::chrono::seconds>(now - mtime)
                .count();
        if (age < opts.tmp_age_seconds) {
          ++out.tmp_kept;
        } else if (reclaim(e.path())) {
          ++out.tmp_removed;
        } else {
          return false;
        }
        continue;
      }
      // Dead-fingerprint entries (only when a keep list was given).
      if (!e.is_regular_file(ec) || e.path().extension() != ".json") continue;
      const bool keep =
          opts.keep_fingerprints.empty() ||
          std::find(opts.keep_fingerprints.begin(),
                    opts.keep_fingerprints.end(),
                    entry_fingerprint(e.path().string())) !=
              opts.keep_fingerprints.end();
      if (keep) {
        ++out.entries_kept;
      } else if (reclaim(e.path())) {
        ++out.entries_removed;
      } else {
        return false;
      }
    }
  }
  return true;
}

bool ResultStore::stat(StoreStat& out, std::string& err) const {
  out = StoreStat{};
  std::error_code ec;
  if (!fs::exists(root_, ec)) return true;
  std::vector<fs::directory_entry> shards;
  if (!list_dir(root_, shards, err)) return false;

  // std::map: stat output is user-facing and must be deterministically
  // ordered (and the conga-lint unordered-iteration rule agrees).
  std::map<std::string, StatBucket> buckets;
  std::vector<fs::directory_entry> files;
  for (const fs::directory_entry& shard : shards) {
    if (!shard.is_directory(ec)) continue;
    const bool tmp = shard.path().filename() == "tmp";
    if (!list_dir(shard.path(), files, err)) return false;
    for (const fs::directory_entry& e : files) {
      if (tmp) {
        if (!e.is_regular_file(ec)) continue;
        ++out.tmp_files;
        out.tmp_bytes += file_bytes(e.path());
        continue;
      }
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
