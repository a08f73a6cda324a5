#include "campaign/store.hpp"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "campaign/codec.hpp"
#include "campaign/experiment_spec.hpp"
#include "campaign/json.hpp"

namespace conga::campaign {

namespace {

namespace fs = std::filesystem;

constexpr const char* kEntrySchema = "conga-cell-v1";

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

}  // namespace conga::campaign
