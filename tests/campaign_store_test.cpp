// Content-addressed store tests: entry round-trips, corruption detection
// and self-healing, code-fingerprint invalidation, and torn-entry safety
// under concurrent writers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/experiment_spec.hpp"
#include "campaign/json.hpp"
#include "campaign/store.hpp"
#include "net/topology.hpp"
#include "runtime/parallel_runner.hpp"

namespace conga::campaign {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("conga_store_test." + tag + "." + std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// RAII CONGA_CODE_FINGERPRINT override (code_fingerprint() reads the
/// environment on every call).
struct ScopedFingerprint {
  explicit ScopedFingerprint(const std::string& value) {
    ::setenv("CONGA_CODE_FINGERPRINT", value.c_str(), 1);
  }
  ~ScopedFingerprint() { ::unsetenv("CONGA_CODE_FINGERPRINT"); }
};

workload::ExperimentResult fake_result(double fct, std::uint64_t digest) {
  workload::ExperimentResult r;
  r.avg_norm_fct = fct;
  r.median_norm_fct = fct * 0.8;
  r.p99_norm_fct = fct * 3;
  r.flows = 100;
  r.completed_fraction = 1.0;
  r.drained = true;
  r.fct_digest = digest;
  return r;
}

ExperimentSpec small_spec() {
  ExperimentSpec s;
  s.topo = net::testbed_baseline();
  s.topo.hosts_per_leaf = 4;
  return s;
}

CampaignSpec tiny_campaign() {
  CampaignSpec c;
  c.name = "tiny";
  c.policies = {"ecmp"};
  c.loads_pct = {30};
  net::TopologyConfig topo = net::testbed_baseline();
  topo.hosts_per_leaf = 4;
  c.cases.push_back({"t", topo});
  c.warmup_ns = sim::milliseconds(1);
  c.measure_ns = sim::milliseconds(2);
  c.max_drain_ns = sim::milliseconds(300);
  return c;
}

TEST(ResultStore, PutThenLoadRoundTrips) {
  const TempDir dir("roundtrip");
  ResultStore store(dir.path.string());
  const ExperimentSpec spec = small_spec();
  const std::string key = cell_key(spec, "fp");
  const workload::ExperimentResult written = fake_result(2.5, 0xabcdef);

  std::string err;
  ASSERT_TRUE(store.put(key, "fp", canonical_json(spec), written, err))
      << err;

  workload::ExperimentResult loaded;
  ASSERT_EQ(store.load(key, loaded, err), ResultStore::LoadStatus::kHit)
      << err;
  EXPECT_EQ(json_of_result(loaded).dump(), json_of_result(written).dump());

  // The entry embeds its spec for auditability.
  std::string bytes;
  {
    std::FILE* f = std::fopen(store.entry_path(key).c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[65536];
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    std::fclose(f);
    bytes.assign(buf, n);
  }
  Json doc;
  ASSERT_TRUE(Json::parse(bytes, doc, err)) << err;
  ASSERT_NE(doc.find("spec"), nullptr);
  EXPECT_EQ(doc.find("spec")->dump(), canonical_json(spec));
  EXPECT_EQ(doc.find("fingerprint")->as_string(), "fp");
}

TEST(ResultStore, MissOnAbsentKey) {
  const TempDir dir("miss");
  ResultStore store(dir.path.string());
  workload::ExperimentResult out;
  std::string err;
  EXPECT_EQ(store.load(std::string(32, 'a'), out, err),
            ResultStore::LoadStatus::kMiss);
}

TEST(ResultStore, CorruptionIsDetected) {
  const TempDir dir("corrupt");
  ResultStore store(dir.path.string());
  const ExperimentSpec spec = small_spec();
  const std::string key = cell_key(spec, "fp");
  std::string err;
  ASSERT_TRUE(
      store.put(key, "fp", canonical_json(spec), fake_result(1.0, 7), err));
  const std::string path = store.entry_path(key);

  auto overwrite = [&](const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  };
  std::string original;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[65536];
    const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
    std::fclose(f);
    original.assign(buf, n);
  }

  workload::ExperimentResult out;
  // Unparseable garbage.
  overwrite("not json at all");
  EXPECT_EQ(store.load(key, out, err), ResultStore::LoadStatus::kCorrupt);
  // Truncation (torn tail).
  overwrite(original.substr(0, original.size() / 2));
  EXPECT_EQ(store.load(key, out, err), ResultStore::LoadStatus::kCorrupt);
  // A flipped digit in the stored result: digest verification catches it
  // even though the document still parses.
  std::string tampered = original;
  const std::size_t pos = tampered.find("\"flows\": 100");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 12, "\"flows\": 101");
  overwrite(tampered);
  EXPECT_EQ(store.load(key, out, err), ResultStore::LoadStatus::kCorrupt);
  EXPECT_NE(err.find("digest"), std::string::npos) << err;
  // An entry filed under the wrong key.
  workload::ExperimentResult other;
  EXPECT_EQ(store.load(std::string(32, 'b'), other, err),
            ResultStore::LoadStatus::kMiss);
  fs::create_directories(fs::path(store.entry_path(std::string(32, 'b')))
                             .parent_path());
  fs::copy_file(path, store.entry_path(std::string(32, 'b')),
                fs::copy_options::overwrite_existing);
  overwrite(original);  // restore the real entry first
  EXPECT_EQ(store.load(std::string(32, 'b'), other, err),
            ResultStore::LoadStatus::kCorrupt);
  EXPECT_NE(err.find("key"), std::string::npos) << err;
  // A repeated member (lookups used to take the first one and load it).
  std::string repeated = original;
  const std::size_t schema_pos = repeated.find("\"schema\"");
  ASSERT_NE(schema_pos, std::string::npos);
  repeated.insert(schema_pos, "\"schema\": \"conga-cell-v1\",\n  ");
  overwrite(repeated);
  EXPECT_EQ(store.load(key, out, err), ResultStore::LoadStatus::kCorrupt);
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(ResultStore, CampaignHealsCorruptEntry) {
  const TempDir dir("heal");
  ResultStore store(dir.path.string());
  const CampaignSpec spec = tiny_campaign();
  RunOptions opts;
  opts.store = &store;

  CampaignRun cold;
  std::string err;
  ASSERT_TRUE(run_campaign(spec, opts, cold, err)) << err;
  const std::string report = report_json(cold);

  // Garble the entry on disk.
  const std::string path = store.entry_path(cold.cells[0].key);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema\":\"conga-cell-v1\",\"truncated", f);
    std::fclose(f);
  }

  CampaignRun healed;
  ASSERT_TRUE(run_campaign(spec, opts, healed, err)) << err;
  EXPECT_EQ(healed.stats.corrupt, 1U);
  EXPECT_EQ(healed.stats.misses, 1U);
  EXPECT_EQ(healed.stats.hits, 0U);
  EXPECT_EQ(healed.origins[0], CellOrigin::kRecomputed);
  // The recomputation reproduced the original bytes...
  EXPECT_EQ(report_json(healed), report);
  // ...and overwrote the bad entry: the next run is a clean hit.
  CampaignRun warm;
  ASSERT_TRUE(run_campaign(spec, opts, warm, err)) << err;
  EXPECT_EQ(warm.stats.hits, 1U);
  EXPECT_EQ(warm.stats.corrupt, 0U);
}

TEST(ResultStore, FingerprintChangeInvalidatesEverything) {
  const TempDir dir("fingerprint");
  ResultStore store(dir.path.string());
  const CampaignSpec spec = tiny_campaign();
  RunOptions opts;
  opts.store = &store;
  std::string err;

  {
    const ScopedFingerprint fp("build-A");
    CampaignRun cold;
    ASSERT_TRUE(run_campaign(spec, opts, cold, err)) << err;
    EXPECT_EQ(cold.stats.misses, 1U);
    CampaignRun warm;
    ASSERT_TRUE(run_campaign(spec, opts, warm, err)) << err;
    EXPECT_EQ(warm.stats.hits, 1U);
  }
  {
    // "New code": every cached cell must be a miss, old entries untouched.
    const ScopedFingerprint fp("build-B");
    CampaignRun run;
    ASSERT_TRUE(run_campaign(spec, opts, run, err)) << err;
    EXPECT_EQ(run.stats.hits, 0U);
    EXPECT_EQ(run.stats.misses, 1U);
  }
  {
    // Rolling back to the old build finds the old entries again.
    const ScopedFingerprint fp("build-A");
    CampaignRun run;
    ASSERT_TRUE(run_campaign(spec, opts, run, err)) << err;
    EXPECT_EQ(run.stats.hits, 1U);
  }
}

TEST(ResultStore, ConcurrentWritersNeverTearEntries) {
  const TempDir dir("concurrent");
  ResultStore store(dir.path.string());

  // A handful of keys, many writers per key, readers racing the writers.
  // Every load must come back kHit (digest-verified) or kMiss — a kCorrupt
  // would mean a reader saw a torn entry.
  constexpr int kKeys = 4;
  constexpr int kWritersPerKey = 4;
  constexpr int kRoundsPerWriter = 12;
  std::vector<ExperimentSpec> specs(kKeys);
  std::vector<std::string> keys(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    specs[k] = small_spec();
    specs[k].traffic_seed = 100 + static_cast<std::uint64_t>(k);
    keys[k] = cell_key(specs[k], "fp");
  }

  std::atomic<std::uint64_t> corrupt_seen{0};
  std::atomic<std::uint64_t> failures{0};
  const std::size_t writers = kKeys * kWritersPerKey;
  const std::size_t tasks = writers + 4;  // plus 4 racing readers
  runtime::parallel_for(tasks, static_cast<int>(tasks), [&](std::size_t i) {
    std::string err;
    if (i < writers) {
      const int k = static_cast<int>(i) % kKeys;
      // Deterministic results: all writers of a key write identical bytes,
      // as real campaign workers would.
      const workload::ExperimentResult r =
          fake_result(1.0 + k, 1000 + static_cast<std::uint64_t>(k));
      for (int round = 0; round < kRoundsPerWriter; ++round) {
        if (!store.put(keys[k], "fp", canonical_json(specs[k]), r, err)) {
          failures.fetch_add(1);
        }
      }
    } else {
      workload::ExperimentResult out;
      for (int round = 0; round < kRoundsPerWriter * 4; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          if (store.load(keys[k], out, err) ==
              ResultStore::LoadStatus::kCorrupt) {
            corrupt_seen.fetch_add(1);
          }
        }
      }
    }
  });

  EXPECT_EQ(failures.load(), 0U);
  EXPECT_EQ(corrupt_seen.load(), 0U);
  // Final state: every key verifies.
  for (int k = 0; k < kKeys; ++k) {
    workload::ExperimentResult out;
    std::string err;
    EXPECT_EQ(store.load(keys[k], out, err), ResultStore::LoadStatus::kHit)
        << err;
    EXPECT_EQ(out.avg_norm_fct, 1.0 + k);
  }
}

}  // namespace
}  // namespace conga::campaign
