// Campaign service tests: canonical JSON round-trips (including a fuzz
// sweep), pinned plain-TCP spec bytes, the mptcp_subflows axis,
// cache-key sensitivity, expansion order, the cold-vs-warm byte-identity
// promise, verdicts, verify-sample poisoning detection, the kCampaign
// telemetry events, and workload::Experiment as the one cell runner.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/experiment_spec.hpp"
#include "campaign/fingerprint.hpp"
#include "campaign/json.hpp"
#include "campaign/store.hpp"
#include "lb/factories.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "tcp/mptcp_connection.hpp"
#include "tcp/tcp_config.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/experiment.hpp"
#include "workload/flow_size_dist.hpp"

namespace conga::campaign {
namespace {

namespace fs = std::filesystem;

/// Unique throwaway directory per test; removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("conga_campaign_test." + tag + "." +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// A campaign whose cells simulate in well under a second: a shrunken
/// testbed and millisecond windows.
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

net::TopologyConfig two_pods() {
  net::TopologyConfig t;
  t.num_pods = 2;
  t.num_leaves = 4;
  t.num_spines = 4;
  t.hosts_per_leaf = 4;
  t.num_cores = 2;
  t.core_overrides.push_back(net::CoreLinkOverride{1, 0, 0.1});
  return t;
}

/// A result with every field away from its default.
workload::ExperimentResult full_result() {
  workload::ExperimentResult r;
  r.avg_norm_fct = 12.345678901234567;
  r.median_norm_fct = 1.5;
  r.p99_norm_fct = 99.25;
  r.avg_fct_small = 0.000123;
  r.avg_fct_large = 0.5;
  r.avg_fct_overall = 0.01;
  r.flows = 1234;
  r.small_flows = 1000;
  r.large_flows = 34;
  r.completed_fraction = 0.9990234375;
  r.drained = true;
  r.unfinished_flows = 3;
  r.bytes_outstanding = 4567890123ULL;
  r.fct_digest = 0xda563ccc62ab9618ULL;
  r.reorder_segments = 42;
  r.reorder_max_distance = 9;
  r.reordered_flows = 5;
  r.probes_sent = 7;
  r.probes_received = 6;
  return r;
}

TEST(CampaignJson, SpecCanonicalRoundTrip) {
  ExperimentSpec s;
  s.topo = net::testbed_baseline();
  const std::string bytes = canonical_json(s);
  ExperimentSpec parsed;
  std::string err;
  ASSERT_TRUE(parse_spec(bytes, parsed, err)) << err;
  EXPECT_EQ(canonical_json(parsed), bytes);
}

// The default spec's canonical bytes, as every plain-TCP cell key has
// hashed them since before mptcp_subflows existed. Emitting that field at 0
// (or any new field at its default) would silently re-key every store entry.
// The other document shapes are pinned too (a pod spec with a core
// override, an MPTCP spec with a gray fault and a link override, the smoke
// campaign request, a fully populated result), so a typo or reorder in a
// field table fails here instead of re-keying the store.
TEST(CampaignJson, PlainTcpSpecBytesArePinned) {
  ExperimentSpec s;
  s.topo = net::testbed_baseline();
  EXPECT_EQ(
      canonical_json(s),
      "{\"schema\":\"conga-cell-spec-v1\",\"dist\":\"enterprise\","
      "\"policy\":\"conga\",\"load\":0.6,\"min_rto_ns\":200000000,"
      "\"dctcp\":false,\"warmup_ns\":10000000,\"measure_ns\":40000000,"
      "\"max_drain_ns\":1000000000,\"fabric_seed\":1,\"traffic_seed\":7,"
      "\"fault\":{\"profile\":\"none\",\"seed\":1},\"topo\":{"
      "\"num_leaves\":2,\"num_spines\":2,\"hosts_per_leaf\":32,"
      "\"links_per_spine\":2,\"host_link_bps\":1e+10,"
      "\"fabric_link_bps\":4e+10,\"host_link_delay_ns\":1000,"
      "\"fabric_link_delay_ns\":1000,\"edge_queue_bytes\":524288,"
      "\"fabric_queue_bytes\":2097152,\"nic_queue_bytes\":16777216,"
      "\"dre\":{\"t_dre_ns\":20000,\"alpha\":0.125,\"q_bits\":3},"
      "\"ce_sum\":false,\"ecn_threshold_bytes\":0,"
      "\"shared_buffer_bytes\":0,\"shared_buffer_alpha\":2,"
      "\"overrides\":[]}}");

  ExperimentSpec pod;
  pod.topo = two_pods();
  EXPECT_EQ(canonical_json(pod),
      R"({"schema":"conga-cell-spec-v1","dist":"enterprise",)"
      R"("policy":"conga","load":0.6,"min_rto_ns":200000000,"dctcp":false,)"
      R"("warmup_ns":10000000,"measure_ns":40000000,)"
      R"("max_drain_ns":1000000000,"fabric_seed":1,"traffic_seed":7,)"
      R"("fault":{"profile":"none","seed":1},"topo":{"num_leaves":4,)"
      R"("num_spines":4,"hosts_per_leaf":4,"links_per_spine":1,)"
      R"("host_link_bps":1e+10,"fabric_link_bps":4e+10,)"
      R"("host_link_delay_ns":1000,"fabric_link_delay_ns":1000,)"
      R"("edge_queue_bytes":524288,"fabric_queue_bytes":2097152,)"
      R"("nic_queue_bytes":16777216,"dre":{"t_dre_ns":20000,"alpha":0.125,)"
      R"("q_bits":3},"ce_sum":false,"ecn_threshold_bytes":0,)"
      R"("shared_buffer_bytes":0,"shared_buffer_alpha":2,"overrides":[],)"
      R"("num_pods":2,"num_cores":2,"core_overrides":[{"spine":1,"core":0,)"
      R"("rate_factor":0.1}]}})");

  ExperimentSpec mptcp;
  mptcp.dist = "datamining";
  mptcp.policy = "ecmp";
  mptcp.load = 0.3;
  mptcp.topo = net::testbed_baseline();
  mptcp.topo.overrides.push_back(net::LinkOverride{0, 1, 1, 0.5});
  mptcp.min_rto_ns = sim::milliseconds(1);
  mptcp.mptcp_subflows = 8;
  mptcp.fault = {"gray", 5};
  EXPECT_EQ(canonical_json(mptcp),
      R"({"schema":"conga-cell-spec-v1","dist":"datamining",)"
      R"("policy":"ecmp","load":0.3,"min_rto_ns":1000000,"dctcp":false,)"
      R"("mptcp_subflows":8,"warmup_ns":10000000,"measure_ns":40000000,)"
      R"("max_drain_ns":1000000000,"fabric_seed":1,"traffic_seed":7,)"
      R"("fault":{"profile":"gray","seed":5},"topo":{"num_leaves":2,)"
      R"("num_spines":2,"hosts_per_leaf":32,"links_per_spine":2,)"
      R"("host_link_bps":1e+10,"fabric_link_bps":4e+10,)"
      R"("host_link_delay_ns":1000,"fabric_link_delay_ns":1000,)"
      R"("edge_queue_bytes":524288,"fabric_queue_bytes":2097152,)"
      R"("nic_queue_bytes":16777216,"dre":{"t_dre_ns":20000,"alpha":0.125,)"
      R"("q_bits":3},"ce_sum":false,"ecn_threshold_bytes":0,)"
      R"("shared_buffer_bytes":0,"shared_buffer_alpha":2,)"
      R"("overrides":[{"leaf":0,"spine":1,"parallel":1,)"
      R"("rate_factor":0.5}]}})");

  EXPECT_EQ(json_of_campaign(make_smoke_campaign()).dump(),
      R"({"schema":"conga-campaign-request-v1","name":"smoke",)"
      R"("dist":"enterprise","policies":["ecmp","conga"],"loads_pct":[40],)"
      R"("min_rto_ns":200000000,"dctcp":false,"warmup_ns":2000000,)"
      R"("measure_ns":8000000,"max_drain_ns":500000000,)"
      R"("seeds":[{"fabric":1,"traffic":7}],"faults":[{"profile":"none",)"
      R"("seed":1}],"cases":[{"name":"testbed","topo":{"num_leaves":2,)"
      R"("num_spines":2,"hosts_per_leaf":8,"links_per_spine":2,)"
      R"("host_link_bps":1e+10,"fabric_link_bps":4e+10,)"
      R"("host_link_delay_ns":1000,"fabric_link_delay_ns":1000,)"
      R"("edge_queue_bytes":524288,"fabric_queue_bytes":2097152,)"
      R"("nic_queue_bytes":16777216,"dre":{"t_dre_ns":20000,"alpha":0.125,)"
      R"("q_bits":3},"ce_sum":false,"ecn_threshold_bytes":0,)"
      R"("shared_buffer_bytes":0,"shared_buffer_alpha":2,"overrides":[]}}]})");

  EXPECT_EQ(json_of_result(full_result()).dump(),
      R"({"avg_norm_fct":12.345678901234567,"median_norm_fct":1.5,)"
      R"("p99_norm_fct":99.25,"avg_fct_small":0.000123,"avg_fct_large":0.5,)"
      R"("avg_fct_overall":0.01,"flows":1234,"small_flows":1000,)"
      R"("large_flows":34,"completed_fraction":0.9990234375,"drained":true,)"
      R"("unfinished_flows":3,"bytes_outstanding":4567890123,)"
      R"("fct_digest":"da563ccc62ab9618","reorder_segments":42,)"
      R"("reorder_max_distance":9,"reordered_flows":5,"probes_sent":7,)"
      R"("probes_received":6})");
}

TEST(CampaignJson, MptcpSubflowsRoundTripAndKey) {
  ExperimentSpec s;
  s.topo = net::testbed_baseline();
  ExperimentSpec mptcp = s;
  mptcp.mptcp_subflows = 8;
  const std::string bytes = canonical_json(mptcp);
  EXPECT_NE(bytes.find("\"mptcp_subflows\":8"), std::string::npos) << bytes;
  ExperimentSpec parsed;
  std::string err;
  ASSERT_TRUE(parse_spec(bytes, parsed, err)) << err;
  EXPECT_EQ(parsed.mptcp_subflows, 8);
  EXPECT_EQ(canonical_json(parsed), bytes);
  EXPECT_NE(cell_key(mptcp, "fp"), cell_key(s, "fp"));

  mptcp.mptcp_subflows = -1;
  workload::ExperimentConfig cfg;
  EXPECT_FALSE(to_experiment_config(mptcp, cfg, err));
  EXPECT_NE(err.find("mptcp_subflows"), std::string::npos) << err;

  // Campaign requests carry the scalar to every expanded cell, and keep
  // their old bytes while it is 0.
  CampaignSpec c = make_smoke_campaign();
  EXPECT_EQ(json_of_campaign(c).dump().find("mptcp_subflows"),
            std::string::npos);
  c.mptcp_subflows = 4;
  CampaignSpec parsed_campaign;
  ASSERT_TRUE(
      parse_campaign(json_of_campaign(c).dump(), parsed_campaign, err))
      << err;
  EXPECT_EQ(parsed_campaign.mptcp_subflows, 4);
  for (const Cell& cell : expand_campaign(parsed_campaign, "fp")) {
    EXPECT_EQ(cell.spec.mptcp_subflows, 4);
  }
}

// An MPTCP spec runs exactly the cell the FCT-grid benches used to build by
// hand: ECMP with an MPTCP transport factory over the same TCP settings.
TEST(CampaignJson, RtoFloorOutsideRangeIsRejected) {
  // A spec document can carry any min_rto_ns, but only a floor in
  // (0, kMaxRto] runs: at or below 0 the RTO granularity goes negative, and
  // above the ceiling the RTO clamp's bounds cross.
  ExperimentSpec s;
  s.topo = net::testbed_baseline();
  workload::ExperimentConfig cfg;
  std::string err;
  for (const sim::TimeNs bad :
       {sim::TimeNs{0}, sim::milliseconds(-5), tcp::kMaxRto + 1}) {
    SCOPED_TRACE(bad);
    s.min_rto_ns = bad;
    ExperimentSpec parsed;
    ASSERT_TRUE(parse_spec(canonical_json(s), parsed, err)) << err;
    EXPECT_FALSE(to_experiment_config(parsed, cfg, err));
    EXPECT_EQ(err, "min_rto must be in (0, 60 s]");
  }
  for (const sim::TimeNs good : {sim::TimeNs{1}, tcp::kMaxRto}) {
    s.min_rto_ns = good;
    EXPECT_TRUE(to_experiment_config(s, cfg, err)) << err;
  }
}

TEST(CampaignRun, MptcpSpecMatchesDirectConfig) {
  net::TopologyConfig topo = net::testbed_baseline();
  topo.hosts_per_leaf = 4;
  ExperimentSpec spec;
  spec.dist = "enterprise";
  spec.policy = "ecmp";
  spec.load = 0.3;
  spec.topo = topo;
  spec.min_rto_ns = sim::milliseconds(10);
  spec.mptcp_subflows = 8;
  spec.warmup_ns = sim::milliseconds(1);
  spec.measure_ns = sim::milliseconds(4);
  spec.max_drain_ns = sim::milliseconds(300);
  workload::ExperimentResult via_spec;
  std::string err;
  ASSERT_TRUE(run_spec(spec, via_spec, err)) << err;

  workload::ExperimentConfig direct;
  direct.topo = topo;
  direct.dist = workload::enterprise();
  direct.load = 0.3;
  direct.lb = lb::ecmp();
  tcp::MptcpConfig m;
  m.tcp.min_rto = sim::milliseconds(10);
  m.num_subflows = 8;
  direct.transport = tcp::make_mptcp_flow_factory(m);
  direct.warmup = sim::milliseconds(1);
  direct.measure = sim::milliseconds(4);
  direct.max_drain = sim::milliseconds(300);
  const workload::ExperimentResult expected =
      workload::run_fct_experiment(direct);

  EXPECT_GT(expected.flows, 0U);
  EXPECT_EQ(via_spec.fct_digest, expected.fct_digest);
  EXPECT_EQ(json_of_result(via_spec).dump(), json_of_result(expected).dump());

  // And MPTCP is really on: the plain-TCP cell differs.
  spec.mptcp_subflows = 0;
  workload::ExperimentResult plain;
  ASSERT_TRUE(run_spec(spec, plain, err)) << err;
  EXPECT_NE(plain.fct_digest, expected.fct_digest);
}

TEST(CampaignJson, FuzzSpecRoundTripIsByteStable) {
  // Property: for any spec the serializer can produce, parse(dump) re-dumps
  // to the identical bytes — doubles included (shortest-round-trip form).
  sim::Rng rng(2024);
  const char* dists[] = {"enterprise", "datamining", "websearch",
                         "fixed:1234"};
  const char* profiles[] = {"none", "random", "gray"};
  // Any 64-bit seed: the codec must keep the bits above INT64_MAX.
  auto any_u64 = [&rng] {
    return static_cast<std::uint64_t>(rng.uniform_int(
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max()));
  };
  for (int trial = 0; trial < 300; ++trial) {
    ExperimentSpec s;
    s.dist = dists[rng.uniform_int(0, 3)];
    s.policy = rng.uniform_int(0, 1) != 0 ? "conga" : "letflow";
    s.load = rng.uniform(0.01, 1.0);
    s.topo = net::testbed_baseline();
    s.topo.num_leaves = static_cast<int>(rng.uniform_int(2, 6));
    s.topo.num_spines = static_cast<int>(rng.uniform_int(2, 4));
    s.topo.hosts_per_leaf = static_cast<int>(rng.uniform_int(1, 32));
    s.topo.host_link_bps = rng.uniform(1e9, 4e10);
    s.topo.dre.alpha = rng.uniform(0.0, 1.0);
    s.topo.shared_buffer_alpha = rng.uniform(0.1, 16.0);
    if (rng.uniform_int(0, 1) != 0) {
      s.topo.overrides.push_back(net::LinkOverride{
          static_cast<int>(rng.uniform_int(0, 3)),
          static_cast<int>(rng.uniform_int(0, 3)), 0,
          rng.uniform(0.01, 1.0)});
    }
    s.min_rto_ns = static_cast<sim::TimeNs>(rng.uniform_int(1, 1U << 30));
    s.dctcp = rng.uniform_int(0, 1) != 0;
    s.mptcp_subflows = static_cast<int>(rng.uniform_int(0, 1)) * 8;
    s.warmup_ns = static_cast<sim::TimeNs>(rng.uniform_int(0, 1U << 30));
    s.measure_ns = static_cast<sim::TimeNs>(rng.uniform_int(1, 1U << 30));
    s.fabric_seed = any_u64();
    s.traffic_seed = any_u64();
    s.fault.profile = profiles[rng.uniform_int(0, 2)];
    s.fault.seed = any_u64();

    const std::string bytes = canonical_json(s);
    ExperimentSpec parsed;
    std::string err;
    ASSERT_TRUE(parse_spec(bytes, parsed, err))
        << err << "\nbytes: " << bytes;
    ASSERT_EQ(canonical_json(parsed), bytes);
    // And the generic document layer agrees with itself.
    Json doc;
    ASSERT_TRUE(Json::parse(bytes, doc, err)) << err;
    ASSERT_EQ(doc.dump(), bytes);
  }
}

TEST(CampaignJson, ReorderedFieldsCanonicalizeToSameBytes) {
  ExperimentSpec s;
  s.topo = net::testbed_baseline();
  s.policy = "letflow";
  s.load = 0.45;
  const std::string canonical = canonical_json(s);

  // Same content, scrambled member order (and the topo via the canonical
  // writer, spliced mid-document).
  const std::string topo_bytes = json_of_topo(s.topo).dump();
  const std::string scrambled = std::string("{\"load\":0.45,\"topo\":") +
                                topo_bytes +
                                ",\"policy\":\"letflow\",\"schema\":"
                                "\"conga-cell-spec-v1\"}";
  ExperimentSpec parsed;
  std::string err;
  ASSERT_TRUE(parse_spec(scrambled, parsed, err)) << err;
  EXPECT_EQ(canonical_json(parsed), canonical);
}

TEST(CampaignJson, UnknownFieldsAreErrors) {
  ExperimentSpec parsed;
  std::string err;
  EXPECT_FALSE(parse_spec("{\"bogus\":1}", parsed, err));
  EXPECT_NE(err.find("unknown spec field"), std::string::npos) << err;
  EXPECT_FALSE(parse_spec("{\"topo\":{\"num_leeves\":4}}", parsed, err));
  EXPECT_NE(err.find("unknown topo field"), std::string::npos) << err;
  EXPECT_FALSE(parse_spec("{\"fault\":{\"profil\":\"none\"}}", parsed, err));
  EXPECT_NE(err.find("unknown fault field"), std::string::npos) << err;

  CampaignSpec campaign;
  EXPECT_FALSE(parse_campaign("{\"policy\":[\"conga\"]}", campaign, err));
  EXPECT_NE(err.find("unknown campaign field"), std::string::npos) << err;

  // Integers outside the destination type (these used to wrap: two
  // documents, one cell key).
  EXPECT_FALSE(
      parse_spec("{\"topo\":{\"num_leaves\":4294967298}}", parsed, err));
  EXPECT_NE(err.find("num_leaves"), std::string::npos) << err;
  EXPECT_FALSE(parse_spec("{\"fabric_seed\":-1}", parsed, err));
  EXPECT_NE(err.find("fabric_seed"), std::string::npos) << err;
  Json doc;
  workload::ExperimentResult result;
  ASSERT_TRUE(Json::parse("{\"flows\":-5}", doc, err)) << err;
  EXPECT_FALSE(result_from_json(doc, result, err));
  EXPECT_NE(err.find("flows"), std::string::npos) << err;

  // A repeated member (the last one used to win) and a digest that is not
  // 16 hex digits (it used to load as 0).
  EXPECT_FALSE(parse_spec("{\"load\":0.5,\"load\":0.7}", parsed, err));
  EXPECT_NE(err.find("duplicate spec field 'load'"), std::string::npos)
      << err;
  EXPECT_FALSE(parse_campaign("{\"name\":\"a\",\"name\":\"b\"}", campaign,
                              err));
  EXPECT_NE(err.find("duplicate campaign field 'name'"), std::string::npos)
      << err;
  ASSERT_TRUE(Json::parse("{\"fct_digest\":\"zz-not-hex\"}", doc, err))
      << err;
  EXPECT_FALSE(result_from_json(doc, result, err));
  EXPECT_NE(err.find("fct_digest"), std::string::npos) << err;
  ASSERT_TRUE(Json::parse("{\"fct_digest\":\"da563ccc62ab961\"}", doc, err))
      << err;
  EXPECT_FALSE(result_from_json(doc, result, err));
}

TEST(CampaignJson, PodSpecRoundTrips) {
  ExperimentSpec s;
  s.topo = two_pods();
  const std::string bytes = canonical_json(s);
  EXPECT_NE(bytes.find("\"num_pods\":2"), std::string::npos) << bytes;
  ExperimentSpec parsed;
  std::string err;
  ASSERT_TRUE(parse_spec(bytes, parsed, err)) << err;
  EXPECT_EQ(parsed.topo.num_pods, 2);
  EXPECT_EQ(parsed.topo.num_cores, 2);
  ASSERT_EQ(parsed.topo.core_overrides.size(), 1U);
  EXPECT_EQ(parsed.topo.core_overrides[0].spine, 1);
  EXPECT_EQ(parsed.topo.core_overrides[0].rate_factor, 0.1);
  EXPECT_EQ(canonical_json(parsed), bytes);

  // 2-tier specs emit no pod fields, so their canonical bytes stay put.
  ExperimentSpec flat;
  flat.topo = net::testbed_baseline();
  EXPECT_EQ(canonical_json(flat).find("num_pods"), std::string::npos);
  EXPECT_EQ(canonical_json(flat).find("core_overrides"), std::string::npos);

  EXPECT_FALSE(parse_spec(
      "{\"topo\":{\"core_overrides\":[{\"spine\":0,\"cor\":1}]}}",
      parsed, err));
  EXPECT_NE(err.find("unknown core override field"), std::string::npos)
      << err;
}

TEST(CampaignJson, CampaignRequestRoundTrip) {
  CampaignSpec c = make_smoke_campaign();
  c.seeds.push_back({3, 11});
  c.faults.push_back({"gray", 5});
  const std::string bytes = json_of_campaign(c).dump();
  CampaignSpec parsed;
  std::string err;
  ASSERT_TRUE(parse_campaign(bytes, parsed, err)) << err;
  EXPECT_EQ(json_of_campaign(parsed).dump(), bytes);
}

TEST(CampaignJson, ResultPayloadRoundTrip) {
  workload::ExperimentResult r;
  r.avg_norm_fct = 12.345678901234567;
  r.median_norm_fct = 1.5;
  r.p99_norm_fct = 99.25;
  r.flows = 1234;
  r.completed_fraction = 0.9990234375;
  r.drained = true;
  r.fct_digest = 0xda563ccc62ab9618ULL;
  r.reorder_segments = 42;
  r.probes_sent = 7;
  const std::string bytes = json_of_result(r).dump();
  workload::ExperimentResult parsed;
  std::string err;
  Json doc;
  ASSERT_TRUE(Json::parse(bytes, doc, err)) << err;
  ASSERT_TRUE(result_from_json(doc, parsed, err)) << err;
  EXPECT_EQ(json_of_result(parsed).dump(), bytes);
  EXPECT_EQ(parsed.fct_digest, r.fct_digest);
  EXPECT_EQ(parsed.flows, r.flows);
}

TEST(CampaignKey, StableAndSensitive) {
  ExperimentSpec s;
  s.topo = net::testbed_baseline();
  const std::string key = cell_key(s, "fp");
  EXPECT_EQ(key.size(), 32U);
  EXPECT_EQ(cell_key(s, "fp"), key);

  ExperimentSpec mutated = s;
  mutated.load = s.load + 0.1;
  EXPECT_NE(cell_key(mutated, "fp"), key);
  mutated = s;
  mutated.traffic_seed ^= 1;
  EXPECT_NE(cell_key(mutated, "fp"), key);
  mutated = s;
  mutated.fault.profile = "gray";
  EXPECT_NE(cell_key(mutated, "fp"), key);
  mutated = s;
  mutated.topo.hosts_per_leaf += 1;
  EXPECT_NE(cell_key(mutated, "fp"), key);
  // Pod fabrics that differ only in the core tier are different cells.
  ExperimentSpec pods = s;
  pods.topo = two_pods();
  mutated = pods;
  mutated.topo.num_cores = 1;
  EXPECT_NE(cell_key(mutated, "fp"), cell_key(pods, "fp"));
  // The same config under different code is a different cell.
  EXPECT_NE(cell_key(s, "fp2"), key);
}

TEST(CampaignExpand, CanonicalOrder) {
  CampaignSpec c;
  c.policies = {"ecmp", "conga"};
  c.loads_pct = {30, 60};
  net::TopologyConfig topo = net::testbed_baseline();
  net::TopologyConfig degraded = topo;
  degraded.overrides.push_back(net::LinkOverride{1, 1, 0, 0.1});
  // Cases with identical topologies would share cells (the key hashes the
  // spec, and the case name is presentation, not configuration) — the
  // degraded case keeps this grid fully distinct.
  c.cases = {{"a", topo}, {"b", degraded}};
  c.seeds = {{1, 7}, {2, 9}};
  c.faults = {{"none", 1}, {"gray", 3}};

  const std::vector<Cell> cells = expand_campaign(c, "fp");
  ASSERT_EQ(cells.size(), 32U);
  // case -> policy -> load -> seed -> fault, fault innermost.
  EXPECT_EQ(cells[0].case_name, "a");
  EXPECT_EQ(cells[0].spec.policy, "ecmp");
  EXPECT_EQ(cells[0].spec.load, 0.30);
  EXPECT_EQ(cells[0].spec.fault.profile, "none");
  EXPECT_EQ(cells[1].spec.fault.profile, "gray");
  EXPECT_EQ(cells[2].spec.fabric_seed, 2U);
  EXPECT_EQ(cells[4].spec.load, 0.60);
  EXPECT_EQ(cells[8].spec.policy, "conga");
  EXPECT_EQ(cells[16].case_name, "b");
  // Keys are unique across the grid.
  std::vector<std::string> keys;
  for (const Cell& cell : cells) keys.push_back(cell.key);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(std::unique(keys.begin(), keys.end()), keys.end());
}

TEST(CampaignRun, ColdThenWarmIsByteIdentical) {
  const TempDir dir("coldwarm");
  ResultStore store(dir.path.string());
  const CampaignSpec spec = tiny_campaign();
  RunOptions opts;
  opts.store = &store;

  CampaignRun cold;
  std::string err;
  ASSERT_TRUE(run_campaign(spec, opts, cold, err)) << err;
  EXPECT_EQ(cold.stats.cells, 1U);
  EXPECT_EQ(cold.stats.misses, 1U);
  EXPECT_EQ(cold.stats.hits, 0U);
  EXPECT_EQ(cold.stats.store_writes, 1U);
  ASSERT_EQ(cold.origins.size(), 1U);
  EXPECT_EQ(cold.origins[0], CellOrigin::kComputed);

  CampaignRun warm;
  ASSERT_TRUE(run_campaign(spec, opts, warm, err)) << err;
  EXPECT_EQ(warm.stats.hits, 1U);
  EXPECT_EQ(warm.stats.misses, 0U);
  EXPECT_EQ(warm.stats.store_writes, 0U);
  EXPECT_EQ(warm.origins[0], CellOrigin::kCached);

  EXPECT_EQ(report_json(cold), report_json(warm));
}

TEST(CampaignRun, NoStoreComputesEverything) {
  const CampaignSpec spec = tiny_campaign();
  RunOptions opts;  // store == nullptr
  CampaignRun run;
  std::string err;
  ASSERT_TRUE(run_campaign(spec, opts, run, err)) << err;
  EXPECT_EQ(run.stats.misses, run.stats.cells);
  EXPECT_EQ(run.stats.store_writes, 0U);
}

TEST(CampaignRun, UnknownPolicyFailsWithContext) {
  CampaignSpec spec = tiny_campaign();
  spec.policies = {"definitely-not-a-policy"};
  RunOptions opts;
  CampaignRun run;
  std::string err;
  EXPECT_FALSE(run_campaign(spec, opts, run, err));
  EXPECT_NE(err.find("unknown policy"), std::string::npos) << err;
}

TEST(CampaignVerdict, PassAndRegressionAndMissing) {
  const CampaignSpec spec = tiny_campaign();
  RunOptions opts;
  CampaignRun run;
  std::string err;
  ASSERT_TRUE(run_campaign(spec, opts, run, err)) << err;

  Json report;
  ASSERT_TRUE(Json::parse(report_json(run), report, err)) << err;

  // Identical reports: clean pass.
  Json verdict;
  ASSERT_TRUE(make_verdict(report, report, VerdictOptions{}, verdict, err))
      << err;
  EXPECT_TRUE(verdict_pass(verdict));
  EXPECT_EQ(verdict.find("regressions")->as_uint(), 0U);

  // Inflate the current FCT: regression against the original baseline.
  CampaignRun slower = run;
  slower.results[0].avg_norm_fct *= 2.0;
  slower.results[0].fct_digest ^= 1;
  Json slow_report;
  ASSERT_TRUE(Json::parse(report_json(slower), slow_report, err)) << err;
  ASSERT_TRUE(
      make_verdict(slow_report, report, VerdictOptions{}, verdict, err))
      << err;
  EXPECT_FALSE(verdict_pass(verdict));
  EXPECT_EQ(verdict.find("regressions")->as_uint(), 1U);
  const Json& cell = verdict.find("cells")->at(0);
  EXPECT_EQ(cell.find("status")->as_string(), "regression");
  EXPECT_TRUE(cell.find("fct_digest_changed")->as_bool());

  // And the mirror image reads as an improvement.
  ASSERT_TRUE(
      make_verdict(report, slow_report, VerdictOptions{}, verdict, err))
      << err;
  EXPECT_TRUE(verdict_pass(verdict));
  EXPECT_EQ(verdict.find("improvements")->as_uint(), 1U);

  // A cell with no baseline counterpart is reported, not failed.
  CampaignRun other = run;
  other.cells[0].spec.traffic_seed += 1;
  Json other_report;
  ASSERT_TRUE(Json::parse(report_json(other), other_report, err)) << err;
  ASSERT_TRUE(
      make_verdict(other_report, report, VerdictOptions{}, verdict, err))
      << err;
  EXPECT_TRUE(verdict_pass(verdict));
  EXPECT_EQ(verdict.find("missing_baseline")->size(), 1U);
}

TEST(CampaignVerify, SampleDetectsPoisonedStore) {
  const TempDir dir("poison");
  ResultStore store(dir.path.string());
  const CampaignSpec spec = tiny_campaign();
  RunOptions opts;
  opts.store = &store;

  CampaignRun cold;
  std::string err;
  ASSERT_TRUE(run_campaign(spec, opts, cold, err)) << err;

  // Poison the entry *consistently*: a modified result re-wrapped with a
  // valid payload digest, indistinguishable from a real entry on load.
  workload::ExperimentResult forged = cold.results[0];
  forged.avg_norm_fct += 1.0;
  ASSERT_TRUE(store.put(cold.cells[0].key, cold.fingerprint,
                        canonical_json(cold.cells[0].spec), forged, err))
      << err;

  CampaignRun warm;
  ASSERT_TRUE(run_campaign(spec, opts, warm, err)) << err;
  ASSERT_EQ(warm.stats.hits, 1U);  // the poison loads cleanly...

  VerifyOutcome outcome;
  ASSERT_TRUE(verify_sample(warm, 1.0, 1, nullptr, outcome, err)) << err;
  EXPECT_EQ(outcome.sampled, 1U);
  EXPECT_EQ(outcome.mismatched, 1U);  // ...but recomputation exposes it
  ASSERT_EQ(outcome.poisoned_keys.size(), 1U);
  EXPECT_EQ(outcome.poisoned_keys[0], warm.cells[0].key);

  // An honest store passes the same audit.
  ASSERT_TRUE(store.put(cold.cells[0].key, cold.fingerprint,
                        canonical_json(cold.cells[0].spec), cold.results[0],
                        err))
      << err;
  CampaignRun honest;
  ASSERT_TRUE(run_campaign(spec, opts, honest, err)) << err;
  ASSERT_TRUE(verify_sample(honest, 1.0, 1, nullptr, outcome, err)) << err;
  EXPECT_EQ(outcome.mismatched, 0U);
}

#ifdef CONGA_TELEMETRY
TEST(CampaignTelemetry, CacheDecisionsAreTraced) {
  const TempDir dir("telemetry");
  ResultStore store(dir.path.string());
  const CampaignSpec spec = tiny_campaign();
  telemetry::TraceSink sink;
  RunOptions opts;
  opts.store = &store;
  opts.sink = &sink;

  CampaignRun cold;
  std::string err;
  ASSERT_TRUE(run_campaign(spec, opts, cold, err)) << err;
  CampaignRun warm;
  ASSERT_TRUE(run_campaign(spec, opts, warm, err)) << err;
  VerifyOutcome outcome;
  ASSERT_TRUE(verify_sample(warm, 1.0, 1, &sink, outcome, err)) << err;

  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t writes = 0;
  std::size_t recomputes = 0;
  for (const telemetry::Event& e : sink.all_events()) {
    switch (e.type) {
      case telemetry::EventType::kCampaignCellHit: ++hits; break;
      case telemetry::EventType::kCampaignCellMiss: ++misses; break;
      case telemetry::EventType::kCampaignStoreWrite: ++writes; break;
      case telemetry::EventType::kCampaignVerifyRecompute: ++recomputes; break;
      default: break;
    }
  }
  EXPECT_EQ(misses, 1U);       // cold pass
  EXPECT_EQ(writes, 1U);       // cold pass wrote the entry
  EXPECT_EQ(hits, 1U);         // warm pass
  EXPECT_EQ(recomputes, 1U);   // verify-sample audit
  EXPECT_EQ(telemetry::category_of(telemetry::EventType::kCampaignCellHit),
            telemetry::Category::kCampaign);

  // Wire names round-trip through the CLI-facing parsers.
  telemetry::EventType parsed;
  ASSERT_TRUE(telemetry::parse_event_type("campaign_cell_miss", parsed));
  EXPECT_EQ(parsed, telemetry::EventType::kCampaignCellMiss);
  telemetry::Category cat;
  ASSERT_TRUE(telemetry::parse_category("campaign", cat));
  EXPECT_EQ(cat, telemetry::Category::kCampaign);
}
#endif  // CONGA_TELEMETRY

/// Small cells of the three kinds a workload::Experiment must run exactly as
/// run_spec does: plain CONGA, DRILL (its fabric hook flips the spines), and
/// a gray-failure fault profile (its hook owns the injector).
std::vector<ExperimentSpec> experiment_specs() {
  ExperimentSpec base;
  base.topo = net::testbed_baseline();
  base.topo.hosts_per_leaf = 4;
  base.load = 0.5;
  base.min_rto_ns = sim::milliseconds(10);
  base.warmup_ns = sim::milliseconds(1);
  base.measure_ns = sim::milliseconds(4);
  base.max_drain_ns = sim::milliseconds(300);
  ExperimentSpec drill = base;
  drill.policy = "drill";
  ExperimentSpec gray = base;
  gray.fault = {"gray", 3};
  return {base, drill, gray};
}

TEST(Experiment, MatchesRunSpecBytes) {
  for (const ExperimentSpec& spec : experiment_specs()) {
    workload::ExperimentResult via_spec;
    std::string err;
    ASSERT_TRUE(run_spec(spec, via_spec, err)) << err;
    workload::ExperimentConfig cfg;
    ASSERT_TRUE(to_experiment_config(spec, cfg, err)) << err;
    const workload::ExperimentResult direct = workload::Experiment(cfg).run();
    EXPECT_GT(direct.flows, 0U) << canonical_json(spec);
    EXPECT_EQ(json_of_result(direct).dump(), json_of_result(via_spec).dump())
        << canonical_json(spec);
  }
}

TEST(Experiment, FabricConservesPacketsAfterRun) {
  for (const ExperimentSpec& spec : experiment_specs()) {
    workload::ExperimentConfig cfg;
    std::string err;
    ASSERT_TRUE(to_experiment_config(spec, cfg, err)) << err;
    workload::Experiment exp(cfg);
    exp.run();
    net::Fabric& fabric = exp.fabric();
    std::vector<const net::Link*> links(fabric.fabric_links().begin(),
                                        fabric.fabric_links().end());
    for (net::HostId h = 0; h < fabric.num_hosts(); ++h) {
      links.push_back(fabric.host_to_leaf(h));
      links.push_back(fabric.leaf_to_host(h));
    }
    std::uint64_t delivered = 0;
    for (const net::Link* link : links) {
      EXPECT_TRUE(link->conserves_packets())
          << link->name() << " in " << canonical_json(spec);
      delivered += link->bytes_sent();
    }
    EXPECT_GT(delivered, 0U) << canonical_json(spec);
  }
}

}  // namespace
}  // namespace conga::campaign
