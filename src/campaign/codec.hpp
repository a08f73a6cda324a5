// Private to src/campaign: the one codec for every campaign document. A
// document type has one field table listing its members once, in canonical
// order, e.g.
//
//   template <class V> void fields(V& v, FaultSpec& f) {
//     v.kind("fault");  // names the type in error messages
//     v.field("profile", f.profile);
//     v.field("seed", f.seed);
//   }
//
// encode() runs it with a Writer (members in table order: the bytes a cell
// key hashes), decode() with a strict Reader: an unknown or repeated member,
// a wrongly typed value, an integer outside its destination type or a kHex
// value that is not 16 hex digits is an error. Absent members keep their
// defaults unless kRequired; emit_if(cond) members are written only when
// cond holds and are always accepted.
#pragma once

#include <algorithm>
#include <charconv>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "campaign/experiment_spec.hpp"
#include "campaign/json.hpp"

namespace conga::campaign::detail {

struct Attr {
  bool required = false;
  bool hex = false;  ///< an integer written as 16 hex digits
  bool emit = true;  ///< written at all
};
inline constexpr Attr kRequired{.required = true};
inline constexpr Attr kHex{.hex = true};
constexpr Attr emit_if(bool cond) { return {.emit = cond}; }

template <class T>
Json encode(const T& value);
template <class T>
bool decode(const Json& doc, T& out, std::string& err);

template <class T>
struct IsVector : std::false_type {};
template <class T>
struct IsVector<std::vector<T>> : std::true_type {};

template <class T>
Json to_json(const T& v, Attr a = {}) {
  if constexpr (std::is_same_v<T, Json>) {
    return v;
  } else if constexpr (std::is_same_v<T, bool>) {
    return Json::boolean(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Json::string(v);
  } else if constexpr (std::is_floating_point_v<T>) {
    return Json::number(v);
  } else if constexpr (std::is_signed_v<T>) {
    return Json::integer(v);
  } else if constexpr (std::is_integral_v<T>) {
    return a.hex ? Json::string(hex64(v)) : Json::uinteger(v);
  } else if constexpr (IsVector<T>::value) {
    Json items = Json::array();
    for (const auto& item : v) items.push_back(to_json(item));
    return items;
  } else {
    return encode(v);
  }
}

/// Reads `v`, the value of member `key`, into `out`.
template <class T>
bool from_json(const Json& v, const std::string& key, T& out, Attr a,
               std::string& err) {
  const char* want = nullptr;  // what `v` should have been
  auto is = [&](bool ok, const char* kind) {
    if (!ok) want = kind;
    return ok;
  };
  if constexpr (std::is_same_v<T, Json>) {
    out = v;
  } else if constexpr (std::is_same_v<T, bool>) {
    if (is(v.is_bool(), "bool")) out = v.as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (is(v.is_string(), "string")) out = v.as_string();
  } else if constexpr (std::is_floating_point_v<T>) {
    if (is(v.is_number(), "number")) out = v.as_double();
  } else if constexpr (std::is_integral_v<T>) {
    if (a.hex) {
      const std::string& s = v.as_string();  // "" unless v is a string
      const char* end = s.data() + s.size();
      T x = 0;
      const auto [stop, ec] = std::from_chars(s.data(), end, x, 16);
      if (is(s.size() == 16 && ec == std::errc() && stop == end,
             "16 hex digits")) {
        out = x;
      }
    } else if (is(v.is_integer(), "integer")) {
      const bool big = v.kind() == Json::Kind::kUint;
      const bool fits = big ? std::in_range<T>(v.as_uint())
                            : std::in_range<T>(v.as_int());
      if (is(fits, "in-range integer")) {
        out = big ? static_cast<T>(v.as_uint()) : static_cast<T>(v.as_int());
      }
    }
  } else if constexpr (IsVector<T>::value) {
    if (is(v.is_array(), "array")) {
      T items(v.size());
      for (std::size_t i = 0; i < v.size(); ++i) {
        if (!from_json(v.at(i), key, items[i], {}, err)) return false;
      }
      out = std::move(items);
    }
  } else if (is(v.is_object(), "object")) {
    return decode(v, out, err);
  }
  if (want != nullptr) err = std::string("expected ") + want + " " + key;
  return want == nullptr;
}

class Writer {
 public:
  void kind(const char*) {}
  void schema(const char* id, Attr = {}) { field("schema", std::string(id)); }
  template <class T>
  void field(const char* key, const T& value, Attr a = {}) {
    if (a.emit) doc_.set(key, to_json(value, a));
  }
  Json take() { return std::move(doc_); }

 private:
  Json doc_ = Json::object();
};

class Reader {
 public:
  Reader(const Json& doc, std::string& err) : doc_(doc), err_(err) {}

  void kind(const char* k) { kind_ = k; }
  /// A present "schema" member must name `id`.
  void schema(const char* id, Attr a = {}) {
    std::string got = id;
    field("schema", got, a);
    if (ok_ && got != id) {
      fail("unsupported " + kind_ + " schema '" + got + "'");
    }
  }
  template <class T>
  void field(const char* key, T& out, Attr a = {}) {
    known_.push_back(key);
    if (!ok_) return;
    if (const Json* v = doc_.find(key)) {
      ok_ = from_json(*v, key, out, a, err_);
    } else if (a.required) {
      fail("missing " + kind_ + " field '" + key + "'");
    }
  }
  /// After the table ran: every member must be in it, and only once.
  bool finish() {
    const auto& members = doc_.members();
    for (auto it = members.begin(); ok_ && it != members.end(); ++it) {
      const std::string& key = it->first;
      if (std::find(known_.begin(), known_.end(), key) == known_.end()) {
        fail("unknown " + kind_ + " field '" + key + "'");
      } else if (std::find_if(members.begin(), it, [&](const auto& m) {
                   return m.first == key;
                 }) != it) {
        fail("duplicate " + kind_ + " field '" + key + "'");
      }
    }
    return ok_;
  }

 private:
  void fail(const std::string& what) {
    err_ = what;
    ok_ = false;
  }

  const Json& doc_;
  std::string& err_;
  std::string kind_;
  std::vector<const char*> known_;  ///< the table's member names
  bool ok_ = true;
};

/// The canonical document of `value`.
template <class T>
Json encode(const T& value) {
  Writer w;
  fields(w, const_cast<T&>(value));  // the writer only reads
  return w.take();
}

/// Strict inverse of encode(); `out` is untouched on failure.
template <class T>
bool decode(const Json& doc, T& out, std::string& err) {
  if (!doc.is_object()) {
    err = "expected a JSON object";
    return false;
  }
  T t{};
  Reader r(doc, err);
  fields(r, t);
  if (!r.finish()) return false;
  out = std::move(t);
  return true;
}

/// Text -> document -> decode().
template <class T>
bool parse_as(const std::string& text, T& out, std::string& err) {
  Json doc;
  return Json::parse(text, doc, err) && decode(doc, out, err);
}

// --- the cell spec and result tables ----------------------------------------

inline constexpr const char* kSpecSchema = "conga-cell-spec-v1";

template <class V>
void fields(V& v, core::DreConfig& d) {
  v.kind("dre");
  v.field("t_dre_ns", d.t_dre);
  v.field("alpha", d.alpha);
  v.field("q_bits", d.q_bits);
}

template <class V>
void fields(V& v, net::LinkOverride& o) {
  v.kind("override");
  v.field("leaf", o.leaf);
  v.field("spine", o.spine);
  v.field("parallel", o.parallel);
  v.field("rate_factor", o.rate_factor);
}

template <class V>
void fields(V& v, net::CoreLinkOverride& o) {
  v.kind("core override");
  v.field("spine", o.spine);
  v.field("core", o.core);
  v.field("rate_factor", o.rate_factor);
}

template <class V>
void fields(V& v, net::TopologyConfig& t) {
  v.kind("topo");
  v.field("num_leaves", t.num_leaves);
  v.field("num_spines", t.num_spines);
  v.field("hosts_per_leaf", t.hosts_per_leaf);
  v.field("links_per_spine", t.links_per_spine);
  v.field("host_link_bps", t.host_link_bps);
  v.field("fabric_link_bps", t.fabric_link_bps);
  v.field("host_link_delay_ns", t.host_link_delay);
  v.field("fabric_link_delay_ns", t.fabric_link_delay);
  v.field("edge_queue_bytes", t.edge_queue_bytes);
  v.field("fabric_queue_bytes", t.fabric_queue_bytes);
  v.field("nic_queue_bytes", t.nic_queue_bytes);
  v.field("dre", t.dre);
  v.field("ce_sum", t.ce_sum);
  v.field("ecn_threshold_bytes", t.ecn_threshold_bytes);
  v.field("shared_buffer_bytes", t.shared_buffer_bytes);
  v.field("shared_buffer_alpha", t.shared_buffer_alpha);
  v.field("overrides", t.overrides);
  // Pod fields only on pod fabrics, so every 2-tier spec keeps its
  // canonical bytes (and cell key).
  const Attr pods = emit_if(t.num_pods > 1);
  v.field("num_pods", t.num_pods, pods);
  v.field("num_cores", t.num_cores, pods);
  v.field("core_overrides", t.core_overrides, pods);
}

template <class V>
void fields(V& v, FaultSpec& f) {
  v.kind("fault");
  v.field("profile", f.profile);
  v.field("seed", f.seed);
}

template <class V>
void fields(V& v, ExperimentSpec& s) {
  v.kind("spec");
  v.schema(kSpecSchema);
  v.field("dist", s.dist);
  v.field("policy", s.policy);
  v.field("load", s.load);
  v.field("min_rto_ns", s.min_rto_ns);
  v.field("dctcp", s.dctcp);
  v.field("mptcp_subflows", s.mptcp_subflows, emit_if(s.mptcp_subflows > 0));
  v.field("warmup_ns", s.warmup_ns);
  v.field("measure_ns", s.measure_ns);
  v.field("max_drain_ns", s.max_drain_ns);
  v.field("fabric_seed", s.fabric_seed);
  v.field("traffic_seed", s.traffic_seed);
  v.field("fault", s.fault);
  v.field("topo", s.topo);
}

template <class V>
void fields(V& v, workload::ExperimentResult& r) {
  v.kind("result");
  v.field("avg_norm_fct", r.avg_norm_fct);
  v.field("median_norm_fct", r.median_norm_fct);
  v.field("p99_norm_fct", r.p99_norm_fct);
  v.field("avg_fct_small", r.avg_fct_small);
  v.field("avg_fct_large", r.avg_fct_large);
  v.field("avg_fct_overall", r.avg_fct_overall);
  v.field("flows", r.flows);
  v.field("small_flows", r.small_flows);
  v.field("large_flows", r.large_flows);
  v.field("completed_fraction", r.completed_fraction);
  v.field("drained", r.drained);
  v.field("unfinished_flows", r.unfinished_flows);
  v.field("bytes_outstanding", r.bytes_outstanding);
  v.field("fct_digest", r.fct_digest, kHex);
  v.field("reorder_segments", r.reorder_segments);
  v.field("reorder_max_distance", r.reorder_max_distance);
  v.field("reordered_flows", r.reordered_flows);
  v.field("probes_sent", r.probes_sent);
  v.field("probes_received", r.probes_received);
}

}  // namespace conga::campaign::detail
