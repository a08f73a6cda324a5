#include "telemetry/probes.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace conga::telemetry {

int ProbeRegistry::add_counter(std::string name, CounterFn fn) {
  thread_.check();
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kCounter;
  p.counter = std::move(fn);
  probes_.push_back(std::move(p));
  return static_cast<int>(probes_.size()) - 1;
}

int ProbeRegistry::add_gauge(std::string name, GaugeFn fn) {
  thread_.check();
  Probe p;
  p.name = std::move(name);
  p.kind = Kind::kGauge;
  p.gauge = std::move(fn);
  probes_.push_back(std::move(p));
  return static_cast<int>(probes_.size()) - 1;
}

int ProbeRegistry::find(std::string_view name) const {
  thread_.check();
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    if (probes_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

PeriodicSampler::PeriodicSampler(sim::Scheduler& sched, TraceSink& sink,
                                 sim::TimeNs interval, sim::TimeNs start,
                                 sim::TimeNs end,
                                 std::vector<int> probe_indices)
    : sched_(sched), sink_(sink), interval_(interval), end_(end) {
  if (probe_indices.empty()) {
    for (std::size_t i = 0; i < sink_.probes().size(); ++i) {
      probe_indices.push_back(static_cast<int>(i));
    }
  }
  for (const int idx : probe_indices) {
    Sampled s;
    s.index = idx;
    // Probe samples get their own component namespace so a link's probe
    // series never interleaves with its dataplane events in one ring.
    s.comp =
        sink_.intern_component("probe:" + sink_.probes().probe(idx).name);
    s.last = 0;
    s.primed = false;
    probes_.push_back(s);
  }
  series_.resize(probes_.size());
  sched_.schedule_at(start, [this] { tick(); });
}

void PeriodicSampler::tick() {
  const sim::TimeNs now = sched_.now();
  times_.push_back(now);
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    Sampled& s = probes_[i];
    const ProbeRegistry::Probe& p = sink_.probes().probe(s.index);
    if (p.kind == ProbeRegistry::Kind::kGauge) {
      const double v = p.gauge();
      series_[i].push_back(v);
      emit(&sink_, EventType::kGaugeSample, s.comp, now,
           std::bit_cast<std::uint64_t>(v));
    } else {
      const std::uint64_t v = p.counter();
      if (s.primed) {
        series_[i].push_back(static_cast<double>(v - s.last));
        emit(&sink_, EventType::kCounterSample, s.comp, now, v, v - s.last);
      } else {
        s.primed = true;
        emit(&sink_, EventType::kCounterSample, s.comp, now, v, 0);
      }
      s.last = v;
    }
  }
  if (now + interval_ <= end_) {
    sched_.schedule_after(interval_, [this] { tick(); });
  }
}

stats::Summary PeriodicSampler::summary(std::size_t i) const {
  stats::Summary out;
  for (const double v : series_[i]) out.add(v);
  return out;
}

stats::Summary PeriodicSampler::summary(std::string_view name) const {
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    if (sink_.probes().probe(probes_[i].index).name == name) {
      return summary(i);
    }
  }
  assert(false && "unknown probe name");
  return {};
}

stats::Summary PeriodicSampler::spread_pct() const {
  stats::Summary out;
  if (series_.empty()) return out;
  std::size_t intervals = series_[0].size();
  for (const auto& s : series_) intervals = std::min(intervals, s.size());
  for (std::size_t t = 0; t < intervals; ++t) {
    double mx = series_[0][t], mn = mx, sum = 0;
    for (const auto& s : series_) {
      mx = std::max(mx, s[t]);
      mn = std::min(mn, s[t]);
      sum += s[t];
    }
    const double mean = sum / static_cast<double>(series_.size());
    if (mean > 0) out.add((mx - mn) / mean * 100.0);
  }
  return out;
}

}  // namespace conga::telemetry
