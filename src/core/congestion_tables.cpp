#include "core/congestion_tables.hpp"

#include <bit>
#include <cassert>

#include "telemetry/telemetry.hpp"

namespace conga::core {

namespace {
/// Packs (leaf, lbtag) into the event's `a` payload.
std::uint64_t pack_cell(net::LeafId leaf, int lbtag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(leaf)) << 8) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(lbtag) & 0xff);
}
}  // namespace

std::uint8_t aged_value(const MetricCell& cell, sim::TimeNs now,
                        sim::TimeNs age_after) {
  if (cell.updated < 0) return 0;
  const sim::TimeNs age = now - cell.updated;
  if (age <= age_after) return cell.value;
  if (age >= 2 * age_after) return 0;
  // Linear decay to zero over the second age_after period.
  const double frac = static_cast<double>(2 * age_after - age) /
                      static_cast<double>(age_after);
  return static_cast<std::uint8_t>(static_cast<double>(cell.value) * frac);
}

CongestionToLeafTable::CongestionToLeafTable(const CongestionTableConfig& cfg)
    : cfg_(cfg),
      cells_(static_cast<std::size_t>(cfg.num_leaves) * cfg.num_uplinks) {}

void CongestionToLeafTable::update(net::LeafId dst_leaf, int lbtag,
                                   std::uint8_t metric, sim::TimeNs now) {
  assert(dst_leaf >= 0 && dst_leaf < cfg_.num_leaves);
  assert(lbtag >= 0 && lbtag < cfg_.num_uplinks);
  MetricCell& c = cells_[static_cast<std::size_t>(dst_leaf) * cfg_.num_uplinks +
                         lbtag];
  c.value = metric;
  c.updated = now;
  telemetry::emit(tele_, telemetry::EventType::kCongaToLeafUpdate, tele_comp_,
                  now, pack_cell(dst_leaf, lbtag), metric);
}

std::uint8_t CongestionToLeafTable::metric(net::LeafId dst_leaf, int uplink,
                                           sim::TimeNs now) const {
  assert(dst_leaf >= 0 && dst_leaf < cfg_.num_leaves);
  assert(uplink >= 0 && uplink < cfg_.num_uplinks);
  const MetricCell& c =
      cells_[static_cast<std::size_t>(dst_leaf) * cfg_.num_uplinks + uplink];
  return aged_value(c, now, cfg_.age_after);
}

CongestionFromLeafTable::CongestionFromLeafTable(
    const CongestionTableConfig& cfg)
    : cfg_(cfg),
      cells_(static_cast<std::size_t>(cfg.num_leaves) * cfg.num_uplinks),
      rows_(static_cast<std::size_t>(cfg.num_leaves)) {
  assert(cfg.num_uplinks <= 16 && "LBTag masks hold 16 tags");
}

void CongestionFromLeafTable::update(net::LeafId src_leaf, int lbtag,
                                     std::uint8_t ce, sim::TimeNs now) {
  assert(src_leaf >= 0 && src_leaf < cfg_.num_leaves);
  assert(lbtag >= 0 && lbtag < cfg_.num_uplinks);
  MetricCell& c = cells_[static_cast<std::size_t>(src_leaf) * cfg_.num_uplinks +
                         lbtag];
  Row& row = rows_[static_cast<std::size_t>(src_leaf)];
  const auto bit = static_cast<std::uint16_t>(1U << lbtag);
  if (c.value != ce || c.updated < 0) row.changed |= bit;
  row.written |= bit;
  c.value = ce;
  c.updated = now;
  telemetry::emit(tele_, telemetry::EventType::kCongaFromLeafUpdate,
                  tele_comp_, now, pack_cell(src_leaf, lbtag), ce);
}

std::uint8_t CongestionFromLeafTable::raw(net::LeafId src_leaf,
                                          int lbtag) const {
  return cells_[static_cast<std::size_t>(src_leaf) * cfg_.num_uplinks + lbtag]
      .value;
}

std::optional<CongestionFromLeafTable::Feedback>
CongestionFromLeafTable::pick_feedback(net::LeafId dst_leaf, sim::TimeNs now) {
  assert(dst_leaf >= 0 && dst_leaf < cfg_.num_leaves);
  const auto leaf = static_cast<std::size_t>(dst_leaf);
  Row& row = rows_[leaf];
  // Changed entries first (§3.3 step 4), else any ever-written one.
  const unsigned mask =
      cfg_.favor_changed && row.changed != 0 ? row.changed : row.written;
  if (mask == 0) return std::nullopt;
  // The first set bit at or after the cursor, wrapping to the lowest.
  const unsigned ahead = mask & (~0U << row.cursor);
  const int i = std::countr_zero(ahead != 0 ? ahead : mask);
  row.changed &= static_cast<std::uint16_t>(~(1U << i));
  // A cursor of num_uplinks masks every tag off, so the next pick wraps.
  row.cursor = static_cast<std::uint8_t>(i + 1);
  const MetricCell& c =
      cells_[leaf * static_cast<std::size_t>(cfg_.num_uplinks) +
             static_cast<std::size_t>(i)];
  return Feedback{static_cast<std::uint8_t>(i),
                  aged_value(c, now, cfg_.age_after)};
}

}  // namespace conga::core
