// Private to src/campaign: the pipeline phases run_campaign (campaign.cpp)
// and run_campaign_supervised (supervisor.cpp) share. The two runners
// differ only in how phase 2 computes the misses (worker threads vs
// supervised child processes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/store.hpp"
#include "telemetry/telemetry.hpp"

namespace conga::campaign::detail {

/// Validates the axes, defaults an empty case list to the baseline testbed,
/// and expands `spec` into a fresh, sized `run` (every cell kComputed so
/// far).
bool start_run(const CampaignSpec& spec, CampaignRun& run, std::string& err);

/// Phase 1: store lookups on the calling thread. Hits are loaded and marked
/// kCached, corrupt entries kRecomputed. Returns the cells left to compute,
/// in canonical order.
std::vector<std::size_t> look_up_cells(CampaignRun& run, ResultStore* store,
                                       bool verbose);

/// Phase 3: one kCampaignCellHit/kCampaignCellMiss per resolved cell, and a
/// kCampaignStoreWrite for each cell whose `stored` flag is set. Main thread
/// only (the sink is thread-confined); a null sink emits nothing.
void emit_cache_events(const CampaignRun& run,
                       const std::vector<std::uint8_t>& stored,
                       telemetry::TraceSink* sink);

}  // namespace conga::campaign::detail
