// The benchmark's named workloads: which cells each runs, and why.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cells.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<CellSpec> cells;
  int jobs = 1;  ///< runtime::parallel_map workers for the cells
};

/// Builds workload `name` with every input drawn from `seed`. Returns false
/// for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, Workload& out);

}  // namespace perfbench
