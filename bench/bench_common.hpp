// Shared output helper for the experiment benches. Each bench binary
// regenerates one non-grid experiment from DESIGN.md §4 and prints the
// tables EXPERIMENTS.md records; the ratio-vs-n grids are manifests run
// by `cadapt sweep`.
#pragma once

#include <iostream>
#include <string>

#include "util/table.hpp"

namespace cadapt::bench {

inline void print_header(const std::string& id, const std::string& claim) {
  std::cout << "==============================================================\n"
            << id << "\n" << claim << "\n"
            << "==============================================================\n";
}

}  // namespace cadapt::bench
