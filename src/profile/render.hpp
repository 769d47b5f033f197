// ASCII rendering of square profiles — `cadapt render` uses it to
// regenerate Figure 1 of the paper as text.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "profile/box.hpp"

namespace cadapt::profile {

/// Render a square profile as an ASCII step plot. Time runs left to right
/// (width columns), memory bottom to top (height rows). When log_scale is
/// set, the vertical axis is log2(box size), which makes the recursive
/// structure of worst-case profiles visible across orders of magnitude.
std::string render_profile_ascii(std::span<const BoxSize> boxes,
                                 std::size_t width = 100,
                                 std::size_t height = 16,
                                 bool log_scale = true);

/// Human-readable description of the recursive construction of M_{a,b}(n):
/// one line per level plus the box census.
std::string describe_worst_case(std::uint64_t a, std::uint64_t b, BoxSize n);

}  // namespace cadapt::profile
