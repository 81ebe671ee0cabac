// Seeded workload generators. Each workload is one or more scenario spec
// documents (the same JSON the `esched run` CLI loads). The seed moves
// size rates by up to about 2% and loads by 0.05%; it never changes the
// point count, the point order, the truncation levels, or therefore the
// chain sizes and the stationary-method routing. A held-out seed thus gives
// new inputs of the same cost shape.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpecFile {
  std::string file;  ///< file name inside the run directory
  std::string text;  ///< spec JSON, byte-identical for equal seeds
};

struct Workload {
  std::string name;
  std::vector<SpecFile> specs;
};

/// Builds the named workload (exact-family, exact-deep, qbd-grid or
/// sim-tails) from `seed`. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
