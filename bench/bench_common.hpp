// Shared helpers for the figure-reproduction harnesses.
//
// Every harness runs the canonical ICAres-1 mission (seed from argv[1],
// default 42), feeds the dataset through the AnalysisPipeline, and prints
// the same rows/series the paper's figure or table reports, with the
// paper's reference values alongside. The timing and dump-diff helpers
// serve the throughput/determinism harnesses.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/analysis.hpp"
#include "core/runner.hpp"

namespace hs::bench {

inline std::uint64_t seed_from_args(int argc, char** argv) {
  return argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;
}

inline core::Dataset run_mission(int argc, char** argv) {
  const auto seed = seed_from_args(argc, argv);
  std::printf("# ICAres-1 mission simulation, seed %llu (pass a seed as argv[1])\n",
              static_cast<unsigned long long>(seed));
  return core::run_icares_mission(seed);
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Print the first line where two dumps that must be byte-identical
/// (threads=1 vs threads=hw) differ.
inline void report_diff(const std::string& a, const std::string& b) {
  std::istringstream ia(a);
  std::istringstream ib(b);
  std::string la;
  std::string lb;
  std::size_t line = 1;
  while (std::getline(ia, la) && std::getline(ib, lb)) {
    if (la != lb) {
      std::fprintf(stderr, "first diff at line %zu:\n  threads=1:  %s\n  threads=hw: %s\n", line,
                   la.c_str(), lb.c_str());
      return;
    }
    ++line;
  }
  std::fprintf(stderr, "dumps diverge in length (%zu vs %zu bytes)\n", a.size(), b.size());
}

}  // namespace hs::bench
