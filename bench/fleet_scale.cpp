// fleet_scale: the campaign-mode throughput and determinism harness.
//
//   fleet_scale [habitats=200] [days=1] [seed=42] [dump.csv]
//
// Runs one mixed campaign (crew sizes 6 and 5, three beacon densities,
// fault presets from calm to combined chaos) twice — threads=1 (the
// serial reference) and threads=hardware — timing each pass, and prints
// habitats/sec plus aggregate records/sec for both. The two campaign
// aggregate dumps must be byte-identical (the docs/CONCURRENCY.md
// contract lifted to fleet level); any divergence prints the first
// differing line and exits non-zero, so CI can run a small fleet as a
// determinism smoke (scripts/ci.sh runs 8 habitats). An optional fourth
// argument writes the (verified-identical) campaign dump to a file.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "fleet/fleet_runner.hpp"
#include "util/thread_pool.hpp"

using namespace hs;
using bench::report_diff;
using bench::seconds_since;

int main(int argc, char** argv) {
  const int habitats = argc > 1 ? std::atoi(argv[1]) : 200;
  const int days = argc > 2 ? std::atoi(argv[2]) : 1;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;
  const char* dump_path = argc > 4 ? argv[4] : nullptr;
  if (habitats < 1 || days < 1) {
    std::fprintf(stderr,
                 "usage: fleet_scale [habitats>=1] [days>=1] [seed] [dump.csv]\n");
    return 1;
  }

  fleet::CampaignSpec spec;
  spec.name = "fleet-scale";
  spec.habitats = habitats;
  spec.base_seed = seed;
  spec.days = {days};
  spec.crew = {6, 5, 6};
  spec.beacons = {27, 12, 20};
  spec.faults = {"none", "battery-stress", "mesh-partition", "none", "combined"};

  const unsigned hw = util::resolve_threads(0);
  std::printf("# fleet_scale: %d habitats x %d day(s), seed %llu, hw threads %u\n", habitats, days,
              static_cast<unsigned long long>(seed), hw);
  std::printf("%-12s %10s %14s %18s\n", "threads", "wall_s", "habitats/s", "agg_records/s");

  std::string dumps[2];
  for (int pass = 0; pass < 2; ++pass) {
    fleet::CampaignOptions options;
    options.threads = pass == 0 ? 1 : hw;
    const auto start = std::chrono::steady_clock::now();
    auto result = fleet::run_campaign(spec, options);
    const double wall = seconds_since(start);
    if (!result.has_value()) {
      std::fprintf(stderr, "fleet_scale: %s\n", result.error().message.c_str());
      return 1;
    }
    dumps[pass] = result->to_csv();
    std::printf("%-12u %10.2f %14.2f %18.0f\n", options.threads, wall,
                static_cast<double>(habitats) / wall,
                static_cast<double>(result->records_written) / wall);
    if (pass == 1) {
      std::printf("# fleet: %zu habitats, %llu alerts, %llu dark badges, ack p99 %.1fs\n",
                  result->habitats, static_cast<unsigned long long>(result->alerts_total),
                  static_cast<unsigned long long>(result->dark_badges), result->ack_latency.p99);
    }
  }

  if (dumps[0] != dumps[1]) {
    std::fprintf(stderr, "fleet_scale: campaign dump differs between threads=1 and threads=%u\n",
                 hw);
    report_diff(dumps[0], dumps[1]);
    return 1;
  }
  std::printf("# campaign dump byte-identical across thread counts (%zu bytes)\n",
              dumps[0].size());

  if (dump_path != nullptr) {
    std::FILE* out = std::fopen(dump_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "fleet_scale: cannot write %s\n", dump_path);
      return 1;
    }
    std::fwrite(dumps[0].data(), 1, dumps[0].size(), out);
    std::fclose(out);
  }
  return 0;
}
