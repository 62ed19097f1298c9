// cascade_storm: the cascade scenario engine's throughput and
// determinism harness.
//
//   cascade_storm [habitats=16] [days=8] [seed=42]
//
// It runs a storm campaign — every habitat under a cascade scenario
// (round-robin power-storm / generated, mixed fault presets riding
// along) — twice: threads=1 (the serial reference) and threads=hardware,
// timing each pass and printing habitats/sec plus fleet alerts/sec. The
// two campaign aggregate dumps must be byte-identical (the
// docs/CONCURRENCY.md contract: cascade expansion is a pure function of
// (seed, graph, plan), so thread count may change wall-clock only); any
// divergence prints the first differing line and exits non-zero, which
// is what lets scripts/ci.sh run a small storm as a determinism smoke.
// The record -> raise latency of a storm habitat is measured and gated by
// bench/latency_paths (its "cascade-storm" scenario).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "fleet/fleet_runner.hpp"
#include "support/alert.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hs;
using bench::report_diff;
using bench::seconds_since;

double gauge_value(const obs::MetricsSnapshot& snap, const char* name) {
  const obs::SnapshotEntry* e = snap.find(name);
  return e == nullptr ? 0.0 : e->value;
}

}  // namespace

int main(int argc, char** argv) {
  const int habitats = argc > 1 ? std::atoi(argv[1]) : 16;
  const int days = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;
  if (habitats < 1 || days < 1) {
    std::fprintf(stderr, "usage: cascade_storm [habitats>=1] [days>=1] [seed]\n");
    return 1;
  }

  fleet::CampaignSpec spec;
  spec.name = "cascade-storm";
  spec.habitats = habitats;
  spec.base_seed = seed;
  spec.days = {days};
  spec.faults = {"none", "battery-stress"};
  spec.cascade = {"power-storm", "generated"};

  const unsigned hw = util::resolve_threads(0);
  std::printf("# cascade_storm: %d habitats x %d day(s), seed %llu, hw threads %u\n", habitats,
              days, static_cast<unsigned long long>(seed), hw);
  std::printf("%-12s %10s %14s %14s\n", "threads", "wall_s", "habitats/s", "alerts/s");

  std::string dumps[2];
  for (int pass = 0; pass < 2; ++pass) {
    fleet::CampaignOptions options;
    options.threads = pass == 0 ? 1 : hw;
    const auto start = std::chrono::steady_clock::now();
    auto result = fleet::run_campaign(spec, options);
    const double wall = seconds_since(start);
    if (!result.has_value()) {
      std::fprintf(stderr, "cascade_storm: %s\n", result.error().message.c_str());
      return 1;
    }
    dumps[pass] = result->to_csv();
    std::printf("%-12u %10.2f %14.2f %14.1f\n", options.threads, wall,
                static_cast<double>(habitats) / wall,
                static_cast<double>(result->alerts_total) / wall);
    if (pass == 1) {
      std::printf("# fleet: %llu alerts (%llu shortage), cascade activations %.0f, "
                  "dependents %.0f, repairs %.0f\n",
                  static_cast<unsigned long long>(result->alerts_total),
                  static_cast<unsigned long long>(
                      result->alert_counts[static_cast<std::size_t>(
                          support::AlertKind::kResourceShortage)]),
                  gauge_value(result->metrics, "scenario.cascade_activations"),
                  gauge_value(result->metrics, "scenario.cascade_dependents"),
                  gauge_value(result->metrics, "scenario.cascade_repairs"));
    }
  }

  if (dumps[0] != dumps[1]) {
    std::fprintf(stderr,
                 "cascade_storm: campaign dump differs between threads=1 and threads=%u\n", hw);
    report_diff(dumps[0], dumps[1]);
    return 1;
  }
  std::printf("# campaign dump byte-identical across thread counts (%zu bytes)\n",
              dumps[0].size());
  return 0;
}
