// The benchmark's workloads, output checks and small timing helpers,
// shared by the untraced measurement (habbench.cpp) and the traced
// per-module harness (traced.cpp).
//
// Workloads (docs in perfbench/README.md):
//   habitat-mesh   one habitat, 6 crew, 27 beacons, mesh on (replication 3),
//                  no faults, full tracing, analysis on, 1 thread — the
//                  full simulate/offload/gossip/collect/analyse/fold path.
//   icares-replay  the canonical 14-day ICAres-1 mission, mesh off, cards
//                  pulled from the SD cards, then repeated analysis passes
//                  at 2 threads. Mesh changes must not move it.
//   fleet-mixed    a mixed fleet (faults, cascades, partitions, sparse
//                  beacons, trace sampling) at threads 2, analysis
//                  off. Analysis changes must not move it.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "fleet/fleet_runner.hpp"

namespace hb {

enum class Workload { kHabitatMesh, kIcaresReplay, kFleetMixed };

[[nodiscard]] std::optional<Workload> parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload w);

/// Mission days of one habitat-mesh campaign: long enough that one
/// campaign takes seconds, short enough that a 30 s run holds three.
inline constexpr int kMeshDays = 3;
/// fleet-mixed: six habitats cover every crew x beacon-layout pairing
/// once; two days each is the shortest mission that crosses a day
/// boundary (end-of-day support logic, cascade resource coupling).
inline constexpr int kFleetHabitats = 6;
inline constexpr int kFleetDays = 2;
/// Two workers, not every core: the more cores a run occupies, the more
/// its wall time depends on other tenants of a shared host.
inline constexpr unsigned kFleetThreads = 2;
inline constexpr unsigned kAnalysisThreads = 2;
/// icares-replay Fig. 5 / meetings day: the day C leaves the habitat.
inline constexpr int kFig5Day = 4;

/// The campaign a run_campaign workload runs (habitat-mesh, fleet-mixed).
[[nodiscard]] hs::fleet::CampaignSpec campaign_spec(Workload w, std::uint64_t seed);
[[nodiscard]] hs::fleet::CampaignOptions campaign_options(Workload w);
/// The canonical ICAres-1 mission config, as run_icares_mission sets it up.
[[nodiscard]] hs::core::MissionConfig icares_config(std::uint64_t seed);
[[nodiscard]] hs::core::PipelineOptions icares_pipeline_options(hs::obs::Registry* metrics);

using Clock = std::chrono::steady_clock;
[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] double median(std::vector<double> v);
/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

/// Output checks of one operation. A failed check fails that operation;
/// the messages go to stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const { return failures_.empty(); }

 private:
  std::vector<std::string> failures_;
};

/// Seed-independent checks of a campaign report: it covers every
/// habitat and habitat-day; on habitat-mesh (fault-free) at most one
/// chunk per badge, the final flush's, is unacked and analysis
/// attributed records.
void check_campaign(Workload w, const hs::fleet::CampaignSpec& spec,
                    const hs::fleet::FleetReport& report, Checks& checks);
/// Table I has six rows, C marked n/a and everyone else with social data.
void check_table1(const std::vector<hs::core::AnalysisPipeline::Table1Row>& rows,
                  Checks& checks);
/// Records on every collected card.
[[nodiscard]] std::uint64_t dataset_records(const hs::core::Dataset& dataset);
/// Per-badge record counts, `id:count` joined by spaces.
[[nodiscard]] std::string record_counts(const hs::core::Dataset& dataset);
/// Exact text rendering of every artifact (doubles as %.17g), so two
/// passes compare byte for byte.
[[nodiscard]] std::string render_artifacts(const hs::core::AnalysisPipeline::Artifacts& a);
[[nodiscard]] std::uint64_t counter(const hs::obs::MetricsSnapshot& snap, const char* name);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
/// The final result line: {"correct", "attempted", "failed", "metrics"}.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics);

/// The traced harness's exact checks on one habitat-mesh campaign, run
/// untimed: every card rebuilt from the mesh holds the badge's own card's
/// records, collection returns every record written, no chunk offloaded
/// before the final flush is left unacked, and the campaign dump equals
/// `expected_csv` (run_campaign's).
void check_mesh_collection(std::uint64_t seed, const std::string& expected_csv, Checks& checks);

/// The traced run: drives the modules itself with a span around each
/// call, checks it reproduces the untraced entry point byte for byte, and
/// prints every per-layer metric. Returns the process exit code.
int run_traced(Workload w, std::uint64_t seed);

}  // namespace hb
