// habbench: the HabSense end-to-end benchmark.
//
//   habbench --workload <habitat-mesh|icares-replay|fleet-mixed> --seed <n>
//            --seconds <s> --trace <0|1>        (--seconds is required)
//   habbench --self-test
//
// --trace 0 measures the workload through its public entry points
// (fleet::run_campaign, core::MissionRunner, core::AnalysisPipeline) for
// about --seconds seconds, checks every output, and prints the end-to-end
// metrics as the last line (one JSON object). --trace 1 runs the traced
// per-module harness instead (traced.cpp). Exit code 1 means an output
// check failed; 2 means bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

namespace hb {

using hs::core::AnalysisPipeline;
using hs::fleet::CampaignSpec;
using hs::fleet::FleetReport;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "habitat-mesh") return Workload::kHabitatMesh;
  if (name == "icares-replay") return Workload::kIcaresReplay;
  if (name == "fleet-mixed") return Workload::kFleetMixed;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kHabitatMesh: return "habitat-mesh";
    case Workload::kIcaresReplay: return "icares-replay";
    case Workload::kFleetMixed: return "fleet-mixed";
  }
  return "?";
}

CampaignSpec campaign_spec(Workload w, std::uint64_t seed) {
  CampaignSpec spec;
  spec.base_seed = seed;
  spec.mesh = true;
  spec.replication = 3;
  if (w == Workload::kHabitatMesh) {
    spec.name = "habitat-mesh";
    spec.habitats = 1;
    spec.days = {kMeshDays};
    return spec;
  }
  spec.name = "fleet-mixed";
  spec.habitats = kFleetHabitats;
  spec.days = {kFleetDays};
  spec.crew = {6, 5};
  spec.beacons = {27, 12, 20};
  spec.faults = {"none", "battery-stress", "mesh-partition", "combined"};
  spec.cascade = {"none", "power-storm"};
  spec.trace_sample = {100, 50};
  return spec;
}

hs::fleet::CampaignOptions campaign_options(Workload w) {
  hs::fleet::CampaignOptions options;
  options.threads = w == Workload::kFleetMixed ? kFleetThreads : 1;
  options.analyze = w == Workload::kHabitatMesh;
  return options;
}

hs::core::MissionConfig icares_config(std::uint64_t seed) {
  hs::core::MissionConfig config;
  config.seed = seed;
  return config;
}

hs::core::PipelineOptions icares_pipeline_options(hs::obs::Registry* metrics) {
  hs::core::PipelineOptions options;
  options.threads = kAnalysisThreads;
  options.metrics = metrics;
  return options;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

namespace {

/// User plus system CPU time of this process so far.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Keeps the probe's result live, so the compiler cannot drop its loops.
volatile std::uint64_t g_probe_sink = 0;

/// Host speed, from benchmark-owned code that no change to src/ can move:
/// dependent loads through 64 MiB (past the last-level cache) and an
/// integer multiply-add chain. The host this benchmark runs on slows every
/// workload by up to 40% for minutes at a time, and a run of under a
/// minute cannot average that out. The probe slows with it
/// (perfbench/STEADINESS.md).
double probe_host_s() {
  constexpr std::uint32_t kSlots = std::uint32_t{1} << 24;  // 4 B each: 64 MiB
  constexpr std::uint32_t kMul = 0x9E3779B1u;  // = 1 mod 4: with an odd increment,
                                               // one cycle through every slot
  constexpr int kLoads = 1'500'000;
  constexpr int kSteps = 100'000'000;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = (i * kMul + 1) & (kSlots - 1);
  const Clock::time_point t0 = Clock::now();
  std::uint32_t slot = 0;
  for (int i = 0; i < kLoads; ++i) slot = next[slot];
  std::uint64_t x = slot;
  for (int i = 0; i < kSteps; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  const double s = seconds_between(t0, Clock::now());
  g_probe_sink = x;
  return s;
}

}  // namespace

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
  failures_.push_back(what);
}

std::uint64_t counter(const hs::obs::MetricsSnapshot& snap, const char* name) {
  const hs::obs::SnapshotEntry* e = snap.find(name);
  return e == nullptr ? 0 : e->count;
}

void check_campaign(Workload w, const CampaignSpec& spec, const FleetReport& report,
                    Checks& checks) {
  std::uint64_t days = 0;
  for (const auto& h : spec.expand()) days += static_cast<std::uint64_t>(h.days);
  checks.expect(report.habitats == static_cast<std::size_t>(spec.habitats),
                "report covers " + std::to_string(report.habitats) + " of " +
                    std::to_string(spec.habitats) + " habitats");
  checks.expect(report.habitat_days == days, "report covers " +
                                                 std::to_string(report.habitat_days) + " of " +
                                                 std::to_string(days) + " habitat-days");
  checks.expect(report.records_written > 0, "no badge records written");
  checks.expect(report.chunks_offloaded > 0, "no chunks offloaded to the mesh");
  checks.expect(report.chunks_acked <= report.chunks_offloaded, "more acks than offloads");
  if (w == Workload::kHabitatMesh) {
    // Fault-free, every chunk is acked except those of the final flush,
    // at most one per badge (backups included: a docked spare offloads
    // its wear events too). The mission ends before a gossip round can
    // replicate them. check_mesh_collection checks the flush instant
    // exactly, once per run.
    const hs::core::MissionConfig config;
    const std::uint64_t badges = 6 + 1 + static_cast<std::uint64_t>(config.backup_badges);
    checks.expect(report.chunks_offloaded - report.chunks_acked <= badges,
                  "fault-free mesh acked " + std::to_string(report.chunks_acked) + " of " +
                      std::to_string(report.chunks_offloaded) + " chunks");
    checks.expect(report.records_analyzed > 0 && report.records_analyzed <= report.records_written,
                  "analysis attributed " + std::to_string(report.records_analyzed) + " of " +
                      std::to_string(report.records_written) + " records");
    checks.expect(report.ack_latency.count == report.chunks_acked,
                  "ack-latency samples differ from acked chunks");
  } else {
    checks.expect(report.records_analyzed == 0, "analysis ran with analyze off");
  }
}

void check_table1(const std::vector<AnalysisPipeline::Table1Row>& rows, Checks& checks) {
  checks.expect(rows.size() == 6, "Table I has " + std::to_string(rows.size()) + " rows, not 6");
  for (const auto& row : rows) {
    checks.expect(row.has_social == (row.id != 'C'),
                  std::string("Table I row ") + row.id +
                      (row.id == 'C' ? " is not marked n/a" : " is marked n/a"));
  }
}

std::uint64_t dataset_records(const hs::core::Dataset& dataset) {
  std::uint64_t n = 0;
  for (const auto& log : dataset.logs) n += log.card.record_count();
  return n;
}

std::string record_counts(const hs::core::Dataset& dataset) {
  std::string out;
  for (const auto& log : dataset.logs) {
    if (!out.empty()) out += ' ';
    out += std::to_string(log.id) + ':' + std::to_string(log.card.record_count());
  }
  return out;
}

namespace {

void append(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g,", v);
  out += buf;
}

void append_series(std::string& out, const AnalysisPipeline::DailySeries& s) {
  out += "\nseries " + std::to_string(s.first_day) + ':';
  for (const auto& day : s.values) {
    for (const double v : day) append(out, v);
  }
}

}  // namespace

std::string render_artifacts(const AnalysisPipeline::Artifacts& a) {
  std::string out = "fig2:";
  for (const auto& row : a.fig2.counts()) {
    for (const int c : row) out += std::to_string(c) + ',';
  }
  for (const auto& heat : a.fig3) {
    out += "\nfig3:";
    for (const auto& row : heat.grid_rows()) {
      for (const double v : row) append(out, v);
    }
  }
  append_series(out, a.fig4);
  append_series(out, a.fig6);
  for (const auto& r : a.table1) {
    out += "\ntable1 ";
    out += r.id;
    out += r.has_social ? " social " : " n/a ";
    for (const double v : {r.company, r.authority, r.talking, r.walking}) append(out, v);
  }
  out += "\ndataset ";
  for (const double v : {a.dataset.total_gib, a.dataset.worn_of_daytime,
                         a.dataset.active_of_daytime,
                         static_cast<double>(a.dataset.total_records)}) {
    append(out, v);
  }
  for (const double v : a.dataset.worn_by_day) append(out, v);
  out += "\ndwell ";
  for (const double v : {a.dwell.typical_biolab_h, a.dwell.typical_office_h,
                         a.dwell.typical_workshop_h, a.pairs.af_private_h, a.pairs.de_private_h,
                         a.pairs.af_meetings_h, a.pairs.de_meetings_h,
                         a.survey.wellbeing_speech_corr, a.survey.comfort_slope_per_day,
                         static_cast<double>(a.survey.responses)}) {
    append(out, v);
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

namespace {

/// A set-up step takes microseconds, so whatever else the host runs at
/// that moment decides most samples. It is repeated in bursts spread over
/// the run (before the first repetition and after each one); a burst's
/// minimum is its estimate, and setup_s is the median burst minimum.
constexpr double kSetupBurstS = 0.1;
constexpr std::size_t kSetupBurstReps = 2000;
/// icares-replay runs this many analysis passes on each mission's dataset.
constexpr int kPassesPerMission = 5;
/// probe_host_s on the 4-vCPU host of perfbench/STEADINESS.md when it is
/// not in a slow phase. habitat_days_per_s is reported at this probe time.
constexpr double kReferenceProbeS = 0.4;

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Checks& checks) {
    ++attempted;
    if (!checks.ok()) ++failed;
  }
};

class SetupSampler {
 public:
  template <class F>
  void burst(F&& step) {
    const Clock::time_point start = Clock::now();
    double fastest = 0.0;
    for (std::size_t i = 0;
         i < kSetupBurstReps && (i == 0 || seconds_between(start, Clock::now()) < kSetupBurstS);
         ++i) {
      const Clock::time_point t0 = Clock::now();
      step();
      const double s = seconds_between(t0, Clock::now());
      fastest = i == 0 ? s : std::min(fastest, s);
    }
    minima_.push_back(fastest);
  }
  [[nodiscard]] double median() const { return hb::median(minima_); }
  [[nodiscard]] std::size_t bursts() const { return minima_.size(); }

 private:
  std::vector<double> minima_;
};

/// Host-speed probes taken between repetitions (probe_host_s).
class HostSpeed {
 public:
  void probe() { probes_.push_back(probe_host_s()); }
  /// A measured rate as it would read on a host whose probe time is
  /// kReferenceProbeS: scaled by the run's median probe time.
  [[nodiscard]] double at_reference(double rate) const {
    return rate * median() / kReferenceProbeS;
  }
  [[nodiscard]] double median() const { return hb::median(probes_); }
  [[nodiscard]] std::size_t size() const { return probes_.size(); }

 private:
  std::vector<double> probes_;
};

void print_rate(double measured, const HostSpeed& host, const char* over) {
  std::printf("habitat_days_per_s %.4f habitat-d/s at the reference host speed (measured %.4f, "
              "%s; host probe median %.3f s of %zu against %.1f s)\n",
              host.at_reference(measured), measured, over, host.median(), host.size(),
              kReferenceProbeS);
}

/// Everything a run_campaign workload does before its first simulated
/// second: build, serialize, parse and expand the campaign spec, then
/// resolve each habitat's MissionConfig and construct its MissionRunner.
void campaign_setup(Workload w, std::uint64_t seed, Checks* checks) {
  const CampaignSpec spec = campaign_spec(w, seed);
  const auto parsed = CampaignSpec::parse(spec.to_string());
  const std::vector<hs::fleet::HabitatSpec> habitats =
      parsed.has_value() ? parsed->expand() : std::vector<hs::fleet::HabitatSpec>{};
  for (const auto& habitat : habitats) {
    const hs::core::MissionRunner runner(hs::fleet::make_mission_config(habitat));
  }
  if (checks != nullptr) {
    checks->expect(parsed.has_value() && *parsed == spec, "campaign spec does not round-trip");
    checks->expect(habitats.size() == static_cast<std::size_t>(spec.habitats),
                   "campaign spec expands to the wrong habitat count");
  }
}

/// Keep iterating while the next iteration (at the median pace so far)
/// plus `reserve` seconds of work after the loop still end within the
/// budget; always at least one iteration.
bool another(const std::vector<double>& times, double elapsed, double budget, double reserve) {
  if (times.empty()) return true;
  return elapsed + median(times) + reserve <= budget;
}

int run_campaign_workload(Workload w, std::uint64_t seed, double budget) {
  Tally tally;
  {
    Checks checks;
    campaign_setup(w, seed, &checks);
    tally.add(checks);
  }
  SetupSampler setup;
  HostSpeed host;
  const auto between = [&] {
    setup.burst([&] { campaign_setup(w, seed, nullptr); });
    host.probe();
  };
  between();
  const CampaignSpec spec = campaign_spec(w, seed);
  const auto options = campaign_options(w);
  std::printf("# %s seed %" PRIu64 ": %d habitat(s), %d habitat-days, threads %u, analyze %s\n",
              workload_name(w), seed, spec.habitats,
              spec.habitats * spec.days.front(), options.threads,
              options.analyze ? "on" : "off");

  // habitat-mesh ends with one more, untimed campaign through the traced
  // harness, which sees the mesh's per-chunk and per-card state; budget
  // one campaign's time for it.
  const bool mesh_check = w == Workload::kHabitatMesh;
  std::vector<double> walls;
  std::vector<double> rates;
  std::string first_csv;
  double ack_p99_s = 0.0;
  double records_analyzed = 0.0;
  double rss = 0.0;
  const Clock::time_point start = Clock::now();
  const double cpu_start = cpu_seconds();
  while (another(walls, seconds_between(start, Clock::now()), budget,
                 mesh_check ? median(walls) : 0.0)) {
    const Clock::time_point t0 = Clock::now();
    auto report = hs::fleet::run_campaign(spec, options);
    const double wall = seconds_between(t0, Clock::now());
    Checks checks;
    checks.expect(report.has_value(), "run_campaign refused the spec");
    if (report.has_value()) {
      check_campaign(w, spec, *report, checks);
      const std::string csv = report->to_csv();
      if (first_csv.empty()) first_csv = csv;
      checks.expect(csv == first_csv, "campaign dump differs between iterations");
      ack_p99_s = report->ack_latency.p99;
      records_analyzed = static_cast<double>(report->records_analyzed);
      rates.push_back(static_cast<double>(report->habitat_days) / wall);
    }
    walls.push_back(wall);
    if (walls.size() == 1) rss = peak_rss_mib();
    tally.add(checks);
    between();
    std::printf("# iteration %zu: %.3f s\n", walls.size(), wall);
  }
  std::printf("# process cpu / wall over the iterations: %.3f (threads %u)\n",
              (cpu_seconds() - cpu_start) / seconds_between(start, Clock::now()),
              options.threads);
  if (mesh_check) {
    Checks checks;
    check_mesh_collection(seed, first_csv, checks);
    tally.add(checks);
  }

  const double rate = median(rates);
  const double setup_s = setup.median();
  const std::string over = "median of " + std::to_string(rates.size()) + " campaigns";
  print_rate(rate, host, over.c_str());
  std::printf("setup_s %.3g s (median of %zu burst minima)\n", setup_s, setup.bursts());
  std::printf("peak_rss_mb %.1f MiB (through the first iteration)\n", rss);
  std::printf("ack_p99_s %.3f s simulated\n", ack_p99_s);
  if (w == Workload::kHabitatMesh) {
    std::printf("# records analysed per iteration: %.0f (analysis runs inside run_campaign; "
                "analysis_records_per_s is measured on icares-replay)\n",
                records_analyzed);
  } else {
    std::printf("analysis_records_per_s n/a (analysis off)\n");
  }
  print_result(tally.failed == 0, tally.attempted, tally.failed,
               {{"habitat_days_per_s", host.at_reference(rate), "habitat-d/s"},
                {"setup_s", setup_s, "s"},
                {"peak_rss_mb", rss, "MiB"}});
  return tally.failed == 0 ? 0 : 1;
}

int run_icares_workload(std::uint64_t seed, double budget) {
  Tally tally;
  const hs::core::MissionConfig config = icares_config(seed);
  SetupSampler setup;
  HostSpeed host;
  const auto runner_setup = [&] { const hs::core::MissionRunner runner(config); };
  setup.burst(runner_setup);
  host.probe();
  std::printf("# icares-replay seed %" PRIu64 ": %d-day mission, mesh off, %d analysis passes "
              "per mission at %u threads\n",
              seed, config.script.mission_days, kPassesPerMission, kAnalysisThreads);

  // Rounds of one whole mission and kPassesPerMission analysis passes on
  // its dataset, while another round still fits the budget. A round's
  // dataset is released before the host probe and the next mission.
  std::vector<double> missions;
  std::vector<double> passes;
  std::string first_counts;
  std::string first_render;
  std::uint64_t records = 0;
  double rss = 0.0;
  const Clock::time_point start = Clock::now();
  while (another(missions, seconds_between(start, Clock::now()), budget,
                 kPassesPerMission * median(passes))) {
    {
      const Clock::time_point m0 = Clock::now();
      const double cpu_m0 = cpu_seconds();
      const hs::core::Dataset dataset = hs::core::MissionRunner(config).run();
      const double mission_s = seconds_between(m0, Clock::now());
      missions.push_back(mission_s);
      records = dataset_records(dataset);
      {
        Checks checks;
        checks.expect(records > 0, "the mission collected no records");
        const std::string counts = record_counts(dataset);
        if (first_counts.empty()) first_counts = counts;
        checks.expect(counts == first_counts, "per-badge record counts differ between missions");
        tally.add(checks);
      }
      std::printf("# mission %zu: %.3f s, process cpu / wall %.3f, %" PRIu64
                  " records collected\n",
                  missions.size(), mission_s, (cpu_seconds() - cpu_m0) / mission_s, records);
      setup.burst(runner_setup);

      for (int i = 0; i < kPassesPerMission; ++i) {
        hs::obs::Registry metrics;
        const Clock::time_point t0 = Clock::now();
        const AnalysisPipeline pipeline(dataset, icares_pipeline_options(&metrics));
        const AnalysisPipeline::Artifacts artifacts = pipeline.artifacts();
        passes.push_back(seconds_between(t0, Clock::now()));
        if (passes.size() == 1) rss = peak_rss_mib();
        Checks checks;
        const std::string render = render_artifacts(artifacts);
        if (first_render.empty()) first_render = render;
        checks.expect(render == first_render, "analysis pass artifacts differ from the first pass");
        check_table1(artifacts.table1, checks);
        const std::uint64_t attributed = counter(metrics.snapshot(), "pipeline.records_attributed");
        checks.expect(attributed > 0 && attributed <= records,
                      "pipeline attributed " + std::to_string(attributed) + " of " +
                          std::to_string(records) + " records");
        tally.add(checks);
      }
    }
    setup.burst(runner_setup);
    host.probe();
  }

  const double setup_s = setup.median();
  const double mission_s = median(missions);
  const double pass_s = median(passes);
  const double rate = config.script.mission_days / (mission_s + pass_s);
  std::printf("# analysis: %zu passes, median %.3f s\n", passes.size(), pass_s);
  const std::string over = "median mission of " + std::to_string(missions.size()) +
                           " + median pass";
  print_rate(rate, host, over.c_str());
  std::printf("setup_s %.3g s (median of %zu burst minima of MissionRunner construction)\n",
              setup_s, setup.bursts());
  std::printf("peak_rss_mb %.1f MiB (through the first mission and pass)\n", rss);
  std::printf("analysis_records_per_s %.0f records/s (median of %zu passes)\n",
              static_cast<double>(records) / pass_s, passes.size());
  std::printf("ack_p99_s n/a (mesh off)\n");
  print_result(tally.failed == 0, tally.attempted, tally.failed,
               {{"habitat_days_per_s", host.at_reference(rate), "habitat-d/s"},
                {"setup_s", setup_s, "s"},
                {"peak_rss_mb", rss, "MiB"}});
  return tally.failed == 0 ? 0 : 1;
}

/// Checks the checks: corrupted outputs must fail them, and fleet-mixed
/// must give byte-identical dumps at 1 and 2 threads.
int self_test() {
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };
  const CampaignSpec spec = campaign_spec(Workload::kFleetMixed, 42);
  auto serial_options = campaign_options(Workload::kFleetMixed);
  serial_options.threads = 1;
  const auto serial = hs::fleet::run_campaign(spec, serial_options);
  const auto parallel = hs::fleet::run_campaign(spec, campaign_options(Workload::kFleetMixed));
  expect(serial.has_value() && parallel.has_value() && serial->to_csv() == parallel->to_csv(),
         "fleet-mixed dump is byte-identical at 1 and 2 threads");
  if (serial.has_value()) {
    Checks good;
    check_campaign(Workload::kFleetMixed, spec, *serial, good);
    expect(good.ok(), "fleet-mixed report passes its checks");
    FleetReport short_report = *serial;
    short_report.habitats -= 1;
    Checks bad;
    check_campaign(Workload::kFleetMixed, spec, short_report, bad);
    expect(!bad.ok(), "a report missing a habitat fails the checks");
  }
  const CampaignSpec mesh_spec = campaign_spec(Workload::kHabitatMesh, 42);
  const auto mesh = hs::fleet::run_campaign(mesh_spec, campaign_options(Workload::kHabitatMesh));
  expect(mesh.has_value(), "habitat-mesh runs");
  if (mesh.has_value()) {
    Checks good;
    check_campaign(Workload::kHabitatMesh, mesh_spec, *mesh, good);
    expect(good.ok(), "habitat-mesh report passes its checks");
    Checks exact;
    check_mesh_collection(42, mesh->to_csv(), exact);
    expect(exact.ok(), "habitat-mesh passes the exact mesh checks");
    FleetReport unacked = *mesh;
    unacked.chunks_acked = unacked.chunks_offloaded / 2;
    Checks unacked_bad;
    check_campaign(Workload::kHabitatMesh, mesh_spec, unacked, unacked_bad);
    expect(!unacked_bad.ok(), "chunks left unacked before the final flush fail the checks");
    FleetReport unanalysed = *mesh;
    unanalysed.records_analyzed = 0;
    Checks unanalysed_bad;
    check_campaign(Workload::kHabitatMesh, mesh_spec, unanalysed, unanalysed_bad);
    expect(!unanalysed_bad.ok(), "a habitat-mesh report without analysis fails the checks");
  }
  std::vector<AnalysisPipeline::Table1Row> rows(6);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].id = static_cast<char>('A' + i);
    rows[i].has_social = rows[i].id != 'C';
  }
  Checks table_good;
  check_table1(rows, table_good);
  expect(table_good.ok(), "a well-formed Table I passes");
  rows[2].has_social = true;
  Checks table_bad;
  check_table1(rows, table_bad);
  expect(!table_bad.ok(), "Table I with C not n/a fails");
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: habbench --workload <habitat-mesh|icares-replay|fleet-mixed> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       habbench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace hb

int main(int argc, char** argv) {
  using namespace hb;
  std::optional<Workload> workload;
  std::uint64_t seed = 42;
  double seconds = 0.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload = parse_workload(value);
      if (!workload) return usage();
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      trace = value == "1";
    } else {
      return usage();
    }
  }
  if (!workload || !(seconds > 0.0)) return usage();
  std::printf("# build: %s %s, HS_OBS_ENABLED=%d\n", HB_COMPILER, HB_BUILD_TYPE, HS_OBS_ENABLED);
  if (trace) return run_traced(*workload, seed);
  if (*workload == Workload::kIcaresReplay) return run_icares_workload(seed, seconds);
  return run_campaign_workload(*workload, seed, seconds);
}
