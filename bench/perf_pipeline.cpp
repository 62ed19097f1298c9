// Analysis-pipeline throughput, serial vs parallel, with an absolute
// wall-clock regression gate.
//
//   perf_pipeline [seed=42] [threads=4] [reps=3] [--baseline PATH] [--write-baseline]
//     Runs the canonical ICAres-1 mission once, then times the complete
//     analysis — AnalysisPipeline construction (rectify + attribute +
//     derive) plus artifacts() (every paper figure/table) — at threads=1
//     and threads=N, best of `reps`, printing records/sec and the thread
//     speedup.
//
//   perf_pipeline --large [records=1000000] [reps=3] [seed=42] [--baseline PATH]
//                 [--write-baseline]
//     Builds a synthetic dataset of ~`records` records (6 badges x 13
//     instrumented days x 3 streams at an even cadence inside 08:00-22:00
//     worn windows) and times pipeline construction only — the
//     attribute/derive hot path the RecordBatch layout targets — at
//     threads=1 and threads=4, best of `reps`.
//
// Exit status: 0 ok; 1 on usage errors or when the serial and parallel
// runs disagree — the mission mode compares the artifact sets (Fig. 3
// grids cell by cell) and the metrics/trace dumps byte for byte, --large
// compares tracks, speech intervals and Fig. 4 exactly; 2 when the serial
// time exceeds the baseline's (BENCH_pipeline.json) by more than kBound.
// The baseline holds one entry per configuration, keyed by the run's
// arguments and its host (CPU model and hardware thread count), and gates
// only a run whose key it holds: seconds measured on another machine say
// nothing about this one. --write-baseline records this run's entry and
// keeps the others. docs/PERFORMANCE.md explains how kBound was chosen.
//
// Note: thread speedup is bounded by the host's core count — on a
// single-core container threads=N times the same work and the ratio
// prints ~1.0x.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using hs::bench::seconds_since;
using hs::core::AnalysisPipeline;
using hs::core::PipelineOptions;

/// Serial time may exceed the baseline by at most this factor (exit 2
/// beyond it). Chosen from repeated runs on the baseline host —
/// docs/PERFORMANCE.md, "perf_pipeline's gate".
constexpr double kBound = 1.75;

struct Timed {
  double seconds = 0.0;
  AnalysisPipeline::Artifacts artifacts;
  /// Deterministic observability dumps (empty under HS_OBS_ENABLED=OFF,
  /// identically for every configuration, so the byte-compare still holds).
  std::string metrics_csv;
  std::string trace_csv;
};

Timed run_full(const hs::core::Dataset& data, unsigned threads) {
  hs::obs::Registry registry;
  hs::obs::Tracer tracer;
  const auto t0 = std::chrono::steady_clock::now();
  PipelineOptions opts;
  opts.threads = threads;
  opts.metrics = &registry;
  opts.tracer = &tracer;
  const AnalysisPipeline pipeline(data, opts);
  Timed out;
  out.artifacts = pipeline.artifacts();
  out.seconds = seconds_since(t0);
  out.metrics_csv = registry.snapshot().to_csv();
  out.trace_csv = tracer.to_csv();
  return out;
}

Timed best_full(const hs::core::Dataset& data, unsigned threads, int reps) {
  Timed best = run_full(data, threads);
  for (int r = 1; r < reps; ++r) {
    Timed t = run_full(data, threads);
    if (t.seconds < best.seconds) best = std::move(t);
  }
  return best;
}

bool series_equal(const AnalysisPipeline::DailySeries& a, const AnalysisPipeline::DailySeries& b) {
  return a.first_day == b.first_day && a.values == b.values;
}

/// Exact comparison of the figure/table set (determinism_test holds the
/// exhaustive suite and the golden digests; this is the bench's own
/// gate). Fig. 3 is compared cell by cell: the heatmap consumes the
/// triangulator output, so a drifting fix surfaces here first.
bool fig3_equal(const std::vector<hs::locate::HeatmapAccumulator>& a,
                const std::vector<hs::locate::HeatmapAccumulator>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].total_seconds() != b[i].total_seconds()) return false;
    if (a[i].grid_rows() != b[i].grid_rows()) return false;
  }
  return true;
}

bool artifacts_equal(const AnalysisPipeline::Artifacts& a, const AnalysisPipeline::Artifacts& b) {
  bool same = a.fig2.counts() == b.fig2.counts() && fig3_equal(a.fig3, b.fig3) &&
              a.dataset.total_records == b.dataset.total_records &&
              a.dataset.total_gib == b.dataset.total_gib &&
              a.dataset.worn_of_daytime == b.dataset.worn_of_daytime &&
              series_equal(a.fig4, b.fig4) && series_equal(a.fig6, b.fig6) &&
              a.dwell.typical_biolab_h == b.dwell.typical_biolab_h &&
              a.pairs.af_meetings_h == b.pairs.af_meetings_h &&
              a.survey.wellbeing_speech_corr == b.survey.wellbeing_speech_corr &&
              a.table1.size() == b.table1.size();
  for (std::size_t i = 0; same && i < a.table1.size(); ++i) {
    same = a.table1[i].company == b.table1[i].company &&
           a.table1[i].authority == b.table1[i].authority &&
           a.table1[i].talking == b.table1[i].talking &&
           a.table1[i].walking == b.table1[i].walking;
  }
  return same;
}

std::size_t dataset_records(const hs::core::Dataset& data) {
  std::size_t n = 0;
  for (const auto& log : data.logs) n += log.card.record_count();
  return n;
}

/// Synthetic dataset for the --large mode: the canonical crew/habitat
/// shape (6 badges, days 2..14, 27 beacons, per-day ownership) with
/// record counts scaled to `target_records` instead of the mission
/// simulator's rates. Identity clock fits (no sync samples), one worn
/// window 08:00-22:00 per badge-day, rng-jittered features.
hs::core::Dataset make_synthetic(std::size_t target_records, std::uint64_t seed) {
  using namespace hs;
  core::Dataset data;
  data.habitat = habitat::Habitat::lunares();
  data.beacons = beacon::deploy_lunares_beacons(data.habitat);
  data.script = crew::MissionScript{};
  const int first = data.script.badge_start_day;
  const int last = data.script.mission_days;
  const auto ndays = static_cast<std::size_t>(last - first + 1);
  const std::size_t per_stream =
      std::max<std::size_t>(1, target_records / (crew::kCrewSize * ndays * 3));
  Rng rng(seed);
  for (std::size_t b = 0; b < crew::kCrewSize; ++b) {
    core::BadgeLog log;
    log.id = static_cast<io::BadgeId>(b);
    for (int day = first; day <= last; ++day) {
      data.ownership.assign(log.id, day, b);
      data.naive_ownership.assign(log.id, day, b);
      const auto day_ms = static_cast<std::uint32_t>(day_start(day) / 1000);
      const std::uint32_t worn_on = day_ms + 8U * 3600U * 1000U;
      const std::uint32_t worn_off = day_ms + 22U * 3600U * 1000U;
      log.card.log(io::WearEvent{worn_on, log.id, io::WearState::kWorn});
      const double step_ms =
          static_cast<double>(worn_off - worn_on) / static_cast<double>(per_stream);
      for (std::size_t k = 0; k < per_stream; ++k) {
        const auto t =
            static_cast<io::LocalMs>(worn_on + static_cast<std::uint32_t>(
                                                   static_cast<double>(k) * step_ms));
        io::MotionFrame m;
        m.t = t;
        m.badge = log.id;
        m.accel_var = static_cast<float>(rng.uniform(0.0, 3.0));
        m.step_freq_hz =
            rng.bernoulli(0.3) ? static_cast<float>(rng.uniform(0.5, 3.5)) : 0.0F;
        log.card.log(m);
        io::AudioFrame a;
        a.t = t;
        a.badge = log.id;
        a.level_db = static_cast<float>(rng.uniform(35.0, 75.0));
        a.voiced_fraction = static_cast<float>(rng.uniform(0.0, 1.0));
        a.dominant_f0_hz =
            rng.bernoulli(0.5) ? static_cast<float>(rng.uniform(90.0, 260.0)) : 0.0F;
        log.card.log(a);
        io::BeaconObs o;
        o.t = t;
        o.badge = log.id;
        o.beacon = data.beacons[(b + k) % data.beacons.size()].id;
        o.rssi_dbm = static_cast<std::int8_t>(-40 - static_cast<int>(rng.uniform(0.0, 50.0)));
        log.card.log(o);
      }
      log.card.log(io::WearEvent{worn_off, log.id, io::WearState::kOff});
    }
    data.total_bytes += static_cast<std::int64_t>(log.card.record_count()) * 16;
    data.logs.push_back(std::move(log));
  }
  return data;
}

struct Assembled {
  double seconds = 0.0;
  std::vector<std::vector<hs::locate::RoomStay>> tracks;
  std::vector<std::vector<hs::dsp::SpeechInterval>> speech;
  AnalysisPipeline::DailySeries fig4;
};

/// Time pipeline construction only (the attribute/derive hot path), then
/// pull the derived outputs for the equality gate (untimed).
Assembled assemble_once(const hs::core::Dataset& data, unsigned threads) {
  const auto t0 = std::chrono::steady_clock::now();
  PipelineOptions opts;
  opts.threads = threads;
  const AnalysisPipeline pipeline(data, opts);
  Assembled out;
  out.seconds = seconds_since(t0);
  out.tracks = pipeline.tracks();
  for (std::size_t i = 0; i < hs::crew::kCrewSize; ++i) {
    out.speech.push_back(pipeline.speech_intervals(i));
  }
  out.fig4 = pipeline.fig4_walking();
  return out;
}

Assembled best_assembled(const hs::core::Dataset& data, unsigned threads, int reps) {
  Assembled best = assemble_once(data, threads);
  for (int r = 1; r < reps; ++r) {
    Assembled t = assemble_once(data, threads);
    if (t.seconds < best.seconds) best = std::move(t);
  }
  return best;
}

// --- baseline ---------------------------------------------------------------
//
// BENCH_pipeline.json maps one key per gated configuration — the run's
// arguments and the host (CPU model, hardware thread count) — to its
// serial seconds. --write-baseline machine-writes it one entry per line,
// so reading and updating it are line edits; no JSON library.

std::string baseline_key(const std::string& args) {
  std::string model = "unknown CPU";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
      model = line.substr(line.find_first_not_of(" \t", line.find(':') + 1));
      break;
    }
  }
  std::replace(model.begin(), model.end(), '"', '\'');
  return args + " | " + model + ", hardware_concurrency " +
         std::to_string(std::thread::hardware_concurrency());
}

/// Every `    "key": seconds` entry inside the baseline's serial_seconds
/// object.
std::map<std::string, double> read_baseline(const std::string& path) {
  std::map<std::string, double> entries;
  std::ifstream in(path);
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("  \"serial_seconds\": {", 0) == 0) inside = true;
    const std::size_t close = line.find("\": ");
    if (!inside || line.rfind("    \"", 0) != 0 || close == std::string::npos) continue;
    entries[line.substr(5, close - 5)] = std::strtod(line.c_str() + close + 3, nullptr);
  }
  return entries;
}

/// With `write`, record `serial_s` as this configuration's baseline.
/// Otherwise exit status 2 when it exceeds the recorded one by more than
/// kBound, 0 when within it or when this configuration has no entry.
int gate(const std::string& path, bool write, const std::string& args, double serial_s) {
  const std::string key = baseline_key(args);
  std::map<std::string, double> entries = read_baseline(path);
  char buf[64];
  if (write) {
    entries[key] = serial_s;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "perf_pipeline: cannot write %s\n", path.c_str());
      return 1;
    }
    std::snprintf(buf, sizeof buf, "%.2f", kBound);
    out << "{\n  \"bench\": \"perf_pipeline\",\n"
        << "  \"comment\": \"best-of-reps serial seconds per configuration (arguments | host); "
           "exit 2 above bound x baseline; regenerate with --write-baseline on the gating host\",\n"
        << "  \"compiler_version\": \"" << __VERSION__ << "\",\n"
        << "  \"simd_backend\": \"" << hs::util::simd::active_backend() << "\",\n"
        << "  \"bound\": " << buf << ",\n  \"serial_seconds\": {\n";
    std::size_t left = entries.size();
    for (const auto& [k, seconds] : entries) {
      std::snprintf(buf, sizeof buf, "%.4f", seconds);
      out << "    \"" << k << "\": " << buf << (--left > 0 ? ",\n" : "\n");
    }
    out << "  }\n}\n";
    std::printf("# wrote '%s' to %s\n", key.c_str(), path.c_str());
    return 0;
  }
  const auto it = entries.find(key);
  if (it == entries.end()) {
    std::printf("# no baseline for '%s' in %s; not gating this run\n", key.c_str(),
                path.c_str());
    return 0;
  }
  if (serial_s > it->second * kBound) {
    std::fprintf(stderr, "perf_pipeline: serial %.4fs regressed vs baseline %.4fs (bound x%.2f)\n",
                 serial_s, it->second, kBound);
    return 2;
  }
  std::printf("# serial %.4fs within x%.2f of baseline %.4fs\n", serial_s, kBound, it->second);
  return 0;
}

int run_large(std::size_t records, int reps, std::uint64_t seed, const std::string& baseline,
              bool write) {
  std::printf("# synthetic dataset: ~%zu records, seed %llu\n", records,
              static_cast<unsigned long long>(seed));
  const auto data = make_synthetic(records, seed);
  const std::size_t total = dataset_records(data);
  std::printf("built %zu records across %zu badges\n", total, data.logs.size());
  std::printf("timing pipeline construction (rectify+attribute+derive), best of %d\n\n", reps);

  constexpr unsigned kThreads = 4;
  const Assembled serial = best_assembled(data, 1, reps);
  const Assembled parallel = best_assembled(data, kThreads, reps);
  std::printf("  threads=1   %8.4f s  %12.0f records/s\n", serial.seconds,
              static_cast<double>(total) / serial.seconds);
  std::printf("  threads=%-3u %8.4f s  %12.0f records/s\n", kThreads, parallel.seconds,
              static_cast<double>(total) / parallel.seconds);
  const bool same = serial.tracks == parallel.tracks && serial.speech == parallel.speech &&
                    series_equal(serial.fig4, parallel.fig4);
  std::printf("\n  serial == parallel: %s\n", same ? "ok" : "MISMATCH");
  if (!same) return 1;

  return gate(baseline, write,
              "--large " + std::to_string(records) + " " + std::to_string(reps) + " " +
                  std::to_string(seed),
              serial.seconds);
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline = "BENCH_pipeline.json";
  bool write = false;
  bool large = false;
  std::vector<char*> positional = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write-baseline") == 0) {
      write = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--large") == 0 && i == 1) {
      large = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: perf_pipeline [seed] [threads] [reps] [--baseline PATH] "
                   "[--write-baseline]\n"
                   "       perf_pipeline --large [records] [reps] [seed] [--baseline PATH] "
                   "[--write-baseline]\n");
      return 1;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const auto nargs = static_cast<int>(positional.size());

  if (large) {
    const std::size_t records =
        nargs > 1 ? static_cast<std::size_t>(std::strtoull(positional[1], nullptr, 10)) : 1000000;
    const int reps = nargs > 2 ? std::max(1, std::atoi(positional[2])) : 3;
    const std::uint64_t seed = nargs > 3 ? std::strtoull(positional[3], nullptr, 10) : 42;
    return run_large(records, reps, seed, baseline, write);
  }

  const auto data = hs::bench::run_mission(nargs, positional.data());
  const std::uint64_t seed = hs::bench::seed_from_args(nargs, positional.data());
  const unsigned threads =
      nargs > 2 ? static_cast<unsigned>(std::strtoul(positional[2], nullptr, 10)) : 4;
  const int reps = nargs > 3 ? std::max(1, std::atoi(positional[3])) : 3;
  const unsigned resolved = hs::util::resolve_threads(threads);
  const std::size_t total = dataset_records(data);

  std::printf("host hardware_concurrency: %u\n", std::thread::hardware_concurrency());
  std::printf("timing full analysis (pipeline + all artifacts), best of %d\n\n", reps);

  const Timed serial = best_full(data, 1, reps);
  std::printf("  threads=1   %8.3f s  %12.0f records/s\n", serial.seconds,
              static_cast<double>(total) / serial.seconds);
  const Timed parallel = best_full(data, threads, reps);
  std::printf("  threads=%-3u %8.3f s  %12.0f records/s\n", resolved, parallel.seconds,
              static_cast<double>(total) / parallel.seconds);
  std::printf("\n  thread speedup: %.2fx\n", serial.seconds / parallel.seconds);

  const bool same = artifacts_equal(serial.artifacts, parallel.artifacts);
  std::printf("  serial == parallel artifacts: %s\n", same ? "ok" : "MISMATCH");
  // The pipeline.* metrics/trace dumps are part of the determinism
  // contract: byte-identical across thread counts.
  const bool dumps =
      serial.metrics_csv == parallel.metrics_csv && serial.trace_csv == parallel.trace_csv;
  std::printf("  metrics/trace dumps byte-identical: %s\n", dumps ? "ok" : "MISMATCH");
  if (!same || !dumps) return 1;

  return gate(baseline, write,
              std::to_string(seed) + " " + std::to_string(threads) + " " + std::to_string(reps),
              serial.seconds);
}
