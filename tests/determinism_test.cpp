// Serial ≡ parallel ≡ history: the pipeline's contract is that
// PipelineOptions::threads changes wall-clock time only. This suite runs
// the full 14-day mission on two seeds and demands bit-identical output —
// every figure, table, statistic, and intermediate product — between
// threads=1 and threads=4, and checks both against the golden artifact
// digests in tests/golden (tests/analysis_digest.hpp), so a change that
// moves any artifact is caught even when it moves serial and parallel
// alike.
//
// Exact floating-point equality is intentional: every shard writes only
// its own slot and every cross-shard fold happens serially in a fixed
// order (see docs/CONCURRENCY.md), and the SIMD kernels are exact
// against the scalar promotion rules (see docs/PERFORMANCE.md), so there
// is no legitimate source of divergence. A tolerance here would only
// hide a broken shard boundary or an inexact SIMD kernel.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <utility>

#include "analysis_digest.hpp"
#include "core/analysis.hpp"
#include "core/runner.hpp"
#include "scenario/scenario.hpp"
#include "support/system.hpp"

namespace hs::core {
namespace {

unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw : 4;  // a 1-core box must still exercise the pool
}

/// Everything a mission dumps as deterministic text: the metrics
/// snapshot, the flight recorder's event log, and the causal trace.
struct MissionDumps {
  std::string metrics_csv;
  std::string flight_log_csv;
  std::string trace_csv;
};

/// Run the full mission and the analysis (which folds its pipeline.*
/// metrics and trace spans into the same registry/tracer), then dump
/// every deterministic text export. The obs contract: each string is a
/// pure function of (seed, plan) — independent of `threads` entirely.
MissionDumps mission_dumps(std::uint64_t seed, faults::FaultPlan plan, unsigned threads) {
  MissionConfig config;
  config.seed = seed;
  config.fault_plan = std::move(plan);
  MissionRunner runner(config);
  // A live support system sharing the runner's registry and tracer, so
  // the dumps also cover the support.* counters and alert traces.
  support::SupportSystem support;
  support.set_metrics(&runner.metrics(), &runner.flight_recorder(), &runner.tracer());
  runner.add_observer([&support](const MissionView& view) {
    for (io::BadgeId id = 0; id < 6; ++id) {
      const badge::Badge* b = view.network->badge(id);
      support.ingest_badge(support::BadgeHealth{view.now, id, b->battery().fraction(),
                                                b->active(), b->docked(), b->worn()});
    }
  });
  const Dataset data = runner.run();
  PipelineOptions opts;
  opts.threads = threads;
  opts.metrics = &runner.metrics();
  opts.tracer = &runner.tracer();
  const AnalysisPipeline pipeline(data, opts);
  (void)pipeline.artifacts();  // artifacts() shards too; it must not register drift
  MissionReport report = runner.report();
  return MissionDumps{std::move(report.metrics_csv), std::move(report.flight_log_csv),
                      std::move(report.trace_csv)};
}

void expect_same_series(const AnalysisPipeline::DailySeries& a,
                        const AnalysisPipeline::DailySeries& b) {
  EXPECT_EQ(a.first_day, b.first_day);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (std::size_t d = 0; d < a.values.size(); ++d) {
    for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
      EXPECT_EQ(a.values[d][i], b.values[d][i]) << "day row " << d << " astronaut " << i;
    }
  }
}

/// Demand bit-identical output from two pipelines over the same dataset.
/// `serial` is the reference configuration, `parallel` the one under test.
void expect_pipelines_identical(const Dataset& data, const AnalysisPipeline& serial,
                                const AnalysisPipeline& parallel) {
  // Intermediate products: clock fits, tracks, speech intervals.
  for (const auto& log : data.logs) {
    const auto* fs = serial.clock_fit(log.id);
    const auto* fp = parallel.clock_fit(log.id);
    ASSERT_EQ(fs == nullptr, fp == nullptr);
    if (fs == nullptr) continue;
    EXPECT_EQ(fs->offset_ms, fp->offset_ms) << "badge " << log.id;
    EXPECT_EQ(fs->rate, fp->rate) << "badge " << log.id;
    EXPECT_EQ(fs->samples, fp->samples) << "badge " << log.id;
  }
  for (std::size_t i = 0; i < crew::kCrewSize; ++i) {
    EXPECT_EQ(serial.track(i), parallel.track(i)) << "astronaut " << i;
    const auto& ss = serial.speech_intervals(i);
    const auto& sp = parallel.speech_intervals(i);
    ASSERT_EQ(ss.size(), sp.size()) << "astronaut " << i;
    for (std::size_t k = 0; k < ss.size(); ++k) {
      EXPECT_EQ(ss[k].start_s, sp[k].start_s);
      EXPECT_EQ(ss[k].speech, sp[k].speech);
      EXPECT_EQ(ss[k].mean_voiced_db, sp[k].mean_voiced_db);
      EXPECT_EQ(ss[k].dominant_f0_hz, sp[k].dominant_f0_hz);
      EXPECT_EQ(ss[k].voiced_frames, sp[k].voiced_frames);
      EXPECT_EQ(ss[k].total_frames, sp[k].total_frames);
    }
  }

  // The full artifact set, derived concurrently on the parallel side.
  const auto a = serial.artifacts();
  const auto b = parallel.artifacts();

  EXPECT_EQ(a.fig2.counts(), b.fig2.counts());

  ASSERT_EQ(a.fig3.size(), b.fig3.size());
  for (std::size_t i = 0; i < a.fig3.size(); ++i) {
    EXPECT_EQ(a.fig3[i].total_seconds(), b.fig3[i].total_seconds()) << "astronaut " << i;
    EXPECT_EQ(a.fig3[i].grid_rows(), b.fig3[i].grid_rows()) << "astronaut " << i;
  }

  expect_same_series(a.fig4, b.fig4);
  expect_same_series(a.fig6, b.fig6);

  ASSERT_EQ(a.table1.size(), b.table1.size());
  for (std::size_t i = 0; i < a.table1.size(); ++i) {
    EXPECT_EQ(a.table1[i].id, b.table1[i].id);
    EXPECT_EQ(a.table1[i].has_social, b.table1[i].has_social);
    EXPECT_EQ(a.table1[i].company, b.table1[i].company);
    EXPECT_EQ(a.table1[i].authority, b.table1[i].authority);
    EXPECT_EQ(a.table1[i].talking, b.table1[i].talking);
    EXPECT_EQ(a.table1[i].walking, b.table1[i].walking);
  }

  EXPECT_EQ(a.dataset.total_gib, b.dataset.total_gib);
  EXPECT_EQ(a.dataset.worn_of_daytime, b.dataset.worn_of_daytime);
  EXPECT_EQ(a.dataset.active_of_daytime, b.dataset.active_of_daytime);
  EXPECT_EQ(a.dataset.worn_by_day, b.dataset.worn_by_day);
  EXPECT_EQ(a.dataset.total_records, b.dataset.total_records);

  EXPECT_EQ(a.dwell.typical_biolab_h, b.dwell.typical_biolab_h);
  EXPECT_EQ(a.dwell.typical_office_h, b.dwell.typical_office_h);
  EXPECT_EQ(a.dwell.typical_workshop_h, b.dwell.typical_workshop_h);

  EXPECT_EQ(a.pairs.af_private_h, b.pairs.af_private_h);
  EXPECT_EQ(a.pairs.de_private_h, b.pairs.de_private_h);
  EXPECT_EQ(a.pairs.af_meetings_h, b.pairs.af_meetings_h);
  EXPECT_EQ(a.pairs.de_meetings_h, b.pairs.de_meetings_h);

  EXPECT_EQ(a.survey.wellbeing_speech_corr, b.survey.wellbeing_speech_corr);
  EXPECT_EQ(a.survey.comfort_slope_per_day, b.survey.comfort_slope_per_day);
  EXPECT_EQ(a.survey.responses, b.survey.responses);

  // Fig. 5 timeline (day 5: mid-mission, fully instrumented) and the
  // voice census round out the paper's artifact set.
  const auto t1 = serial.fig5_timeline(5);
  const auto t2 = parallel.fig5_timeline(5);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(t1[i].size(), t2[i].size());
    for (std::size_t k = 0; k < t1[i].size(); ++k) {
      EXPECT_EQ(t1[i][k].start_s, t2[i][k].start_s);
      EXPECT_EQ(t1[i][k].room, t2[i][k].room);
      EXPECT_EQ(t1[i][k].speech_fraction, t2[i][k].speech_fraction);
      EXPECT_EQ(t1[i][k].loudness_db, t2[i][k].loudness_db);
    }
  }
  EXPECT_EQ(serial.voice_census(), parallel.voice_census());

  // Meetings and their speech dynamics (day 5, mid-mission; the golden
  // digests cover every day).
  const auto ms = serial.meetings_on(5);
  const auto mp = parallel.meetings_on(5);
  ASSERT_EQ(ms.size(), mp.size());
  for (std::size_t k = 0; k < ms.size(); ++k) {
    EXPECT_EQ(ms[k].room, mp[k].room) << "meeting " << k;
    EXPECT_EQ(ms[k].start_s, mp[k].start_s) << "meeting " << k;
    EXPECT_EQ(ms[k].end_s, mp[k].end_s) << "meeting " << k;
    EXPECT_EQ(ms[k].participants, mp[k].participants) << "meeting " << k;
    const auto ds = serial.meeting_dynamics(ms[k]);
    const auto dp = parallel.meeting_dynamics(mp[k]);
    EXPECT_EQ(ds.speech_fraction, dp.speech_fraction) << "meeting " << k;
    EXPECT_EQ(ds.mean_loudness_db, dp.mean_loudness_db) << "meeting " << k;
    EXPECT_EQ(ds.talk_share, dp.talk_share) << "meeting " << k;
  }
}

/// The serial pipeline is the reference: the threads=4 pipeline must
/// reproduce it bit for bit, and both must match the golden digests in
/// `golden` (a file under tests/golden) — fig5 for day 5, meetings and
/// their dynamics for every day.
void expect_identical(const Dataset& data, const char* golden) {
  auto make = [&](unsigned threads) {
    PipelineOptions opts;
    opts.threads = threads;
    return AnalysisPipeline(data, opts);
  };
  const AnalysisPipeline serial = make(1);
  const AnalysisPipeline parallel = make(4);
  golden::expect_golden(golden, golden::analysis_digests(serial, 5));
  if (std::getenv("HS_WRITE_GOLDEN") == nullptr) {
    golden::expect_golden(golden, golden::analysis_digests(parallel, 5));
  }
  expect_pipelines_identical(data, serial, parallel);
}

TEST(DeterminismTest, SerialAndParallelPipelinesAreBitIdenticalSeed42) {
  expect_identical(run_icares_mission(42), "analysis_seed42.txt");
}

TEST(DeterminismTest, SerialAndParallelPipelinesAreBitIdenticalSeed7) {
  expect_identical(run_icares_mission(7), "analysis_seed7.txt");
}

TEST(DeterminismTest, MetricsDumpByteIdenticalAcrossThreadsSeed42) {
  const MissionDumps serial = mission_dumps(42, {}, 1);
  const MissionDumps parallel = mission_dumps(42, {}, hardware_threads());
  EXPECT_EQ(serial.metrics_csv, parallel.metrics_csv);
  EXPECT_EQ(serial.flight_log_csv, parallel.flight_log_csv);
  EXPECT_EQ(serial.trace_csv, parallel.trace_csv);
  // Same seed, same thread count, fresh run: repeatability, not just
  // thread independence.
  const MissionDumps again = mission_dumps(42, {}, hardware_threads());
  EXPECT_EQ(parallel.metrics_csv, again.metrics_csv);
  EXPECT_EQ(parallel.flight_log_csv, again.flight_log_csv);
  EXPECT_EQ(parallel.trace_csv, again.trace_csv);

#if HS_OBS_ENABLED
  // The dump must be real data, not an agreement on emptiness. (The
  // kernel counters and alert counts are legitimately 0 on the happy
  // path — no faults and no mesh means nothing is ever enqueued — so
  // only presence is required for those; the I/O and pipeline counters
  // must show traffic.)
  const auto snap = obs::MetricsSnapshot::from_csv(serial.metrics_csv);
  ASSERT_TRUE(snap.has_value());
  for (const char* name : {"sim.events_fired", "badge.sd_records_written",
                           "pipeline.records_attributed", "support.alerts_raised"}) {
    ASSERT_NE(snap->find(name), nullptr) << name;
  }
  EXPECT_GT(snap->find("badge.sd_records_written")->count, 0U);
  EXPECT_GT(snap->find("pipeline.records_attributed")->count, 0U);

  // The trace dump is real too, and survives a parse round-trip. On the
  // happy path (no faults, no mesh) the mission loop emits nothing — the
  // kernel never enqueues, badges never offload — so the guaranteed
  // spans are the pipeline's: one run root, a stage per phase, a shard
  // per unit of parallel work, all emitted serially after each barrier.
  const auto spans = obs::Tracer::from_csv(serial.trace_csv);
  ASSERT_TRUE(spans.has_value()) << spans.error().message;
  EXPECT_FALSE(spans->empty());
  const obs::TraceIndex index(std::move(*spans));
  const auto summary = index.summarize();
  const auto count_of = [&summary](obs::SpanKind kind) {
    for (const auto& [k, n] : summary.by_kind) {
      if (k == kind) return n;
    }
    return std::size_t{0};
  };
  EXPECT_GT(count_of(obs::SpanKind::kPipelineRun), 0U);
  EXPECT_GT(count_of(obs::SpanKind::kPipelineStage), 0U);
  EXPECT_GT(count_of(obs::SpanKind::kPipelineShard), 0U);
#endif
}

TEST(DeterminismTest, MetricsDumpByteIdenticalAcrossThreadsSeed7) {
  const MissionDumps serial = mission_dumps(7, {}, 1);
  const MissionDumps parallel = mission_dumps(7, {}, hardware_threads());
  EXPECT_EQ(serial.metrics_csv, parallel.metrics_csv);
  EXPECT_EQ(serial.flight_log_csv, parallel.flight_log_csv);
  EXPECT_EQ(serial.trace_csv, parallel.trace_csv);
}

TEST(DeterminismTest, MetricsDumpKeepsTheContractUnderCombinedFaults) {
  // The kitchen-sink preset fires every fault kind; fault bookkeeping,
  // alert storms and degraded-I/O counters all land in the dump, and it
  // still may not depend on the pipeline's thread count.
  const MissionDumps serial = mission_dumps(42, faults::FaultPlan::combined(42), 1);
  const MissionDumps parallel =
      mission_dumps(42, faults::FaultPlan::combined(42), hardware_threads());
  EXPECT_EQ(serial.metrics_csv, parallel.metrics_csv);
  EXPECT_EQ(serial.flight_log_csv, parallel.flight_log_csv);
  EXPECT_EQ(serial.trace_csv, parallel.trace_csv);

#if HS_OBS_ENABLED
  // Under a real plan the event kernel is busy (activations, recoveries)
  // and the fault counters show the whole lifecycle.
  const auto snap = obs::MetricsSnapshot::from_csv(serial.metrics_csv);
  ASSERT_TRUE(snap.has_value());
  ASSERT_NE(snap->find("sim.events_fired"), nullptr);
  EXPECT_GT(snap->find("sim.events_fired")->count, 0U);
  ASSERT_NE(snap->find("faults.armed"), nullptr);
  EXPECT_GT(snap->find("faults.armed")->count, 0U);
#endif
}

TEST(DeterminismTest, CascadeMissionKeepsTheContractSeeds7And42) {
  // Two generated cascade topologies (one per seed): the scenario layer
  // expands dependency-graph fault propagation into a flat plan before
  // the mission starts, and that plan rides the stock injector — so the
  // dumps must stay a pure function of the seed, byte-identical between
  // the serial reference and the hardware-thread run.
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{42}}) {
    const scenario::ScenarioSpec spec = scenario::ScenarioSpec::generated(seed);
    const auto expanded = scenario::expand_scenario(spec, seed);
    ASSERT_TRUE(expanded.has_value()) << expanded.error().message;
    ASSERT_FALSE(expanded->cascade.plan.empty());
    const MissionDumps serial = mission_dumps(seed, expanded->cascade.plan, 1);
    const MissionDumps parallel = mission_dumps(seed, expanded->cascade.plan, hardware_threads());
    EXPECT_EQ(serial.metrics_csv, parallel.metrics_csv) << "seed " << seed;
    EXPECT_EQ(serial.flight_log_csv, parallel.flight_log_csv) << "seed " << seed;
    EXPECT_EQ(serial.trace_csv, parallel.trace_csv) << "seed " << seed;
  }
}

/// Sampled variant of mission_dumps: a 2-day partitioned-mesh mission
/// (badges on from day 1, so chunk stories exist) at a 50 % trace keep
/// threshold. The keep/drop decision hashes only the trace id, so the
/// dumps must stay byte-identical across thread counts with sampling on
/// the path.
MissionDumps sampled_mission_dumps(std::uint64_t seed, unsigned threads) {
  MissionConfig config;
  config.seed = seed;
  config.mesh.enabled = true;
  config.collect_from_mesh = true;
  config.script.badge_start_day = 1;
  config.fault_plan = faults::FaultPlan::mesh_partition();
  config.trace_keep_millionths = obs::Tracer::kSampleScale / 2;
  MissionRunner runner(config);
  support::SupportSystem support;
  support.set_metrics(&runner.metrics(), &runner.flight_recorder(), &runner.tracer());
  runner.add_observer([&support](const MissionView& view) {
    for (io::BadgeId id = 0; id < 6; ++id) {
      const badge::Badge* b = view.network->badge(id);
      support.ingest_badge(support::BadgeHealth{view.now, id, b->battery().fraction(),
                                                b->active(), b->docked(), b->worn()});
    }
  });
  const Dataset data = runner.run_days(2);
  PipelineOptions opts;
  opts.threads = threads;
  opts.metrics = &runner.metrics();
  opts.tracer = &runner.tracer();
  const AnalysisPipeline pipeline(data, opts);
  (void)pipeline;
  MissionReport report = runner.report();
  return MissionDumps{std::move(report.metrics_csv), std::move(report.flight_log_csv),
                      std::move(report.trace_csv)};
}

TEST(DeterminismTest, SampledTraceDumpByteIdenticalAcrossThreadsSeeds7And42) {
  for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{42}}) {
    const MissionDumps serial = sampled_mission_dumps(seed, 1);
    const MissionDumps parallel = sampled_mission_dumps(seed, 4);
    EXPECT_EQ(serial.trace_csv, parallel.trace_csv) << "seed " << seed;
    EXPECT_EQ(serial.metrics_csv, parallel.metrics_csv) << "seed " << seed;
    EXPECT_EQ(serial.flight_log_csv, parallel.flight_log_csv) << "seed " << seed;
#if HS_OBS_ENABLED
    // The dump declares its own threshold (hs_trace reads it back), and
    // sampling actually dropped something at this scenario size.
    EXPECT_NE(serial.trace_csv.find("\n#sampling,500000,"), std::string::npos) << "seed " << seed;
    const auto parsed = obs::Tracer::parse_dump(serial.trace_csv);
    ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
    EXPECT_GT(parsed->meta.dropped, 0U) << "seed " << seed;
    EXPECT_FALSE(parsed->spans.empty()) << "seed " << seed;
#endif
  }
}

TEST(DeterminismTest, FaultedMissionKeepsTheContract) {
  // Fault injection changes the dataset, never the analysis: a mission
  // degraded by the kitchen-sink plan (every fault kind once, seeded)
  // must still be bit-identical between serial and parallel pipelines.
  MissionConfig config;
  config.seed = 42;
  config.fault_plan = faults::FaultPlan::combined(42);
  MissionRunner runner(config);
  expect_identical(runner.run(), "analysis_seed42_combined.txt");
}

}  // namespace
}  // namespace hs::core
