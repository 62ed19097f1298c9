// The traced run: per-module wall time, measured from outside src/.
//
// The traced run builds the modules itself through their public constructors
// and calls them in the order core::MissionRunner::run_days and
// fleet::run_habitat do, with a span (name, parent, start, end) around
// each call. Per-second calls (sim, crew, badge, mesh tick, support
// ingest) are summed into one span per simulated hour. A layer's self
// time is its spans' busy time minus their children's; whatever no layer
// span covers (the loop itself, observer glue, summaries) is
// unattributed_s, so the self times plus unattributed_s add up to
// traced_wall_s exactly.
//
// Fidelity: the run first executes the untraced entry point for the same
// seed, then the traced harness, and fails unless both produce the same
// bytes (the FleetReport dump, or the icares mission's metrics and
// per-badge record counts). Otherwise the per-module numbers would
// describe a different program. A second untraced run, warm like the
// traced one, is the base of trace_overhead. The fleet runs serially here, so the
// layer times add up to wall time; the campaign dump is byte-identical
// across thread counts (habbench --self-test checks 1 vs 2 threads).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mesh/chunk.hpp"
#include "mesh/read_view.hpp"
#include "scenario/scenario.hpp"
#include "support/system.hpp"
#include "workloads.hpp"

namespace hb {
namespace {

using namespace hs;

/// In-memory wall-clock spans.
class SpanLog {
 public:
  static constexpr std::size_t kRoot = std::numeric_limits<std::size_t>::max();

  struct Span {
    std::string name;
    std::size_t parent = kRoot;
    Clock::time_point start;
    Clock::time_point end;
    double busy_s = 0.0;  ///< end - start, or the summed calls of an hourly span
  };

  std::size_t open(std::string name, std::size_t parent) {
    const Clock::time_point now = Clock::now();
    spans_.push_back(Span{std::move(name), parent, now, now, 0.0});
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    Span& s = spans_[id];
    s.end = Clock::now();
    s.busy_s = seconds_between(s.start, s.end);
  }
  void add(Span span) { spans_.push_back(std::move(span)); }

  /// Run `fn` inside a span named `name` under `parent`.
  template <class F>
  decltype(auto) timed(std::string name, std::size_t parent, F&& fn) {
    struct Closer {
      SpanLog* log;
      std::size_t id;
      ~Closer() { log->close(id); }
    } closer{this, open(std::move(name), parent)};
    return fn();
  }

  [[nodiscard]] const Span& span(std::size_t id) const { return spans_[id]; }

  /// Self time per span name: busy time minus the children's busy time.
  [[nodiscard]] std::map<std::string, double> self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].busy_s;
    for (const Span& s : spans_) {
      if (s.parent != kRoot) self[s.parent] -= s.busy_s;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

  /// Busy time of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.busy_s);
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
};

/// One per-second call site, summed into one span per simulated hour.
class HourlySpan {
 public:
  explicit HourlySpan(const char* name) : name_(name) {}

  template <class F>
  decltype(auto) operator()(F&& fn) {
    const Clock::time_point t0 = Clock::now();
    struct Closer {
      HourlySpan* self;
      Clock::time_point t0;
      ~Closer() {
        const Clock::time_point t1 = Clock::now();
        if (self->calls_ == 0) self->first_ = t0;
        self->last_ = t1;
        self->busy_s_ += seconds_between(t0, t1);
        ++self->calls_;
      }
    } closer{this, t0};
    return fn();
  }

  void flush(SpanLog& log, std::size_t parent) {
    if (calls_ == 0) return;
    log.add(SpanLog::Span{name_, parent, first_, last_, busy_s_});
    calls_ = 0;
    busy_s_ = 0.0;
  }

 private:
  const char* name_;
  Clock::time_point first_;
  Clock::time_point last_;
  double busy_s_ = 0.0;
  std::uint64_t calls_ = 0;
};

/// The layers whose self time is reported as <name>_s. Every other span
/// ("run", "habitat", "mission", "analysis") is structure: its self time
/// is unattributed.
constexpr const char* kLayers[] = {
    "core.runner_setup", "sim.run_until",   "crew.tick",     "badge.tick",
    "mesh.tick",         "mesh.flush",      "mesh.health_snapshot",
    "mesh.rebuild_cards", "support.ingest", "support.end_of_day",
    "core.collect",      "core.report",     "core.pipeline", "locate.fig2",
    "locate.fig3",       "dsp.fig4",        "dsp.fig6",      "core.fig5",
    "sna.table1",        "sna.pair_stats",  "sna.meetings",  "fleet.fold"};

// --- the mission, built from its modules --------------------------------

Vec2 charging_station_position(const habitat::Habitat& habitat) {
  const auto& bedroom = habitat.room(habitat::RoomId::kBedroom).bounds;
  return bedroom.clamp(Vec2{bedroom.lo.x + 0.6, bedroom.lo.y + 0.6}, 0.3);
}

core::MissionConfig with_fault_plan_applied(core::MissionConfig config) {
  config.fault_plan.apply_to_script(config.script);
  return config;
}

/// The modules core::MissionRunner wires together, in its member order
/// and with its constructor's calls.
struct Mission {
  explicit Mission(core::MissionConfig cfg)
      : config(with_fault_plan_applied(std::move(cfg))),
        tracer(config.seed),
        habitat(habitat::Habitat::lunares()),
        rng(config.seed),
        network(habitat, beacon::deploy_lunares_beacons(habitat, config.beacon_count),
                charging_station_position(habitat), config.ble_channel, config.subghz_channel),
        crew(habitat, network, config.script, config.seed),
        injector(config.fault_plan) {
    sim.set_metrics(&obs);
    sim.set_trace(&tracer);
    recorder.set_dropped_counter(&obs.counter("hs.obs.flight_dropped_total"));
    tracer.set_drop_metrics(&obs);
    tracer.set_sampling(config.trace_keep_millionths);
    network.set_environment(crew.environment());
    if (config.mesh.enabled) {
      mesh = std::make_unique<mesh::MeshNetwork>(habitat, network.beacons(),
                                                 network.charging_station(), config.mesh,
                                                 config.seed);
      mesh->attach(&network);
      mesh->set_metrics(&obs, &recorder);
      mesh->set_trace(&tracer);
      mesh->arm(sim);
    }
    injector.arm(sim, network, mesh.get(), &obs, &recorder, &tracer);

    Rng clock_rng = rng.fork(0xc10c);
    for (io::BadgeId id = 0; id < 6; ++id) {
      const double drift = clock_rng.normal(0.0, config.clock_drift_sigma_ppm);
      const auto offset = static_cast<std::uint32_t>(clock_rng.uniform_int(0, 600'000));
      network.add_badge(id, timesync::DriftingClock(0, drift, offset), config.badge_params);
    }
    network.add_reference_badge(timesync::DriftingClock(0, 0.0, 0), config.badge_params);
    for (int i = 0; i < config.backup_badges; ++i) {
      const auto id = static_cast<io::BadgeId>(io::kReferenceBadge + 1 + i);
      const double drift = clock_rng.normal(0.0, config.clock_drift_sigma_ppm);
      network.add_badge(id, timesync::DriftingClock(0, drift, 0), config.badge_params);
    }
    // Records already on the cards here (the reference badge's boot wear
    // event) predate the write counter attached below.
    for (const auto& b : network.badges()) unmetered_records += b->sd().record_count();
    obs::Counter& sd_writes = obs.counter("badge.sd_records_written");
    obs::Counter& sd_failures = obs.counter("badge.sd_write_failures");
    for (const auto& b : network.badges()) {
      network.badge(b->id())->sd().set_metrics(&sd_writes, &sd_failures);
    }
  }

  [[nodiscard]] core::MissionReport report() const {
    const obs::MetricsSnapshot snap = obs.snapshot();
    std::string csv = snap.to_csv();
    return core::MissionReport{snap, std::move(csv), recorder.to_csv(), tracer.to_csv()};
  }

  core::MissionConfig config;
  obs::Registry obs;
  obs::FlightRecorder recorder;
  obs::Tracer tracer;
  habitat::Habitat habitat;
  Rng rng;
  badge::BadgeNetwork network;
  crew::CrewSimulator crew;
  sim::Simulation sim;
  std::unique_ptr<mesh::MeshNetwork> mesh;
  faults::FaultInjector injector;
  std::uint64_t unmetered_records = 0;
};

/// fleet::run_habitat's observers: the support system sampling the mesh
/// health feed every `support_cadence`, and the cascade coupling at day
/// boundaries.
struct HabitatSide {
  support::SupportSystem* support = nullptr;
  const scenario::ExpandedScenario* cascade = nullptr;  ///< null: no cascade
  SimDuration cadence = 0;
  SimDuration stale_after = 0;
  std::uint64_t health_snapshots = 0;
};

/// Per badge: records on the card the mesh read view rebuilt, and on the
/// badge's own card (the MissionConfig::collect_from_mesh contract).
using MeshVsCard = std::vector<std::pair<std::size_t, std::size_t>>;

/// MissionRunner::run_days, with spans.
core::Dataset run_days(Mission& m, int last_day, SpanLog& log, std::size_t parent,
                       HabitatSide* side, MeshVsCard* mesh_vs_card) {
  HourlySpan sim_span("sim.run_until");
  HourlySpan crew_span("crew.tick");
  HourlySpan badge_span("badge.tick");
  HourlySpan mesh_span("mesh.tick");
  HourlySpan health_span("mesh.health_snapshot");
  HourlySpan ingest_span("support.ingest");
  HourlySpan end_of_day_span("support.end_of_day");
  HourlySpan* hourly[] = {&sim_span,    &crew_span,   &badge_span,     &mesh_span,
                          &health_span, &ingest_span, &end_of_day_span};

  Rng tick_rng = m.rng.fork(0x71c4);
  const SimTime end = day_start(last_day + 1);
  mesh::MeshNetwork* mesh = m.mesh.get();
  for (SimTime t = 0; t < end; t += kSecond) {
    sim_span([&] { m.sim.run_until(t); });
    crew_span([&] { m.crew.tick(t); });
    badge_span([&] { m.network.tick(t, tick_rng); });
    if (mesh) mesh_span([&] { mesh->tick(t); });
    if (side != nullptr) {
      support::SupportSystem& support = *side->support;
      const auto publish = [mesh, t](const support::Alert& alert) {
        (void)mesh->publish_alert(mesh->base_station_id(), alert, t);
      };
      if (side->cascade != nullptr && t != 0 && t % kDay == 0) {
        if (mesh) support.set_alert_sink(publish);
        side->cascade->coupling.apply_day(mission_day(t - 1), support.resources());
        end_of_day_span([&] { support.end_of_day(t); });
        support.set_alert_sink(nullptr);
      }
      if (mesh && t % side->cadence == 0 && t != 0) {
        support.set_alert_sink(publish);
        const mesh::MeshReadView mesh_view(*mesh);
        const auto health =
            health_span([&] { return mesh_view.health_snapshot(t, side->stale_after); });
        ++side->health_snapshots;
        ingest_span([&] {
          for (const auto& h : health) support.ingest_badge(h);
        });
        support.set_alert_sink(nullptr);
      }
    }
    if ((t + kSecond) % kHour == 0) {
      for (HourlySpan* h : hourly) h->flush(log, parent);
    }
  }
  for (HourlySpan* h : hourly) h->flush(log, parent);

  log.timed("mesh.flush", parent, [&] {
    if (mesh) mesh->flush(m.sim.now());
  });
  std::map<io::BadgeId, badge::SdCard> mesh_cards;
  if (mesh && m.config.collect_from_mesh) {
    mesh_cards = log.timed("mesh.rebuild_cards", parent, [&] {
      return mesh::MeshReadView(*mesh, &m.tracer, m.sim.now()).rebuild_cards();
    });
    if (mesh_vs_card != nullptr) {
      for (const auto& b : m.network.badges()) {
        mesh_vs_card->emplace_back(mesh_cards[b->id()].record_count(), b->sd().record_count());
      }
    }
  }

  return log.timed("core.collect", parent, [&] {
    core::Dataset ds;
    ds.habitat = m.habitat;
    ds.beacons = m.network.beacons();
    ds.total_bytes = m.network.total_bytes();
    obs::Counter& binlog_bytes = m.obs.counter("badge.binlog_bytes_collected");
    obs::Counter& truncated = m.obs.counter("badge.sd_records_truncated");
    for (const auto& b : m.network.badges()) {
      core::BadgeLog badge_log;
      badge_log.id = b->id();
      if (mesh && m.config.collect_from_mesh) {
        badge_log.card = std::move(mesh_cards[badge_log.id]);
      } else {
        badge_log.card = m.network.badge(b->id())->take_sd();
        truncated.inc(badge_log.card.apply_tail_loss());
      }
      binlog_bytes.inc(static_cast<std::uint64_t>(badge_log.card.bytes_written()));
      ds.logs.push_back(std::move(badge_log));
    }
    m.obs.gauge("mission.days_run").set(static_cast<double>(last_day));
    m.obs.gauge("mission.badge_count").set(static_cast<double>(ds.logs.size()));
    ds.ownership = m.crew.corrected_ownership();
    ds.naive_ownership = m.crew.naive_ownership();
    ds.script = m.config.script;
    if (last_day < ds.script.mission_days) ds.script.mission_days = last_day;
    ds.surveys = crew::generate_mission_surveys(ds.script, m.rng.fork(0x50b7));
    return ds;
  });
}

/// fleet::run_habitat's collect_trace_stats: ack latencies, offload gaps
/// and dark badges off the mesh's durability bookkeeping.
void collect_trace_stats(const mesh::MeshNetwork& mesh, SimDuration stale_after,
                         fleet::HabitatSummary& out) {
  mesh::OriginId last_origin = mesh::kNodeOriginBase;
  SimTime last_offload = 0;
  SimTime latest = 0;
  std::vector<SimTime> badge_last;
  for (const auto& [key, trace] : mesh.traces()) {
    if (key.origin >= mesh::kNodeOriginBase) continue;
    ++out.chunks_offloaded;
    if (trace.replicated_at >= 0) {
      ++out.chunks_acked;
      out.ack_latencies_s.push_back(static_cast<double>(trace.replicated_at - trace.offloaded_at) /
                                    static_cast<double>(kSecond));
    }
    if (key.origin == last_origin && !badge_last.empty()) {
      out.offload_gaps_s.push_back(static_cast<double>(trace.offloaded_at - last_offload) /
                                   static_cast<double>(kSecond));
      badge_last.back() = trace.offloaded_at;
    } else {
      badge_last.push_back(trace.offloaded_at);
    }
    last_origin = key.origin;
    last_offload = trace.offloaded_at;
    latest = std::max(latest, trace.offloaded_at);
  }
  for (const SimTime t : badge_last) {
    if (latest - t > stale_after) ++out.dark_badges;
  }
}

/// What the per-layer counts are read from, summed over habitats.
struct Totals {
  obs::MetricsSnapshot metrics;   ///< mission metrics (fleet: the roll-up)
  std::uint64_t health_snapshots = 0;
  std::uint64_t spans_stored = 0;
  std::uint64_t spans_dropped = 0;
  std::uint64_t records_collected = 0;
  double ack_p99_s = 0.0;
};

/// fleet::run_habitat, with spans.
fleet::HabitatSummary run_habitat(const fleet::HabitatSpec& spec,
                                  const fleet::CampaignOptions& options, SpanLog& log,
                                  std::size_t parent, Totals& totals, Checks& checks,
                                  bool fault_free) {
  auto m = log.timed("core.runner_setup", parent,
                     [&] { return std::make_unique<Mission>(fleet::make_mission_config(spec)); });
  support::SupportSystem support(support::SupportConfig{.crew_size = spec.crew});
  support.set_metrics(&m->obs, &m->recorder, &m->tracer);

  scenario::ExpandedScenario cascade;
  HabitatSide side{&support, nullptr, options.support_cadence, options.stale_after, 0};
  if (spec.cascade != "none") {
    if (auto scen = scenario::scenario_preset(spec.cascade, spec.seed); scen.has_value()) {
      if (auto expanded = scenario::expand_scenario(*scen, spec.seed); expanded.has_value()) {
        cascade = std::move(*expanded);
      }
    }
    m->obs.gauge("scenario.cascade_activations")
        .set(static_cast<double>(cascade.cascade.activations.size()));
    m->obs.gauge("scenario.cascade_dependents")
        .set(static_cast<double>(cascade.cascade.dependents));
    m->obs.gauge("scenario.cascade_repairs").set(static_cast<double>(cascade.cascade.repairs));
    side.cascade = &cascade;
  }
  MeshVsCard mesh_vs_card;
  const core::Dataset dataset = run_days(*m, spec.days, log, parent, &side, &mesh_vs_card);

  fleet::HabitatSummary summary;
  summary.index = spec.index;
  summary.seed = spec.seed;
  summary.days = spec.days;
  summary.crew = spec.crew;
  summary.beacons = spec.beacons;
  summary.fault_preset = spec.fault_preset;
  summary.cascade = spec.cascade;
  summary.finished_at = static_cast<SimTime>(spec.days) * kDay;
  for (const auto& alert : support.alerts()) {
    summary.alert_counts[static_cast<std::size_t>(alert.kind)] += 1;
  }
  if (options.analyze) {
    core::PipelineOptions popts;
    popts.threads = 1;
    popts.columnar = options.columnar;
    popts.metrics = &m->obs;
    log.timed("core.pipeline", parent, [&] { (void)core::AnalysisPipeline(dataset, popts); });
    summary.records_analyzed = counter(m->obs.snapshot(), "pipeline.records_attributed");
  }
  summary.metrics = log.timed("core.report", parent, [&] { return m->report().metrics; });
  summary.records_written = counter(summary.metrics, "badge.sd_records_written");
  if (const mesh::MeshNetwork* mesh = m->mesh.get()) {
    collect_trace_stats(*mesh, options.stale_after, summary);
  }

  const std::uint64_t collected = dataset_records(dataset);
  totals.health_snapshots += side.health_snapshots;
  totals.spans_stored += m->tracer.size();
  totals.spans_dropped += m->tracer.dropped_count();
  totals.records_collected += collected;
  if (fault_free && m->mesh) {
    // Fault-free mesh collection rebuilds every card exactly, and holds
    // every record the badges wrote.
    for (const auto& [from_mesh, on_card] : mesh_vs_card) {
      checks.expect(from_mesh == on_card, "mesh rebuilt a card with " + std::to_string(from_mesh) +
                                              " records, the badge holds " +
                                              std::to_string(on_card));
    }
    checks.expect(collected == summary.records_written + m->unmetered_records,
                  "mesh collection returned " + std::to_string(collected) + " records, badges wrote " +
                      std::to_string(summary.records_written) + " metered + " +
                      std::to_string(m->unmetered_records) + " before metering");
    // Every chunk is acked except those the final flush offloaded.
    const SimTime flushed_at = m->sim.now();
    std::uint64_t unacked_early = 0;
    for (const auto& [key, trace] : m->mesh->traces()) {
      if (key.origin < mesh::kNodeOriginBase && trace.replicated_at < 0 &&
          trace.offloaded_at != flushed_at) {
        ++unacked_early;
      }
    }
    checks.expect(unacked_early == 0, std::to_string(unacked_early) +
                                          " chunks offloaded before the final flush never acked");
    std::printf("# mesh collection: %" PRIu64 " records (%" PRIu64 " metered + %" PRIu64
                " written before the write counter was attached); %" PRIu64 " of %" PRIu64
                " chunks acked, the rest offloaded by the final flush\n",
                collected, summary.records_written, m->unmetered_records, summary.chunks_acked,
                summary.chunks_offloaded);
  }
  return summary;
}

// --- the workloads, traced ---------------------------------------------------

struct TracedRun {
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  Totals totals;
};

/// fleet::run_campaign, with spans under `root`: every habitat through
/// run_habitat in turn, then the fold.
fleet::FleetReport traced_campaign(Workload w, const fleet::CampaignSpec& spec,
                                   const fleet::CampaignOptions& options, SpanLog& log,
                                   std::size_t root, Totals& totals, Checks& checks) {
  std::vector<fleet::HabitatSummary> summaries;
  for (const fleet::HabitatSpec& habitat : spec.expand()) {
    const std::size_t span = log.open("habitat", root);
    summaries.push_back(
        run_habitat(habitat, options, log, span, totals, checks, w == Workload::kHabitatMesh));
    log.close(span);
  }
  return log.timed("fleet.fold", root, [&] {
    fleet::FleetAggregator aggregator(options.link_delay);
    SimTime latest = 0;
    for (auto& summary : summaries) {
      latest = std::max(latest, summary.finished_at);
      const SimTime at = summary.finished_at;
      aggregator.submit(at, std::move(summary));
    }
    (void)aggregator.pump(latest + aggregator.link_delay());
    return aggregator.report(spec.name);
  });
}

TracedRun trace_campaign(Workload w, std::uint64_t seed, SpanLog& log, Checks& checks) {
  TracedRun run;
  const fleet::CampaignSpec spec = campaign_spec(w, seed);
  fleet::CampaignOptions options = campaign_options(w);
  options.threads = 1;

  const auto untraced = [&](double& wall_s) {
    const Clock::time_point t0 = Clock::now();
    auto report = fleet::run_campaign(spec, options);
    wall_s = seconds_between(t0, Clock::now());
    return report;
  };
  const auto reference = untraced(run.untraced_wall_s);
  checks.expect(reference.has_value(), "run_campaign refused the spec");

  const std::size_t root = log.open("run", SpanLog::kRoot);
  const fleet::FleetReport report = traced_campaign(w, spec, options, log, root, run.totals, checks);
  log.close(root);
  run.traced_wall_s = log.span(root).busy_s;

  check_campaign(w, spec, report, checks);
  if (reference.has_value()) {
    checks.expect(report.to_csv() == reference->to_csv(),
                  "traced campaign dump differs from run_campaign's (fidelity)");
  }
  run.totals.metrics = report.metrics;
  run.totals.ack_p99_s = report.ack_latency.p99;
  // The reference ran cold; time a second campaign now, warm like the
  // traced run, for trace_overhead.
  (void)untraced(run.untraced_wall_s);
  return run;
}

/// The icares analysis calls, each public getter on its own.
template <class Probe>
void analysis_calls(const core::AnalysisPipeline& p, Probe&& probe) {
  probe("locate.fig2", [&] { return p.fig2_transitions().total(); });
  probe("locate.fig3", [&] {
    double total = 0.0;
    for (std::size_t i = 0; i < crew::kCrewSize; ++i) total += p.fig3_heatmap(i).total_seconds();
    return total;
  });
  probe("dsp.fig4", [&] { return p.fig4_walking().values.size(); });
  probe("dsp.fig6", [&] { return p.fig6_speech().values.size(); });
  probe("core.fig5", [&] { return p.fig5_timeline(kFig5Day).size(); });
  probe("sna.table1", [&] { return p.table1().size(); });
  probe("sna.pair_stats", [&] { return p.pair_stats().af_private_h; });
  probe("sna.meetings", [&] {
    std::size_t n = 0;
    for (int day = 1; day <= p.dataset().script.mission_days; ++day) n += p.meetings_on(day).size();
    return n;
  });
}

/// What the untraced icares entry points produce, and how long they took.
struct IcaresReference {
  double wall_s = 0.0;
  std::string record_counts;
  core::MissionReport report;
};

/// MissionRunner + the same analysis calls, untraced. Everything it
/// builds is released on return, so the process never holds two 14-day
/// datasets.
IcaresReference icares_reference(const core::MissionConfig& config) {
  IcaresReference out;
  const Clock::time_point t0 = Clock::now();
  core::MissionRunner runner(config);
  const core::Dataset dataset = runner.run();
  out.report = runner.report();
  {
    obs::Registry metrics;
    const core::AnalysisPipeline pipeline(dataset, icares_pipeline_options(&metrics));
    analysis_calls(pipeline, [](const char*, auto&& fn) { (void)fn(); });
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.record_counts = record_counts(dataset);
  return out;
}

TracedRun trace_icares(std::uint64_t seed, SpanLog& log, Checks& checks) {
  TracedRun run;
  const core::MissionConfig config = icares_config(seed);
  const IcaresReference reference = icares_reference(config);
  {
    const std::size_t root = log.open("run", SpanLog::kRoot);
    const std::size_t mission_span = log.open("mission", root);
    auto m = log.timed("core.runner_setup", mission_span,
                       [&] { return std::make_unique<Mission>(config); });
    const core::Dataset dataset =
        run_days(*m, m->config.script.mission_days, log, mission_span, nullptr, nullptr);
    const core::MissionReport report =
        log.timed("core.report", mission_span, [&] { return m->report(); });
    log.close(mission_span);

    const std::size_t analysis_span = log.open("analysis", root);
    obs::Registry pipeline_metrics;
    std::vector<core::AnalysisPipeline::Table1Row> table1;
    {
      const core::AnalysisPipeline pipeline = log.timed("core.pipeline", analysis_span, [&] {
        return core::AnalysisPipeline(dataset, icares_pipeline_options(&pipeline_metrics));
      });
      analysis_calls(pipeline, [&](const char* name, auto&& fn) {
        (void)log.timed(name, analysis_span, fn);
      });
      table1 = pipeline.table1();
    }
    log.close(analysis_span);
    log.close(root);
    run.traced_wall_s = log.span(root).busy_s;

    checks.expect(record_counts(dataset) == reference.record_counts,
                  "traced per-badge record counts differ from MissionRunner's (fidelity)");
    checks.expect(report.metrics_csv == reference.report.metrics_csv &&
                      report.flight_log_csv == reference.report.flight_log_csv,
                  "traced mission metrics/flight dump differs from MissionRunner's (fidelity)");
    check_table1(table1, checks);
    run.totals.metrics = report.metrics;
    checks.expect(run.totals.metrics.accumulate(pipeline_metrics.snapshot()).ok(),
                  "pipeline metrics clash with the mission's");
    run.totals.spans_stored = m->tracer.size();
    run.totals.spans_dropped = m->tracer.dropped_count();
    run.totals.records_collected = dataset_records(dataset);
    const std::uint64_t attributed = counter(run.totals.metrics, "pipeline.records_attributed");
    checks.expect(attributed > 0 && attributed <= run.totals.records_collected,
                  "pipeline attributed " + std::to_string(attributed) + " of " +
                      std::to_string(run.totals.records_collected) + " records");
  }
  // The first reference ran cold; time a second one now, warm like the
  // traced run, for trace_overhead.
  run.untraced_wall_s = icares_reference(config).wall_s;
  return run;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void check_mesh_collection(std::uint64_t seed, const std::string& expected_csv, Checks& checks) {
  const fleet::CampaignSpec spec = campaign_spec(Workload::kHabitatMesh, seed);
  const fleet::CampaignOptions options = campaign_options(Workload::kHabitatMesh);
  SpanLog log;
  Totals totals;
  const fleet::FleetReport report = traced_campaign(
      Workload::kHabitatMesh, spec, options, log, log.open("run", SpanLog::kRoot), totals, checks);
  checks.expect(report.to_csv() == expected_csv,
                "traced campaign dump differs from run_campaign's (fidelity)");
}

int run_traced(Workload w, std::uint64_t seed) {
  std::printf("# traced run: %s seed %" PRIu64 "\n", workload_name(w), seed);
  SpanLog log;
  Checks checks;
  const TracedRun run = w == Workload::kIcaresReplay ? trace_icares(seed, log, checks)
                                                     : trace_campaign(w, seed, log, checks);
  const auto self = log.self_times();
  const obs::MetricsSnapshot& snap = run.totals.metrics;
  const auto count = [&snap](const char* name) {
    return static_cast<double>(counter(snap, name));
  };

  std::vector<Metric> metrics;
  double attributed_s = 0.0;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double s = it == self.end() ? 0.0 : it->second;
    attributed_s += s;
    metrics.push_back({std::string(layer) + "_s", s, "s"});
  }
  const double offloaded = count("mesh.chunks_offloaded");
  const std::vector<double> habitat_s = log.durations("habitat");
  double habitat_sum = 0.0;
  for (const double s : habitat_s) habitat_sum += s;
  const double habitat_max =
      habitat_s.empty() ? 0.0 : *std::max_element(habitat_s.begin(), habitat_s.end());
  // One analysis pass, as the untraced icares run times it: pipeline
  // construction plus every artifact getter.
  double pass_s = 0.0;
  for (const char* layer : {"core.pipeline", "locate.fig2", "locate.fig3", "dsp.fig4", "dsp.fig6",
                            "core.fig5", "sna.table1", "sna.pair_stats", "sna.meetings"}) {
    if (const auto it = self.find(layer); it != self.end()) pass_s += it->second;
  }
  const double records = static_cast<double>(run.totals.records_collected);

  const std::vector<Metric> counts = {
      {"sim.events_fired", count("sim.events_fired"), "count"},
      {"badge.sd_records_written", count("badge.sd_records_written"), "count"},
      {"badge.sd_write_failures", count("badge.sd_write_failures"), "count"},
      {"mesh.chunks_offloaded", offloaded, "count"},
      {"mesh.chunks_replicated", count("mesh.chunks_replicated"), "count"},
      {"mesh.replication_acks", count("mesh.replication_acks"), "count"},
      {"mesh.offload_deferrals", count("mesh.offload_deferrals"), "count"},
      {"mesh.gossip_exchanges", count("mesh.gossip_exchanges"), "count"},
      {"mesh.ack_ratio", ratio(count("mesh.replication_acks"), offloaded), "ratio"},
      {"mesh.replicas_per_chunk",
       ratio(offloaded + count("mesh.chunks_replicated"), offloaded), "ratio"},
      {"mesh.health_snapshots", static_cast<double>(run.totals.health_snapshots), "count"},
      {"support.alerts_raised", count("support.alerts_raised"), "count"},
      {"pipeline.records_attributed", count("pipeline.records_attributed"), "count"},
      {"fleet.habitat_s_p50", median(habitat_s), "s"},
      {"fleet.habitat_s_max", habitat_max, "s"},
      {"fleet.shard_imbalance",
       ratio(habitat_max, habitat_sum / static_cast<double>(std::max<std::size_t>(1, habitat_s.size()))),
       "ratio"},
      {"obs.trace_spans_stored", static_cast<double>(run.totals.spans_stored), "count"},
      {"obs.trace_dropped", static_cast<double>(run.totals.spans_dropped), "count"},
      {"analysis_records_per_s", ratio(records, pass_s), "records/s"},
      {"ack_p99_s", run.totals.ack_p99_s, "sim_s"},
      {"traced_wall_s", run.traced_wall_s, "s"},
      {"unattributed_s", run.traced_wall_s - attributed_s, "s"},
      {"trace_overhead", ratio(run.traced_wall_s, run.untraced_wall_s), "ratio"},
  };
  metrics.insert(metrics.end(), counts.begin(), counts.end());

  std::printf("# untraced %.3f s, traced %.3f s; per-layer self time:\n", run.untraced_wall_s,
              run.traced_wall_s);
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    if (it == self.end()) continue;
    std::printf("#   %-22s %9.3f s %5.1f%%\n", layer, it->second,
                100.0 * ratio(it->second, run.traced_wall_s));
  }
  std::printf("#   %-22s %9.3f s %5.1f%%\n", "(unattributed)", run.traced_wall_s - attributed_s,
              100.0 * ratio(run.traced_wall_s - attributed_s, run.traced_wall_s));
  const bool ok = checks.ok();
  print_result(ok, 1, ok ? 0 : 1, metrics);
  return ok ? 0 : 1;
}

}  // namespace hb
