// Micro-benchmarks (google-benchmark) for the performance-critical kernels:
// the event queue, RF propagation, room classification, speech detection,
// HITS, heatmaps, and the full one-second world tick.
#include <benchmark/benchmark.h>

#include "badge/network.hpp"
#include "beacon/beacon.hpp"
#include "crew/crew_sim.hpp"
#include "dsp/speech.hpp"
#include "habitat/propagation.hpp"
#include "locate/room_classifier.hpp"
#include "locate/triangulate.hpp"
#include "sim/simulation.hpp"
#include "sna/hits.hpp"
#include "util/rng.hpp"

namespace hs {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule_at(seconds(static_cast<std::int64_t>(i % 97)), [] {});
    }
    benchmark::DoNotOptimize(sim.run_all());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void BM_PropagationMeanRssi(benchmark::State& state) {
  const auto habitat = habitat::Habitat::lunares();
  const habitat::Propagation prop(habitat, habitat::kBleChannel);
  const Vec2 tx = habitat.room(habitat::RoomId::kKitchen).bounds.center();
  const Vec2 rx = habitat.room(habitat::RoomId::kOffice).bounds.center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.mean_rssi(tx, rx));
  }
}
BENCHMARK(BM_PropagationMeanRssi);

void BM_ChannelSampleRssi(benchmark::State& state) {
  const auto habitat = habitat::Habitat::lunares();
  const habitat::Propagation prop(habitat, habitat::kBleChannel);
  Rng rng(1);
  const Vec2 tx = habitat.room(habitat::RoomId::kKitchen).bounds.center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(prop.sample_rssi(tx, tx + Vec2{2.0, 1.0}, rng));
  }
}
BENCHMARK(BM_ChannelSampleRssi);

void BM_RoomClassifier(benchmark::State& state) {
  const auto habitat = habitat::Habitat::lunares();
  const auto beacons = beacon::deploy_lunares_beacons(habitat);
  const locate::RoomClassifier classifier(beacons);
  // One hour of 1 Hz scans hearing 4 beacons each, as the columns the
  // pipeline hands the classifier.
  std::vector<double> t_s;
  std::vector<io::BeaconId> beacon;
  std::vector<std::int8_t> rssi;
  Rng rng(2);
  for (int t = 0; t < 3600; ++t) {
    for (int b = 0; b < 4; ++b) {
      t_s.push_back(static_cast<double>(t));
      beacon.push_back(static_cast<io::BeaconId>(rng.uniform_int(9, 11)));
      rssi.push_back(static_cast<std::int8_t>(rng.uniform_int(-70, -40)));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        classifier.classify(t_s.data(), beacon.data(), rssi.data(), t_s.size()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(t_s.size()));
}
BENCHMARK(BM_RoomClassifier);

void BM_Triangulate(benchmark::State& state) {
  const auto habitat = habitat::Habitat::lunares();
  const auto beacons = beacon::deploy_lunares_beacons(habitat);
  const locate::Triangulator tri(habitat, beacons);
  std::vector<io::BeaconId> beacon;
  std::vector<std::int8_t> rssi;
  for (const auto& b : beacons) {
    if (b.room == habitat::RoomId::kKitchen) {
      beacon.push_back(b.id);
      rssi.push_back(-55);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tri.estimate(beacon.data(), rssi.data(), beacon.size(), habitat::RoomId::kKitchen));
  }
}
BENCHMARK(BM_Triangulate);

void BM_SpeechDetector(benchmark::State& state) {
  const dsp::SpeechDetector detector;
  std::vector<double> t_s;
  std::vector<float> level;
  std::vector<float> voiced;
  std::vector<float> f0;
  Rng rng(3);
  for (int t = 0; t < 3600; ++t) {
    t_s.push_back(static_cast<double>(t));
    level.push_back(static_cast<float>(rng.uniform(30.0, 70.0)));
    voiced.push_back(static_cast<float>(rng.uniform(0.0, 1.0)));
    f0.push_back(120.0F);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detector.analyze(t_s.data(), level.data(), voiced.data(), f0.data(), t_s.size(), 0.0));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(t_s.size()));
}
BENCHMARK(BM_SpeechDetector);

void BM_Hits(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> adj(n, std::vector<double>(n, 0.0));
  Rng rng(4);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      adj[i][j] = adj[j][i] = rng.uniform();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sna::hits(adj));
  }
}
BENCHMARK(BM_Hits)->Arg(6)->Arg(32)->Arg(128);

void BM_WorldTickOneSecond(benchmark::State& state) {
  // The full sensing-plus-behaviour step the mission loop runs 1.2M times:
  // 6 astronauts, 13 badges, 27 beacons.
  const auto habitat = habitat::Habitat::lunares();
  auto beacons = beacon::deploy_lunares_beacons(habitat);
  badge::BadgeNetwork network(habitat, beacons,
                              habitat.room(habitat::RoomId::kBedroom).bounds.center());
  crew::CrewSimulator crew(habitat, network, crew::MissionScript{}, 1);
  network.set_environment(crew.environment());
  for (io::BadgeId id = 0; id < 6; ++id) {
    network.add_badge(id, timesync::DriftingClock(0, 10.0, 0));
  }
  network.add_reference_badge(timesync::DriftingClock(0, 0.0, 0));
  Rng rng(5);
  // Warm into mid-morning of day 2 (badges worn, crew active).
  SimTime t = 0;
  for (; t < day_start(2) + hours(10); t += kSecond) {
    crew.tick(t);
    network.tick(t, rng);
  }
  for (auto _ : state) {
    crew.tick(t);
    network.tick(t, rng);
    t += kSecond;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldTickOneSecond);

}  // namespace
}  // namespace hs

BENCHMARK_MAIN();
