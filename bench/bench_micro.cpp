// Component microbenchmarks (google-benchmark): CAN codec, pub/sub,
// Kalman filters, and the full world step — the numbers that justify
// running 19k+ simulations per table.

#include <benchmark/benchmark.h>

#include <array>

#include "adas/kalman.hpp"
#include "can/packer.hpp"
#include "exp/campaign.hpp"
#include "msg/bus.hpp"
#include "sim/world.hpp"

using namespace scaa;

namespace {

void BM_CanPack(benchmark::State& state) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  double angle = 0.0;
  for (auto _ : state) {
    angle += 0.001;
    auto frame = packer.pack("STEERING_CONTROL",
                             {{can::sig::kSteerAngleCmd, angle},
                              {can::sig::kSteerEnabled, 1.0}});
    benchmark::DoNotOptimize(frame);
  }
}
BENCHMARK(BM_CanPack);

void BM_CanParse(benchmark::State& state) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  can::CanParser parser(db);
  const auto frame = packer.pack("STEERING_CONTROL",
                                 {{can::sig::kSteerAngleCmd, 0.42},
                                  {can::sig::kSteerEnabled, 1.0}});
  for (auto _ : state) {
    auto parsed = parser.parse(frame);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_CanParse);

void BM_CanPackPrecompiled(benchmark::State& state) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  const auto msg = db.handle("STEERING_CONTROL");
  const auto angle =
      db.signal_handle("STEERING_CONTROL", can::sig::kSteerAngleCmd);
  const auto enabled =
      db.signal_handle("STEERING_CONTROL", can::sig::kSteerEnabled);
  std::array<double, 2> values{};
  double angle_deg = 0.0;
  for (auto _ : state) {
    angle_deg += 0.001;
    values[angle.signal] = angle_deg;
    values[enabled.signal] = 1.0;
    auto frame = packer.pack(msg, values);
    benchmark::DoNotOptimize(frame);
  }
}
BENCHMARK(BM_CanPackPrecompiled);

void BM_CanParsePrecompiled(benchmark::State& state) {
  const auto db = can::Database::simulated_car();
  can::CanPacker packer(db);
  can::CanParser parser(db);
  const auto frame = packer.pack("STEERING_CONTROL",
                                 {{can::sig::kSteerAngleCmd, 0.42},
                                  {can::sig::kSteerEnabled, 1.0}});
  for (auto _ : state) {
    const auto* parsed = parser.parse_flat(frame);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_CanParsePrecompiled);

void BM_PubSubRoundtrip(benchmark::State& state) {
  msg::PubSubBus bus;
  msg::Latest<msg::RadarState> latest(bus);
  msg::RadarState m;
  m.lead_valid = true;
  m.lead_distance = 42.0;
  for (auto _ : state) {
    bus.publish(m);
    benchmark::DoNotOptimize(latest.value());
  }
}
BENCHMARK(BM_PubSubRoundtrip);

// --- PubSubBus::publish: typed fast path vs the lazily serialized tap -------

void BM_BusPublishTyped(benchmark::State& state) {
  // Campaign steady state: typed subscribers only, so publish() never
  // serializes and never allocates.
  msg::PubSubBus bus;
  msg::Latest<msg::CarState> latest(bus);
  msg::CarState m;
  m.speed = 25.0;
  m.cruise_enabled = true;
  for (auto _ : state) {
    ++m.mono_time;
    m.speed += 0.001;
    bus.publish(m);
    benchmark::DoNotOptimize(latest.value());
  }
}
BENCHMARK(BM_BusPublishTyped);

void BM_BusPublishTapped(benchmark::State& state) {
  // An eavesdropper's raw tap forces the wire path: one exact-size encode
  // per publish into the reused per-topic scratch buffer.
  msg::PubSubBus bus;
  msg::Latest<msg::CarState> latest(bus);
  std::uint64_t byte_sum = 0;
  bus.subscribe_raw(msg::Topic::kCarState,
                    [&byte_sum](const msg::WireFrame& f) {
                      for (const std::uint8_t b : f.payload) byte_sum += b;
                    });
  msg::CarState m;
  m.speed = 25.0;
  m.cruise_enabled = true;
  for (auto _ : state) {
    ++m.mono_time;
    m.speed += 0.001;
    bus.publish(m);
    benchmark::DoNotOptimize(byte_sum);
  }
}
BENCHMARK(BM_BusPublishTapped);

void BM_BusPublishUnsubscribed(benchmark::State& state) {
  // No subscribers at all: publish still stamps the sequence (a mid-run
  // tap must see gap-free numbering) but does nothing else.
  msg::PubSubBus bus;
  msg::CarState m;
  for (auto _ : state) {
    ++m.mono_time;
    bus.publish(m);
    benchmark::DoNotOptimize(bus.published_count(msg::Topic::kCarState));
  }
}
BENCHMARK(BM_BusPublishUnsubscribed);

void BM_Kalman2D(benchmark::State& state) {
  adas::Kalman2D kf(6.0, 0.0625, 0.0144);
  kf.init(100.0, -10.0);
  double z = 100.0;
  for (auto _ : state) {
    z -= 0.1;
    kf.predict(0.01);
    kf.update(z, -10.0);
    benchmark::DoNotOptimize(kf.value());
  }
}
BENCHMARK(BM_Kalman2D);

// --- Polyline::project: the per-vehicle-per-tick geometry kernel ------------

const road::Road& micro_road() {
  static const road::Road road = road::RoadBuilder::paper_road();
  return road;
}

void BM_PolylineProjectHinted(benchmark::State& state) {
  const geom::Polyline& line = micro_road().reference();
  double s = 30.0;
  double hint = -1.0;
  for (auto _ : state) {
    s += 0.3;
    if (s > line.length() - 10.0) s = 30.0;
    const auto proj =
        line.project(line.position_at(s) + geom::Vec2{0.1, 1.2}, hint);
    hint = proj.s;
    benchmark::DoNotOptimize(proj);
  }
}
BENCHMARK(BM_PolylineProjectHinted);

void BM_PolylineProjectMany(benchmark::State& state) {
  const geom::Polyline& line = micro_road().reference();
  std::array<double, 4> s{30.0, 80.0, 130.0, 180.0};
  std::array<geom::Vec2, 4> points;
  std::array<double, 4> hints{-1.0, -1.0, -1.0, -1.0};
  std::array<geom::Polyline::Projection, 4> out;
  for (auto _ : state) {
    for (std::size_t l = 0; l < 4; ++l) {
      s[l] += 0.3;
      if (s[l] > line.length() - 10.0) s[l] = 30.0;
      points[l] = line.position_at(s[l]) + geom::Vec2{0.1, 1.2};
    }
    line.project_many(points, hints, out);
    for (std::size_t l = 0; l < 4; ++l) hints[l] = out[l].s;
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}
BENCHMARK(BM_PolylineProjectMany);

void BM_PolylineProjectFull(benchmark::State& state) {
  const geom::Polyline& line = micro_road().reference();
  const geom::Vec2 p = line.position_at(777.0) + geom::Vec2{0.3, -1.0};
  for (auto _ : state) {
    auto proj = line.project(p, -1.0);
    benchmark::DoNotOptimize(proj);
  }
}
BENCHMARK(BM_PolylineProjectFull);

void BM_PolylineProjectReference(benchmark::State& state) {
  const geom::Polyline& line = micro_road().reference();
  const geom::Vec2 p = line.position_at(777.0) + geom::Vec2{0.3, -1.0};
  for (auto _ : state) {
    auto proj = line.project_reference(p);
    benchmark::DoNotOptimize(proj);
  }
}
BENCHMARK(BM_PolylineProjectReference);

void BM_WorldStep(benchmark::State& state) {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.type = attack::AttackType::kAcceleration;
  item.seed = 5;
  sim::World world(exp::world_config_for(item));
  for (auto _ : state) {
    if (!world.step()) state.SkipWithError("simulation ended");
  }
}
BENCHMARK(BM_WorldStep);

// --- World lifecycle: construct vs reset, and batched stepping --------------

exp::CampaignItem micro_item(std::uint64_t seed) {
  exp::CampaignItem item;
  item.strategy = attack::StrategyKind::kContextAware;
  item.type = attack::AttackType::kAcceleration;
  item.seed = seed;
  return item;
}

void BM_WorldConstruct(benchmark::State& state) {
  const exp::WorldAssets assets = exp::WorldAssets::make_default();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    sim::World world(exp::world_config_for(micro_item(seed++), assets));
    benchmark::DoNotOptimize(world.time());
  }
}
BENCHMARK(BM_WorldConstruct)->Unit(benchmark::kMicrosecond);

void BM_WorldReset(benchmark::State& state) {
  // One resident World re-armed per simulation, allocation-free and
  // bit-identical to BM_WorldConstruct's result.
  const exp::WorldAssets assets = exp::WorldAssets::make_default();
  std::uint64_t seed = 1;
  sim::World world(exp::world_config_for(micro_item(seed++), assets));
  for (auto _ : state) {
    world.reset(exp::world_config_for(micro_item(seed++), assets));
    benchmark::DoNotOptimize(world.time());
  }
}
BENCHMARK(BM_WorldReset)->Unit(benchmark::kMicrosecond);

void BM_FullSimulation(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    exp::CampaignItem item;
    item.strategy = attack::StrategyKind::kContextAware;
    item.type = attack::AttackType::kSteeringRight;
    item.seed = seed++;
    sim::World world(exp::world_config_for(item));
    auto summary = world.run();
    benchmark::DoNotOptimize(summary);
  }
}
BENCHMARK(BM_FullSimulation)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
