// Unit tests for scaa::vehicle (longitudinal, lateral, integration).

#include <gtest/gtest.h>

#include <cmath>

#include "road/builder.hpp"
#include "vehicle/vehicle.hpp"

namespace {

using namespace scaa;

vehicle::VehicleParams params() { return vehicle::VehicleParams{}; }

/// One 10 ms step as the World runs it: integrate, then refresh Frenet.
void step(vehicle::Vehicle& car, const vehicle::ActuatorCommand& cmd) {
  car.integrate(cmd, 0.01);
  car.refresh_frenet();
}

TEST(Longitudinal, AcceleratesTowardCommand) {
  vehicle::LongitudinalDynamics dyn(params());
  dyn.reset(20.0);
  for (int i = 0; i < 300; ++i) dyn.step(2.0, 0.01);  // 3 s at +2
  // After several time constants the realized accel approaches the command.
  EXPECT_NEAR(dyn.accel(), 2.0, 0.1);
  EXPECT_GT(dyn.speed(), 24.0);
}

TEST(Longitudinal, BrakesAndStops) {
  vehicle::LongitudinalDynamics dyn(params());
  dyn.reset(5.0);
  for (int i = 0; i < 1000; ++i) dyn.step(-4.0, 0.01);
  EXPECT_DOUBLE_EQ(dyn.speed(), 0.0);  // no reverse
}

TEST(Longitudinal, CommandClippedToCapability) {
  vehicle::VehicleParams p = params();
  p.max_engine_accel = 3.0;
  vehicle::LongitudinalDynamics dyn(p);
  dyn.reset(10.0);
  for (int i = 0; i < 200; ++i) dyn.step(50.0, 0.01);
  EXPECT_LE(dyn.accel(), 3.0 + 1e-9);
}

TEST(Longitudinal, CoastingDeceleratesFromDrag) {
  vehicle::LongitudinalDynamics dyn(params());
  dyn.reset(30.0);
  for (int i = 0; i < 100; ++i) dyn.step(0.0, 0.01);
  EXPECT_LT(dyn.speed(), 30.0);  // drag + rolling resistance bite
}

TEST(Lateral, TracksCommandThroughLag) {
  vehicle::LateralDynamics lat(params());
  for (int i = 0; i < 200; ++i) lat.step(0.01, 0.01);
  EXPECT_NEAR(lat.steer_angle(), 0.01, 1e-3);
}

TEST(Lateral, SlewRateLimited) {
  vehicle::VehicleParams p = params();
  p.max_steer_rate = 0.1;  // rad/s
  p.steer_time_constant = 1e-6;  // isolate the slew limit
  vehicle::LateralDynamics lat(p);
  lat.step(1.0, 0.01);
  EXPECT_NEAR(lat.steer_angle(), 0.001, 1e-9);  // 0.1 rad/s * 0.01 s
}

TEST(Lateral, AngleClipped) {
  vehicle::VehicleParams p = params();
  p.max_steer_angle = 0.2;
  vehicle::LateralDynamics lat(p);
  for (int i = 0; i < 2000; ++i) lat.step(1.0, 0.01);
  EXPECT_LE(std::abs(lat.steer_angle()), 0.2 + 1e-9);
}

TEST(Lateral, YawRateKinematics) {
  vehicle::LateralDynamics lat(params());
  for (int i = 0; i < 500; ++i) lat.step(0.02, 0.01);
  const double expected = 20.0 / params().wheelbase * std::tan(lat.steer_angle());
  EXPECT_NEAR(lat.yaw_rate(20.0), expected, 1e-12);
}

TEST(Vehicle, DrivesStraightAtConstantSpeed) {
  const auto road = road::RoadBuilder::paper_road();
  vehicle::Vehicle car(road, params(), 30.0, -1.85, 20.0);
  for (int i = 0; i < 500; ++i) step(car, {0.35, 0.0});  // hold ~speed
  // On the straight lead-in the lateral offset holds.
  EXPECT_NEAR(car.state().d, -1.85, 0.01);
  EXPECT_GT(car.state().s, 120.0);
}

TEST(Vehicle, SteeringMovesLeft) {
  const auto road = road::RoadBuilder::paper_road();
  vehicle::Vehicle car(road, params(), 30.0, -1.85, 20.0);
  for (int i = 0; i < 150; ++i) step(car, {0.35, 0.01});  // steer left
  EXPECT_GT(car.state().d, -1.80);
}

TEST(Vehicle, SteeringMovesRight) {
  const auto road = road::RoadBuilder::paper_road();
  vehicle::Vehicle car(road, params(), 30.0, -1.85, 20.0);
  for (int i = 0; i < 150; ++i) step(car, {0.35, -0.01});
  EXPECT_LT(car.state().d, -1.90);
}

TEST(Vehicle, BumperGap) {
  const auto road = road::RoadBuilder::paper_road();
  const auto p = params();
  vehicle::Vehicle follower(road, p, 30.0, -1.85, 20.0);
  vehicle::Vehicle lead(road, p, 130.0 + p.length, -1.85, 20.0);
  EXPECT_NEAR(vehicle::bumper_gap(follower.state(), p, lead.state(), p), 100.0,
              1e-6);
}

TEST(Vehicle, EnergyConsistency) {
  // Distance covered at constant commanded accel ~ matches kinematics.
  const auto road = road::RoadBuilder::paper_road();
  vehicle::Vehicle car(road, params(), 30.0, -1.85, 10.0);
  const double s0 = car.state().s;
  for (int i = 0; i < 500; ++i) step(car, {1.0, 0.0});  // 5 s
  const double ds = car.state().s - s0;
  // v0*t + 0.5*a_eff*t^2 with a_eff <= 1.0 (lag); bounded sanity window.
  EXPECT_GT(ds, 10.0 * 5.0);
  EXPECT_LT(ds, 10.0 * 5.0 + 0.5 * 1.0 * 25.0 + 1.0);
}

}  // namespace
