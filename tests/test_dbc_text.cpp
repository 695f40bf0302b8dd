// Tests for the DBC text parser and the simulated car database built from
// its DBC text.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "can/database.hpp"
#include "can/dbc_text.hpp"

namespace {

using namespace scaa;

constexpr const char* kSample = R"(VERSION ""

BS_:

BU_: EON CAR

BO_ 228 STEERING_CONTROL: 5 EON
 SG_ STEER_ANGLE_CMD : 7|16@0- (0.01,0) [-327.68|327.67] "deg" CAR
 SG_ STEER_ENABLED : 23|1@0+ (1,0) [0|1] "" CAR

CM_ SG_ 228 STEER_ANGLE_CMD "road wheel angle request";

BO_ 506 GAS_BRAKE_COMMAND: 6 EON
 SG_ ACCEL_CMD : 7|16@0- (0.001,0) [-32.768|32.767] "m/s^2" CAR
)";

TEST(DbcText, ParsesMessagesAndSignals) {
  const auto messages = can::parse_dbc(kSample);
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].name, "STEERING_CONTROL");
  EXPECT_EQ(messages[0].id, 228u);
  EXPECT_EQ(messages[0].size, 5);
  ASSERT_EQ(messages[0].signals.size(), 2u);
  const auto& angle = messages[0].signals[0];
  EXPECT_EQ(angle.name(), "STEER_ANGLE_CMD");
  EXPECT_EQ(angle.start_bit(), 7);
  EXPECT_EQ(angle.size(), 16);
  EXPECT_EQ(angle.order(), can::ByteOrder::kBigEndian);
  EXPECT_TRUE(angle.is_signed());
  EXPECT_DOUBLE_EQ(angle.factor(), 0.01);
  EXPECT_EQ(messages[1].name, "GAS_BRAKE_COMMAND");
  EXPECT_EQ(messages[1].id, 506u);
}

TEST(DbcText, LittleEndianAndOffset) {
  const auto messages = can::parse_dbc(
      "BO_ 100 M: 8 X\n SG_ S : 4|12@1+ (0.5,10) [10|2057.5] \"\" Y\n");
  ASSERT_EQ(messages.size(), 1u);
  const auto& s = messages[0].signals.at(0);
  EXPECT_EQ(s.order(), can::ByteOrder::kLittleEndian);
  EXPECT_FALSE(s.is_signed());
  EXPECT_DOUBLE_EQ(s.offset(), 10.0);
}

TEST(DbcText, RejectsMalformedInput) {
  EXPECT_THROW(can::parse_dbc("BO_ nonsense\n"), std::invalid_argument);
  EXPECT_THROW(can::parse_dbc("SG_ ORPHAN : 0|8@1+ (1,0) [0|255] \"\" X\n"),
               std::invalid_argument);
  EXPECT_THROW(can::parse_dbc("BO_ 1 M: 99 X\n"), std::invalid_argument);
  EXPECT_THROW(
      can::parse_dbc("BO_ 1 M: 8 X\n SG_ S : 0|8@7+ (1,0) [0|1] \"\" Y\n"),
      std::invalid_argument);
  EXPECT_THROW(
      can::parse_dbc("BO_ 1 M: 8 X\n SG_ S : 0|8@1+ (0,0) [0|1] \"\" Y\n"),
      std::invalid_argument);
  // A start bit outside the 8-byte payload would make the codec shift by
  // a negative amount.
  EXPECT_THROW(
      can::parse_dbc("BO_ 1 M: 8 X\n SG_ S : 64|1@1+ (1,0) [0|1] \"\" Y\n"),
      std::invalid_argument);
  // A signal whose bits lie outside the DLC would be packed into bytes the
  // frame never carries: Intel bits 56..63 of a 2-byte message, and a
  // Motorola signal starting in byte 2 of one.
  EXPECT_THROW(
      can::parse_dbc("BO_ 16 M: 2 X\n SG_ S : 56|8@1+ (1,0) [0|255] \"\" Y\n"),
      std::invalid_argument);
  EXPECT_THROW(
      can::parse_dbc("BO_ 16 M: 2 X\n SG_ S : 23|8@0+ (1,0) [0|255] \"\" Y\n"),
      std::invalid_argument);
  // The last byte itself is fine in either byte order.
  EXPECT_NO_THROW(
      can::parse_dbc("BO_ 16 M: 2 X\n SG_ S : 8|8@1+ (1,0) [0|255] \"\" Y\n"));
  EXPECT_NO_THROW(
      can::parse_dbc("BO_ 16 M: 2 X\n SG_ S : 15|8@0+ (1,0) [0|255] \"\" Y\n"));
  try {
    can::parse_dbc("BO_ 1 M: 8 X\n SG_ S : -3|8@1+ (1,0) [0|1] \"\" Y\n");
    ADD_FAILURE() << "start bit -3 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(DbcText, IgnoresUnknownSections) {
  const auto messages = can::parse_dbc(
      "VERSION \"x\"\nNS_ :\n  CM_\nBA_DEF_ \"z\" INT 0 1;\n"
      "BO_ 5 M: 2 X\n SG_ S : 7|8@0+ (1,0) [0|255] \"\" Y\n"
      "VAL_ 5 S 0 \"off\" 1 \"on\";\n");
  EXPECT_EQ(messages.size(), 1u);
}

TEST(DbcText, SimulatedCarConstantsMatchItsText) {
  // The wire constants every codec call site uses name what the committed
  // DBC text declares; the checksum kind is the one thing the text cannot
  // say, so simulated_car() sets it on every message.
  const auto db = can::Database::simulated_car();
  const std::pair<const char*, std::uint32_t> ids[] = {
      {"STEERING_CONTROL", can::msg_id::kSteeringControl},
      {"GAS_BRAKE_COMMAND", can::msg_id::kGasBrakeCommand},
      {"SPEED", can::msg_id::kSpeed},
      {"STEER_ANGLE_SENSOR", can::msg_id::kSteerAngleSensor},
      {"ACC_HUD", can::msg_id::kAccHud},
  };
  ASSERT_EQ(db.messages().size(), std::size(ids));
  for (const auto& [name, id] : ids) {
    const can::DbcMessage* m = db.by_name(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->id, id) << name;
  }
  const std::pair<const char*, const char*> signals[] = {
      {"STEERING_CONTROL", can::sig::kSteerAngleCmd},
      {"STEERING_CONTROL", can::sig::kSteerEnabled},
      {"GAS_BRAKE_COMMAND", can::sig::kAccelCmd},
      {"GAS_BRAKE_COMMAND", can::sig::kBrakeRequest},
      {"SPEED", can::sig::kSpeed},
      {"STEER_ANGLE_SENSOR", can::sig::kSteerAngle},
      {"ACC_HUD", can::sig::kFcw},
  };
  std::size_t signal_count = 0;
  for (const auto& m : db.messages()) {
    EXPECT_EQ(m.checksum, can::ChecksumKind::kHonda) << m.name;
    signal_count += m.signals.size();
  }
  EXPECT_EQ(signal_count, std::size(signals));
  for (const auto& [message, signal] : signals)
    EXPECT_NO_THROW(db.signal_handle(message, signal))
        << message << "." << signal;
}

}  // namespace
