#include "can/dbc_text.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace scaa::can {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::invalid_argument("parse_dbc: line " + std::to_string(line_no) +
                              ": " + why);
}

std::string trimmed(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

std::vector<DbcMessage> parse_dbc(const std::string& text) {
  std::vector<DbcMessage> messages;
  std::istringstream stream(text);
  std::string raw;
  std::size_t line_no = 0;

  while (std::getline(stream, raw)) {
    ++line_no;
    const std::string line = trimmed(raw);
    if (line.empty()) continue;

    if (line.rfind("BO_ ", 0) == 0) {
      unsigned long id = 0;
      char name[128] = {0};
      unsigned size = 0;
      // BO_ 228 STEERING_CONTROL: 5 EON
      if (std::sscanf(line.c_str(), "BO_ %lu %127[^:]: %u", &id, name,
                      &size) != 3)
        fail(line_no, "malformed BO_ line");
      DbcMessage m;
      m.id = static_cast<std::uint32_t>(id);
      m.name = trimmed(name);
      if (size == 0 || size > 8) fail(line_no, "message size must be 1..8");
      m.size = static_cast<std::uint8_t>(size);
      messages.push_back(std::move(m));
      continue;
    }

    if (line.rfind("SG_ ", 0) == 0) {
      if (messages.empty()) fail(line_no, "SG_ before any BO_");
      char name[128] = {0};
      int start = 0, len = 0, endian = 0;
      char sign = '+';
      double factor = 1.0, offset = 0.0;
      // SG_ STEER_ANGLE_CMD : 7|16@0- (0.01,0) [-327|327] "deg" XXX
      if (std::sscanf(line.c_str(),
                      "SG_ %127s : %d|%d@%d%c (%lf,%lf)", name, &start,
                      &len, &endian, &sign, &factor, &offset) != 7)
        fail(line_no, "malformed SG_ line");
      if (endian != 0 && endian != 1) fail(line_no, "endianness must be 0/1");
      if (sign != '+' && sign != '-') fail(line_no, "sign must be + or -");
      DbcSignal sig = [&] {
        try {
          return DbcSignal(name, start, len,
                           endian == 1 ? ByteOrder::kLittleEndian
                                       : ByteOrder::kBigEndian,
                           sign == '-', factor, offset);
        } catch (const std::invalid_argument& e) {
          fail(line_no, e.what());
        }
      }();
      // The signal's last bit must lie inside the message's DLC bytes.
      if (sig.min_dlc() > messages.back().size)
        fail(line_no, "signal runs past the message's " +
                          std::to_string(messages.back().size) + " bytes");
      messages.back().signals.push_back(std::move(sig));
      continue;
    }

    // Everything else (VERSION, NS_, BS_, BU_, CM_, BA_*, VAL_...) is
    // ignored, as real tooling does for unknown sections.
  }
  return messages;
}

}  // namespace scaa::can
